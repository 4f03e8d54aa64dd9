"""Ext and Tor over U from a resolution with recorded free generators.

A resolution object provides rank(n), generators(n) and gen_index(n,
generator), diff_cols(n) (columns of the generator-level differential,
entries are coefficients in U in whatever representation the carrier
uses), act_left(entry, M) returning the action matrix of an entry on
a module of either side, and max_degree.  For products it also
provides diagonal(K, i), the P_i (x) P_(n-i) part of a diagonal on the
generator K as {(front word, back word): coeff} with each word (basis
key,) + generator, act_basis(key, M), the action matrix of a basis
key, and lift(src, m, values, top), the chain maps over the base
values of a degree m class.
As the target of a lifted chain map it provides times(u, v), a
coefficient of the source differential times one of its own, as
{basis key: coeff}, and contract(j, words), a preimage under d_j of a
cycle given as {word: coeff}, as {generator: coefficient}.  The bar
resolution over a finite dimensional U and the Koszul resolution of a
universal envelope provide all of this; the degree-truncated bar model
of U(g) all but diagonal and act_basis.

Ext^n(A, M) is the cohomology of M^{rank(0)} -> M^{rank(1)} -> ..,
Tor_n(N, A) the homology of .. -> N^{rank(1)} -> N^{rank(0)}.  One
builder, cochain_cols, writes the blocks of both and reads them by the
module's side: for a right module the two module indices swap, so the
columns it writes are the rows of the Tor boundary.  Both groups are a
HomologySpace, whose classes carry explicit representatives in
generator coordinates.
"""

from __future__ import annotations

from .complexes import HomologySpace, homology_dims
from .errors import LiftFailedError, ValidationError, WindowExceededError
from .linalg import Matrix, add_outer, sparse_add, sparse_columns, zero_vec


def cochain_matrix(res, M, n) -> Matrix:
    """delta^n : Hom(P_n, M) -> Hom(P_{n+1}, M) on generator coordinates."""
    return Matrix.from_sparse_cols(cochain_cols(res, M, n), res.rank(n + 1) * M.dim)


def chain_matrix(res, N, n) -> Matrix:
    """boundary_n : N^{rank(n)} -> N^{rank(n-1)} on generator coordinates."""
    return cochain_matrix(res, N, n - 1).transpose()


def cochain_cols(res, M, n):
    """Sparse columns of the map between the blocks of generators n and n + 1.

    One dict per coordinate of M^{rank(n)}; no two blocks overlap.  For
    a left module they are the columns of delta^n : Hom(P_n, M) ->
    Hom(P_(n+1), M).  For a right module the two module indices swap,
    and they are the rows of the Tor boundary M (x) P_(n+1) -> M (x) P_n.
    """
    dm = M.dim
    right = M.side == "right"
    cols = [dict() for _ in range(res.rank(n) * dm)]
    for k, col in enumerate(res.diff_cols(n + 1)):
        for j, entry in col.items():
            for a, row in enumerate(res.act_left(entry, M).rows):
                for b, c in enumerate(row):
                    if c:
                        if right:
                            cols[j * dm + a][k * dm + b] = c
                        else:
                            cols[j * dm + b][k * dm + a] = c
    return cols


def _check(res, M, n, side):
    group = "Ext" if side == "left" else "Tor"
    if M.side != side:
        raise ValidationError(f"{group} takes a {side} module, not a {M.side} one")
    if n < 0 or n >= res.max_degree:
        window = f"0..{res.max_degree - 1}" if res.max_degree else "(empty: no degree is certified)"
        raise WindowExceededError(f"{group} degree {n} outside certified window {window}")


def _space(res, M, n, side) -> HomologySpace:
    """Degree n of Ext (a left M) or Tor (a right M), classes with representatives.

    Ext leaves by the rows of the blocks n -> n + 1 and is reached by
    the columns of n - 1 -> n; Tor's boundaries run against the blocks,
    so it leaves by the columns of n - 1 -> n and is reached by the rows
    of n -> n + 1.
    """
    _check(res, M, n, side)
    rows = sparse_columns(cochain_cols(res, M, n)).values()
    cols = cochain_cols(res, M, n - 1) if n >= 1 else []
    if side == "right":
        rows, cols = cols, rows
    return HomologySpace(res.rank(n) * M.dim, rows, cols)


def ext(res, M, n) -> HomologySpace:
    """Ext^n(A, M) of a left module M, as classes of generator cochains."""
    return _space(res, M, n, "left")


def tor(res, N, n) -> HomologySpace:
    """Tor_n(N, A) of a right module N, as classes of generator chains."""
    return _space(res, N, n, "right")


def _dims(res, M, upto, side):
    """Dimensions for degrees 0..upto, one sparse rank per map between blocks.

    Tor is ranked on the transposed complex, whose columns are the rows
    of each boundary.  A window error names the lowest degree outside
    the window.
    """
    _check(res, M, min(upto, res.max_degree), side)
    dims = [res.rank(n) * M.dim for n in range(upto + 2)]
    return homology_dims(dims, (cochain_cols(res, M, n) for n in range(upto + 1)))[:-1]


def ext_dims(res, M, upto):
    """Ext dimensions of a left module for degrees 0..upto."""
    return _dims(res, M, upto, "left")


def tor_dims(res, N, upto):
    """Tor dimensions of a right module for degrees 0..upto."""
    return _dims(res, N, upto, "right")


# ---------------------------------------------------------------------------
# products: cup and cap through the diagonal, composition and evaluation
# along lifted chain maps, and comparison of resolutions
#
# A lifted map is a list over degrees j of {source generator: {generator
# K of res_j: coefficient}}, with the source generators in resolution
# order and each coefficient in res's own form for act_left.


def lift(src, dst, m, bottom, top) -> list:
    """Chain maps f_j : src_(m+j) -> dst_j for j = 0 .. top over f_0 = bottom.

    f_j(G) = (-1)^m dst.contract(j, sum_i u_i . f_(j-1)(G_i)) over the
    column {i: u_i} of d G, so d f_j = (-1)^m f_(j-1) d.
    """
    sign = -1 if m % 2 else 1
    lifts = [bottom]
    for j in range(1, top + 1):
        prev = list(lifts[-1].values())
        lifts.append({
            G: dst.contract(j, lifted_boundary(dst, col, prev, sign))
            for G, col in zip(src.generators(m + j), src.diff_cols(m + j))
        })
    return lifts


def lifted_boundary(dst, col, prev, sign) -> dict:
    """sign * sum_i u_i . prev[i] over a differential column {i: u_i}, as {word: coeff}."""
    out = {}
    for i, u in col.items():
        for K, v in prev[i].items():
            for p, c in dst.times(u, v).items():
                sparse_add(out, (p,) + K, sign * c)
    return out


def pull_cochain(res, lifts, n, psi, M) -> list:
    """psi o f_n: a generator cochain on res_n pulled back along lifts."""
    dm = M.dim
    out = []
    for img in lifts[n].values() if n < len(lifts) else ():
        acc = zero_vec(dm)
        for K, u in img.items():
            gi = res.gen_index(n, K)
            for a, c in enumerate(res.act_left(u, M).apply(psi[gi * dm : (gi + 1) * dm])):
                acc[a] += c
        out.extend(acc)
    return out


def push_chain(res, lifts, j, z, N) -> list:
    """z . f_j: a generator chain of N over the source pushed into N (x)_U res_j."""
    dn = N.dim
    out = zero_vec(res.rank(j) * dn)
    for k, img in enumerate(lifts[j].values() if j < len(lifts) else ()):
        zk = z[k * dn : (k + 1) * dn]
        for K, u in img.items():
            base = res.gen_index(j, K) * dn
            for a, c in enumerate(res.act_left(u, N).apply(zk)):
                if c:
                    out[base + a] += c
    return out


def _value(res, n, cochain, w, M):
    """A degree n generator cochain read on the word w = (basis key,) + generator."""
    gi = res.gen_index(n, w[1:])
    return res.act_basis(w[0], M).apply(cochain[gi * M.dim : (gi + 1) * M.dim])


def cup_cochain(res, m, n, phi, psi, M, N, project) -> list:
    """(phi (x) psi) o diagonal on the generators of res_(m+n).

    project takes M (x) N pair coordinates to those of the tensor module.
    """
    out = []
    for K in res.generators(m + n):
        acc = zero_vec(M.dim * N.dim)
        for (x, y), c in res.diagonal(K, m).items():
            add_outer(acc, c, _value(res, m, phi, x, M), _value(res, n, psi, y, N))
        out.extend(project(acc))
    return out


def cap_chain(res, m, phi, z, n, M, N, T, project) -> list:
    """phi cap z: a chain of N over res_n to one of T over res_(n-m).

    phi is read on the back leg of the diagonal and the front leg acts
    on the projected pair; T is the tensor module of M and N, project
    takes M (x) N pair coordinates to its coordinates.
    """
    i = n - m
    # moving the degree m cochain past the degree n - m front leg
    koszul = -1 if (i * m) % 2 else 1
    dn = N.dim
    out = zero_vec(res.rank(i) * T.dim)
    for k, K in enumerate(res.generators(n)):
        zk = z[k * dn : (k + 1) * dn]
        pairs = {}
        for (x, y), c in res.diagonal(K, i).items():
            pair = pairs.setdefault(x, zero_vec(M.dim * dn))
            add_outer(pair, koszul * c, _value(res, m, phi, y, M), zk)
        for x, pair in pairs.items():
            base = res.gen_index(i, x[1:]) * T.dim
            for t, d in enumerate(res.act_basis(x[0], T).apply(project(pair))):
                out[base + t] += d
    return out


class ExtIsomorphism:
    """Induced isomorphism on Ext along a comparison of resolutions."""

    def __init__(self, forward: Matrix, backward: Matrix):
        self.forward = forward
        self.backward = backward

    @property
    def bijective(self):
        return (
            self.forward.nrows == self.forward.ncols
            and self.forward.rank() == self.forward.nrows
        )


def resolution_independence(p, q, M, n) -> ExtIsomorphism:
    """Ext computed from p and from q agree through explicit lifts.

    p and q are bar resolutions of the same base data; each comparison
    is lifted over the counit with the target contraction.  Returns the
    induced maps on class bases and checks them mutually inverse.
    """
    ep = ext(p, M, n)
    eq = ext(q, M, n)
    if ep.dim != eq.dim:
        raise LiftFailedError("Ext dimensions disagree between resolutions")

    def induced(src, dst, e_src, e_dst):
        lifts = dst.lift(src, 0, [src.data.counit(src.U.unit)], n)
        cols = [e_src.class_of(pull_cochain(dst, lifts, n, v, M)) for v in e_dst.representatives()]
        return Matrix.from_cols(cols, nrows=e_src.dim)

    fwd = induced(p, q, ep, eq)
    bwd = induced(q, p, eq, ep)
    if ep.dim and not (fwd @ bwd) == Matrix.identity(ep.dim):
        raise LiftFailedError("comparison maps are not mutually inverse on Ext")
    return ExtIsomorphism(fwd, bwd)
