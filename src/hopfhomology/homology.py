"""Ext and Tor over U from a resolution with recorded free generators.

A resolution object must provide rank(n), diff_cols(n) (columns of the
generator-level differential, entries are coefficients in U in whatever
representation the carrier uses), act_left(entry, M) / act_right(entry,
N) returning action matrices, and max_degree.  Both the bar resolution
and the Koszul-type resolution of a universal envelope satisfy this.

Ext^n(A, M) is the cohomology of M^{rank(0)} -> M^{rank(1)} -> ..,
Tor_n(N, A) the homology of .. -> N^{rank(1)} -> N^{rank(0)}.  Classes
always carry explicit representatives in generator coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import HomologySpace, homology_dims
from .errors import LiftFailedError, WindowExceededError
from .linalg import Matrix, sparse_add, sparse_columns


def cochain_matrix(res, M, n) -> Matrix:
    """delta^n : Hom(P_n, M) -> Hom(P_{n+1}, M) on generator coordinates."""
    return Matrix.from_sparse_rows(cochain_rows_sparse(res, M, n), res.rank(n) * M.dim)


def cochain_rows_sparse(res, M, n):
    """Rows of delta^n as sparse dicts (rank computations at scale)."""
    dm = M.dim
    rows = [dict() for _ in range(res.rank(n + 1) * dm)]
    for k, col in enumerate(res.diff_cols(n + 1)):
        for j, entry in col.items():
            act = res.act_left(entry, M)
            for a in range(dm):
                arow = act.rows[a]
                target = rows[k * dm + a]
                for b in range(dm):
                    if arow[b]:
                        sparse_add(target, j * dm + b, arow[b])
    return rows


def chain_matrix(res, N, n) -> Matrix:
    """boundary_n : N^{rank(n)} -> N^{rank(n-1)} on generator coordinates."""
    return Matrix.from_sparse_rows(chain_rows_sparse(res, N, n), res.rank(n) * N.dim)


def chain_rows_sparse(res, N, n):
    dn = N.dim
    rows = [dict() for _ in range(res.rank(n - 1) * dn)]
    for k, col in enumerate(res.diff_cols(n)):
        for j, entry in col.items():
            act = res.act_right(entry, N)
            for a in range(dn):
                arow = act.rows[a]
                target = rows[j * dn + a]
                for b in range(dn):
                    if arow[b]:
                        sparse_add(target, k * dn + b, arow[b])
    return rows


def _check_window(res, n, group):
    if n < 0 or n > res.max_degree - 1:
        raise WindowExceededError(
            f"{group} degree {n} outside certified window 0..{res.max_degree - 1}"
        )


@dataclass
class CohomologyClass:
    degree: int
    vector: tuple
    resolution: object
    module: object

    def __eq__(self, other):
        return (
            isinstance(other, CohomologyClass)
            and self.degree == other.degree
            and self.vector == other.vector
        )


@dataclass
class HomologyClass:
    degree: int
    vector: tuple
    resolution: object
    module: object


class ExtGroup:
    """Ext^n with a canonical class basis and decomposition queries."""

    def __init__(self, res, M, n):
        _check_window(res, n, "Ext")
        self.res = res
        self.module = M
        self.degree = n
        d_in = cochain_rows_sparse(res, M, n - 1) if n >= 1 else []
        self.space = HomologySpace(res.rank(n) * M.dim, cochain_rows_sparse(res, M, n), d_in)

    @property
    def dim(self):
        return self.space.dim

    def class_of(self, cochain):
        """Canonical class coordinates of a cocycle."""
        return self.space.class_of(list(cochain))

    def basis_cocycles(self):
        return self.space.representatives()

    def classes(self):
        return [
            CohomologyClass(self.degree, tuple(v), self.res, self.module)
            for v in self.basis_cocycles()
        ]

    def is_coboundary(self, cochain):
        return self.space.is_boundary(list(cochain))


class TorGroup:
    """Tor_n with a canonical class basis."""

    def __init__(self, res, N, n):
        _check_window(res, n, "Tor")
        self.res = res
        self.module = N
        self.degree = n
        d_out = chain_rows_sparse(res, N, n) if n >= 1 else []
        self.space = HomologySpace(res.rank(n) * N.dim, d_out, chain_rows_sparse(res, N, n + 1))

    @property
    def dim(self):
        return self.space.dim

    def class_of(self, cycle):
        return self.space.class_of(list(cycle))

    def basis_cycles(self):
        return self.space.representatives()

    def classes(self):
        return [
            HomologyClass(self.degree, tuple(v), self.res, self.module)
            for v in self.basis_cycles()
        ]


def ext(res, M, n) -> ExtGroup:
    return ExtGroup(res, M, n)


def tor(res, N, n) -> TorGroup:
    return TorGroup(res, N, n)


def ext_dims(res, M, upto):
    """Ext dimensions for degrees 0..upto, one sparse rank per coboundary.

    A window error names the lowest degree outside the window.
    """
    _check_window(res, min(upto, res.max_degree), "Ext")
    dims = [res.rank(n) * M.dim for n in range(upto + 2)]
    return homology_dims(dims, [cochain_rows_sparse(res, M, n) for n in range(upto + 1)])[:-1]


def tor_dims(res, N, upto):
    """Tor dimensions for degrees 0..upto, one sparse rank per boundary.

    Each boundary enters transposed: its columns, the boundaries of
    single generators, are sparse where its rows are not.
    """
    _check_window(res, min(upto, res.max_degree), "Tor")
    dims = [res.rank(n) * N.dim for n in range(upto + 2)]
    maps = []
    for n in range(1, upto + 2):
        cols = sparse_columns(chain_rows_sparse(res, N, n))
        maps.append([cols.get(j, {}) for j in range(dims[n])])
    return homology_dims(dims, maps)[:-1]


# ---------------------------------------------------------------------------
# evaluation of generator cochains on concrete vectors, and comparison
# of resolutions


def cochain_concrete_matrix(bar, M, n, psi) -> Matrix:
    """The U-linear map P_n -> M determined by generator values psi.

    psi has length rank(n) * dim(M); the result acts on the concrete
    word basis of the bar term.
    """
    dm = M.dim
    words = bar.words(n)
    cols = []
    for w in words:
        g = bar._gen_index[n][w[1:]]
        val = [psi[g * dm + a] for a in range(dm)]
        cols.append(M.action[w[0]].apply(val))
    return Matrix.from_cols(cols, nrows=dm)


def pull_cochain(src_bar, dst_bar, M, n, psi, chain_map_n) -> list:
    """Pull a generator cochain on dst back to src along a chain map."""
    dm = M.dim
    ev = cochain_concrete_matrix(dst_bar, M, n, psi)
    comp = ev @ chain_map_n
    out = []
    for g in src_bar.generators(n):
        gv = src_bar.generator_vector(n, g)
        out.extend(comp.apply(gv))
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


def resolution_independence(p, q, M, n, lift_forward=None, lift_backward=None) -> ExtIsomorphism:
    """Ext computed from p and from q agree through explicit lifts.

    p and q are bar resolutions of the same base data; the lifts are
    produced with the target contraction when not supplied.  Returns
    the induced maps on class bases and checks them mutually inverse.
    """
    from .resolutions import lift_to_bar

    if lift_forward is None:
        lift_forward = lift_to_bar(p, q, n + 1)
    if lift_backward is None:
        lift_backward = lift_to_bar(q, p, n + 1)
    ep = ext(p, M, n)
    eq = ext(q, M, n)
    if ep.dim != eq.dim:
        raise LiftFailedError("Ext dimensions disagree between resolutions")
    fwd_cols = []
    for v in eq.basis_cocycles():
        pulled = pull_cochain(p, q, M, n, v, lift_forward[n])
        fwd_cols.append(ep.class_of(pulled))
    bwd_cols = []
    for v in ep.basis_cocycles():
        pulled = pull_cochain(q, p, M, n, v, lift_backward[n])
        bwd_cols.append(eq.class_of(pulled))
    fwd = Matrix.from_cols(fwd_cols, nrows=ep.dim)
    bwd = Matrix.from_cols(bwd_cols, nrows=eq.dim)
    iso = ExtIsomorphism(fwd, bwd)
    if ep.dim and not (fwd @ bwd) == Matrix.identity(ep.dim):
        raise LiftFailedError("comparison maps are not mutually inverse on Ext")
    return iso
