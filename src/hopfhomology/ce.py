"""The Koszul-type free resolution of the trivial module over U(g).

Terms are U(g) (x) Lambda^n g, free left modules of rank C(d, n) on
wedge generators; the differential is the classical one

    d e_I = sum_l (-1)^l x_{i_l} e_{I - i_l}
          + sum_{p<q} (-1)^{p+q} e_{[x_p, x_q] ^ rest},

with d d = 0 verified as an exact PBW identity on every generator.
The comultiplication P -> Tot(P (x) P) is the subset-splitting map with
unshuffle signs; it is checked to be a chain map against the diagonal
U(g)-action (primitives act by Leibniz), so cup and cap products over
U(g) evaluate in closed form.  contract inverts d on cycles exactly: the
Koszul homotopy of S(g) (x) Lambda g, corrected by the perturbation
lemma (Brown 1965; Crainic, arXiv:math/0403266), so chain maps lift
into the resolution through homology.lift with no linear solve.

The same file holds the degree-truncated bar model of U(g): generators
are tuples of PBW monomials of bounded total degree, and its
differential is b' on them.  Multiplication never raises PBW degree, so
the cochains on these tuples are an honest quotient complex, which the
Ext builder of homology reads as it reads any resolution; it certifies
Ext in degrees below the bound used, which is its max_degree, so a read
at or past the bound raises WindowExceededError.  It lifts classes with
the Koszul resolution's lift, and ce_vs_bar_ext compares the two.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import LiftFailedError, ValidationError, WindowExceededError
from .homology import _check, cochain_matrix, ext, lift, lifted_boundary, pull_cochain
from .linalg import Matrix, _sparse, frac, memoized, sparse_add, sparse_axpy, sparse_extend, sparse_rank
from .pbw import (
    LieAlgebraData,
    LieModule,
    delta_elt,
    mono_deg,
    mono_mul,
    mono_one,
    monomials_upto,
    pbw_multiply,
)


def _insert_sign(z, rest):
    """Sign of moving z from the front into its sorted slot of rest."""
    pos = sum(1 for x in rest if x < z)
    return -1 if pos % 2 else 1, tuple(sorted(rest + (z,)))


class CEResolution:
    """Finite free resolution of the trivial U(g)-module.

    Implements the generator interface consumed by the Ext and Tor
    machinery: entries of diff_cols are PBW element dicts, actions are
    taken through LieModule.
    """

    def __init__(self, g: LieAlgebraData, validate=True):
        self.g = g
        self.dimension = g.dim
        self.max_degree = 10 ** 9  # complete resolution: every degree certified
        self._gens = {
            n: list(combinations(range(g.dim), n)) for n in range(g.dim + 1)
        }
        self._gen_index = {
            n: {s: k for k, s in enumerate(self._gens[n])} for n in range(g.dim + 1)
        }
        if validate:
            self._check_square_zero()

    def rank(self, n):
        if 0 <= n <= self.g.dim:
            return comb(self.g.dim, n)
        return 0

    def generators(self, n):
        return self._gens.get(n, [])

    def gen_index(self, n, s):
        return self._gen_index[n][s]

    @memoized
    def diff_cols(self, n):
        """Columns of d_n : P_n -> P_{n-1}; entries are PBW dicts."""
        if not (1 <= n <= self.g.dim):
            return []
        g = self.g
        cols = []
        for I in self._gens[n]:
            col = {}
            for l, xi in enumerate(I):
                rest = I[:l] + I[l + 1 :]
                sign = -1 if l % 2 else 1
                k = self._gen_index[n - 1][rest]
                gen_mono = tuple(1 if t == xi else 0 for t in range(g.dim))
                entry = col.setdefault(k, {})
                sparse_add(entry, gen_mono, sign)
            for p in range(n):
                for q in range(p + 1, n):
                    rest = tuple(x for t, x in enumerate(I) if t not in (p, q))
                    base_sign = -1 if (p + q) % 2 else 1
                    for z, c in enumerate(g.bracket[I[p]][I[q]]):
                        if not c or z in rest:
                            continue
                        ins, merged = _insert_sign(z, rest)
                        k = self._gen_index[n - 1][merged]
                        entry = col.setdefault(k, {})
                        sparse_add(entry, mono_one(g.dim), base_sign * c * ins)
            cols.append({k: e for k, e in col.items() if e})
        return cols

    def act_left(self, entry, M: LieModule):
        return M.act(entry)

    def act_basis(self, m, M: LieModule):
        return M.act_mono(m)

    def times(self, u, v):
        return pbw_multiply(self.g, u, v)

    def contract(self, j, words):
        """A preimage under d_j of the cycle words, by the Koszul contraction.

        x^a e_J has weight |a| + |J|, which d keeps or lowers; the part
        that keeps it has the homotopy h0(x^a e_J) = (1/w) sum_i a_i
        x^(a - e_i) e_i ^ e_J.  h0 of the top-weight part of a cycle,
        minus its boundary, leaves a cycle of lower weight (the
        perturbation lemma), so one pass down the PBW degrees leaves 0.
        """
        g = self.g
        cycle, out = dict(words), {}
        for deg in range(max((mono_deg(w[0]) for w in cycle), default=0), 0, -1):
            step = {}
            for (a, *rest), c in [(w, c) for w, c in cycle.items() if mono_deg(w[0]) == deg]:
                for i, ai in enumerate(a):
                    if ai and i not in rest:
                        sign, J = _insert_sign(i, tuple(rest))
                        c2 = frac(Fraction(sign * ai * c, deg + j - 1))
                        sparse_add(step.setdefault(J, {}), a[:i] + (ai - 1,) + a[i + 1 :], c2)
            for J, e in step.items():
                for k, entry in self.diff_cols(j)[self.gen_index(j, J)].items():
                    for mono, c in pbw_multiply(g, e, entry).items():
                        sparse_add(cycle, (mono,) + self._gens[j - 1][k], -c)
                sparse_axpy(out.setdefault(J, {}), 1, e)
        return {J: e for J, e in out.items() if e}

    def lift(self, src, m, values, top):
        """Chain maps f_j : src_(m+j) -> P_j for j = 0 .. top, over values.

        values[k] holds the ground-field value of the k-th generator of
        src_m; f_0 sends that generator to its value times 1, and
        homology.lift builds the rest through contract.  Each f_j maps a
        generator of src to {generator of P_j: PBW dict}.
        """
        unit = mono_one(self.g.dim)
        bottom = {G: {(): {unit: a[0]}} for G, a in zip(src.generators(m), values)}
        return lift(src, self, m, bottom, top)

    def _check_square_zero(self):
        for n in range(2, self.g.dim + 1):
            outer = [{(i2,): entry for i2, entry in col.items()} for col in self.diff_cols(n - 1)]
            for j, col in enumerate(self.diff_cols(n)):
                if lifted_boundary(self, col, outer, 1):
                    raise ValidationError(f"d d != 0 at degree {n}, generator {j}")

    # -- the subset-splitting comultiplication ---------------------------

    def diagonal(self, K, i):
        """The P_i (x) P_(n-i) part of the comultiplication on e_K.

        A sparse dict {(front word, back word): unshuffle sign}; each
        word is (unit monomial,) + an ordered subset of K, and the two
        subsets partition K.
        """
        unit = mono_one(self.g.dim)
        out = {}
        for pos in combinations(range(len(K)), i):
            rest = [t for t in range(len(K)) if t not in pos]
            inv = sum(1 for a in rest for b in pos if b > a)
            front, back = (unit,) + tuple(K[t] for t in pos), (unit,) + tuple(K[t] for t in rest)
            out[front, back] = -1 if inv % 2 else 1
        return out

    def check_diagonal_chain_map(self):
        """d_Tot(diag(e_K)) equals diag(d e_K) for every generator.

        Elements of P (x) P are dicts {(front word, back word): coeff}
        with words as diagonal gives them; the total differential uses
        the sign (-1)^i on the second leg of P_i (x) P_j, and U(g) acts
        on a tensor leg by multiplying its monomial from the left.
        """
        g = self.g
        for n in range(1, g.dim + 1):
            for K in self._gens[n]:
                lhs = {}
                for i in range(n + 1):
                    for (x, y), sgn in self.diagonal(K, i).items():
                        if i:  # d on the first leg
                            for k, entry in self.diff_cols(i)[self.gen_index(i, x[1:])].items():
                                for m, c in entry.items():
                                    sparse_add(lhs, ((m,) + self._gens[i - 1][k], y), sgn * c)
                        if i < n:  # d on the second leg, with the Koszul sign
                            j, sgn2 = n - i, -sgn if i % 2 else sgn
                            for k, entry in self.diff_cols(j)[self.gen_index(j, y[1:])].items():
                                for m, c in entry.items():
                                    sparse_add(lhs, (x, (m,) + self._gens[j - 1][k]), sgn2 * c)
                rhs = {}
                for k, entry in self.diff_cols(n)[self.gen_index(n, K)].items():
                    # entry acts through the coproduct on the diagonal of generator k
                    for i in range(n):
                        for (x, y), sgn in self.diagonal(self._gens[n - 1][k], i).items():
                            for (m1, m2), c in delta_elt(g, entry).items():
                                sparse_add(rhs, ((m1,) + x[1:], (m2,) + y[1:]), sgn * c)
                if lhs != rhs:  # sparse_add keeps no zero entry
                    raise ValidationError(f"comultiplication is not a chain map at {K}")
        return True

    def __repr__(self):
        return f"CEResolution({self.g.name})"


def ce_resolution(g: LieAlgebraData, validate=True) -> CEResolution:
    res = CEResolution(g, validate=validate)
    if validate:
        res.check_diagonal_chain_map()
    return res


# ---------------------------------------------------------------------------
# bounded-degree linear algebra on free U(g) complexes


class BoundedBasis:
    """Basis (generator, monomial) of U(g)^{ranks} up to PBW degree m."""

    def __init__(self, g, rank, bound):
        self.g = g
        self.rank = rank
        self.bound = bound
        self.monos = monomials_upto(g.dim, bound)
        self.index = {}
        for j in range(rank):
            for m in self.monos:
                self.index[(j, m)] = len(self.index)
        self.dim = len(self.index)


def bounded_free_map(g, cols, src: BoundedBasis, dst: BoundedBasis, entries_act="right") -> list:
    """Sparse columns of a generator-level map on bounded coefficient spaces.

    cols[j] = {i: pbw entry}.  With entries_act = "right" the map sends
    x^a e_j to sum_i (x^a entry) e_i (left modules, coefficients on the
    left); with "left" it sends x^a e_j to sum_i (entry x^a) e_i, which
    is the dualized differential acting on right-module coordinates.
    Entries of positive degree raise the bound, so dst.bound must cover
    src.bound plus the top entry degree.  Returns one column
    {dst index: entry} per source index, in src.index order.
    """
    out = []
    for j in range(src.rank):
        col = cols[j] if j < len(cols) else {}
        for m in src.monos:
            image = {}
            for i, entry in col.items():
                for m1, c1 in entry.items():
                    prod = mono_mul(g, m, m1) if entries_act == "right" else mono_mul(g, m1, m)
                    for m2, c in prod.items():
                        sparse_add(image, dst.index[(i, m2)], c1 * c)
            out.append(image)
    return out


# ---------------------------------------------------------------------------
# degree-truncated bar complex of U(g)


class UgBarComplex:
    """Quotient model of the bar resolution of U(g), on the resolution interface.

    The generators in degree n are the tuples of n PBW monomials of total
    degree <= bound, and diff_cols is the bar boundary on them.
    Multiplication in U(g) never raises total degree, so the cochains on
    these tuples are a genuine quotient complex of the full bar cochain
    complex, by a kernel of PBW weight > bound that has no cohomology in
    degrees <= bound; so its Ext is certified in degrees below the
    bound, which is its max_degree, and bound 0 certifies none.  Its
    degree-0 generator is () over the PBW unit, as the Koszul
    resolution's is, so it lifts classes with the same lift.
    """

    def __init__(self, g: LieAlgebraData, bound: int):
        self.g = g
        self.bound = bound
        self.max_degree = bound

    @memoized
    def tuples(self, n):
        monos = monomials_upto(self.g.dim, self.bound)
        out = []

        def rec(prefix, rest, budget):
            if rest == 0:
                out.append(tuple(prefix))
                return
            for m in monos:
                d = mono_deg(m)
                if d <= budget:
                    rec(prefix + [m], rest - 1, budget - d)

        rec([], n, self.bound)
        out.sort()
        return out, {t: k for k, t in enumerate(out)}

    def rank(self, n):
        return len(self.tuples(n)[0])

    def generators(self, n):
        return self.tuples(n)[0]

    def gen_index(self, n, tail):
        """Index of a tuple of n monomials; the window must hold it."""
        k = self.tuples(n)[1].get(tail)
        if k is None:
            raise WindowExceededError("comparison image leaves the truncation window")
        return k

    @memoized
    def diff_cols(self, n):
        """Column t of b'(1[t]) in degree n: {index of a tuple of n - 1: PBW entry}.

        Face 0 puts t_1 in the free slot, inner face i multiplies t_i
        t_(i+1) with the sign (-1)^i, and the counit face, with the sign
        (-1)^n, keeps only a last monomial of degree 0.
        """
        g, unit, cols = self.g, mono_one(self.g.dim), []
        below = self.tuples(n - 1)[1] if n else {}
        for t in self.tuples(n)[0] if n else ():
            col = {below[t[1:]]: {t[0]: 1}}
            for i in range(1, n):
                for m, c in mono_mul(g, t[i - 1], t[i]).items():
                    entry = col.setdefault(below[t[: i - 1] + (m,) + t[i + 1 :]], {})
                    sparse_add(entry, unit, -c if i % 2 else c)
            if mono_deg(t[-1]) == 0:
                sparse_add(col.setdefault(below[t[:-1]], {}), unit, -1 if n % 2 else 1)
            cols.append({k: e for k, e in col.items() if e})
        return cols

    def boundary_word(self, w):
        """b' of a bar word (m,) + t: e_m times column t of the differential."""
        n = len(w) - 1
        if n == 0:
            return {}
        below, out = self.generators(n - 1), {}
        for k, entry in self.diff_cols(n)[self.gen_index(n, w[1:])].items():
            for p, c in pbw_multiply(self.g, {w[0]: 1}, entry).items():
                out[(p,) + below[k]] = c
        return out

    def act_left(self, entry, M: LieModule):
        return self._act(tuple(entry.items()), M)

    @memoized
    def _act(self, entry, M: LieModule):
        return M.act(dict(entry))

    times = CEResolution.times
    lift = CEResolution.lift

    def contract(self, j, words):
        """The bar contraction: prepend a unit slot to each word."""
        unit = mono_one(self.g.dim)
        return {w: {unit: c} for w, c in words.items()}

    def cochain_matrix(self, n, M: LieModule) -> Matrix:
        """delta : C^n(M) -> C^{n+1}(M) as a dense matrix."""
        return cochain_matrix(self, M, n)


def ce_vs_bar_ext(g: LieAlgebraData, M: LieModule, upto: int, bound: int):
    """Ext dims over U(g) from the Koszul resolution and the bar model.

    Returns (ce_dims, bar_dims, per-degree bijectivity of the induced
    comparison on classes).  The comparison CE -> bar is the lift of
    the unit class through the bar contraction; it pulls a bar cochain
    back and reads it on CE generators.  The model at the PBW bound
    certifies degrees below it only, so upto >= bound raises
    WindowExceededError before any lift, naming the lowest degree
    outside the window as ext_dims does.
    """
    bar = UgBarComplex(g, bound)
    _check(bar, M, min(upto, bar.max_degree), "left")
    ce = ce_resolution(g, validate=False)
    lifts = bar.lift(ce, 0, [[1]], upto)
    # verify the comparison is a chain map degree by degree
    for n in range(1, upto + 1):
        prev = list(lifts[n - 1].values())
        for K, col in zip(ce.generators(n), ce.diff_cols(n)):
            words = {(u,) + w: c for w, e in lifts[n][K].items() for u, c in e.items()}
            if sparse_extend(bar.boundary_word, words) != lifted_boundary(bar, col, prev, 1):
                raise LiftFailedError(f"comparison map fails at degree {n}")
    ce_dims, bar_dims, bijective = [], [], []
    for n in range(upto + 1):
        eg, bar_h = ext(ce, M, n), ext(bar, M, n)
        ce_dims.append(eg.dim)
        bar_dims.append(bar_h.dim)
        if eg.dim != bar_h.dim:
            bijective.append(False)
            continue
        cols = [eg.class_of(pull_cochain(bar, lifts, n, v, M)) for v in bar_h.representatives()]
        bijective.append(sparse_rank([_sparse(c) for c in cols]) == eg.dim)
    return ce_dims, bar_dims, bijective
