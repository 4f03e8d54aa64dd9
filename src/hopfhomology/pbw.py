"""Poincare-Birkhoff-Witt arithmetic in universal envelopes U(g).

Monomials are exponent tuples for the ordered basis x_1 < .. < x_d;
elements are dicts {exponent tuple: coefficient}.  Coefficients are
exact: an int where the structure constants keep them integral, a
Fraction otherwise, never a float.  Straightening uses
x_i x_j = x_j x_i + [x_i, x_j] and never raises total degree, so degree
bounds certified by callers are stable under multiplication.

Products, coproducts and translations of monomials are memoized on the
LieAlgebraData, and module actions of monomials on the LieModule, under
the one memo rule of linalg.memoized.

The Hopf structure of U(g) is generated by the primitives: the
coproduct of a PBW monomial is the binomial expansion, the counit kills
every positive degree, and the translation map (the inverse Galois map
against 1) is built from x -> x (x) 1 - 1 (x) x by the reversed
multiplicativity rule.  ug_hopf_report checks the identities it shares
with the finite bialgebroids through the same sparse pair helpers of
linalg that bialgebroid.check_takeuchi and check_schauenburg call.
"""

from __future__ import annotations

from functools import partial
from math import comb
from operator import eq

from .errors import ValidationError
from .linalg import (Matrix, coassociators, frac, lincomb, memoized, pair_compose, pair_product,
                     sparse_add, sparse_extend, zero_vec)


class LieAlgebraData:
    """Finite dimensional Lie algebra by bracket structure constants."""

    def __init__(self, dim, brackets, name=None, labels=None, validate=True):
        self.dim = dim
        self.name = name or f"lie{dim}"
        self.labels = labels or [f"x{i}" for i in range(dim)]
        self.bracket = [[[frac(x) for x in brackets[i][j]] for j in range(dim)] for i in range(dim)]
        if validate:
            self._validate()

    def _validate(self):
        d = self.dim
        for i in range(d):
            for j in range(d):
                anti = [a + b for a, b in zip(self.bracket[i][j], self.bracket[j][i])]
                if any(anti):
                    raise ValidationError(f"bracket not antisymmetric at ({i},{j})")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    total = zero_vec(d)
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self.bracket[a][b]
                        for m, cm in enumerate(inner):
                            if cm:
                                for n, cn in enumerate(self.bracket[m][c]):
                                    if cn:
                                        total[n] += cm * cn
                    if any(total):
                        raise ValidationError(f"Jacobi fails at ({i},{j},{k})")

    def adjoint_matrix(self, i):
        """ad x_i as a matrix on g."""
        return Matrix.from_cols([self.bracket[i][j] for j in range(self.dim)], nrows=self.dim)

    def adjoint_trace(self, i):
        m = self.adjoint_matrix(i)
        return sum(m.rows[k][k] for k in range(self.dim))

    def __repr__(self):
        return f"LieAlgebraData({self.name}, dim {self.dim})"


# ---------------------------------------------------------------------------
# monomials


def mono_deg(m):
    return sum(m)


def mono_one(d):
    return (0,) * d


def monomials_upto(d, bound):
    """All exponent tuples of total degree <= bound, lex sorted."""
    out = []

    def rec(prefix, rest, budget):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], rest - 1, budget - e)

    rec([], d, bound)
    out.sort()
    return out


@memoized
def _xmul(g: LieAlgebraData, i, m):
    """x_i times the monomial m, straightened; dict of monomials."""
    j = None
    for k in range(i):
        if m[k]:
            j = k
            break
    if j is None:
        out = {m[:i] + (m[i] + 1,) + m[i + 1 :]: 1}
    else:
        # m = x_j m' with j minimal, so x_i m = x_j x_i m' + [x_i, x_j] m'.
        # Re-prepending x_j must recurse: brackets may create indices < j.
        mp = m[:j] + (m[j] - 1,) + m[j + 1 :]
        out = {}
        for mm, c in _xmul(g, i, mp).items():
            for m2, c2 in _xmul(g, j, mm).items():
                sparse_add(out, m2, c * c2)
        for k, ck in enumerate(g.bracket[i][j]):
            if ck:
                for mm, c in _xmul(g, k, mp).items():
                    sparse_add(out, mm, ck * c)
    return out


@memoized
def mono_mul(g: LieAlgebraData, m1, m2):
    """Normal form of the product of two PBW monomials."""
    result = {m2: 1}
    factors = []
    for i in range(g.dim):
        factors.extend([i] * m1[i])
    for i in reversed(factors):
        nxt = {}
        for m, c in result.items():
            for mm, d in _xmul(g, i, m).items():
                sparse_add(nxt, mm, c * d)
        result = nxt
    return result


def pbw_multiply(g: LieAlgebraData, u, v):
    """Product of two elements."""
    out = {}
    for m1, c1 in u.items():
        for m2, c2 in v.items():
            for m, c in mono_mul(g, m1, m2).items():
                sparse_add(out, m, c1 * c2 * c)
    return out


# ---------------------------------------------------------------------------
# the Hopf structure on generators, extended to monomials


@memoized
def delta_mono(g: LieAlgebraData, m):
    """Binomial coproduct of a PBW monomial: dict {(m1, m2): coeff}."""
    d = g.dim
    out = {}

    def rec(i, left, right, coef):
        if i == d:
            sparse_add(out, (tuple(left), tuple(right)), coef)
            return
        for k in range(m[i] + 1):
            left[i] = k
            right[i] = m[i] - k
            rec(i + 1, left, right, coef * comb(m[i], k))

    rec(0, [0] * d, [0] * d, 1)
    return out


def delta_elt(g, u):
    return sparse_extend(partial(delta_mono, g), u)


@memoized
def translation_mono(g: LieAlgebraData, m):
    """u -> u_+ (x) u_-, built one generator factor at a time.

    Uses the reversed multiplicativity (uv)_+ (x) (uv)_- =
    u_+ v_+ (x) v_- u_-, with x_+ (x) x_- = x (x) 1 - 1 (x) x on
    generators.  Second legs multiply in reversed order, so they get
    straightened.
    """
    d = g.dim
    result = {(mono_one(d), mono_one(d)): 1}
    factors = []
    for i in range(d):
        factors.extend([i] * m[i])
    for i in factors:
        gmono = tuple(1 if k == i else 0 for k in range(d))
        step = {}
        for (p, q), c in result.items():
            # term x_i (x) 1: p x_i (x) q
            for mm, cc in mono_mul(g, p, gmono).items():
                sparse_add(step, (mm, q), c * cc)
            # term -1 (x) x_i: p (x) x_i q  (new factor multiplies from the left)
            for mm, cc in _xmul(g, i, q).items():
                sparse_add(step, (p, mm), -(c * cc))
        result = step
    return result


# ---------------------------------------------------------------------------
# finite dimensional modules over U(g)


class LieModule:
    """Finite dimensional U(g)-module given by generator action matrices.

    Left modules: rho([x,y]) = rho(x) rho(y) - rho(y) rho(x).
    Right modules act through matrices on column vectors, m.u = R(u) m,
    so R([x,y]) = R(y) R(x) - R(x) R(y).
    """

    def __init__(self, g: LieAlgebraData, dim, side, gen_matrices, name=None, validate=True):
        if side not in ("left", "right"):
            raise ValidationError("side must be 'left' or 'right'")
        self.g = g
        self.dim = dim
        self.side = side
        self.name = name or "module"
        self.gen = [m if isinstance(m, Matrix) else Matrix(m, ncols=dim) for m in gen_matrices]
        if len(self.gen) != g.dim:
            raise ValidationError("one matrix per Lie generator required")
        if validate:
            self._validate()

    def _validate(self):
        d = self.g.dim
        for i in range(d):
            for j in range(d):
                comm = self.gen[i] @ self.gen[j] - self.gen[j] @ self.gen[i]
                expect = lincomb(zip(self.g.bracket[i][j], self.gen), self.dim, self.dim)
                if self.side == "right":
                    expect = -expect
                if comm != expect:
                    raise ValidationError(
                        f"matrices do not represent the bracket at ({i},{j}) [{self.side}]"
                    )

    @memoized
    def act_mono(self, m):
        out = Matrix.identity(self.dim)
        d = self.g.dim
        order = range(d) if self.side == "left" else reversed(range(d))
        for i in order:
            for _ in range(m[i]):
                out = out @ self.gen[i]
        return out

    def act(self, elt):
        return lincomb(((c, self.act_mono(m)) for m, c in elt.items() if c), self.dim, self.dim)

    @classmethod
    def trivial(cls, g, side="left"):
        return cls(g, 1, side, [Matrix([[0]]) for _ in range(g.dim)], name="trivial")

    @classmethod
    def adjoint(cls, g):
        return cls(g, g.dim, "left", [g.adjoint_matrix(i) for i in range(g.dim)], name="adjoint")

    @classmethod
    def weight_right(cls, g, weights, name="weight"):
        """One dimensional right module m.x_i = weights[i] m."""
        return cls(g, 1, "right", [Matrix([[w]]) for w in weights], name=name)

    def __repr__(self):
        return f"LieModule({self.name}, {self.side}, dim {self.dim} over {self.g.name})"


def tensor_left_lie(g, M: LieModule, N: LieModule) -> LieModule:
    """Diagonal action on M (x) N for left modules (primitives add)."""
    if M.side != "left" or N.side != "left":
        raise ValidationError("tensor_left_lie needs two left modules")
    mats = []
    im = Matrix.identity(M.dim)
    i_n = Matrix.identity(N.dim)
    for i in range(g.dim):
        mats.append(M.gen[i].kron(i_n) + im.kron(N.gen[i]))
    return LieModule(g, M.dim * N.dim, "left", mats, name=f"{M.name}(x){N.name}")


def tensor_right_lie(g, M: LieModule, P: LieModule) -> LieModule:
    """Right action (m (x) p) x = m (x) p x - x m (x) p on M (x) P."""
    if M.side != "left" or P.side != "right":
        raise ValidationError("tensor_right_lie needs a left and a right module")
    mats = []
    im = Matrix.identity(M.dim)
    ip = Matrix.identity(P.dim)
    for i in range(g.dim):
        mats.append(im.kron(P.gen[i]) - M.gen[i].kron(ip))
    return LieModule(g, M.dim * P.dim, "right", mats, name=f"{M.name}(x){P.name}")


def ug_hopf_report(g: LieAlgebraData, bound=3) -> dict:
    """Translation-map identities on all PBW monomials of degree <= bound.

    The sweep is finite and certified by the bound (the full basis is
    infinite).  Checks the two composition identities against the
    coproduct, the counit laws, coassociativity, and multiplicativity
    of the coproduct and the translation on monomial pairs inside the
    window.
    """
    monos = monomials_upto(g.dim, bound)
    unit = mono_one(g.dim)
    mul, delta, tau = partial(mono_mul, g), partial(delta_mono, g), partial(translation_mono, g)
    half = [m for m in monos if mono_deg(m) * 2 <= bound]
    pairs = [(m1, m2) for m1 in half for m2 in half]
    return {
        "translation_1": all(pair_compose(mul, tau(m), delta) == {(m, unit): 1} for m in monos),
        "translation_2": all(pair_compose(mul, delta(m), tau) == {(m, unit): 1} for m in monos),
        "counit_laws": all(
            {p: c for (p, q), c in delta(m).items() if q == unit}
            == {m: 1}
            == {q: c for (p, q), c in delta(m).items() if p == unit}
            for m in monos
        ),
        "coassociative": all(eq(*coassociators(delta(m), delta)) for m in monos),
        "delta_multiplicative": all(
            pair_product(mul, delta(a), delta(b)) == delta_elt(g, mul(a, b)) for a, b in pairs
        ),
        "translation_multiplicative": all(
            pair_product(mul, tau(a), tau(b), flip=True) == sparse_extend(tau, mul(a, b)) for a, b in pairs
        ),
    }
