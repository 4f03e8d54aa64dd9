"""The unnormalized bar resolution, kept as a test oracle.

BarResolution is the normalized bar resolution: its tail table starts
with the unit and it drops every word with a unit tail.  UnnormalizedBar
keeps every word, on the catalog's own tail table data.tails_l, and
rebuilds every face from scratch with nothing cached.  By the
Eilenberg-Mac Lane normalization theorem both compute the same Ext and
Tor, which is what the tests check.

reference_ug_cochain_cols writes the cochain differential of the
degree-truncated bar model of U(g) straight from its faces, without the
model's generator differential.
"""

from itertools import product as iproduct

from hopfhomology.bialgebroid import _expand_table
from hopfhomology.linalg import sparse_extend, unit_vec
from hopfhomology.pbw import mono_deg, mono_mul
from hopfhomology.resolutions import BarResolution


def _sparse(vec):
    return {p: c for p, c in enumerate(vec) if c}


def _add(out, key, c):
    out[key] = out.get(key, 0) + c
    if not out[key]:
        del out[key]


def reference_renorm(bar, word, k, vec):
    """Slot k of word replaced by the raw U-vector vec, normalised, all words kept.

    Pushes always go through the |>> matrices data.bl_l, also over the
    ground field, and cascade leftward through every slot below k.
    """
    out = {}
    if k == 0:
        for b, c in vec.items():
            _add(out, (b,) + word[1:], c)
        return out
    for b, cb in vec.items():
        for t, r, c in bar.expand[b]:
            w2 = word[:k] + (t,) + word[k + 1 :]
            if k == 1:
                pushed = _sparse(bar.data.bl_l[r].col(word[0]))
            else:
                pushed = _sparse(bar.data.bl_l[r].apply(bar.tails[word[k - 1]]))
            for w3, c3 in reference_renorm(bar, w2, k - 1, pushed).items():
                _add(out, w3, cb * c * c3)
    return out


def reference_diagonal(bar, g, i):
    """The P_i (x) P_(n-i) part of the diagonal on 1[f_g], all words kept.

    The front leg appends f_k(1) as slot k and normalises it there by
    reference_renorm, for k = 1 .. i; the back factor f_1(2)..f_i(2)
    grows on the right.  Nothing is cached and the homotopy is not used.
    """
    U = bar.U
    one = _sparse(U.unit)
    legs = {((p,), q): c * d for p, c in one.items() for q, d in one.items()}
    for k in range(1, i + 1):
        step = {}
        for (p, q), c in bar.data.delta_of_vec(bar.tails[g[k - 1]]).items():
            for (w, b), d in legs.items():
                for w2, e in reference_renorm(bar, w + (p,), k, {p: c * d}).items():
                    for b2, f in _sparse(U.mult[b][q]).items():
                        _add(step, (w2, b2), e * f)
        legs = step
    return {(w, (b,) + g[i:]): c for (w, b), c in legs.items()}


def reference_boundary_word(bar, w):
    """b' of a normal word on bar's tail table, every face rebuilt for this word.

    The counit face is eps(f_{t_n}) |>> u read from
    U.right_mult_matrix(eta_target(counit(f_t))), and pushes into the
    free slot read a column of the push matrix, with nothing cached.
    Words with a unit tail are kept.
    """
    U, data = bar.U, bar.data
    n = len(w) - 1
    out = {}
    if n == 0:
        return out
    prod = _sparse(U.multiply(unit_vec(U.dim, w[0]), bar.tails[w[1]]))
    for p, c in prod.items():
        _add(out, (p,) + w[2:], c)
    for i in range(1, n):
        vec = _sparse(U.multiply(bar.tails[w[i]], bar.tails[w[i + 1]]))
        for w2, c in reference_renorm(bar, w[: i + 1] + w[i + 2 :], i, vec).items():
            _add(out, w2, (-1) ** i * c)
    face = U.right_mult_matrix(data.eta_target(data.counit(bar.tails[w[n]])))
    if n == 1:
        for p, c in _sparse(face.col(w[0])).items():
            _add(out, (p,), (-1) ** n * c)
    else:
        target = _sparse(face.apply(bar.tails[w[n - 1]]))
        for w2, c in reference_renorm(bar, w[:n], n - 1, target).items():
            _add(out, w2, (-1) ** n * c)
    return out


def reference_ug_cochain_cols(bar, n, M):
    """Sparse columns of delta : C^n(M) -> C^{n+1}(M) of a ce.UgBarComplex, from the bar faces.

    Each tuple t of n + 1 monomials writes its rows of every column
    directly: t_1 acts on phi(t_2 ..), the inner faces multiply
    neighbours, and the counit face kills positive degree in the last
    slot.  The model's diff_cols is not read.
    """
    g = bar.g
    dm = M.dim
    src, src_idx = bar.tuples(n)
    dst, _ = bar.tuples(n + 1)
    cols = [dict() for _ in range(len(src) * dm)]
    for ti, t in enumerate(dst):
        row = ti * dm
        # u_1 . phi(u_2 ..)
        act = M.act_mono(t[0])
        k = src_idx[t[1:]]
        for a in range(dm):
            for b, c in enumerate(act.rows[a]):
                if c:
                    _add(cols[k * dm + b], row + a, c)
        # inner faces
        for i in range(1, n + 1):
            sign = -1 if i % 2 else 1
            for m, c in mono_mul(g, t[i - 1], t[i]).items():
                k = src_idx[t[: i - 1] + (m,) + t[i + 1 :]]
                for a in range(dm):
                    _add(cols[k * dm + a], row + a, sign * c)
        # counit face kills positive degree in the last slot
        if mono_deg(t[-1]) == 0:
            sign = -1 if (n + 1) % 2 else 1
            k = src_idx[t[:-1]]
            for a in range(dm):
                _add(cols[k * dm + a], row + a, sign)
    return cols


class UnnormalizedBar(BarResolution):
    """The bar resolution with all s^n generators in degree n.

    The tails are data.tails_l, whose unit need not be a tail at all.
    Faces and the slot 1 renormalisation behind the homotopy are the
    uncached references above, and the generator differential is read
    off those faces, not built by the homotopy recursion.  The homotopy
    and the diagonal are BarResolution's, so s(e_u) and the diagonal
    are cached as there; the concrete chain model is BarResolution's,
    on these words.
    """

    def __init__(self, data, depth):
        super().__init__(data, depth)
        self.tails, self.expand = _expand_table(data.U, data.tri_r, data.tails_l)
        self.s = len(self.tails)
        self._gens = {n: list(iproduct(range(self.s), repeat=n)) for n in range(depth + 1)}
        self._gen_index = {n: {g: k for k, g in enumerate(gs)} for n, gs in self._gens.items()}

    def _renorm(self, u, vec):
        return reference_renorm(self, (u, 0), 1, vec)

    def boundary_word(self, w):
        return reference_boundary_word(self, w)

    def _differential(self, n):
        """Column g is b'(1[g]) from the faces, by U-coordinate at each generator; cached."""
        if n not in self._diff_cols:
            self._diff_cols[n] = [
                {self.gen_index(n - 1, K): v for K, v in self._by_generator(
                    sparse_extend(lambda p: self.boundary_word((p,) + g), self.U.unit)).items()}
                for g in self.generators(n)
            ]
        return self._diff_cols[n]
