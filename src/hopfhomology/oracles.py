"""Brute force (co)homology complexes written from first principles.

These are the anti-regression oracles: the Hochschild cochain complex on
Hom(A^{(x) n}, A) and the classical Lie algebra cochain complex on
Hom(Lambda^n g, M), each written by one sparse face writer from the
classical alternating sum.  The chain complexes on A^{(x) n+1} and
N (x) Lambda^n g are read off the same faces by side, and one rank walk
checks d d = 0 exactly and ranks each map with sparse_rank.  Nothing
here touches resolutions, bialgebroids, generator bookkeeping or the
engine's homology_dims; agreement with the engine is an acceptance
criterion, not a definition.
"""

from __future__ import annotations

from itertools import combinations, product as iproduct
from math import comb

from .algebras import FinDimAlgebra
from .errors import ValidationError
from .linalg import Matrix, sparse_add, sparse_extend, sparse_rank, unit_vec, zero_vec


def _entries(m: Matrix):
    """The nonzero entries (a, b, c) of m, c in row a and column b."""
    return [(a, b, c) for a, row in enumerate(m.rows) for b, c in enumerate(row) if c]


def _write(cols, ti, dim, terms, right):
    """Add each term (source block k, sign, action entries) of target block ti.

    Entry (a, b, c) adds sign * c at row ti * dim + a of column k * dim + b, or
    with right at row ti * dim + b of column k * dim + a.
    """
    for k, sign, entries in terms:
        for a, b, c in entries:
            if right:
                sparse_add(cols[k * dim + a], ti * dim + b, sign * c)
            else:
                sparse_add(cols[k * dim + b], ti * dim + a, sign * c)


def _dims(dims, maps):
    """dim V_i - rank in - rank out for V_0 -> V_1 -> .., the maps past the last zero.

    maps[i] holds the sparse columns of V_i -> V_(i+1); d d = 0 is checked
    exactly on them, and each map is ranked by sparse_rank.
    """
    for i, (inner, outer) in enumerate(zip(maps, maps[1:])):
        if any(sparse_extend(outer.__getitem__, col) for col in inner):
            raise ValidationError(f"oracle d d != 0 between degrees {i} and {i + 2}")
    ranks = [0] + [sparse_rank(cols) for cols in maps]
    return [c - ranks[i] - ranks[i + 1] for i, c in enumerate(dims)]


# ---------------------------------------------------------------------------
# Hochschild


def _tuples(n, dim):
    return list(iproduct(range(dim), repeat=n))


def _hochschild_cols(A: FinDimAlgebra, n, right):
    """Sparse columns of delta^n : Hom(A^n, A) -> Hom(A^{n+1}, A), one per coordinate.

    Cochain coordinates: (input tuple, output basis index), tuple major.
    delta f(a_1..) = a_1 f(a_2..) + sum (-1)^i f(.., a_i a_(i+1), ..)
    + (-1)^(n+1) f(a_1..a_n) a_(n+1).  With right the module indices swap
    and the first face multiplies on the right, the last on the left:
    the columns are the rows of b_(n+1) on coordinates (a_1..a_k, a_0),
    whose first face is a_0 a_1 and whose cyclic last face is a_(n+1) a_0.
    """
    na = A.dim
    sides = [[_entries(side(unit_vec(na, x))) for x in range(na)]
             for side in (A.left_mult_matrix, A.right_mult_matrix)]
    first, last = sides[::-1] if right else sides
    ident = _entries(Matrix.identity(na))
    src = {t: k for k, t in enumerate(_tuples(n, na))}
    cols = [{} for _ in range(len(src) * na)]
    for ti, t in enumerate(_tuples(n + 1, na)):
        terms = [(src[t[1:]], 1, first[t[0]]), (src[t[:-1]], -1 if (n + 1) % 2 else 1, last[t[-1]])]
        for i in range(1, n + 1):
            for p, c in enumerate(A.mult[t[i - 1]][t[i]]):
                if c:
                    terms.append((src[t[: i - 1] + (p,) + t[i + 1 :]], -c if i % 2 else c, ident))
        _write(cols, ti, na, terms, right)
    return cols


def hochschild_cochain_matrix(A: FinDimAlgebra, n) -> Matrix:
    """delta : Hom(A^n, A) -> Hom(A^{n+1}, A), classical alternating sum, dense."""
    return Matrix.from_sparse_cols(_hochschild_cols(A, n, False), A.dim ** (n + 2))


def hochschild_cohomology_dims(A: FinDimAlgebra, upto) -> list:
    maps = [_hochschild_cols(A, n, False) for n in range(upto + 1)]
    return _dims([A.dim ** (n + 1) for n in range(upto + 1)], maps)


def hochschild_homology_dims(A: FinDimAlgebra, upto) -> list:
    maps = [_hochschild_cols(A, n, True) for n in range(upto + 1)]
    return _dims([A.dim ** (n + 1) for n in range(upto + 1)], maps)


def hochschild_cup(A: FinDimAlgebra, m, n, f, g) -> list:
    """Cochain level cup product (f cup g)(a_1..) = f(a_1..a_m) g(..).

    f and g are coordinate vectors in the bases used above; the result
    is an (m + n)-cochain vector.
    """
    na = A.dim
    src_m = _tuples(m, na)
    src_n = _tuples(n, na)
    idx_m = {t: k for k, t in enumerate(src_m)}
    idx_n = {t: k for k, t in enumerate(src_n)}
    out_tuples = _tuples(m + n, na)
    out = zero_vec(len(out_tuples) * na)
    for ti, t in enumerate(out_tuples):
        fv = [f[idx_m[t[:m]] * na + a] for a in range(na)]
        gv = [g[idx_n[t[m:]] * na + a] for a in range(na)]
        prod = A.multiply(fv, gv)
        for a, c in enumerate(prod):
            out[ti * na + a] += c
    return out


# ---------------------------------------------------------------------------
# Lie algebra (co)homology from the classical formulas


def _lie_cols(g, M, n):
    """Sparse columns of delta : Hom(Lambda^n g, M) -> Hom(Lambda^{n+1} g, M), one per coordinate.

    M is a LieModule.  Coordinates: (subset, module basis index), subset
    major, subsets in lexicographic order.  For a right module the two
    module indices swap: the columns are the rows of the boundary
    M (x) Lambda^{n+1} g -> M (x) Lambda^n g.
    """
    dm = M.dim
    act = [_entries(m) for m in M.gen]
    ident = _entries(Matrix.identity(dm))
    src = {s: k for k, s in enumerate(combinations(range(g.dim), n))}
    cols = [{} for _ in range(len(src) * dm)]
    for ti, t in enumerate(combinations(range(g.dim), n + 1)):
        terms = [(src[t[:i] + t[i + 1 :]], -1 if i % 2 else 1, act[x]) for i, x in enumerate(t)]
        for i, j in combinations(range(len(t)), 2):
            rest = t[:i] + t[i + 1 : j] + t[j + 1 :]
            for z, c in enumerate(g.bracket[t[i]][t[j]]):
                if c and z not in rest:
                    pos = sum(1 for x in rest if x < z)
                    sign = -1 if (i + j + pos) % 2 else 1
                    terms.append((src[tuple(sorted(rest + (z,)))], sign * c, ident))
        _write(cols, ti, dm, terms, M.side == "right")
    return cols


def lie_chain_matrix(g, N, n) -> Matrix:
    """boundary : N (x) Lambda^n g -> N (x) Lambda^{n-1} g, right module N, dense."""
    rows = _lie_cols(g, N, n - 1)
    return Matrix.from_sparse_cols(rows, comb(g.dim, n) * N.dim).transpose()


def lie_cohomology_dims(g, M, upto) -> list:
    """dim H^n(g, M) for n <= upto, M a left module (dim H_n for a right one)."""
    top = min(upto, g.dim)
    maps = [_lie_cols(g, M, n) for n in range(top + 1)]
    return _dims([comb(g.dim, n) * M.dim for n in range(top + 1)], maps) + [0] * (upto - top)


def lie_homology_dims(g, N, upto) -> list:
    """dim H_n(g, N) for n <= upto, N a right module."""
    return lie_cohomology_dims(g, N, upto)
