"""Brute force (co)homology complexes written from first principles.

These are the anti-regression oracles: the Hochschild cochain and chain
complexes of an algebra built directly from the classical formulas on
Hom(A^{(x) n}, A) and A^{(x) n+1}, and the classical Lie algebra
(co)homology complexes on Hom(Lambda^n g, M) and N (x) Lambda^n g.
Nothing here touches resolutions, bialgebroids or generator
bookkeeping; agreement with the engine is an acceptance criterion, not
a definition.
"""

from __future__ import annotations

from itertools import combinations, product as iproduct

from .algebras import FinDimAlgebra
from .errors import ValidationError
from .linalg import Matrix, zero_vec


# ---------------------------------------------------------------------------
# Hochschild


def _tuples(n, dim):
    return list(iproduct(range(dim), repeat=n))


def hochschild_cochain_matrix(A: FinDimAlgebra, n) -> Matrix:
    """delta : Hom(A^n, A) -> Hom(A^{n+1}, A), classical alternating sum.

    Cochain coordinates: (input tuple, output basis index), tuple major.
    """
    na = A.dim
    src_tuples = _tuples(n, na)
    dst_tuples = _tuples(n + 1, na)
    src_index = {t: k for k, t in enumerate(src_tuples)}
    rows = len(dst_tuples) * na
    cols = len(src_tuples) * na
    out = Matrix.zeros(rows, cols)
    for ti, t in enumerate(dst_tuples):
        # t = (a_1 .. a_{n+1}) as basis indices
        # term a_1 f(a_2 ..)
        k = src_index[t[1:]]
        lm = A.left_mult_matrix([1 if i == t[0] else 0 for i in range(na)])
        for a in range(na):
            for b in range(na):
                if lm.rows[a][b]:
                    out.rows[ti * na + a][k * na + b] += lm.rows[a][b]
        # inner terms (-1)^i f(.., a_i a_{i+1}, ..)
        for i in range(1, n + 1):
            sign = -1 if i % 2 else 1
            prod = A.mult[t[i - 1]][t[i]]
            for p, c in enumerate(prod):
                if not c:
                    continue
                merged = t[: i - 1] + (p,) + t[i + 1 :]
                k = src_index[merged]
                for a in range(na):
                    out.rows[ti * na + a][k * na + a] += sign * c
        # last term (-1)^{n+1} f(a_1 .. a_n) a_{n+1}
        sign = -1 if (n + 1) % 2 else 1
        k = src_index[t[:-1]]
        rm = A.right_mult_matrix([1 if i == t[-1] else 0 for i in range(na)])
        for a in range(na):
            for b in range(na):
                if rm.rows[a][b]:
                    out.rows[ti * na + a][k * na + b] += sign * rm.rows[a][b]
    return out


def hochschild_cohomology_dims(A: FinDimAlgebra, upto) -> list:
    mats = [hochschild_cochain_matrix(A, n) for n in range(upto + 1)]
    for n in range(upto):
        if not (mats[n + 1] @ mats[n]).is_zero():
            raise ValidationError("Hochschild cochain differential does not square to zero")
    dims = []
    for n in range(upto + 1):
        c = mats[n].ncols
        r_out = mats[n].rank()
        r_in = mats[n - 1].rank() if n >= 1 else 0
        dims.append(c - r_out - r_in)
    return dims


def hochschild_chain_matrix(A: FinDimAlgebra, n) -> Matrix:
    """b : A^{(x) n+1} -> A^{(x) n} with the cyclic last face."""
    na = A.dim
    src_tuples = _tuples(n + 1, na)
    dst_tuples = _tuples(n, na)
    dst_index = {t: k for k, t in enumerate(dst_tuples)}
    out = Matrix.zeros(len(dst_tuples), len(src_tuples))
    for si, t in enumerate(src_tuples):
        # t = (a_0, a_1 .. a_n)
        for i in range(n):
            sign = -1 if i % 2 else 1
            prod = A.mult[t[i]][t[i + 1]]
            for p, c in enumerate(prod):
                if c:
                    merged = t[:i] + (p,) + t[i + 2 :]
                    out.rows[dst_index[merged]][si] += sign * c
        sign = -1 if n % 2 else 1
        prod = A.mult[t[-1]][t[0]]
        for p, c in enumerate(prod):
            if c:
                merged = (p,) + t[1:-1]
                out.rows[dst_index[merged]][si] += sign * c
    return out


def hochschild_homology_dims(A: FinDimAlgebra, upto) -> list:
    mats = [hochschild_chain_matrix(A, n) for n in range(1, upto + 2)]
    for n in range(upto):
        if not (mats[n] @ mats[n + 1]).is_zero():
            raise ValidationError("Hochschild chain differential does not square to zero")
    dims = []
    for n in range(upto + 1):
        c = A.dim ** (n + 1)
        r_out = mats[n - 1].rank() if n >= 1 else 0
        r_in = mats[n].rank()
        dims.append(c - r_out - r_in)
    return dims


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


def lie_cochain_matrix(g, M, n) -> Matrix:
    """delta : Hom(Lambda^n g, M) -> Hom(Lambda^{n+1} g, M).

    M is a left module given by generator matrices (a LieModule).
    Coordinates: (subset, module basis index), subset major, subsets in
    lexicographic order.
    """
    d = g.dim
    dm = M.dim
    src = list(combinations(range(d), n))
    dst = list(combinations(range(d), n + 1))
    src_index = {s: k for k, s in enumerate(src)}
    out = Matrix.zeros(len(dst) * dm, len(src) * dm)
    for ti, t in enumerate(dst):
        for i, xi in enumerate(t):
            sign = -1 if i % 2 else 1
            rest = t[:i] + t[i + 1 :]
            k = src_index[rest]
            act = M.gen[xi]
            for a in range(dm):
                for b in range(dm):
                    if act.rows[a][b]:
                        out.rows[ti * dm + a][k * dm + b] += sign * act.rows[a][b]
        for i in range(len(t)):
            for j in range(i + 1, len(t)):
                sign = -1 if (i + j) % 2 else 1
                rest = tuple(x for idx, x in enumerate(t) if idx not in (i, j))
                bracket = g.bracket[t[i]][t[j]]
                for z, c in enumerate(bracket):
                    if not c or z in rest:
                        continue
                    pos = sum(1 for x in rest if x < z)
                    merged = tuple(sorted(rest + (z,)))
                    k = src_index[merged]
                    s2 = sign * c * (-1 if pos % 2 else 1)
                    for a in range(dm):
                        out.rows[ti * dm + a][k * dm + a] += s2
    return out


def lie_cohomology_dims(g, M, upto) -> list:
    mats = [lie_cochain_matrix(g, M, n) for n in range(min(upto, g.dim) + 1)]
    for n in range(len(mats) - 1):
        if not (mats[n + 1] @ mats[n]).is_zero():
            raise ValidationError("Lie cochain differential does not square to zero")
    dims = []
    for n in range(upto + 1):
        if n > g.dim:
            dims.append(0)
            continue
        c = mats[n].ncols
        r_out = mats[n].rank() if n < g.dim else 0
        r_in = mats[n - 1].rank() if n >= 1 else 0
        dims.append(c - r_out - r_in)
    return dims


def lie_chain_matrix(g, N, n) -> Matrix:
    """boundary : N (x) Lambda^n g -> N (x) Lambda^{n-1} g, right module N."""
    d = g.dim
    dn = N.dim
    src = list(combinations(range(d), n))
    dst = list(combinations(range(d), n - 1))
    dst_index = {s: k for k, s in enumerate(dst)}
    out = Matrix.zeros(len(dst) * dn, len(src) * dn)
    for si, s in enumerate(src):
        for i, xi in enumerate(s):
            sign = -1 if i % 2 else 1
            rest = s[:i] + s[i + 1 :]
            k = dst_index[rest]
            act = N.gen[xi]
            for a in range(dn):
                for b in range(dn):
                    if act.rows[a][b]:
                        out.rows[k * dn + a][si * dn + b] += sign * act.rows[a][b]
        for i in range(len(s)):
            for j in range(i + 1, len(s)):
                sign = -1 if (i + j) % 2 else 1
                rest = tuple(x for idx, x in enumerate(s) if idx not in (i, j))
                bracket = g.bracket[s[i]][s[j]]
                for z, c in enumerate(bracket):
                    if not c or z in rest:
                        continue
                    pos = sum(1 for x in rest if x < z)
                    merged = tuple(sorted(rest + (z,)))
                    k = dst_index[merged]
                    s2 = sign * c * (-1 if pos % 2 else 1)
                    for a in range(dn):
                        out.rows[k * dn + a][si * dn + a] += s2
    return out


def lie_homology_dims(g, N, upto) -> list:
    mats = {n: lie_chain_matrix(g, N, n) for n in range(1, min(upto + 1, g.dim) + 1)}
    for n in sorted(mats):
        if (n + 1) in mats and not (mats[n] @ mats[n + 1]).is_zero():
            raise ValidationError("Lie chain differential does not square to zero")
    from math import comb

    dims = []
    for n in range(upto + 1):
        if n > g.dim:
            dims.append(0)
            continue
        c = comb(g.dim, n) * N.dim
        r_out = mats[n].rank() if n >= 1 else 0
        r_in = mats[n + 1].rank() if (n + 1) in mats else 0
        dims.append(c - r_out - r_in)
    return dims
