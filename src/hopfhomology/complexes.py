"""Chain complexes of finite dimensional spaces, totalization, homology.

Chain complexes are homological: d_n maps degree n to degree n - 1 and
d d = 0 is asserted at construction.  The cochain convention C^n =
C_{-n} is applied only at the homology query boundary, never mixed
into the internal indexing.  Double complexes totalize with the sign
rule d = d_h + (-1)^i d_v where i is the first (horizontal) index.
"""

from __future__ import annotations

from itertools import chain

from .errors import ValidationError
from .linalg import (Matrix, QuotientSpace, Subspace, _dense_rows, _eliminate, _first_echelon,
                     _integer_combination, _integer_row, sparse_kernel, vec_is_zero)


class ChainComplex:
    """spaces: {degree: dim}; diff: {n: matrix C_n -> C_{n-1}}."""

    def __init__(self, spaces, diff, validate=True):
        self.spaces = dict(spaces)
        self.diff = dict(diff)
        if validate:
            self._validate()

    def dim(self, n):
        return self.spaces.get(n, 0)

    def d(self, n):
        """Differential out of degree n, a dim(n-1) x dim(n) matrix."""
        m = self.diff.get(n)
        if m is None:
            return Matrix.zeros(self.dim(n - 1), self.dim(n))
        return m

    def _validate(self):
        for n, m in self.diff.items():
            if m.ncols != self.dim(n) or m.nrows != self.dim(n - 1):
                raise ValidationError(f"differential at degree {n} has wrong shape")
        for n in self.diff:
            if (n + 1) in self.diff:
                comp = self.d(n) @ self.d(n + 1)
                if not comp.is_zero():
                    raise ValidationError(f"d d != 0 between degrees {n + 1} and {n - 1}")

    def degrees(self):
        return sorted(self.spaces)

    def homology(self, n):
        in_cols = self.d(n + 1).transpose().sparse_rows()
        return HomologySpace(self.dim(n), self.d(n).sparse_rows(), in_cols)

    def betti(self, n):
        return self.homology(n).dim

    def shift(self, m):
        """Degrees move by m, differentials pick up the sign (-1)^m."""
        sign = -1 if m % 2 else 1
        spaces = {n + m: d for n, d in self.spaces.items()}
        diff = {n + m: mat.scale(sign) for n, mat in self.diff.items()}
        return ChainComplex(spaces, diff, validate=False)

    def to_json(self):
        return {
            "spaces": {str(n): self.dim(n) for n in self.degrees()},
            "diff": {str(n): self.diff[n].to_json() for n in sorted(self.diff)},
        }

    def __repr__(self):
        dims = ", ".join(f"{n}:{self.dim(n)}" for n in self.degrees())
        return f"ChainComplex({dims})"


def homology_dims(dims, maps):
    """Homology dimensions of the complex V_0 -> V_1 -> .. -> V_m.

    dims[i] is the dimension of V_i and maps[i] the sparse columns of
    V_i -> V_{i+1}, one per coordinate of V_i; the maps beyond either
    end are zero.  Returns dim V_i - rank in - rank out for every i.

    The maps are walked once and may come from a generator: each is
    dropped once walked, and its kept columns once the next map is
    checked unless the fallback needs them.  Each map must kill the kept
    columns of the map before it, checked in integers; once that map has
    passed its own check they span its image, so d d = 0 holds in full.
    Then the columns at the pivots of the echelon mod p of the map
    before are dropped ("clearing": Chen and Kerber, "Persistent
    homology computation with a twist", 2011; Bauer, "Ripser", J. Appl.
    Comput. Topol. 2021).  That echelon's pivot minor is a unit mod p, so
    nonzero over Q: the image arriving maps onto the pivot coordinates,
    and as the map kills it, each dropped column is a combination of
    kept ones, over Q and mod the same p.  So the kept columns have the
    map's rank.

    d d = 0 gives rank in + rank out <= dim V_i over Q, and a rank mod p
    is at most the rank over Q, so where the two ranks mod p sum to dim
    V_i both are the ranks over Q (dim H(C (x) F_p) >= dim H(C (x) Q)).
    Any other map is ranked on its kept columns by the certified
    _eliminate, resuming the forward pass of its rank mod p.
    """
    # ranks[k] is that of maps[k - 1] (the zero map past the end for the last k);
    # a forward pass is kept until a position beside its map is exact
    ranks, passes, kept, pivots = [0], {}, [], set()
    for cols in chain(maps, [[]]):
        k = len(ranks)
        inner = {j: _integer_row(col) for j, col in enumerate(cols) if col}
        for col in kept:
            if any(_integer_combination(_integer_row(col)[1], inner)[1].values()):
                raise ValidationError(f"d d != 0 from position {k - 2} to {k}")
        kept = [col for j, col in enumerate(cols) if col and j not in pivots]
        del cols, inner  # the next map is built while the loop still names this one
        passes[k] = kept, _first_echelon(kept)
        pivots = {c for c, _ in passes[k][1][1]}
        ranks.append(len(pivots))
        if ranks[k - 1] + ranks[k] == dims[k - 1]:
            passes.pop(k - 1, None)
            del passes[k]
    for k, (kept, first) in passes.items():
        ranks[k] = len(_eliminate(kept, first))
    return [c - ranks[i] - ranks[i + 1] for i, c in enumerate(dims)]


class HomologySpace:
    """ker(d_out) / im(d_in) with canonical cycle coordinates.

    Built at an ambient space of the given dimension from the sparse rows
    of d_out, which leaves it, and the sparse columns of d_in, which
    arrives in it and so spans the boundaries.  Classes are stored as
    coordinates on the canonical rref basis of the cycle space; the
    boundary space is a quotient in those coordinates, again with
    canonical representatives.  Only the rref basis of the image span is
    taken into cycle coordinates.
    """

    def __init__(self, ambient, out_rows, in_cols):
        self.ambient = ambient
        self.cycles = sparse_kernel(out_rows, ambient)
        relations = []
        for p, tail in _eliminate(in_cols):
            coords, rest = self.cycles.decompose({p: 1, **tail})
            if rest:
                raise ValidationError("image vector is not a cycle; complex corrupted")
            relations.append(coords)
        self.quotient = QuotientSpace(self.cycles.dim, Subspace(self.cycles.dim, relations))

    @property
    def dim(self):
        return self.quotient.dim

    def class_of(self, v):
        """Class coordinates of a cycle v given in ambient coordinates."""
        coords = self.cycles.coordinates(v)
        if coords is None:
            raise ValidationError("vector is not a cycle")
        return self.quotient.project(coords)

    def is_boundary(self, v):
        return vec_is_zero(self.class_of(v))

    def representative(self, k):
        """Ambient cycle representing the k-th canonical basis class."""
        return _dense_rows([self.cycles.echelon[self.quotient.reps[k]]], self.ambient)[0]

    def representatives(self):
        return [self.representative(k) for k in range(self.dim)]


class DoubleComplex:
    """Bigraded spaces with commuting horizontal and vertical squares.

    spaces: {(i, j): dim}; dh: {(i, j): matrix to (i-1, j)};
    dv: {(i, j): matrix to (i, j-1)}.  The two differentials commute on
    the nose; the anticommuting sign enters at totalization.
    """

    def __init__(self, spaces, dh, dv, validate=True):
        self.spaces = dict(spaces)
        self.dh = dict(dh)
        self.dv = dict(dv)
        if validate:
            self._validate()

    def dim(self, ij):
        return self.spaces.get(ij, 0)

    def _get(self, table, ij, target):
        m = table.get(ij)
        if m is None:
            return Matrix.zeros(self.dim(target), self.dim(ij))
        return m

    def h(self, i, j):
        return self._get(self.dh, (i, j), (i - 1, j))

    def v(self, i, j):
        return self._get(self.dv, (i, j), (i, j - 1))

    def _validate(self):
        for (i, j) in self.spaces:
            if self.dim((i, j)) == 0:
                continue
            hh = self.h(i - 1, j) @ self.h(i, j)
            if not hh.is_zero():
                raise ValidationError(f"horizontal square fails at {(i, j)}")
            vv = self.v(i, j - 1) @ self.v(i, j)
            if not vv.is_zero():
                raise ValidationError(f"vertical square fails at {(i, j)}")
            sq = self.h(i, j - 1) @ self.v(i, j) - self.v(i - 1, j) @ self.h(i, j)
            if not sq.is_zero():
                raise ValidationError(f"squares do not commute at {(i, j)}")

    def transpose(self):
        spaces = {(j, i): d for (i, j), d in self.spaces.items()}
        dh = {(j, i): m for (i, j), m in self.dv.items()}
        dv = {(j, i): m for (i, j), m in self.dh.items()}
        return DoubleComplex(spaces, dh, dv, validate=False)

    def total_degree_blocks(self, n):
        """Blocks (i, j) with i + j = n, ordered by increasing i."""
        return sorted((ij for ij in self.spaces if sum(ij) == n and self.dim(ij)), key=lambda ij: ij[0])

    def totalize(self):
        """Total complex with d = d_h + (-1)^i d_v; returns (complex, offsets).

        offsets maps (i, j) to the starting coordinate of that block in
        total degree i + j.
        """
        degrees = sorted({i + j for (i, j) in self.spaces})
        offsets = {}
        spaces = {}
        for n in degrees:
            pos = 0
            for ij in self.total_degree_blocks(n):
                offsets[ij] = pos
                pos += self.dim(ij)
            spaces[n] = pos
        diff = {}
        for n in degrees:
            if spaces.get(n, 0) == 0 or spaces.get(n - 1, 0) == 0:
                continue
            mat = Matrix.zeros(spaces[n - 1], spaces[n])
            for (i, j) in self.total_degree_blocks(n):
                src = offsets[(i, j)]
                h = self.h(i, j)
                if self.dim((i - 1, j)):
                    dst = offsets[(i - 1, j)]
                    for r in range(h.nrows):
                        row = mat.rows[dst + r]
                        hrow = h.rows[r]
                        for c in range(h.ncols):
                            if hrow[c]:
                                row[src + c] += hrow[c]
                v = self.v(i, j)
                if self.dim((i, j - 1)):
                    sign = -1 if i % 2 else 1
                    dst = offsets[(i, j - 1)]
                    for r in range(v.nrows):
                        row = mat.rows[dst + r]
                        vrow = v.rows[r]
                        for c in range(v.ncols):
                            if vrow[c]:
                                row[src + c] += sign * vrow[c]
            diff[n] = mat
        total = ChainComplex(spaces, diff)
        return total, offsets


def shuffle_transpose_iso(dc: DoubleComplex):
    """Chain isomorphism Tot(dc) -> Tot(dc^T) given by (-1)^{ij} on blocks.

    Returns (forward matrices per degree, total, total of transpose).
    """
    total, offs = dc.totalize()
    tdc = dc.transpose()
    ttotal, toffs = tdc.totalize()
    isos = {}
    for n in total.degrees():
        m = Matrix.zeros(ttotal.dim(n), total.dim(n))
        for (i, j) in dc.total_degree_blocks(n):
            sign = -1 if (i * j) % 2 else 1
            src = offs[(i, j)]
            dst = toffs[(j, i)]
            for k in range(dc.dim((i, j))):
                m.rows[dst + k][src + k] = sign
        isos[n] = m
    return isos, total, ttotal
