"""Homology of complexes of finite dimensional spaces given by sparse maps.

A complex is never stored as an object: homology_dims takes the
dimensions and the sparse columns of each map and returns the homology
dimensions, and HomologySpace takes the sparse rows of the map leaving
one space and the sparse columns of the map arriving in it and keeps
the classes with canonical representatives.  Both reject d d != 0.
Cochain and chain complexes alike are read in the direction their maps
run; callers index degrees.  The one total complex of the package,
resolutions.TotalTensorComplex (the reference for the product
diagonals), has the differential d = d_h + (-1)^i d_v on its block
(i, j), i the degree of the front (horizontal) factor: the
totalization sign (-1)^(horizontal degree) of the products module.
"""

from __future__ import annotations

from itertools import chain

from .errors import ValidationError
from .linalg import (QuotientSpace, Subspace, _dense_rows, _eliminate, _first_echelon,
                     sparse_extend, sparse_kernel)


def homology_dims(dims, maps):
    """Homology dimensions of the complex V_0 -> V_1 -> .. -> V_m.

    dims[i] is the dimension of V_i and maps[i] the sparse columns of
    V_i -> V_{i+1}, one per coordinate of V_i; the maps beyond either
    end are zero.  Returns dim V_i - rank in - rank out for every i.

    The maps are walked once and may come from a generator: each is
    dropped once walked, and its kept columns once the next map is
    checked unless the fallback needs them.  Each map must kill the kept
    columns of the map before it, checked exactly by sparse_extend over
    its columns (an index past the end of the map reads as zero); once
    that map has passed its own check they span its image, so d d = 0
    holds in full.
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
        if any(sparse_extend(lambda j: cols[j] if j < len(cols) else {}, col) for col in kept):
            raise ValidationError(f"d d != 0 from position {k - 2} to {k}")
        kept = [col for j, col in enumerate(cols) if col and j not in pivots]
        del cols  # the next map is built while the loop still names this one
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

    def representative(self, k):
        """Ambient cycle representing the k-th canonical basis class."""
        return _dense_rows([self.cycles.echelon[self.quotient.reps[k]]], self.ambient)[0]

    def representatives(self):
        return [self.representative(k) for k in range(self.dim)]
