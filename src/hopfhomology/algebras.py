"""Finite dimensional associative algebras given by structure constants.

An algebra is a basis b_0..b_{n-1} with products b_i b_j = sum_k
c[i][j][k] b_k and a distinguished unit vector.  Modules are given by
one action matrix per basis element.  Constructors validate the axioms
by full basis sweeps; every downstream computation assumes valid data,
so the sweeps are not optional.
"""

from __future__ import annotations

from math import prod

from .errors import ValidationError
from .linalg import (
    Matrix,
    QuotientSpace,
    Subspace,
    _sparse,
    add_outer,
    frac,
    frac_str,
    induced_map,
    lincomb,
    memoized,
    sparse_add,
    sparse_kernel,
    unit_vec,
    zero_vec,
)


class FinDimAlgebra:
    """Associative unital algebra over Q with a chosen basis."""

    def __init__(self, dim, labels, mult, unit, validate=True):
        self.dim = dim
        self.labels = list(labels)
        if len(self.labels) != dim:
            raise ValidationError("label count does not match dimension")
        # mult[i][j] is the coordinate vector of b_i * b_j
        self.mult = [[[frac(x) for x in mult[i][j]] for j in range(dim)] for i in range(dim)]
        self.unit = [frac(x) for x in unit]
        if validate:
            self._validate()

    def _validate(self):
        n = self.dim
        for i in range(n):
            for j in range(n):
                if len(self.mult[i][j]) != n:
                    raise ValidationError("structure constant vector of wrong length")
        for i in range(n):
            ui = self.multiply(self.unit, unit_vec(n, i))
            iu = self.multiply(unit_vec(n, i), self.unit)
            if ui != unit_vec(n, i) or iu != unit_vec(n, i):
                raise ValidationError(f"unit fails on basis element {self.labels[i]}")
        for i in range(n):
            for j in range(n):
                ij = self.mult[i][j]
                for l in range(n):
                    left = self.multiply(ij, unit_vec(n, l))
                    right = self.multiply(unit_vec(n, i), self.mult[j][l])
                    if left != right:
                        raise ValidationError(
                            f"associativity fails on ({self.labels[i]},{self.labels[j]},{self.labels[l]})"
                        )

    def multiply(self, u, v):
        """Product of two coordinate vectors."""
        n = self.dim
        out = zero_vec(n)
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                c = a * b
                for k, s in enumerate(self.mult[i][j]):
                    if s:
                        out[k] += c * s
        return out

    @memoized
    def product(self, i, j):
        """b_i b_j as a sparse dict {k: coeff}."""
        return _sparse(self.mult[i][j])

    def left_mult_matrix(self, u):
        """Matrix of v -> u v."""
        return lincomb(zip(u, self._mult_matrices(True)), self.dim, self.dim)

    def right_mult_matrix(self, u):
        """Matrix of v -> v u."""
        return lincomb(zip(u, self._mult_matrices(False)), self.dim, self.dim)

    @memoized
    def _mult_matrices(self, left):
        """Multiplication by each basis element b_i, from the left or from the right."""
        n = self.dim
        return [Matrix.from_cols([self.mult[i][j] if left else self.mult[j][i] for j in range(n)], nrows=n)
                for i in range(n)]

    def enveloping(self):
        """A tensor A^op with basis b_i (x) b_j ordered lexicographically."""
        n = self.dim
        labels = [f"{self.labels[i]}(x){self.labels[j]}" for i in range(n) for j in range(n)]
        dim = n * n
        mult = [[None] * dim for _ in range(dim)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        # (x (x) y)(x' (x) y') = xx' (x) y'y
                        out = zero_vec(dim)
                        add_outer(out, 1, self.mult[i][k], self.mult[l][j])
                        mult[i * n + j][k * n + l] = out
        unit = zero_vec(dim)
        add_outer(unit, 1, self.unit, self.unit)
        return FinDimAlgebra(dim, labels, mult, unit, validate=False)

    def to_json(self):
        return {
            "dim": self.dim,
            "labels": self.labels,
            "unit": [frac_str(x) for x in self.unit],
            "mult": [
                [[frac_str(x) for x in self.mult[i][j]] for j in range(self.dim)]
                for i in range(self.dim)
            ],
        }

    @classmethod
    def from_json(cls, data):
        return cls(data["dim"], data["labels"], data["mult"], data["unit"])

    def __repr__(self):
        return f"FinDimAlgebra(dim {self.dim}: {', '.join(self.labels)})"


class ModuleRep:
    """Finite dimensional left or right module over a FinDimAlgebra.

    For a left module the action matrices satisfy rho(uv) = rho(u)rho(v);
    for a right module the order is reversed (matrices still act on
    column vectors, m . u = rho(u) m).
    """

    def __init__(self, algebra, dim, side, action, validate=True):
        if side not in ("left", "right"):
            raise ValidationError("side must be 'left' or 'right'")
        self.algebra = algebra
        self.dim = dim
        self.side = side
        self.action = [m if isinstance(m, Matrix) else Matrix(m, ncols=dim) for m in action]
        if len(self.action) != algebra.dim:
            raise ValidationError("need one action matrix per algebra basis element")
        if validate:
            self._validate()

    def _validate(self):
        n = self.algebra.dim
        ident = Matrix.identity(self.dim)
        for m in self.action:
            if m.nrows != self.dim or m.ncols != self.dim:
                raise ValidationError("action matrix of wrong shape")
        if self.act(self.algebra.unit) != ident:
            raise ValidationError("unit does not act as identity")
        for i in range(n):
            for j in range(n):
                lhs = self.act(self.algebra.mult[i][j])
                if self.side == "left":
                    rhs = self.action[i] @ self.action[j]
                else:
                    rhs = self.action[j] @ self.action[i]
                if lhs != rhs:
                    raise ValidationError(
                        f"{self.side} action fails on pair "
                        f"({self.algebra.labels[i]},{self.algebra.labels[j]})"
                    )

    def act(self, u):
        return lincomb(zip(u, self.action), self.dim, self.dim)

    @classmethod
    def regular_left(cls, algebra):
        return cls(
            algebra,
            algebra.dim,
            "left",
            [algebra.left_mult_matrix(unit_vec(algebra.dim, i)) for i in range(algebra.dim)],
            validate=False,
        )

    def to_json(self):
        return {
            "dim": self.dim,
            "side": self.side,
            "action": [m.to_json() for m in self.action],
        }

    @classmethod
    def from_json(cls, algebra, data):
        return cls(algebra, data["dim"], data["side"], [Matrix.from_json(m) for m in data["action"]])

    def __repr__(self):
        return f"ModuleRep({self.side}, dim {self.dim} over {self.algebra!r})"


class TensorSpace(QuotientSpace):
    """A balanced tensor product, read by its pure tensors.

    The ambient space is the plain tensor product of spaces of
    dimensions shape, row major: the pure tensor of slot indices
    (x_0, ..) sits at sum x_k * strides[k].  Each representative is one
    ambient basis vector, so coordinate k is the pure tensor words[k].
    A map out of the space is its value on pure tensors (map_to).  This
    class is the only code that converts between such tuples and flat
    indices (word and flat).
    """

    __slots__ = ("shape", "strides", "words")

    def __init__(self, shape, strides, relations: Subspace):
        super().__init__(prod(shape), relations)
        self.shape, self.strides = shape, strides
        self.words = [self.word(j) for j in self.reps]

    def word(self, j):
        """The tuple of slot indices of the ambient basis vector j."""
        return tuple(j // s % n for s, n in zip(self.strides, self.shape))

    def flat(self, elem):
        """The sparse ambient vector {flat index: coeff} of a sparse sum {tuple: coeff} of pure tensors."""
        out = {}
        for word, c in elem.items():
            sparse_add(out, sum(x * s for x, s in zip(word, self.strides)), c)
        return out

    def project_pure(self, elem):
        """Coordinates of a sparse sum {tuple of slot indices: coeff} of pure tensors."""
        return self.project(self.flat(elem))

    def map_to(self, target: TensorSpace, image) -> Matrix:
        """Matrix of the map to target sending each pure tensor w to image(w).

        image(w) is a sparse sum {tuple: coeff} of target's pure tensors;
        induced_map checks that the map descends to the balanced tensors.
        """
        return induced_map(lambda j: target.flat(image(self.word(j))), self, target)


def pure_tensor(s, t):
    """The pure tensor s (x) t of two dense vectors, as a sparse sum {(p, q): coeff}."""
    return {(p, q): c * d for p, c in enumerate(s) if c for q, d in enumerate(t) if d}


def balanced_tensor(shape, glues) -> TensorSpace:
    """Plain tensor product of spaces of dimensions shape, modulo glues.

    Each glue (i, j, pairs) and each pair (L, R) in it, L acting on slot
    i and R on slot j, contributes the relations
    { .. L x_i .. (x) .. x_j ..  -  .. x_i .. (x) .. R x_j .. } over every
    basis tuple.  Empty and repeated relations are dropped before the
    span is row reduced; they do not change it.
    """
    strides = [prod(shape[k + 1:]) for k in range(len(shape))]
    ambient = prod(shape)
    relations = {}
    for i, j, pairs in glues:
        si, sj = strides[i], strides[j]
        for L, R in pairs:
            lcols = [_sparse(L.col(x)) for x in range(shape[i])]
            rcols = [_sparse(R.col(y)) for y in range(shape[j])]
            for flat in range(ambient):
                x, y = flat // si % shape[i], flat // sj % shape[j]
                rel = {}
                for p, c in lcols[x].items():
                    sparse_add(rel, flat + (p - x) * si, c)
                for q, c in rcols[y].items():
                    sparse_add(rel, flat + (q - y) * sj, -c)
                if rel:
                    relations.setdefault(frozenset(rel.items()), rel)
    return TensorSpace(shape, strides, Subspace(ambient, list(relations.values())))


def tensor_over(algebra, m_right: ModuleRep, n_left: ModuleRep) -> TensorSpace:
    """m (x)_algebra n as a quotient of the plain tensor product.

    Relations span { m.a (x) n  -  m (x) a.n } over all basis elements.
    """
    if m_right.side != "right" or n_left.side != "left":
        raise ValidationError("tensor_over needs a right and a left module")
    return balanced_tensor((m_right.dim, n_left.dim), [(0, 1, zip(m_right.action, n_left.action))])


def hom_over(algebra, m: ModuleRep, n: ModuleRep) -> Subspace:
    """Space of module maps m -> n as a subspace of matrix space.

    Matrices T of shape dim(n) x dim(m) with T rho_m(b) = rho_n(b) T
    for every basis element b; flattened row major.
    """
    if m.side != n.side:
        raise ValidationError("hom_over needs modules of the same side")
    dm, dn = m.dim, n.dim
    unknowns = dn * dm
    rows = []
    for a_idx in range(algebra.dim):
        am = m.action[a_idx]
        an = n.action[a_idx]
        # equation T @ am - an @ T = 0, entry (r, c)
        for r in range(dn):
            for c in range(dm):
                row = {}
                for k in range(dm):
                    if am.rows[k][c]:
                        sparse_add(row, r * dm + k, am.rows[k][c])
                for k in range(dn):
                    if an.rows[r][k]:
                        sparse_add(row, k * dm + c, -an.rows[r][k])
                rows.append(row)
    return sparse_kernel(rows, unknowns)


def hom_basis_matrices(sub: Subspace, dn, dm):
    """Unflatten a hom_over basis into matrices."""
    out = []
    for p, tail in sub.echelon:
        m = Matrix.zeros(dn, dm)
        for j, c in [(p, 1), *tail.items()]:
            m.rows[j // dm][j % dm] = c
        out.append(m)
    return out
