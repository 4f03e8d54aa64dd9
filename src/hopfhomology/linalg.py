"""Exact linear algebra over the rationals.

Everything downstream reduces to row reduction of matrices with exact
entries: kernels, solves, ranks, quotients and maps induced on
quotients.  One sparse routine, _eliminate, does every row reduction in
the package, for dense Matrix input as well as for sparse rows.  It
eliminates modulo primes below 2**30 on integer dicts, recovers the
rationals by rational reconstruction, and proves the result with an
exact integer certificate, so it returns exactly the rational reduced
row echelon form.  All results are exact, and all bases are canonical
(reduced row echelon form, leftmost pivot first), so repeated runs of
any computation produce byte-identical output.

A map between quotient spaces is given by the sparse images of the
source's ambient basis vectors.  induced_map is the one place that
checks such a map descends (it sends every source relation into the
target relations) and the one place that reads off its matrix.

Matrices act on column vectors; vectors are plain lists of exact
numbers: an int where the value is integral, a Fraction otherwise, never
a float.  Python keeps mixed int and Fraction arithmetic exact.

memoized is the package's one memo on objects; functools.cache serves
only closures made per call or per object.  A method it decorates keeps
its results in the instance's own table, obj._memo[method name]
[positional arguments], made by the first memoized call, so every cache
lives and dies with the object whose data it holds, and an argument
object (a module, say) is a key by itself, never by an id that a freed
object could hand on.  A memoized method takes hashable positional
arguments only (a list or dict argument goes through a memoized helper
on its tuple), never returns None, and its results are shared between
callers, who must not mutate them.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from fractions import Fraction
from functools import cache, wraps
from math import isqrt, lcm

from .errors import NotWellDefinedError

Q = Fraction
_ZERO = 0


def frac(x) -> int | Fraction:
    """x exactly: an int when integral, else a Fraction.

    Takes ints, Fractions and strings like '2/3'; floats and booleans are
    rejected.
    """
    if isinstance(x, (float, bool)):
        raise TypeError(f"{type(x).__name__} input is not allowed in exact arithmetic")
    if isinstance(x, int):
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def frac_str(x) -> str:
    """Serialise a rational as 'p/q', or just 'p' when q = 1."""
    x = frac(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def zero_vec(n) -> list:
    return [0] * n


def unit_vec(n, i) -> list:
    v = [0] * n
    v[i] = 1
    return v


def memoized(fn):
    """Cache fn(obj, *args) in obj._memo, by name and then by args (see the module docstring)."""
    name = fn.__name__

    @wraps(fn)
    def cached(obj, *args):
        try:
            table = obj._memo[name]
        except AttributeError:  # the first memoized call on obj makes its table
            obj._memo = defaultdict(dict)
            table = obj._memo[name]
        out = table.get(args)
        if out is None:
            out = table[args] = fn(obj, *args)
        return out

    return cached


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_scale(c, u):
    return [c * a for a in u]


def vec_is_zero(u):
    return all(a == 0 for a in u)


def add_outer(acc, c, x, y):
    """acc[a * len(y) + b] += c * x[a] * y[b]: c (x (x) y) on pair coordinates."""
    for a, xa in enumerate(x):
        if xa:
            base = a * len(y)
            for b, yb in enumerate(y):
                if yb:
                    acc[base + b] += c * xa * yb


class Matrix:
    """Dense matrix of exact entries.  Rows are lists; shape is fixed."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        self.rows = [[frac(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.ncols = ncols
        if ncols is not None and self.nrows and ncols != self.ncols:
            raise ValueError("column count mismatch")

    @classmethod
    def _own(cls, rows, ncols):
        """Matrix on rows of exact entries built here and shared with nothing else.

        Skips the per-entry coercion of the public constructor.
        """
        m = cls.__new__(cls)
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def identity(cls, n):
        return cls._own([unit_vec(n, i) for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls._own([zero_vec(ncols) for _ in range(nrows)], ncols)

    @classmethod
    def from_sparse_cols(cls, cols, nrows):
        """Dense matrix from columns given as dicts {row: entry}."""
        out = cls.zeros(nrows, len(cols))
        for j, sparse in enumerate(cols):
            for i, c in sparse.items():
                out.rows[i][j] = c
        return out

    @classmethod
    def from_cols(cls, cols, nrows=None):
        if not cols:
            if nrows is None:
                raise ValueError("empty column list needs a row count")
            return cls.zeros(nrows, 0)
        n = len(cols[0])
        return cls._own([[frac(col[i]) for col in cols] for i in range(n)], len(cols))

    def col(self, j):
        return [row[j] for row in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        if self.nrows == 0 or self.ncols == 0:
            return f"Matrix(<{self.nrows}x{self.ncols}>)"
        body = "; ".join(" ".join(frac_str(x) for x in row) for row in self.rows)
        return f"Matrix([{body}])"

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return Matrix._own([vec_add(r, s) for r, s in zip(self.rows, other.rows)], self.ncols)

    def __sub__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return Matrix._own([vec_sub(r, s) for r, s in zip(self.rows, other.rows)], self.ncols)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = frac(c)
        return Matrix._own([vec_scale(c, r) for r in self.rows], self.ncols)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.ncols} vs {other.nrows}")
        out = []
        orows = other.rows
        for row in self.rows:
            acc = zero_vec(other.ncols)
            for k, c in enumerate(row):
                if c:
                    ork = orows[k]
                    for j in range(other.ncols):
                        if ork[j]:
                            acc[j] += c * ork[j]
            out.append(acc)
        return Matrix._own(out, other.ncols)

    def apply(self, v):
        """Matrix times column vector; iterates the nonzeros of v."""
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        support = [(j, b) for j, b in enumerate(v) if b]
        out = []
        for row in self.rows:
            s = 0
            for j, b in support:
                a = row[j]
                if a:
                    s += a * b
            out.append(s)
        return out

    def transpose(self):
        return Matrix._own([self.col(j) for j in range(self.ncols)], self.nrows)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Matrix._own([r + s for r, s in zip(self.rows, other.rows)], self.ncols + other.ncols)

    def kron(self, other):
        """Kronecker product, index (i,j) -> i * other_dim + j."""
        out = []
        for r in self.rows:
            for s in other.rows:
                row = []
                for a in r:
                    if a:
                        row.extend(a * b for b in s)
                    else:
                        row.extend([0] * other.ncols)
                out.append(row)
        return Matrix._own(out, self.ncols * other.ncols)

    def is_zero(self):
        return all(vec_is_zero(r) for r in self.rows)

    def sparse_rows(self):
        """The rows as dicts {column: entry} without zero values."""
        return [_sparse(row) for row in self.rows]

    def rref(self):
        """Reduced row echelon form.  Returns (rref_matrix, pivot_columns)."""
        reduced = _eliminate(self.sparse_rows())
        out = _dense_rows(reduced, self.ncols)
        out.extend(zero_vec(self.ncols) for _ in range(self.nrows - len(out)))
        return Matrix._own(out, self.ncols), [p for p, _ in reduced]

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Canonical basis of the right kernel, rows of the result."""
        kernel = sparse_kernel(self.sparse_rows(), self.ncols)
        return Matrix._own(_dense_rows(kernel.echelon, self.ncols), self.ncols)

    def solve(self, b):
        """Canonical solution v of self @ v = b, or None.

        Free variables are set to zero in rref coordinates.
        """
        sols = self.solve_matrix(Matrix.from_cols([b], nrows=self.nrows))
        if sols is None:
            return None
        return sols.col(0)

    def solve_matrix(self, B):
        """Solve self @ X = B column by column; None if any is inconsistent."""
        if B.nrows != self.nrows:
            raise ValueError("shape mismatch")
        aug = self.hstack(B)
        R, pivots = aug.rref()
        n = self.ncols
        for r_idx, p in enumerate(pivots):
            if p >= n:
                return None
        cols = []
        for k in range(B.ncols):
            x = zero_vec(n)
            for r_idx, p in enumerate(pivots):
                x[p] = R.rows[r_idx][n + k]
            cols.append(x)
        return Matrix.from_cols(cols, nrows=n)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        inv = self.solve_matrix(Matrix.identity(self.nrows))
        if inv is None:
            raise ValueError("matrix is singular")
        return inv

    def to_json(self):
        return [[frac_str(x) for x in row] for row in self.rows]

    @classmethod
    def from_json(cls, data, ncols=None):
        return cls([[frac(x) for x in row] for row in data], ncols=ncols)


def lincomb(terms, nrows, ncols) -> Matrix:
    """The matrix sum of c * m over the pairs (c, m) in terms.

    The sum accumulates in place on fresh rows, so the result shares no
    row with any term matrix and callers may mutate it.
    """
    out = Matrix.zeros(nrows, ncols)
    for c, m in terms:
        if not c:
            continue
        if m.nrows != nrows or m.ncols != ncols:
            raise ValueError("shape mismatch")
        c = frac(c)
        for row, mrow in zip(out.rows, m.rows):
            for j, a in enumerate(mrow):
                if a:
                    row[j] += c * a
    return out


class Subspace:
    """Row space held as its reduced row echelon form.

    echelon is the list of (pivot, tail) pairs that _eliminate returns:
    row k is 1 at its pivot, the sparse tail elsewhere and 0 at every
    other pivot.  So the coordinates of a vector of the span are its
    values at the pivots, and reducing a vector walks the tails of the
    pivots where it is nonzero.  Equal spans have equal echelons.
    """

    __slots__ = ("ambient_dim", "echelon", "_row")

    def __init__(self, ambient_dim, rows=()):
        """The span of sparse rows {column: entry}."""
        self.ambient_dim = ambient_dim
        self.echelon = _eliminate(rows)
        self._row = {p: k for k, (p, _) in enumerate(self.echelon)}

    @classmethod
    def from_vectors(cls, vectors, ambient_dim):
        return cls(ambient_dim, [{j: frac(x) for j, x in enumerate(v) if x} for v in vectors])

    @property
    def dim(self):
        return len(self.echelon)

    @property
    def pivots(self):
        return [p for p, _ in self.echelon]

    def decompose(self, v):
        """(coordinates, remainder) of a sparse vector v.

        The coordinates are {row: value of v at its pivot}; the remainder
        is v minus that combination of the basis, empty iff v is inside.
        """
        coords = {}
        rest = dict(v)
        for j, c in v.items():
            k = self._row.get(j)
            if k is not None:
                coords[k] = c
                del rest[j]
                sparse_axpy(rest, -c, self.echelon[k][1])
        return coords, rest

    def contains(self, v):
        return not self.decompose(_sparse(v))[1]

    def coordinates(self, v):
        """Coefficients of v on the rref basis, or None if v is outside."""
        coords, rest = self.decompose(_sparse(v))
        if rest:
            return None
        return [coords.get(k, _ZERO) for k in range(self.dim)]

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.echelon == other.echelon
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


class QuotientSpace:
    """Ambient space modulo a relation subspace.

    Canonical representatives are the standard basis vectors at the
    non-pivot columns of the relation rref; project and lift are then
    mutually inverse on coordinates by construction.
    """

    __slots__ = ("ambient_dim", "relations", "reps")

    def __init__(self, ambient_dim, relations: Subspace):
        if relations.ambient_dim != ambient_dim:
            raise ValueError("relation ambient mismatch")
        self.ambient_dim = ambient_dim
        self.relations = relations
        pivot_set = set(relations.pivots)
        self.reps = [j for j in range(ambient_dim) if j not in pivot_set]

    @property
    def dim(self):
        return len(self.reps)

    def project(self, v):
        """Coordinates of the class of v, a sparse dict or a dense list."""
        rest = self.relations.decompose(v if isinstance(v, dict) else _sparse(v))[1]
        return [rest.get(j, _ZERO) for j in self.reps]

    def lift(self, coords):
        v = zero_vec(self.ambient_dim)
        for j, c in zip(self.reps, coords):
            v[j] = c
        return v

    def __repr__(self):
        return f"QuotientSpace(dim {self.dim} = {self.ambient_dim} ambient mod {self.relations.dim})"


def quotient(ambient_dim, relation_vectors):
    """Quotient of the ambient coordinate space by the span of the relations."""
    return QuotientSpace(ambient_dim, Subspace.from_vectors(relation_vectors, ambient_dim))


def induced_map(image, source: QuotientSpace, target: QuotientSpace) -> Matrix:
    """Matrix of the map induced on quotient coordinates by a map of ambient spaces.

    image(j) is the sparse value {target ambient index: coeff} of the
    j-th ambient basis vector of the source, called at most once per j.
    Raises NotWellDefinedError unless every echelon row of the source
    relations maps into the target relations; the columns are then the
    projected images of the representatives.
    """
    image = cache(image)
    for p, tail in source.relations.echelon:
        if target.relations.decompose(sparse_axpy(sparse_extend(image, tail), 1, image(p)))[1]:
            raise NotWellDefinedError("map does not preserve the relation subspace")
    return Matrix.from_cols([target.project(image(j)) for j in source.reps], nrows=target.dim)


# ---------------------------------------------------------------------------
# sparse vectors: dict {key: int or Fraction} holding no zero values.  Every
# sparse accumulation in the package goes through sparse_add or sparse_axpy
# (which inlines it per term), and every elimination, dense Matrix.rref
# included, runs on sparse rows in _eliminate: the coboundary matrices of
# bar complexes are about 1% full.


def sparse_add(target, key, c):
    """target[key] += c on a sparse dict, dropping the key when it cancels."""
    s = target.get(key, 0) + c
    if s:
        target[key] = s
    else:
        target.pop(key, None)


def sparse_axpy(target, c, source):
    """target += c * source, dropping zeros; mutates and returns target."""
    if not c:
        return target
    for j, a in source.items():
        s = target.get(j, 0) + c * a
        if s:
            target[j] = s
        else:
            target.pop(j, None)
    return target


def sparse_extend(f, elt):
    """The linear extension of a basis map: sum of c * f(key) over elt, sparse.

    elt is a sparse dict or a dense list (keyed by position); f(key) is a
    sparse dict, called only on keys with a nonzero coefficient.
    """
    out = {}
    for key, c in elt.items() if isinstance(elt, dict) else enumerate(elt):
        if c:
            sparse_axpy(out, c, f(key))
    return out


# Pair vectors are sparse dicts {(p, q): coeff} on pure tensors of basis
# keys, and mul(a, b) is the sparse product of two basis keys.  Both the
# finite bialgebroids and U(g) state their Hopf identities through these.


def pair_product(mul, s, t, flip=False):
    """The leg-wise product of pair vectors: px (x) qy, or px (x) yq with flip."""
    out = {}
    for (p, q), c in s.items():
        for (x, y), d in t.items():
            second = mul(y, q) if flip else mul(q, y)
            for k1, e1 in mul(p, x).items():
                cde = c * d * e1
                for k2, e2 in second.items():
                    sparse_add(out, (k1, k2), cde * e2)
    return out


def pair_compose(mul, outer, inner):
    """x (x) yq summed over (p, q) of outer and (x, y) of inner(p)."""
    out = {}
    for (p, q), c in outer.items():
        for (x, y), d in inner(p).items():
            for k, e in mul(y, q).items():
                sparse_add(out, (x, k), c * d * e)
    return out


def coassociators(pairs, delta):
    """(delta (x) id)(pairs) and (id (x) delta)(pairs) as sparse triple vectors."""
    lhs, rhs = {}, {}
    for (p, q), c in pairs.items():
        for (x, y), d in delta(p).items():
            sparse_add(lhs, (x, y, q), c * d)
        for (x, y), d in delta(q).items():
            sparse_add(rhs, (p, x, y), c * d)
    return lhs, rhs


# The descending sequence of elimination primes starts here, below 2**30,
# so every residue is one CPython digit.
_FIRST_PRIME = 1073741789


def _primes():
    """_FIRST_PRIME, a prime, then the primes below it down to 2, descending."""
    yield _FIRST_PRIME
    n = _FIRST_PRIME - 1
    while n > 1:
        if n < 4 or (n % 2 and all(n % q for q in range(3, isqrt(n) + 1, 2))):
            yield n
        n -= 1


def _eliminate(rows, first=(None, None)):
    """Certified modular Gauss-Jordan elimination: the package's one row reduction.

    rows are dicts {column: int or Fraction} without zero values; they are not
    mutated; first may be what _first_echelon(rows) returned, whose forward
    pass is then not run again.  Returns the nonzero rows of the reduced
    row echelon form as (pivot column, tail) pairs in increasing pivot
    order: the row is 1 at its pivot, the sparse exact tail elsewhere, and
    0 at every other pivot.

    The rows are reduced mod a prime p (_rref_mod), skipping any prime
    that divides an input denominator, and each tail entry is recovered
    from its residue by rational reconstruction.  When that or the
    certificate fails, the residues of further primes are combined by
    the Chinese remainder theorem; only primes whose pivot list matches
    the best one seen (highest rank, then lexicographically smallest)
    are combined, since the true list beats that of any unlucky prime.
    _certify then checks in integers that every row is the combination
    of the candidate rows given by its values at the pivots.  The rank
    mod p of p-integral rows is at most their rank over Q, so the
    candidate spans the rows, is in reduced echelon form, and is
    therefore their unique rref (von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 5).
    """
    rows = [row for row in rows if row]
    best = best_pivots = modulus = None
    for p in _primes():
        reduced = _back_substitute(first[1], p) if p == first[0] else _rref_mod(rows, p)
        if reduced is None:  # p divides a denominator
            continue
        pivots = [c for c, _ in reduced]
        if best is None or (-len(pivots), pivots) < (-len(best), best_pivots):
            best, best_pivots, modulus = reduced, pivots, p
        elif pivots == best_pivots:
            best = [(c, _crt(acc, modulus, tail, p)) for (c, acc), (_, tail) in zip(best, reduced)]
            modulus *= p
        else:
            continue
        candidate = _reconstruct(best, modulus)
        if candidate is not None and _certify(rows, candidate):
            return candidate
    raise ArithmeticError("no prime left to eliminate with")


def _rref_mod(rows, p):
    """The rref mod p as (pivot, {column: residue}) pairs; None when p divides a denominator."""
    return _back_substitute(_echelon_mod(rows, p), p)


def _back_substitute(reduced, p):
    """Reduce _echelon_mod's result in place (None passes through): last pivot row
    first, each row's pivot columns are cleared with the rows below it, already reduced."""
    tail_of = {}
    for c, row in reversed(reduced or ()):
        for q in [j for j in row if j in tail_of]:
            _axpy_mod(row, p - row.pop(q), tail_of[q], p)
        tail_of[c] = row
    return reduced


def _echelon_mod(rows, p):
    """The forward pass mod p: a row echelon form as (pivot, {column: residue}) pairs.

    None when p divides a denominator.  Each row is 1 at its pivot,
    which its dict omits.  The columns are taken left to right.  The
    active rows with an entry at column c are exactly those whose
    leading column is c; the one with the fewest nonzeros becomes the
    pivot, which limits fill-in (Markowitz, 1957), and only the others
    in that bucket are updated.
    """
    inverse = {1: 1}
    by_lead = {}
    for row in rows:
        r = {}
        for j, a in row.items():
            d = a.denominator
            i = inverse.get(d)
            if i is None:
                if not d % p:
                    return None
                i = inverse[d] = pow(d, -1, p)
            v = a.numerator * i % p
            if v:
                r[j] = v
        if r:
            by_lead.setdefault(min(r), []).append(r)
    leads = list(by_lead)
    heapq.heapify(leads)
    reduced = []
    while leads:
        c = heapq.heappop(leads)
        bucket = by_lead.pop(c)
        chosen = min(bucket, key=len)
        inv = pow(chosen.pop(c), -1, p)
        if inv != 1:
            for j, a in chosen.items():
                chosen[j] = a * inv % p
        reduced.append((c, chosen))
        for row in bucket:
            if row is chosen:
                continue
            _axpy_mod(row, p - row.pop(c), chosen, p)
            if row:
                lead = min(row)
                if lead not in by_lead:
                    by_lead[lead] = []
                    heapq.heappush(leads, lead)
                by_lead[lead].append(row)
    return reduced


def _axpy_mod(row, f, tail, p):
    """row += f * tail mod p on sparse dicts of nonzero residues."""
    for j, a in tail.items():
        v = (row.get(j, 0) + f * a) % p
        if v:
            row[j] = v
        else:
            del row[j]


def _crt(acc, m, tail, p):
    """The residues mod m * p that are acc mod m and tail mod p, per column."""
    inv = pow(m, -1, p)
    out = {}
    for j in acc.keys() | tail.keys():
        a = acc.get(j, 0)
        x = a + m * ((tail.get(j, 0) - a) * inv % p)
        if x:
            out[j] = x
    return out


def _reconstruct(reduced, m):
    """The exact tails whose residues mod m are these, or None.

    Each entry becomes the r/s with |r|, |s| <= sqrt(m/2) congruent to
    its residue, found by the extended Euclidean algorithm stopped
    halfway; such an r/s is unique if it exists, so an integer comes
    out with s = +-1 and is returned as an int.  None when some entry
    has none.
    """
    bound = isqrt(m // 2)
    out = []
    for c, tail in reduced:
        rec = {}
        for j, u in tail.items():
            r0, r1, s0, s1 = m, u, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound:
                return None
            rec[j] = r1 * s1 if abs(s1) == 1 else Q(r1, s1)
        out.append((c, rec))
    return out


def _integer_row(row):
    """(m, {j: m * a}) for the lcm m of the denominators of a sparse row.

    With every denominator 1 the row itself comes back, not a copy.
    """
    m = lcm(*[a.denominator for a in row.values()])
    if m == 1:
        return 1, row
    return m, {j: a.numerator * (m // a.denominator) for j, a in row.items()}


def _certify(rows, reduced):
    """True iff every row equals the sum over k of row[p_k] * R_k, exactly.

    R_k is the k-th (pivot p_k, tail) pair of reduced.  The check runs
    in integers: each R_k is scaled by the lcm of its denominators, and
    each row by the lcm of its own denominators times the lcm of the
    scales at its pivots.  The pivot columns agree by construction, so
    only the others are summed.
    """
    scaled = {c: _integer_row(tail) for c, tail in reduced}
    for row in rows:
        a = _integer_row(row)[1]
        m = lcm(*[scaled[j][0] for j in a if j in scaled])
        acc = {}
        for j, c in a.items():
            s = scaled.get(j)
            if s is None:
                acc[j] = acc.get(j, 0) - m * c
            else:
                f = c if m == 1 else c * (m // s[0])
                for k, b in s[1].items():
                    acc[k] = acc.get(k, 0) + f * b
        if any(acc.values()):
            return False
    return True


def _smaller_side(rows):
    """The nonzero rows, or the nonzero columns when there are fewer of them."""
    rows = [row for row in rows if row]
    cols = sparse_columns(rows)
    return list(cols.values()) if len(cols) < len(rows) else rows


def sparse_rank(rows):
    """Rank of the span of sparse rows, certified; the smaller side is eliminated."""
    return len(_eliminate(_smaller_side(rows)))


def modular_rank(rows):
    """The rank mod p of sparse rows, a lower bound on their rank over Q, not certified.

    One forward pass on the smaller side, p the first prime dividing no denominator.
    """
    return len(_first_echelon(_smaller_side(rows))[1])


def _first_echelon(rows):
    """(p, _echelon_mod(rows, p)) for the first prime p dividing no denominator."""
    for p in _primes():
        echelon = _echelon_mod(rows, p)
        if echelon is not None:
            return p, echelon


def sparse_kernel(rows, ncols) -> Subspace:
    """The right kernel of sparse rows, a Subspace of the ncols coordinates.

    Each free column j of the rref gives the kernel vector that is 1 at
    j and minus the rref entries in column j at the pivots.  Subspace
    puts that basis in rref, so equal kernels always get equal echelons.
    """
    reduced = _eliminate(rows)
    pivots = {p for p, _ in reduced}
    basis = {j: {j: 1} for j in range(ncols) if j not in pivots}
    for p, tail in reduced:
        for j, a in tail.items():
            basis[j][p] = -a
    return Subspace(ncols, basis.values())


def sparse_columns(rows):
    """The nonzero columns {j: {i: entry}} of the matrix with these sparse rows."""
    cols = {}
    for i, row in enumerate(rows):
        for j, c in row.items():
            cols.setdefault(j, {})[i] = c
    return cols


def _sparse(v):
    """The sparse dict {index: entry} of a dense vector."""
    return {j: x for j, x in enumerate(v) if x}


def _dense_rows(reduced, ncols):
    """Dense rows of the (pivot, tail) pairs that _eliminate returns."""
    out = []
    for p, tail in reduced:
        dense = zero_vec(ncols)
        dense[p] = 1
        for j, a in tail.items():
            dense[j] = a
        out.append(dense)
    return out
