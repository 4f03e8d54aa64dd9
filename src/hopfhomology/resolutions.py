"""Resolutions of the base algebra: the bar construction and friends.

The bar complex of U over A has degree n term (U (x)_Aop)^{n+1}, a free
left U-module.  Words are kept in a tail normal form: the degree n
basis is (u, t_1 .. t_n) where u runs over the U-basis and each t is an
index into a fixed free decomposition U = (+)_t f_t <| A.  The glueing
relations push base coefficients leftward as |>> actions, so
projections never touch a row reduction.

The resolution is the normalized one.  Its tail table starts with the
unit, f_0 = 1, and words with a unit tail span the acyclic degenerate
subcomplex (Loday, Cyclic Homology 1.1.14), so they are dropped: tails
run over 1 .. s-1 and degree n has (s-1)^n free generators.

The contracting homotopy s prepends a unit slot and renormalises slot 1
only, with bottom map a -> eta(1 (x) a) on the augmentation (which is
what the degree zero homotopy identity forces, using that eps is right
A-linear).  Slots 2 and up are already normal, so each push a |>> out
of slot 1 lands in the free slot as the product u eta(1 (x) a), and
s(e_u [K]) is s(e_u) with K appended.  The boundary b' is U-linear,
d s + s d = 1 (Loday 1.1.12; Weibel, An Introduction to Homological
Algebra 8.6) and s(f_t [w]) is the generator 1[t|w], so each degree of
b' follows from the one below:

    d(1[t])   = f_t - eta(1 (x) eps(f_t)),
    d(1[t|w]) = f_t [w] - s(f_t . d(1[w])).

The alternating face sum of the same b' is kept as an independent
oracle in tests/bar_oracle.py.

Free generator bookkeeping is the load bearing piece: the differential
is stored as a matrix of U-coefficients over the generators, which is
what turns Hom_U(P_n, M) and N (x)_U P_n into plain matrix complexes.
The diagonal P -> P (x)_A P that products use is the Alexander-Whitney
one, built on those generators through the coproduct and s: since
s(u[w]) = 1[u|w], its front leg 1[x_1|..|x_i] is
s(x_1 . s(x_2 . .. s(x_i . 1))), with . the product on the free slot.
"""

from __future__ import annotations

from itertools import product as iproduct

from .algebras import ModuleRep, pure_tensor
from .bialgebroid import BialgebroidData, _expand_table, module_tensor_left
from .complexes import homology_dims
from .errors import LiftFailedError, ValidationError, WindowExceededError
from .homology import lift
from .linalg import Matrix, _sparse, sparse_add, sparse_extend, unit_vec, zero_vec


class BarResolution:
    """Truncated normalized bar resolution of A over U, free generators recorded.

    A depth N construction certifies Ext and Tor in degrees <= N - 1;
    consumers enforce the window.
    """

    def __init__(self, data: BialgebroidData, depth: int):
        if depth < 1:
            raise ValidationError("depth must be at least 1")
        self.data = data
        self.depth = depth
        self.max_degree = depth
        U = data.U
        self.U = U
        table = _expand_table(U, data.tri_r, [U.unit] + data.tails_l)
        if table is None or table[0][0] != U.unit:
            raise ValidationError("the unit of U does not start a free tail table over <|")
        self.tails, self.expand = table
        self.s = len(self.tails)
        # the right factor eta(1 (x) a_r) of the push a_r |>>
        self._pushes = [data.eta_target(unit_vec(data.A.dim, r)) for r in range(data.A.dim)]
        self._unit_homotopy = {}
        self._homotopy_cache = {}
        self._diag_cache = {}
        self._gens = {}
        self._gen_index = {}
        self._diff_cols = {}
        self._action_cache = {}

    # -- bookkeeping ----------------------------------------------------

    def rank(self, n):
        if not (0 <= n <= self.depth):
            raise WindowExceededError(f"degree {n} outside bar window 0..{self.depth}")
        return len(self.generators(n))

    def generators(self, n):
        """The tail words (t_1 .. t_n) of degree n in lexicographic order, built on demand."""
        if n not in self._gens:
            self._gens[n] = list(iproduct(range(1, self.s), repeat=n))
            self._gen_index[n] = {g: k for k, g in enumerate(self._gens[n])}
        return self._gens[n]

    def gen_index(self, n, g):
        self.generators(n)
        return self._gen_index[n][g]

    def words(self, n):
        """Concrete basis words (u, t_1 .. t_n) at degree n, generator major."""
        return [(u,) + g for g in self.generators(n) for u in range(self.U.dim)]

    def word_index(self, n, w):
        return self.gen_index(n, w[1:]) * self.U.dim + w[0]

    def concrete_dim(self, n):
        return self.rank(n) * self.U.dim

    # -- normal form ----------------------------------------------------

    def _renorm(self, u, vec):
        """e_u (x) vec in normal form for a raw U-vector vec in slot 1, {(b, t): coeff}.

        Each push a_r |>> out of slot 1 lands in the free slot as the
        product e_u eta(1 (x) a_r); words with a unit tail are dropped.
        """
        out = {}
        for b, cb in vec.items():
            for t, r, c in self.expand[b]:
                if t:
                    for p, d in self.times(unit_vec(self.U.dim, u), self._pushes[r]).items():
                        sparse_add(out, (p, t), cb * c * d)
        return out

    # -- boundary, homotopy, augmentation --------------------------------

    def boundary_word(self, w):
        """b' of a normal word (u, g): e_u times column g of the differential.

        A sparse dict of degree n-1 normal words.  It answers one degree
        above the window too, where the homotopy identity reads it.
        """
        n = len(w) - 1
        if n == 0:
            return {}
        below, out = self.generators(n - 1), {}
        for K, v in self._differential(n)[self.gen_index(n, w[1:])].items():
            for r, c in enumerate(self.U.multiply(unit_vec(self.U.dim, w[0]), v)):
                if c:
                    out[(r,) + below[K]] = c
        return out

    def boundary_elt(self, elt):
        return sparse_extend(self.boundary_word, elt)

    def homotopy_word(self, w):
        """s of a normal word (u, K): s(e_u), cached on u, with K appended."""
        u = w[0]
        head = self._unit_homotopy.get(u)
        if head is None:
            head = self._unit_homotopy[u] = sparse_extend(lambda p: self._renorm(p, {u: 1}), self.U.unit)
        return {v + w[1:]: c for v, c in head.items()}

    def homotopy_elt(self, elt):
        return sparse_extend(self.homotopy_word, elt)

    def homotopy_bottom(self, a_vec):
        """s on the augmentation: a -> eta(1 (x) a)."""
        v = self.data.eta_target(a_vec)
        return {(p,): c for p, c in _sparse(v).items()}

    def augmentation_word(self, w):
        return self.data.counit(unit_vec(self.U.dim, w[0]))

    # -- the Alexander-Whitney diagonal ----------------------------------

    def diagonal(self, g, i):
        """The P_i (x) P_(n-i) part of the diagonal on the generator 1 (x) f_g.

        1[f_1|..|f_n] goes to [f_1(1)|..|f_i(1)] (x) f_1(2)..f_i(2)[f_(i+1)|..|f_n],
        a sparse dict {(front word, back word): coeff}.  The front leg is
        s(f_1(1) . s(f_2(1) . .. s(f_i(1) . 1))): for i = n it is one step of s
        on the leg of 1[f_2|..|f_n], and for i < n it is the leg of 1[g[:i]].
        """
        key = (g, i)
        out = self._diag_cache.get(key)
        if out is None:
            if i < len(g):
                out = {(w, b + g[i:]): c for (w, b), c in self.diagonal(g[:i], i).items()}
            elif not g:
                one = _sparse(self.U.unit)
                out = {((p,), (q,)): c * d for p, c in one.items() for q, d in one.items()}
            else:
                out = {}
                for (p, q), c in self.data.delta_of_vec(self.tails[g[0]]).items():
                    for (w, (b,)), d in self.diagonal(g[1:], i - 1).items():
                        back = self.U.product(q, b)
                        for r, e in self.U.product(p, w[0]).items():
                            for w2, f in self.homotopy_word((r,) + w[1:]).items():
                                for b2, h in back.items():
                                    sparse_add(out, (w2, (b2,)), c * d * e * f * h)
            self._diag_cache[key] = out
        return out

    # -- free generator differential -------------------------------------

    def diff_cols(self, n):
        """Column j: dict {row generator index: U-coefficient tuple}, b' of generator j."""
        if not (1 <= n <= self.depth):
            raise WindowExceededError(f"differential {n} outside bar window")
        return self._differential(n)

    def _differential(self, n):
        """The columns of b' in degree n >= 1, built from degree n - 1 and cached.

        d(1[t|w]) = f_t [w] - s(f_t . d(1[w])), where s(f_t e_p [K]) is
        _tail_homotopy(t, p) with K appended; for w empty the bottom map
        takes the place of d(1[w]), which gives f_t - eta(1 (x) eps(f_t)).
        Generator (t,) + w has index (t - 1)(s - 1)^(n-1) + index(w), so
        the columns run over t and then over the columns of degree n - 1.
        """
        if n in self._diff_cols:
            return self._diff_cols[n]
        data, nu, cols = self.data, self.U.dim, []
        below = self._differential(n - 1) if n > 1 else [{}]
        self.generators(n - 1)
        rows = list(self._gen_index[n - 1].values())  # gen_index's own ints: every column shares its row keys
        stride = (self.s - 1) ** max(n - 2, 0)
        for t in range(1, self.s):
            f = self.tails[t]
            for j, col in zip(rows, below):
                acc = {j: list(f) if n > 1 else [a - b for a, b in zip(f, data.eta_target(data.counit(f)))]}
                for K, v in col.items():
                    for p, c in enumerate(v):
                        if c:
                            for (u, t2), d in self._tail_homotopy(t, p).items():
                                acc.setdefault(rows[(t2 - 1) * stride + K], [0] * nu)[u] -= c * d
                cols.append({r: tuple(v) for r, v in acc.items() if any(v)})
        self._diff_cols[n] = cols
        return cols

    def _tail_homotopy(self, t, p):
        """s(f_t e_p) = 1 (x) f_t e_p in normal form, {(u, tail): coeff}, cached on (t, p)."""
        key = (t, p)
        out = self._homotopy_cache.get(key)
        if out is None:
            prod = self.times(self.tails[t], unit_vec(self.U.dim, p))
            out = self._homotopy_cache[key] = self.homotopy_elt({(b,): c for b, c in prod.items()})
        return out

    def _by_generator(self, elt):
        """A sparse element {word: coeff} as {generator: U-coordinate tuple}."""
        out = {}
        for w, c in elt.items():
            out.setdefault(w[1:], zero_vec(self.U.dim))[w[0]] += c
        return {g: tuple(v) for g, v in out.items()}

    def act_left(self, uvec, M: ModuleRep):
        key = (M, uvec)  # M itself, not id(M): a freed module's id is reused
        out = self._action_cache.get(key)
        if out is None:
            out = M.act(list(uvec))
            self._action_cache[key] = out
        return out

    def act_basis(self, p, M: ModuleRep):
        return M.action[p]

    # -- comparison maps --------------------------------------------------

    def times(self, u, v):
        return _sparse(self.U.multiply(u, v))

    def contract(self, j, words):
        return self._by_generator(self.homotopy_elt(words))

    def lift(self, src, m, values, top):
        """Chain maps f_j : src_(m+j) -> P_j for j = 0 .. top, over values.

        values[k] is the A-value of the k-th generator of src_m.  The
        contraction s builds f_0 = s(value), and homology.lift the rest
        through contract = s.  Each f_j maps a generator of src to
        {generator of P_j: U-coordinate tuple}.
        """
        gens = src.generators(m)
        bottom = {G: self._by_generator(self.homotopy_bottom(a)) for G, a in zip(gens, values)}
        return lift(src, self, m, bottom, top)

    def u_linear_matrix(self, f, n):
        """The concrete matrix of the U-linear map with generator values f in P_n.

        Columns run over the source words (u, G), generator major.
        """
        cols = []
        for img in f.values():
            for p in range(self.U.dim):
                col = zero_vec(self.concrete_dim(n))
                for K, v in img.items():
                    for r, c in enumerate(self.U.multiply(unit_vec(self.U.dim, p), v)):
                        if c:
                            col[self.word_index(n, (r,) + K)] += c
                cols.append(col)
        return Matrix.from_cols(cols, nrows=self.concrete_dim(n))

    # -- concrete chain model ---------------------------------------------

    def chain_matrix(self, n):
        """The k-linear boundary on concrete words, dense: diff_cols(n) extended U-linearly."""
        below = self.generators(n - 1)
        cols = ({below[K]: v for K, v in col.items()} for col in self.diff_cols(n))
        return self.u_linear_matrix(dict(zip(self.generators(n), cols)), n - 1)

    def action_matrices(self, n):
        """Left multiplication on the free slot, 1 (x) (e_u .) for each U-basis vector e_u."""
        key = ("act", n)
        if key not in self._action_cache:
            one, nu = Matrix.identity(self.rank(n)), self.U.dim
            self._action_cache[key] = [one.kron(Matrix.from_cols(self.U.mult[u], nrows=nu)) for u in range(nu)]
        return self._action_cache[key]

    def module_rep(self, n):
        return ModuleRep(self.U, self.concrete_dim(n), "left", self.action_matrices(n), validate=False)

    def augmentation_matrix(self):
        return Matrix.from_cols([self.augmentation_word(w) for w in self.words(0)], nrows=self.data.A.dim)

    def generator_vector(self, n, g):
        """Concrete coordinates of the generator 1 (x) f_{g}: the unit in the block of g."""
        v = zero_vec(self.concrete_dim(n))
        k = self.word_index(n, (0,) + g)
        v[k : k + self.U.dim] = self.U.unit
        return v

    def __repr__(self):
        return f"BarResolution({self.data.name}, depth {self.depth}, rank base {self.s})"


def bar_resolution(data: BialgebroidData, depth: int) -> BarResolution:
    return BarResolution(data, depth)

# ---------------------------------------------------------------------------
# the total complex of P (x) P


class TotalTensorComplex:
    """Tot of the levelwise monoidal product of a bar resolution with itself.

    Block (i, j) is the quotient presentation of P_i (x)_A P_j with its
    module structure (module_tensor_left).  Total degree n stacks the
    blocks (i, n - i) by increasing i, the block starting at coordinate
    offsets[i, n - i] of a space of dimension dims[n], and action[n] is
    the block diagonal module structure.  diff[n] : Tot_n -> Tot_(n-1)
    is d (x) 1 + (-1)^i 1 (x) d on block (i, j), the totalization sign
    of the products module, and d d = 0 is checked at construction; aug
    is the augmentation through A (x) A = A.  Certified through total
    degree `upto`.  Products do not build it: it is the reference
    against which the tests check that BarResolution.diagonal is a
    chain map.
    """

    def __init__(self, bar: BarResolution, upto: int):
        if upto > bar.depth:
            raise WindowExceededError("total degree exceeds the bar window")
        self.bar = bar
        self.data = data = bar.data
        self.upto = upto
        reps = {n: bar.module_rep(n) for n in range(upto + 1)}
        # d_n on each concrete word, as sparse columns
        chain = {n: bar.chain_matrix(n).transpose().sparse_rows() for n in range(1, upto + 1)}
        self.blocks, self.offsets, self.dims, self.diff, self.action = {}, {}, [], {}, {}
        for n in range(upto + 1):
            pos = 0
            for i in range(n + 1):
                block = self.blocks[i, n - i] = module_tensor_left(data, reps[i], reps[n - i])
                self.offsets[i, n - i] = pos
                pos += block.space.dim
            self.dims.append(pos)
            self.action[n] = [Matrix.zeros(self.dims[n], self.dims[n]) for _ in range(data.U.dim)]
            for i in range(n + 1):
                off = self.offsets[i, n - i]
                for mat, blk in zip(self.action[n], self.blocks[i, n - i].module.action):
                    _place(mat, blk, off, off)
        for n in range(1, upto + 1):
            out = self.diff[n] = Matrix.zeros(self.dims[n - 1], self.dims[n])
            for i in range(n + 1):
                j, src, col = n - i, self.blocks[i, n - i].space, self.offsets[i, n - i]
                if i:  # d (x) 1 into block (i - 1, j)
                    d_1 = src.map_to(self.blocks[i - 1, j].space,
                                     lambda w: {(x, w[1]): c for x, c in chain[i][w[0]].items()})
                    _place(out, d_1, self.offsets[i - 1, j], col)
                if j:  # (-1)^i 1 (x) d into block (i, j - 1)
                    one_d = src.map_to(self.blocks[i, j - 1].space,
                                       lambda w: {(w[0], y): c for y, c in chain[j][w[1]].items()})
                    _place(out, one_d, self.offsets[i, j - 1], col, -1 if i % 2 else 1)
            if n >= 2 and not (self.diff[n - 1] @ out).is_zero():
                raise ValidationError(f"d d != 0 from total degree {n} to {n - 2}")
        # augmentation through A (x) A -> A, on the pure tensor of each coordinate
        aug0 = bar.augmentation_matrix()
        self.aug = Matrix.from_cols(
            [data.A.multiply(aug0.col(p), aug0.col(q)) for p, q in self.blocks[0, 0].space.words],
            nrows=data.A.dim,
        )

    def check_resolution(self):
        """Exactness of the augmented total complex in checked degrees."""
        # homology_dims reads Tot_upto -> .. -> Tot_0 from its top
        maps = [self.diff[n].transpose().sparse_rows() for n in range(self.upto, 0, -1)]
        betti = homology_dims(self.dims[::-1], maps)[::-1]
        report = {}
        if self.upto >= 1:
            # H_0 must be A through the augmentation
            report[0] = betti[0] == self.data.A.dim
        for n in range(1, self.upto):
            report[n] = betti[n] == 0
        if self.upto >= 1 and not (self.aug @ self.diff[1]).is_zero():
            report["aug"] = False
        return report


def _place(mat, block, row, col, sign=1):
    """Add sign * block into mat with its top left corner at (row, col)."""
    for r, entries in enumerate(block.rows):
        target = mat.rows[row + r]
        for c, x in enumerate(entries):
            if x:
                target[col + c] += sign * x


# ---------------------------------------------------------------------------
# chain map lifting


def lift_into_total(bar: BarResolution, tot: TotalTensorComplex, upto: int):
    """Diagonal approximation P -> Tot(P (x) P) by degreewise exact solves.

    Degree zero sends 1 to the class of 1 (x) 1; each next degree
    solves d X = F_{n-1}(d g) per free generator and extends
    U-linearly.  LiftFailedError if a solve is inconsistent.  The tests
    compare the closed-form BarResolution.diagonal against this lift.
    """
    data = bar.data
    U = data.U
    # the degree zero basis of the bar resolution is the U-basis, and u goes to u . (1 (x) 1)
    base = tot.blocks[0, 0].space.project_pure(pure_tensor(U.unit, U.unit))
    mats = [Matrix.from_cols([tot.action[0][u].apply(base) for u in range(U.dim)], nrows=tot.dims[0])]
    for n in range(1, upto + 1):
        prev = mats[n - 1]
        d_tot = tot.diff[n]
        d_bar = bar.chain_matrix(n)
        gen_sol = {}
        for g in bar.generators(n):
            rhs = prev.apply(d_bar.apply(bar.generator_vector(n, g)))
            sol = d_tot.solve(rhs)
            if sol is None:
                raise LiftFailedError(f"diagonal lift inconsistent at degree {n}")
            gen_sol[g] = sol
        cols = [tot.action[n][w[0]].apply(gen_sol[w[1:]]) for w in bar.words(n)]
        mats.append(Matrix.from_cols(cols, nrows=tot.dims[n]))
    return mats
