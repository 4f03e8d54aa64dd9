"""Bialgebroid and Hopf structure on an algebra U over a base algebra A.

The data is a map eta : A (x) A^op -> U, a coproduct lift into U (x) U,
and the left U-action on A (written eps_hat).  From eta one derives four
commuting A-actions on any U-module; on U itself we write

    a |> u = eta(a (x) 1) u        u <| b = eta(1 (x) b) u
    a |>> u = u eta(1 (x) a)       u <<| b = u eta(b (x) 1)

(|> / <| restrict left modules, |>> / <<| restrict right modules).  The
coproduct lives on the quotient

    U (x)_A U = U (x) U / span{ u <| a (x) v - u (x) a |> v },

and the Galois map beta(u (x) v) = u_(1) (x) u_(2) v is defined on

    U (x)_Aop U = U (x) U / span{ a |>> u (x) v - u (x) v <| a }.

Both quotients, and the two triple products on which coassociativity
and the translation-coproduct identity are compared, are built by
algebras.balanced_tensor, the builder every module tensor uses: the
relation span is row reduced, and the TensorSpace it returns reads
every balanced tensor the same way: coordinate k is the pure tensor
words[k], and a sparse sum {tuple: coeff} of pure tensors is read with
project_pure.  A map between two balanced tensors (the diagonal
actions, the Galois maps, the flip) is given by its value on pure
tensors and built by TensorSpace.map_to, whose linalg.induced_map
checks that it descends; the Takeuchi property of the coproduct is
what makes these maps well defined.
U must be free over the <| and the |>> actions; the free <| generators
(tails) seed the bar resolution.

The identities that U(g) shares with these finite bialgebroids (the two
translation identities, coassociativity, and the multiplicativity of the
coproduct and of the translation) are evaluated by the sparse pair
helpers of linalg on mul = FinDimAlgebra.product, and compared after
projecting to these quotients; pbw.ug_hopf_report calls the same
helpers on PBW monomials.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from .algebras import FinDimAlgebra, ModuleRep, TensorSpace, balanced_tensor, pure_tensor, tensor_over
from .errors import (
    NotInvertibleError,
    NotWellDefinedError,
    TakeuchiReport,
    ValidationError,
)
from .linalg import (
    Matrix,
    Subspace,
    _sparse,
    add_outer,
    coassociators,
    lincomb,
    pair_compose,
    pair_product,
    sparse_add,
    sparse_axpy,
    sparse_extend,
    sparse_kernel,
    unit_vec,
    zero_vec,
)


def _expand_table(U: FinDimAlgebra, mats, candidates):
    """Decompose U as a free module over the commuting family mats[r].

    mats[r] is the action of the r-th A-basis element; the table sends a
    U-basis index i to a list of (t, r, coeff) with
    e_i = sum coeff * mats[r] @ generator_t.  Generators are chosen
    greedily from candidates.  Returns (generators, table) or None when
    the candidates do not give a free decomposition.
    """
    n = U.dim
    na = len(mats)
    gens = []
    cols = []
    for cand in candidates:
        trial = cols + [mats[r].apply(cand) for r in range(na)]
        m = Matrix.from_cols(trial, nrows=n)
        if m.rank() == len(trial):
            gens.append(cand)
            cols = trial
            if len(cols) == n:
                break
    if len(cols) != n:
        return None
    basis = Matrix.from_cols(cols, nrows=n)
    inv = basis.inverse()
    table = [[(k // na, k % na, c) for k, c in _sparse(inv.col(i)).items()] for i in range(n)]
    return gens, table


def _pure_lift(space, matrix):
    """i -> column i of matrix (rows on the TensorSpace space) as pure tensors, cached."""
    return cache(lambda i: {space.words[k]: c for k, c in enumerate(matrix.col(i)) if c})


class BialgebroidData:
    """U with its base algebra A, eta, coproduct lift and counit data.

    eta is a (dim U) x (dim A)^2 matrix on the basis a_i (x) a_j of the
    enveloping algebra of A; delta_lift is a (dim U)^2 x (dim U) matrix
    into U (x) U coordinates (pair (p, q) -> p * dimU + q); eps_hat is
    one (dim A) x (dim A) matrix per U-basis element, the action of U
    on A.  The coproduct is stored projected onto U (x)_A U.
    """

    def __init__(self, U, A, eta, delta_lift, eps_hat, tail_basis=None, name=None):
        self.U = U
        self.A = A
        self.name = name or "bialgebroid"
        self.eta = eta if isinstance(eta, Matrix) else Matrix(eta, ncols=A.dim * A.dim)
        if self.eta.nrows != U.dim or self.eta.ncols != A.dim * A.dim:
            raise ValidationError("eta has the wrong shape")
        self.eps_hat = [m if isinstance(m, Matrix) else Matrix(m, ncols=A.dim) for m in eps_hat]
        if len(self.eps_hat) != U.dim:
            raise ValidationError("eps_hat needs one matrix per U-basis element")

        na, nu = A.dim, U.dim
        self._eta_img = {}
        for i in range(na):
            for j in range(na):
                self._eta_img[(i, j)] = self.eta.col(i * na + j)

        # four A-actions on U, one matrix per A-basis element
        self.tri_l = [U.left_mult_matrix(self.eta_source(unit_vec(na, i))) for i in range(na)]
        self.tri_r = [U.left_mult_matrix(self.eta_target(unit_vec(na, i))) for i in range(na)]
        self.bl_l = [U.right_mult_matrix(self.eta_target(unit_vec(na, i))) for i in range(na)]
        self.bl_r = [U.right_mult_matrix(self.eta_source(unit_vec(na, i))) for i in range(na)]

        # U must be free over <| and over |>>; the <| tails seed the bar resolution
        candidates = list(tail_basis) if tail_basis else []
        candidates += [unit_vec(nu, i) for i in range(nu)]
        left = _expand_table(U, self.tri_r, candidates)
        if left is None:
            raise ValidationError("U is not free over the <| action on the given candidates")
        self.tails_l = left[0]
        if _expand_table(U, self.bl_l, candidates) is None:
            raise ValidationError("U is not free over the |>> action on the given candidates")

        # u <| a (x) v ~ u (x) a |> v  and  a |>> u (x) v ~ u (x) v <| a
        self._a_glue = list(zip(self.tri_r, self.tri_l))
        self._aop_glue = list(zip(self.bl_l, self.tri_r))
        self.uau = balanced_tensor((nu, nu), [(0, 1, self._a_glue)])
        self.uaopu = balanced_tensor((nu, nu), [(0, 1, self._aop_glue)])

        self.delta_lift = delta_lift if isinstance(delta_lift, Matrix) else Matrix(delta_lift, ncols=nu)
        if self.delta_lift.nrows != nu * nu or self.delta_lift.ncols != nu:
            raise ValidationError("delta lift has the wrong shape")
        self.delta = Matrix.from_cols(
            [self.uau.project(self.delta_lift.col(i)) for i in range(nu)], nrows=self.uau.dim
        )
        # counit from eps_hat
        self.eps = Matrix.from_cols(
            [self.eps_hat[i].apply(A.unit) for i in range(nu)], nrows=na
        )
        # canonical pure-tensor lift of Delta(e_i), sparse
        self.delta_pure = _pure_lift(self.uau, self.delta)

    # -- eta helpers --------------------------------------------------

    def _eta_pair(self, a, b):
        """eta(a (x) b)."""
        pair = zero_vec(self.A.dim * self.A.dim)
        add_outer(pair, 1, a, b)
        return self.eta.apply(pair)

    def eta_source(self, a):
        """eta(a (x) 1)."""
        return self._eta_pair(a, self.A.unit)

    def eta_target(self, b):
        """eta(1 (x) b)."""
        return self._eta_pair(self.A.unit, b)

    def eta_apply(self, env_vec):
        return self.eta.apply(env_vec)

    # -- spaces -------------------------------------------------------

    def triple_a_space(self):
        """U (x)_A U (x)_A U: the A glue between slots 0 and 1 and between 1 and 2."""
        if not hasattr(self, "_triple_a"):
            self._triple_a = balanced_tensor((self.U.dim,) * 3, [(0, 1, self._a_glue), (1, 2, self._a_glue)])
        return self._triple_a

    def translation_triple_space(self):
        """Triple with the Aop glue between slots 0 and 2, the A glue between 1 and 2.

        a |>> u (x) v (x) w ~ u (x) v (x) w <| a skips the middle slot;
        u (x) v <| a (x) w ~ u (x) v (x) a |> w.
        """
        if not hasattr(self, "_triple_mixed"):
            self._triple_mixed = balanced_tensor(
                (self.U.dim,) * 3, [(0, 2, self._aop_glue), (1, 2, self._a_glue)]
            )
        return self._triple_mixed

    # -- coproduct helpers ---------------------------------------------

    def takeuchi_centralizer(self) -> Subspace:
        """The subspace of U (x)_A U where the outer base actions agree.

        Computed once as the kernel of the stacked centrality system;
        membership of a coproduct value is then a subspace solve.
        """
        if not hasattr(self, "_centralizer_a"):
            self._centralizer_a = self._centralizer(self.uau, self.bl_l, self.bl_r)
        return self._centralizer_a

    def aop_centralizer(self) -> Subspace:
        """Same centre condition inside U (x)_Aop U (for the translation map)."""
        if not hasattr(self, "_centralizer_aop"):
            self._centralizer_aop = self._centralizer(self.uaopu, self.tri_r, self.bl_l)
        return self._centralizer_aop

    def _centralizer(self, space, first_family, second_family):
        """The common kernel on space of f (x) 1 - 1 (x) s over the pairs (f, s) of the families."""
        rows = []
        for f, s in zip(first_family, second_family):
            rows += space.map_to(
                space, lambda w: sparse_axpy(_act_leg({w: 1}, 0, f.col), -1, _act_leg({w: 1}, 1, s.col))
            ).sparse_rows()
        return sparse_kernel(rows, space.dim)

    def delta_of_vec(self, u):
        return sparse_extend(self.delta_pure, u)

    def counit(self, u):
        return self.eps.apply(u)

    def a_module(self):
        """A as a left U-module through eps_hat."""
        if not hasattr(self, "_a_module"):
            self._a_module = ModuleRep(self.U, self.A.dim, "left", self.eps_hat)
        return self._a_module

    def to_json(self):
        """Serialise U, A, eta, the coproduct lift, eps_hat and the <| tails.

        The lift is written as it was given, so from_json(to_json())
        exports the same blob again.
        """
        from .linalg import frac_str

        return {
            "U": self.U.to_json(),
            "A": self.A.to_json(),
            "eta": self.eta.to_json(),
            "Delta_lift": self.delta_lift.to_json(),
            "epsilon_hat": [m.to_json() for m in self.eps_hat],
            "tail_basis": [[frac_str(x) for x in t] for t in self.tails_l],
        }

    @classmethod
    def from_json(cls, blob, name=None):
        from .linalg import frac

        U = FinDimAlgebra.from_json(blob["U"])
        A = FinDimAlgebra.from_json(blob["A"])
        eta = Matrix.from_json(blob["eta"])
        lift = Matrix.from_json(blob["Delta_lift"])
        eps_hat = [Matrix.from_json(m) for m in blob["epsilon_hat"]]
        tails = None
        if "tail_basis" in blob:
            tails = [[frac(x) for x in t] for t in blob["tail_basis"]]
        return cls(U, A, eta, lift, eps_hat, tail_basis=tails, name=name)

    def __repr__(self):
        return f"BialgebroidData({self.name}: U dim {self.U.dim} over A dim {self.A.dim})"


# ---------------------------------------------------------------------------
# axioms


def _act_leg(elem, leg, image):
    """Apply a linear map to one leg (0 or 1) of a sparse pair vector.

    image(i) is the coordinate vector of the map's value on e_i.
    """
    out = {}
    for pq, c in elem.items():
        for k, d in enumerate(image(pq[leg])):
            if d:
                sparse_add(out, (k, pq[1]) if leg == 0 else (pq[0], k), c * d)
    return out


def _agree(space, lhs, rhs):
    """Whether two sparse sums of pure tensors have the same coordinates in space."""
    return space.project_pure(lhs) == space.project_pure(rhs)


def check_takeuchi(data: BialgebroidData) -> TakeuchiReport:
    """Full basis sweep of the bialgebroid axioms.

    Everything is reported, nothing raises: corrupted data shows up as
    named failures, each with the witness of its first failing element.
    """
    U, A = data.U, data.A
    nu, na = U.dim, A.dim
    uau, delta = data.uau, data.delta_pure
    rep = TakeuchiReport()

    # eta is a unital algebra map from the enveloping algebra of A
    env = A.enveloping()
    rep.record("eta_unital", data.eta_apply(env.unit) == U.unit)
    rep.sweep("eta_homomorphism", (
        f"eta fails on {env.labels[i]}, {env.labels[j]}"
        for i in range(env.dim) for j in range(env.dim)
        if data.eta_apply(env.mult[i][j]) != U.multiply(data.eta.col(i), data.eta.col(j))
    ))

    # the four actions commute pairwise
    families = {"|>": data.tri_l, "<|": data.tri_r, "|>>": data.bl_l, "<<|": data.bl_r}
    rep.sweep("actions_commute", (
        f"actions {x},{y} fail to commute at ({i},{j})"
        for (x, fx), (y, fy) in combinations(families.items(), 2)
        for i in range(na) for j in range(na)
        if fx[i] @ fy[j] != fy[j] @ fx[i]
    ))

    # eps_hat is a left U-action on A and extends eta
    try:
        data.a_module()
        rep.record("eps_hat_action", True)
    except ValidationError as e:
        rep.record("eps_hat_action", False, str(e))
    rep.sweep("eps_hat_eta", (
        f"eps_hat(eta({A.labels[i]} (x) {A.labels[j]})) is not a.c.b"
        for i in range(na) for j in range(na)
        if lincomb(zip(data._eta_img[(i, j)], data.eps_hat), na, na)
        != A.left_mult_matrix(unit_vec(na, i)) @ A.right_mult_matrix(unit_vec(na, j))
    ))

    # Delta is an A-bimodule map for |> and <|
    rep.sweep("delta_bilinear", (
        f"Delta not {side}-equivariant at a_{r}, u_{i}"
        for r in range(na) for i in range(nu)
        for leg, side, act in ((0, "|>", data.tri_l[r]), (1, "<|", data.tri_r[r]))
        if uau.project_pure(_act_leg(delta(i), leg, act.col)) != data.delta.apply(act.col(i))
    ))

    # counit laws: eta(eps(first) (x) 1) second = u = eta(1 (x) eps(second)) first
    def counit_side(i, leg, eta):
        return sparse_extend(
            lambda pq: sparse_extend(lambda k: U.product(k, pq[1 - leg]), eta(data.eps.col(pq[leg]))),
            delta(i),
        )

    for side, leg, eta in (("left", 0, data.eta_source), ("right", 1, data.eta_target)):
        rep.sweep(f"counit_{side}", (
            f"{side} counit law fails on u_{i}" for i in range(nu) if counit_side(i, leg, eta) != {i: 1}
        ))

    # coassociativity in U (x)_A U (x)_A U
    triple = data.triple_a_space()
    rep.sweep("coassociative", (
        f"coassociativity fails on u_{i}" for i in range(nu)
        if not _agree(triple, *coassociators(delta(i), delta))
    ))

    # Takeuchi centrality: the coproduct lands in the computed centre
    centre = data.takeuchi_centralizer()
    rep.sweep("takeuchi_centrality", (
        f"coproduct of u_{i} is outside the centralizer" for i in range(nu)
        if not centre.contains(data.delta.col(i))
    ))

    # Delta respects unit, eta and multiplication
    rep.record("delta_unit", _agree(uau, data.delta_of_vec(U.unit), pure_tensor(U.unit, U.unit)))
    rep.sweep("delta_eta", (
        f"Delta(eta) fails at ({A.labels[i]},{A.labels[j]})"
        for i in range(na) for j in range(na)
        if not _agree(
            uau,
            data.delta_of_vec(data._eta_img[(i, j)]),
            pure_tensor(data.eta_source(unit_vec(na, i)), data.eta_target(unit_vec(na, j))),
        )
    ))
    rep.sweep("delta_multiplicative", (
        f"Delta not multiplicative at ({U.labels[i]},{U.labels[j]})"
        for i in range(nu) for j in range(nu)
        if uau.project_pure(pair_product(U.product, delta(i), delta(j))) != data.delta.apply(U.mult[i][j])
    ))
    return rep


# ---------------------------------------------------------------------------
# Galois map, translation map, Schauenburg identities


class HopfStructure:
    """Invertible Galois map together with the translation map.

    beta maps U (x)_Aop U to U (x)_A U; translation sends u to
    beta^{-1}(u (x) 1) = u_+ (x) u_-, stored as a matrix into the
    U (x)_Aop U coordinates.
    """

    def __init__(self, data: BialgebroidData, beta, beta_inv, translation):
        self.data = data
        self.beta = beta
        self.beta_inv = beta_inv
        self.translation = translation
        # canonical pure-tensor lift of tau(e_i), sparse
        self.translation_pure = _pure_lift(data.uaopu, translation)


def galois_map(data: BialgebroidData) -> HopfStructure:
    """Assemble and invert the Galois map; NotInvertibleError if singular."""
    U = data.U
    nu = U.dim
    uau, uaopu = data.uau, data.uaopu

    # u (x) v -> u_(1) (x) u_(2) v, which descends over a |>> u (x) v ~ u (x) v <| a
    try:
        beta = uaopu.map_to(uau, lambda w: _act_leg(data.delta_pure(w[0]), 1, lambda y: U.mult[y][w[1]]))
    except NotWellDefinedError:
        raise NotWellDefinedError("Galois map does not descend; data corrupted") from None
    if uau.dim != uaopu.dim or beta.rank() != uau.dim:
        raise NotInvertibleError(
            "Galois map is not bijective",
            rank=beta.rank(),
            dims=(uaopu.dim, uau.dim),
        )
    beta_inv = beta.inverse()
    tau_cols = [beta_inv.apply(uau.project_pure(pure_tensor(unit_vec(nu, i), U.unit))) for i in range(nu)]
    translation = Matrix.from_cols(tau_cols, nrows=uaopu.dim)
    return HopfStructure(data, beta, beta_inv, translation)


def check_schauenburg(h: HopfStructure) -> TakeuchiReport:
    """Sweep the translation-map identities over the whole U basis."""
    data = h.data
    U, A = data.U, data.A
    nu, na = U.dim, A.dim
    uaopu = data.uaopu
    delta, tau = data.delta_pure, h.translation_pure
    rep = TakeuchiReport()

    # identity 1: u_{+(1)} (x)_A u_{+(2)} u_- = u (x)_A 1
    # identity 2: u_{(1)+} (x)_Aop u_{(1)-} u_{(2)} = u (x)_Aop 1
    for k, space, outer, inner in ((1, data.uau, tau, delta), (2, uaopu, delta, tau)):
        rep.sweep(f"translation_{k}", (
            f"translation identity {k} fails on u_{i}" for i in range(nu)
            if not _agree(
                space, pair_compose(U.product, outer(i), inner), pure_tensor(unit_vec(nu, i), U.unit)
            )
        ))

    # identity 3: the translation lands in the computed Aop centre
    centre = data.aop_centralizer()
    rep.sweep("translation_centralizer", (
        f"translation of u_{i} is outside the Aop centralizer" for i in range(nu)
        if not centre.contains(h.translation.col(i))
    ))

    # identity 4 (mixed triple): u_+ (x) u_{-(1)} (x) u_{-(2)}
    #                          = u_{++} (x) u_- (x) u_{+-}
    triple = data.translation_triple_space()
    rep.sweep("translation_coproduct", (
        f"translation coproduct identity fails on u_{i}" for i in range(nu)
        if not _agree(
            triple,
            sparse_extend(lambda pq: {(pq[0], x, y): d for (x, y), d in delta(pq[1]).items()}, tau(i)),
            sparse_extend(lambda pq: {(x, pq[1], y): d for (x, y), d in tau(pq[0]).items()}, tau(i)),
        )
    ))

    # identity 5: anti-multiplicativity on every basis pair
    rep.sweep("translation_multiplicative", (
        f"translation anti-multiplicativity fails at ({U.labels[i]},{U.labels[j]})"
        for i in range(nu) for j in range(nu)
        if not _agree(
            uaopu, pair_product(U.product, tau(i), tau(j), flip=True), sparse_extend(tau, U.mult[i][j])
        )
    ))

    # identity 6: value on eta(a (x) b)
    rep.sweep("translation_eta", (
        f"translation on eta fails at ({A.labels[i]},{A.labels[j]})"
        for i in range(na) for j in range(na)
        if not _agree(
            uaopu,
            sparse_extend(tau, data._eta_img[(i, j)]),
            pure_tensor(data.eta_source(unit_vec(na, i)), data.eta_source(unit_vec(na, j))),
        )
    ))
    return rep


# ---------------------------------------------------------------------------
# monoidal structure on modules


class TensorModule:
    """A tensor product module together with its quotient presentation (a TensorSpace)."""

    def __init__(self, module: ModuleRep, space: TensorSpace):
        self.module, self.space = module, space


def module_tensor_left(data: BialgebroidData, M: ModuleRep, N: ModuleRep) -> TensorModule:
    """M (x)_A N with the diagonal U-action through the coproduct."""
    if M.side != "left" or N.side != "left":
        raise ValidationError("module_tensor_left needs two left modules")
    # m <| a (x) n  ~  m (x) a |> n
    return _module_tensor(data, M, N, data.eta_source, data.delta_pure, "left")


def module_tensor_right(h: HopfStructure, M: ModuleRep, P: ModuleRep) -> TensorModule:
    """M (x)_A P with the right U-action (m (x) p) u = u_- m (x) p u_+."""
    if M.side != "left" or P.side != "right":
        raise ValidationError("module_tensor_right needs a left and a right module")

    def minus_plus(u):  # u_- = e_q acts on M, u_+ = e_p on P
        return {(q, p): c for (p, q), c in h.translation_pure(u).items()}

    # m <| a (x) p  ~  m (x) a |>> p
    return _module_tensor(h.data, M, P, h.data.eta_target, minus_plus, "right")


def _module_tensor(data, M, N, eta_n, pure, side) -> TensorModule:
    """M (x)_A N balanced by m <| a (x) n ~ m (x) eta_n(a) n, on the given side.

    u sends the pure tensor m (x) n to the sum of c (p m) (x) (q n) over
    pure(u) = {(p, q): c}.
    """
    na = data.A.dim
    pairs = ((M.act(data.eta_target(unit_vec(na, r))), N.act(eta_n(unit_vec(na, r)))) for r in range(na))
    space = balanced_tensor((M.dim, N.dim), [(0, 1, pairs)])

    def action(u):
        return space.map_to(space, lambda w: sparse_extend(
            lambda pq: pure_tensor(M.action[pq[0]].col(w[0]), N.action[pq[1]].col(w[1])), pure(u)))

    return TensorModule(ModuleRep(data.U, space.dim, side, [action(u) for u in range(data.U.dim)]), space)


def unit_iso(data: BialgebroidData, M: ModuleRep, tm: TensorModule, a_first=True) -> Matrix:
    """The unit isomorphism of the monoidal product onto M, exact.

    With a_first, tm is A (x) M and a (x) m -> eta(a (x) 1) m for a left
    module M, a (x) p -> p eta(1 (x) a) for a right module P (the
    counit-side unit law, U-linear by the translation identities).
    Otherwise tm is M (x) A and m (x) a -> eta(1 (x) a) m.
    """
    na = data.A.dim
    eta = data.eta_source if a_first and M.side == "left" else data.eta_target
    acts = [M.act(eta(unit_vec(na, i))) for i in range(na)]
    # the word of a coordinate is (a, m) with a_first, else (m, a)
    words = tm.space.words if a_first else [w[::-1] for w in tm.space.words]
    return Matrix.from_cols([acts[a].col(m) for a, m in words], nrows=M.dim)


class FlipIso:
    def __init__(self, forward: Matrix, inverse: Matrix, source: TensorSpace, target: TensorSpace):
        self.forward, self.inverse, self.source, self.target = forward, inverse, source, target


def tensor_flip(h: HopfStructure, M: ModuleRep, P: ModuleRep, N: ModuleRep) -> FlipIso:
    """(M (x) P) (x)_U N  ->  P (x)_U (N (x) M), m (x) p (x) n -> p (x) n (x) m."""
    data = h.data
    mp = module_tensor_right(h, M, P)
    lhs = tensor_over(data.U, mp.module, N)
    nm = module_tensor_left(data, N, M)
    rhs = tensor_over(data.U, P, nm.module)

    def flip(w):  # the pure tensor z (x) n, where z is the coordinate of m (x) p
        m, p = mp.space.words[w[0]]
        return pure_tensor(unit_vec(P.dim, p), nm.space.project_pure({(w[1], m): 1}))

    forward = lhs.map_to(rhs, flip)
    if lhs.dim != rhs.dim or forward.rank() != lhs.dim:
        raise NotInvertibleError("tensor flip is not bijective", rank=forward.rank(), dims=(lhs.dim, rhs.dim))
    return FlipIso(forward, forward.inverse(), lhs, rhs)


def galois_module(h: HopfStructure, M: ModuleRep):
    """The Galois map with coefficients in M and its exact inverse.

    Maps U (x)_Aop M -> U (x)_A M (the latter with the diagonal action),
    u (x) m -> u_(1) (x) u_(2) m.  Returns (forward, inverse, source
    module, target TensorModule).
    """
    data = h.data
    if M.side != "left":
        raise ValidationError("galois_module needs a left module")
    U = data.U
    nu, na, dm = U.dim, data.A.dim, M.dim
    # source: U (x) M / span{ a |>> u (x) m - u (x) m <| a }
    pairs = ((data.bl_l[r], M.act(data.eta_target(unit_vec(na, r)))) for r in range(na))
    source = balanced_tensor((nu, dm), [(0, 1, pairs)])
    # the source is a left U-module by multiplication on the first leg
    src_action = [
        source.map_to(source, lambda w: {(k, w[1]): c for k, c in U.product(u, w[0]).items()})
        for u in range(nu)
    ]
    src_module = ModuleRep(U, source.dim, "left", src_action)
    target = module_tensor_left(data, ModuleRep.regular_left(U), M)
    # u (x) m  ->  u_(1) (x) u_(2) m
    forward = source.map_to(
        target.space, lambda w: _act_leg(data.delta_pure(w[0]), 1, lambda q: M.action[q].col(w[1]))
    )
    if forward.nrows != forward.ncols or forward.rank() != forward.nrows:
        raise NotInvertibleError("module Galois map not bijective", rank=forward.rank())
    return forward, forward.inverse(), src_module, target
