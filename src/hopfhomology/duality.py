"""Duality modules, dual bases, the fundamental class, and cap duality.

Two regimes share this file.  The underived one (base projective over
the ring, homological dimension zero): dual bases are produced from an
explicit splitting of a free cover, the element sum e^i (x) e_i is the
degree zero fundamental class, and capping with it identifies
Hom_U(A, M) with (M (x) A*) (x)_U A.

The derived one covers universal envelopes through the Koszul-type
resolution: the dualized complex Hom_U(P_n, U) is a complex of free
right modules whose differential left-multiplies coordinates by the
transposed generator matrix.  Everything about it is certified on one
weight window of each complex, a finite subcomplex that holds every
coefficient of PBW degree <= bound: vanishing of Ext^n(A, U) off the
top degree, exactness of the dualized resolution, the one dimensional
cokernel carrying the adjoint-trace twist, and the double dual.
homology_dims, the package's one certified rank walk, ranks both
windows, and the classes at the top are read off the image of each
window's last map.  The windows are honest finite certificates, not
proofs for all degrees; each report records the bound it used.
"""

from __future__ import annotations

from .errors import NotDualityError, NotProjectiveError, TakeuchiReport, ValidationError
from .linalg import Matrix, Subspace, lincomb, sparse_axpy, unit_vec, vec_is_zero, zero_vec

# The underived functions import algebras and bialgebroid and the U(g) ones ce, homology
# and pbw where they run, so a command loads only its own side; these serve annotations.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .algebras import ModuleRep
    from .bialgebroid import BialgebroidData, HopfStructure
    from .ce import CEResolution
    from .pbw import LieModule


# ---------------------------------------------------------------------------
# underived case


class DualBases:
    """Generators of A over U with the dual system in Hom_U(A, U).

    hom_space is the subspace of matrices realising Hom_U(A, U);
    astar_module is the same space as a right U-module through right
    multiplication on values; duals[i] is the matrix of e^i and
    dual_coords[i] its hom_space coordinates.
    """

    def __init__(self, data: BialgebroidData, module: ModuleRep, generators: list, duals: list,
                 hom_space: Subspace, astar_module: ModuleRep, omega_space, omega: list,
                 dual_coords: list):
        self.data, self.module, self.generators, self.duals = data, module, generators, duals
        self.hom_space, self.astar_module, self.omega_space = hom_space, astar_module, omega_space
        self.omega, self.dual_coords = omega, dual_coords


def dual_bases(data: BialgebroidData, A_mod: ModuleRep, generators=None) -> DualBases:
    """Split a free cover of A and extract the dual generator system.

    generators default to the full basis of A.  NotProjectiveError when
    no U-linear splitting exists.
    """
    from .algebras import ModuleRep, hom_basis_matrices, hom_over, pure_tensor, tensor_over

    U = data.U
    if generators is None:
        generators = [unit_vec(A_mod.dim, i) for i in range(A_mod.dim)]
    n = len(generators)
    reg = ModuleRep.regular_left(U)
    homs = hom_over(U, A_mod, reg)
    hom_mats = hom_basis_matrices(homs, U.dim, A_mod.dim)
    # find iota = (iota_1 .. iota_n), each a combination of hom basis
    # elements, with sum_i iota_i(a) . e_i = a for all a
    unknowns = n * len(hom_mats)
    rows = []
    rhs = []
    for a in range(A_mod.dim):
        for t in range(A_mod.dim):
            row = zero_vec(unknowns)
            for i in range(n):
                for k, hm in enumerate(hom_mats):
                    # coefficient of (i, k): (hm(a) . e_i)_t
                    u_val = hm.col(a)
                    acted = A_mod.act(u_val).apply(generators[i])
                    row[i * len(hom_mats) + k] += acted[t]
            rows.append(row)
            rhs.append(1 if a == t else 0)
    sol = Matrix(rows, ncols=unknowns).solve(rhs)
    if sol is None:
        raise NotProjectiveError("no U-linear splitting of the free cover exists")
    nh = len(hom_mats)
    duals = [lincomb(zip(sol[i * nh : (i + 1) * nh], hom_mats), U.dim, A_mod.dim) for i in range(n)]
    # A* as a right U-module on the hom subspace coordinates
    astar_dim = homs.dim
    action = []
    for u in range(U.dim):
        cols = []
        rm = U.right_mult_matrix(unit_vec(U.dim, u))
        for k, hm in enumerate(hom_mats):
            acted = rm @ hm
            flat = [acted.rows[r][c] for r in range(U.dim) for c in range(A_mod.dim)]
            coords = homs.coordinates(flat)
            if coords is None:
                raise ValidationError("right action does not preserve Hom_U(A, U)")
            cols.append(coords)
        action.append(Matrix.from_cols(cols, nrows=astar_dim))
    astar_module = ModuleRep(U, astar_dim, "right", action)
    # omega_0 in A* (x)_U A
    omega_space = tensor_over(U, astar_module, A_mod)
    dual_coords = [homs.coordinates([x for row in d.rows for x in row]) for d in duals]
    amb = {}
    for coords, g in zip(dual_coords, generators):
        sparse_axpy(amb, 1, pure_tensor(coords, g))
    omega = omega_space.project_pure(amb)
    db = DualBases(data, A_mod, [list(g) for g in generators], duals, homs,
                   astar_module, omega_space, omega, dual_coords)
    _check_dual_bases(db, hom_mats)
    return db


def _check_dual_bases(db: DualBases, hom_mats):
    A_mod = db.module
    U = db.data.U
    for a in range(A_mod.dim):
        acc = zero_vec(A_mod.dim)
        for i, g in enumerate(db.generators):
            u_val = db.duals[i].col(a)
            acted = A_mod.act(u_val).apply(g)
            for t, c in enumerate(acted):
                acc[t] += c
        if acc != unit_vec(A_mod.dim, a):
            raise ValidationError("dual system fails sum e^i(a) e_i = a")
    # second identity: sum_i e^i . alpha(e_i) = alpha on a basis of the
    # dual module, exercising the right action on Hom_U(A, U)
    for alpha in hom_mats:
        acc = Matrix.zeros(U.dim, A_mod.dim)
        for i, g in enumerate(db.generators):
            val = alpha.apply(g)
            acc = acc + (U.right_mult_matrix(val) @ db.duals[i])
        if acc != alpha:
            raise ValidationError("dual system fails sum e^i alpha(e_i) = alpha")


def delta_underived(db: DualBases, M: ModuleRep):
    """M (x)_U A -> Hom_{U^op}(A*, M) with its exact inverse.

    Returns (forward, inverse, source quotient, target subspace).
    """
    from .algebras import hom_basis_matrices, hom_over, pure_tensor, tensor_over

    if M.side != "right":
        raise ValidationError("delta takes a right module")
    U = db.data.U
    A_mod = db.module
    src = tensor_over(U, M, A_mod)
    target = hom_over(U, db.astar_module, M)
    target_mats = hom_basis_matrices(target, M.dim, db.astar_module.dim)
    hom_mats = hom_basis_matrices(db.hom_space, U.dim, A_mod.dim)

    def delta_pure(m_idx, a_idx):
        # the map alpha -> m . alpha(a), as a dim M x dim A* matrix flattened row major
        image = Matrix.from_cols([M.act(hm.col(a_idx)).col(m_idx) for hm in hom_mats], nrows=M.dim)
        coords = target.coordinates([x for row in image.rows for x in row])
        if coords is None:
            raise ValidationError("delta image leaves Hom_{U^op}(A*, M)")
        return coords

    forward = Matrix.from_cols([delta_pure(*w) for w in src.words], nrows=target.dim)
    # inverse: phi -> sum_i phi(e^i) (x) e_i
    inv_cols = []
    for tm in target_mats:
        amb = {}
        for coords, g in zip(db.dual_coords, db.generators):
            sparse_axpy(amb, 1, pure_tensor(tm.apply(coords), g))
        inv_cols.append(src.project_pure(amb))
    inverse = Matrix.from_cols(inv_cols, nrows=src.dim)
    if forward.nrows != forward.ncols or (forward @ inverse) != Matrix.identity(target.dim):
        raise ValidationError("delta is not bijective")
    return forward, inverse, src, target


def bullet_omega_underived(db: DualBases, M: ModuleRep):
    """Hom_U(A, M) -> A* (x)_U M, phi -> sum_i e^i (x) phi(e_i).

    The degree zero evaluation against the fundamental class; returns
    (matrix, source hom subspace, target quotient) with the matrix a
    bijection.
    """
    from .algebras import hom_basis_matrices, hom_over, pure_tensor, tensor_over

    if M.side != "left":
        raise ValidationError("the evaluation takes a left module")
    U = db.data.U
    A_mod = db.module
    src = hom_over(U, A_mod, M)
    src_mats = hom_basis_matrices(src, M.dim, A_mod.dim)
    target = tensor_over(U, db.astar_module, M)
    cols = []
    for phi in src_mats:
        amb = {}
        for alpha, g in zip(db.dual_coords, db.generators):
            sparse_axpy(amb, 1, pure_tensor(alpha, phi.apply(g)))
        cols.append(target.project_pure(amb))
    forward = Matrix.from_cols(cols, nrows=target.dim)
    if forward.nrows != forward.ncols or forward.rank() != forward.nrows:
        raise ValidationError("evaluation against the degree zero class is not bijective")
    return forward, src, target


def cap_omega_underived(h: HopfStructure, M: ModuleRep, db: DualBases):
    """Hom_U(A, M) -> (M (x) A*) (x)_U A, capping with the degree 0 class.

    The cap realises phi as sum_i (phi(1) (x) e^i) (x)_U e_i, which the
    identification chain (M (x) A*) (x)_U A = A* (x)_U (A (x) M)
    = A* (x)_U M carries to the evaluation sum_i e^i (x) phi(e_i).
    Returns (matrix, source hom subspace, target quotient, tensor
    module); the matrix is checked bijective.
    """
    from .algebras import hom_basis_matrices, hom_over, pure_tensor, tensor_over
    from .bialgebroid import module_tensor_right

    data = h.data
    U = data.U
    A_mod = db.module
    src = hom_over(U, A_mod, M)
    src_mats = hom_basis_matrices(src, M.dim, A_mod.dim)
    tm = module_tensor_right(h, M, db.astar_module)
    target = tensor_over(U, tm.module, A_mod)
    cols = []
    for phi in src_mats:
        # second diagonal leg of the generator is the unit of A
        val = phi.apply(data.A.unit)
        amb = {}
        for alpha, g in zip(db.dual_coords, db.generators):
            sparse_axpy(amb, 1, pure_tensor(tm.space.project_pure(pure_tensor(val, alpha)), g))
        cols.append(target.project_pure(amb))
    forward = Matrix.from_cols(cols, nrows=target.dim)
    if forward.nrows != forward.ncols or forward.rank() != forward.nrows:
        raise ValidationError("cap with the degree zero class is not bijective")
    return forward, src, target, tm


# ---------------------------------------------------------------------------
# derived case over a universal envelope


class DualityData:
    def __init__(self, dimension: int, astar: LieModule, weights: list, omega: list,
                 resolution: CEResolution, dual_cols: dict, report: TakeuchiReport, bound: int):
        self.dimension, self.astar, self.weights, self.omega = dimension, astar, weights, omega
        self.resolution, self.dual_cols, self.report, self.bound = resolution, dual_cols, report, bound


def _dual_cols(res: CEResolution, n):
    """Columns of the dualized differential P*_{n-1} -> P*_n.

    Column p (a generator of P*_{n-1}) collects {q: entry} where the
    original differential had entry at row p, column q; the entry
    multiplies coordinates from the left.
    """
    cols = [dict() for _ in range(res.rank(n - 1))]
    for q, col in enumerate(res.diff_cols(n)):
        for p, entry in col.items():
            cols[p][q] = entry
    return cols


def detect_duality_ug(g, bound=4) -> DualityData:
    """Certify the duality-module structure of the trivial U(g)-module.

    Give x^a e_J the weight |a| + |J| in the Koszul complex P and
    |a| + d - |J| in its dual P*.  Both differentials keep the weight or
    lower it, so the elements of weight <= bound + d form two finite
    subcomplexes, the dual P*_0 -> .. -> P*_d and the primal P_d -> .. ->
    P_0, whose degree n has PBW degree <= bound + n and <= bound + d - n;
    together they hold every coefficient of PBW degree <= bound.  Their
    associated graded is the Koszul complex of S(g), so each has
    homology only at its rank one end, and there one dimensional.  Each
    of the 2d maps is built once, and homology_dims ranks each
    subcomplex, with its exact d d = 0 check.  On the dual side, Ext^n(A,
    U) must vanish below the top degree, and then the window's Euler
    characteristic leaves the top one dimensional; the unit must span it
    (this is the dualizing module) with x_i acting by the adjoint trace.
    On the primal side the resolution must be exact in positive degrees,
    and the double dual must return the trivial module.
    NotDualityError names the nonvanishing (degree, dim) pairs, and each
    failed twist or double dual check, before the fundamental class is
    computed.  The window is a finite certificate, not a proof for all
    degrees; the report records its bound.
    """
    from .ce import BoundedBasis, CEResolution, bounded_free_map
    from .complexes import homology_dims
    from .homology import tor
    from .pbw import LieModule, mono_one

    res = CEResolution(g, validate=True)
    d = g.dim

    def weight_window(degrees, act):
        """Homology dims of the dual ("left") or primal ("right") subcomplex on these degrees,
        and the class of a monomial at its rank one end modulo the image of the last map."""
        bases = [BoundedBasis(g, res.rank(n), bound + (n if act == "left" else d - n)) for n in degrees]
        last = [[]]  # the last map built, kept for the classes at the end

        def maps():
            for n, src, dst in zip(degrees, bases, bases[1:]):
                last[0] = None  # so the map before is dropped while this one is built
                cols = _dual_cols(res, n + 1) if act == "left" else res.diff_cols(n)
                last[0] = bounded_free_map(g, cols, src, dst, act)
                yield last[0]

        dims = homology_dims([basis.dim for basis in bases], maps())
        end, image = bases[-1], Subspace(bases[-1].dim, last[0])
        return dims, lambda mono: image.decompose({end.index[0, mono]: 1})[1]

    def twisted(cls, twist):
        """Whether the unit's class is nonzero and x_i sends it to twist[i] times itself."""
        unit = cls(mono_one(d))
        gens = [tuple(int(k == i) for k in range(d)) for i in range(d)]
        return bool(unit) and all(
            cls(x) == {k: w * c for k, c in unit.items() if w} for x, w in zip(gens, twist))

    report = TakeuchiReport()
    dims, cls = weight_window(range(d + 1), "left")
    bad_degrees = [(n, k) for n, k in enumerate(dims[:-1]) if k]
    if bad_degrees:
        raise NotDualityError(f"Ext(A, U) does not vanish below the top degree: {bad_degrees}")
    report.record("ext_vanishing_below_top", True)

    # the cokernel at the top: spanned by the unit, with the adjoint trace twist
    weights = [g.adjoint_trace(i) for i in range(d)]
    report.record("dualizing_module_rank_one", cls(mono_one(d)))
    report.record("adjoint_trace_twist", twisted(cls, weights))
    if not report.checks["dualizing_module_rank_one"]:
        raise NotDualityError("top cokernel is not one dimensional in the window")

    astar = LieModule.weight_right(g, weights, name="dualizing")

    # the dual resolution is exact off its augmentation end: the vanishing above
    report.record("dual_resolution_exact", True)

    # exactness of the primal resolution in positive degrees (this is also
    # Ext of the dualizing module against the ring vanishing off the top,
    # by double dualization); the double dual's top cokernel is the trivial module
    dims, cls = weight_window(range(d, -1, -1), "right")
    report.record("primal_resolution_exact", not any(dims[:-1]))
    report.record("double_dual_trivial", twisted(cls, [0] * d))
    failed = [name for name in ("adjoint_trace_twist", "double_dual_trivial") if not report.checks[name]]
    if failed:
        raise NotDualityError(f"failed checks: {', '.join(failed)}")

    # the fundamental class: coordinates of the identity under delta,
    # i.e. the class of the dual top generator; rank(P_d) = 1 so the
    # cycle vector is the unit coordinate
    omega = [1] * res.rank(d) if astar.dim == 1 else None
    tg = tor(res, astar, d)
    cls = tg.class_of(omega)
    if vec_is_zero(cls):
        raise NotDualityError("fundamental class vanishes")
    return DualityData(d, astar, weights, omega, res, {n: _dual_cols(res, n) for n in range(1, d + 1)},
                       report, bound)


def delta_chain_check_ug(dd: DualityData, Mr: LieModule) -> bool:
    """Tor-side and dualized-hom-side differentials agree for Mr.

    Both are read as sparse blocks {(p, q): right action of the entry}:
    the Tor side off the generator columns (entry at row p of column q),
    the hom side off the dual columns (entry at column q of row p), so
    equality exercises the dualization plumbing.
    """
    res = dd.resolution
    for i in range(1, dd.dimension + 1):
        tor_side = {(p, q): Mr.act(entry)
                    for q, col in enumerate(res.diff_cols(i)) for p, entry in col.items()}
        hom_side = {(p, q): Mr.act(entry)
                    for p, row in enumerate(dd.dual_cols[i]) for q, entry in row.items()}
        if tor_side != hom_side:
            return False
    return True


def duality_isomorphism_ug(products, dd: DualityData, M: LieModule, m: int):
    """The cap-with-fundamental-class matrix Ext^m -> Tor_{d-m}(M (x) A*).

    Returns (matrix on class bases, ext group, tor group).  Raises
    ValidationError if the matrix is not a bijection (that would
    falsify the implementation, not the inputs).
    """
    from .homology import ext, tor

    res = dd.resolution
    d = dd.dimension
    eg = ext(res, M, m)
    tm = products.tensor(M, dd.astar, False)
    tg = tor(res, tm, d - m)
    cols = []
    for phi in eg.representatives():
        z, _ = products.cap(m, phi, dd.omega, d, M, dd.astar)
        cols.append(tg.class_of(z))
    mat = Matrix.from_cols(cols, nrows=tg.dim)
    if eg.dim != tg.dim:
        raise ValidationError(
            f"Ext^{m} and Tor_{d - m} dimensions disagree: {eg.dim} vs {tg.dim}"
        )
    if eg.dim and mat.rank() != eg.dim:
        raise ValidationError(f"cap with the fundamental class is singular at degree {m}")
    return mat, eg, tg
