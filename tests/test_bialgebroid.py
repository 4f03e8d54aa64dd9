from fractions import Fraction as Q
from itertools import permutations, product

import pytest

from builders import regular_right
from hopfhomology.algebras import ModuleRep, tensor_over
from hopfhomology.bialgebroid import (
    BialgebroidData,
    HopfStructure,
    check_schauenburg,
    check_takeuchi,
    galois_map,
    galois_module,
    module_tensor_left,
    module_tensor_right,
    tensor_flip,
    unit_iso,
)
from hopfhomology.errors import NotInvertibleError, NotWellDefinedError
from hopfhomology.instances import (
    bimodule_a_right,
    cyclic_group_algebra,
    group_algebra_from_table,
    monoid01_bialgebra,
    s3_modules,
    sweedler_modules,
    _right_trivial_group,
)
from hopfhomology.linalg import Matrix, unit_vec, zero_vec


def test_actions_on_enveloping_match_direct_products(env_qeps):
    # a |> (x (x) y) <| b must be (a x) (x) (y b) on the basis
    data = env_qeps.data
    A, U = data.A, data.U
    na = A.dim
    for ai in range(na):
        for bi in range(na):
            for x in range(na):
                for y in range(na):
                    u = unit_vec(U.dim, x * na + y)
                    acted = data.tri_r[bi].apply(data.tri_l[ai].apply(u))
                    ax = A.multiply(unit_vec(na, ai), unit_vec(na, x))
                    yb = A.multiply(unit_vec(na, y), unit_vec(na, bi))
                    expect = zero_vec(U.dim)
                    for p, c in enumerate(ax):
                        if not c:
                            continue
                        for q, d in enumerate(yb):
                            if d:
                                expect[p * na + q] += c * d
                    assert acted == expect


def test_actions_scalar_over_ground_field():
    data = cyclic_group_algebra(3)
    for fam in (data.tri_l, data.tri_r, data.bl_l, data.bl_r):
        assert fam[0] == Matrix.identity(3)


def test_takeuchi_all_catalog_findim(catalog):
    for name, inst in catalog.items():
        if inst.kind != "findim":
            continue
        rep = check_takeuchi(inst.data)
        assert rep.ok, (name, rep.failures)


def test_takeuchi_negative_control_corrupted_delta():
    data = cyclic_group_algebra(2)
    bad = Matrix.zeros(4, 2)
    bad.rows[0][0] = Q(1)
    bad.rows[3][1] = Q(1)
    bad.rows[0][1] = Q(1)  # perturbed structure constant
    corrupt = BialgebroidData(data.U, data.A, data.eta, bad, data.eps_hat, name="bad")
    rep = check_takeuchi(corrupt)
    assert not rep.ok
    assert rep.failures


def test_schauenburg_all_catalog_findim(catalog):
    for name, inst in catalog.items():
        if inst.kind != "findim":
            continue
        h = galois_map(inst.data)
        rep = check_schauenburg(h)
        assert rep.ok, (name, rep.failures)


def test_schauenburg_negative_control_perturbed_translation(sweedler):
    """One perturbed translation column fails the identities that read it, at its first element."""
    data = sweedler.data
    h = galois_map(data)
    bad = Matrix(h.translation.rows)
    bad.rows[0][2] += 1  # tau(x), on Sweedler's basis 1, g, x, gx
    rep = check_schauenburg(HopfStructure(data, h.beta, h.beta_inv, bad))
    assert not rep.ok
    failed = [name for name, ok in rep.checks.items() if not ok]
    assert failed == ["translation_1", "translation_2", "translation_coproduct", "translation_multiplicative"]
    # one witness per failing check, naming its first failing basis element
    assert rep.failures == [
        "translation identity 1 fails on u_2",
        "translation identity 2 fails on u_2",
        "translation coproduct identity fails on u_2",
        "translation anti-multiplicativity fails at (g,x)",
    ]
    assert check_schauenburg(h).ok


def test_galois_group_algebra_translation_is_inversion(catalog):
    inst = catalog["qs3"]
    data = inst.data
    h = galois_map(data)
    inv = data.group_inverse
    for gidx in range(data.U.dim):
        pure = h.translation_pure(gidx)
        assert pure == {(gidx, inv[gidx]): Q(1)}


def test_symmetric4_group_algebra_is_hopf():
    """Q[S4], built outside the catalog: 24 dimensions on integer structure constants."""
    perms = list(permutations(range(4)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(p[q[k]] for k in range(4))] for q in perms] for p in perms]
    inverse = [idx[tuple(sorted(range(4), key=p.__getitem__))] for p in perms]
    data = group_algebra_from_table([str(p) for p in perms], table, inverse, "qs4")
    rep = check_takeuchi(data)
    assert rep.ok, rep.failures
    h = galois_map(data)
    rep = check_schauenburg(h)
    assert rep.ok, rep.failures
    for g in range(24):
        assert h.translation_pure(g) == {(g, inverse[g]): 1}


def test_galois_enveloping_translation(env_qeps, env_qeps_hopf):
    # (a (x) b)_+ (x) (a (x) b)_- = (a (x) 1) (x) (b (x) 1)
    data = env_qeps.data
    h = env_qeps_hopf
    na = data.A.dim
    uaopu = data.uaopu
    for i in range(na):
        for j in range(na):
            uidx = i * na + j
            lhs = uaopu.project_pure(h.translation_pure(uidx))
            expect = {}
            for p, c in enumerate(data.A.unit):
                if not c:
                    continue
                for q, d in enumerate(data.A.unit):
                    if d:
                        key = (i * na + p, j * na + q)
                        expect[key] = expect.get(key, 0) + c * d
            assert lhs == uaopu.project_pure(expect)


def test_galois_sweedler_matches_classical_antipode(sweedler, sweedler_hopf):
    # for a Hopf algebra the inverse Galois map is u_(1) (x) S(u_(2));
    # with S(1) = 1, S(g) = g, S(x) = -gx, S(gx) = x this gives
    # tau(g) = g (x) g, tau(x) = x (x) 1 - g (x) gx, tau(gx) = gx (x) g + 1 (x) x
    data = sweedler.data
    h = sweedler_hopf
    uaopu = data.uaopu
    I, G, X, GX = 0, 1, 2, 3
    expected = {
        I: {(I, I): Q(1)},
        G: {(G, G): Q(1)},
        X: {(X, I): Q(1), (G, GX): Q(-1)},
        GX: {(GX, G): Q(1), (I, X): Q(1)},
    }
    for u, pairs in expected.items():
        assert uaopu.project_pure(h.translation_pure(u)) == uaopu.project_pure(pairs)


def test_map_to_rejects_an_image_that_does_not_descend(env_qeps):
    # u (x) v -> u (x) v is the identity on U (x)_Aop U, but it does not
    # descend to U (x)_A U: a |>> u (x) v ~ u (x) v <| a is no relation there
    data = env_qeps.data
    assert data.uaopu.map_to(data.uaopu, lambda w: {w: 1}) == Matrix.identity(data.uaopu.dim)
    with pytest.raises(NotWellDefinedError):
        data.uaopu.map_to(data.uau, lambda w: {w: 1})


def test_galois_not_invertible_on_monoid_control():
    with pytest.raises(NotInvertibleError) as exc:
        galois_map(monoid01_bialgebra())
    assert exc.value.rank == 3
    assert exc.value.dims == (4, 4)


def test_module_tensor_left_group_diagonal(qs3):
    data = qs3.data
    mods = s3_modules(data)
    tm = module_tensor_left(data, mods["sign"], mods["std2"])
    # for group algebras the product is the diagonal action on the
    # plain tensor product
    assert tm.space.dim == 2
    for gidx in range(6):
        expect = mods["sign"].action[gidx].kron(mods["std2"].action[gidx])
        assert tm.module.action[gidx] == expect


def test_module_tensor_left_unit_isomorphisms(sweedler):
    data = sweedler.data
    mods = sweedler_modules(data)
    M = mods["regular"]
    a_mod = data.a_module()
    tm = module_tensor_left(data, a_mod, M)
    iso = unit_iso(data, M, tm)
    assert iso.nrows == iso.ncols == M.dim
    assert iso.rank() == M.dim
    for u in range(data.U.dim):
        assert iso @ tm.module.action[u] == M.action[u] @ iso


def test_module_tensor_left_right_unit_law(sweedler):
    data = sweedler.data
    mods = sweedler_modules(data)
    M = mods["regular"]
    a_mod = data.a_module()
    tm = module_tensor_left(data, M, a_mod)
    iso = unit_iso(data, M, tm, a_first=False)
    assert iso.nrows == iso.ncols == M.dim
    assert iso.rank() == M.dim
    for u in range(data.U.dim):
        assert iso @ tm.module.action[u] == M.action[u] @ iso


def _associator(xy_z, xy, yz, x_yz):
    """(x (x) y) (x) z -> x (x) (y (x) z) on the pure tensor of each coordinate of xy_z."""
    cols = []
    for k, z in xy_z.space.words:
        x, y = xy.space.words[k]
        inner = yz.space.project_pure({(y, z): 1})
        cols.append(x_yz.space.project_pure({(x, t): c for t, c in enumerate(inner) if c}))
    return Matrix.from_cols(cols, nrows=x_yz.space.dim)


def test_module_tensor_left_associator(sweedler):
    data = sweedler.data
    mods = sweedler_modules(data)
    L, M, N = mods["sign"], mods["regular"], mods["trivial"]
    lm = module_tensor_left(data, L, M)
    lm_n = module_tensor_left(data, lm.module, N)
    mn = module_tensor_left(data, M, N)
    l_mn = module_tensor_left(data, L, mn.module)
    assert lm_n.space.dim == l_mn.space.dim
    assoc = _associator(lm_n, lm, mn, l_mn)
    assert assoc.rank() == lm_n.space.dim
    for u in range(data.U.dim):
        assert assoc @ lm_n.module.action[u] == l_mn.module.action[u] @ assoc


def test_module_tensor_right_group_formula(qs3):
    data = qs3.data
    h = galois_map(data)
    mods = s3_modules(data)
    M = mods["std2"]
    P = _right_trivial_group(data)
    tm = module_tensor_right(h, M, P)
    inv = data.group_inverse
    for gidx in range(6):
        expect = M.action[inv[gidx]].kron(P.action[gidx])
        assert tm.module.action[gidx] == expect


def test_module_tensor_right_unit_case(env_qeps, env_qeps_hopf):
    data = env_qeps.data
    P = bimodule_a_right(data)
    a_mod = data.a_module()
    tm = module_tensor_right(env_qeps_hopf, a_mod, P)
    iso = unit_iso(data, P, tm)
    assert iso.rank() == P.dim
    for u in range(data.U.dim):
        assert iso @ tm.module.action[u] == P.action[u] @ iso


def test_module_tensor_right_action_is_associative(sweedler, sweedler_hopf):
    data = sweedler.data
    mods = sweedler_modules(data)
    M = mods["regular"]
    P = regular_right(data.U)
    tm = module_tensor_right(sweedler_hopf, M, P)
    U = data.U
    for i in range(U.dim):
        for j in range(U.dim):
            prod = U.multiply(unit_vec(U.dim, i), unit_vec(U.dim, j))
            lhs = tm.module.act(prod)
            rhs = tm.module.action[j] @ tm.module.action[i]
            assert lhs == rhs


def test_module_tensor_right_mixed_associator(sweedler, sweedler_hopf):
    # (M (x) N) (x) P and M (x) (N (x) P) agree as right modules
    data = sweedler.data
    h = sweedler_hopf
    mods = sweedler_modules(data)
    M, N = mods["regular"], mods["sign"]
    P = regular_right(data.U)
    mn = module_tensor_left(data, M, N)
    mn_p = module_tensor_right(h, mn.module, P)
    np_ = module_tensor_right(h, N, P)
    m_np = module_tensor_right(h, M, np_.module)
    assert mn_p.space.dim == m_np.space.dim
    assoc = _associator(mn_p, mn, np_, m_np)
    assert assoc.rank() == mn_p.space.dim
    for u in range(data.U.dim):
        assert assoc @ mn_p.module.action[u] == m_np.module.action[u] @ assoc


def test_tensor_flip_trivial_group():
    data = cyclic_group_algebra(2)
    h = galois_map(data)
    M = ModuleRep(data.U, 1, "left", [Matrix([[1]]), Matrix([[1]])])
    P = ModuleRep(data.U, 1, "right", [Matrix([[1]]), Matrix([[1]])])
    N = ModuleRep(data.U, 1, "left", [Matrix([[1]]), Matrix([[1]])])
    flip = tensor_flip(h, M, P, N)
    assert flip.forward.nrows == flip.forward.ncols == 1
    assert (flip.forward @ flip.inverse) == Matrix.identity(1)


def test_tensor_flip_sweedler_dims_and_inverse(sweedler, sweedler_hopf):
    data = sweedler.data
    mods = sweedler_modules(data)
    M = mods["regular"]
    P = regular_right(data.U)
    N = mods["sign"]
    flip = tensor_flip(sweedler_hopf, M, P, N)
    assert flip.source.dim == flip.target.dim
    assert (flip.forward @ flip.inverse) == Matrix.identity(flip.target.dim)
    assert (flip.inverse @ flip.forward) == Matrix.identity(flip.source.dim)


def test_galois_module_recovers_galois_map(qs3):
    data = qs3.data
    h = galois_map(data)
    reg = ModuleRep.regular_left(data.U)
    fwd, inv, src_mod, target = galois_module(h, reg)
    assert fwd.nrows == data.uaopu.dim  # M = U recovers the base case dims
    assert (fwd @ inv) == Matrix.identity(fwd.nrows)


def test_unit_laws_noncommutative_base(catalog):
    # unit object laws over the upper triangular base, where left and
    # right base multiplications genuinely differ
    inst = catalog["env-upper2"]
    data = inst.data
    a_mod = data.a_module()
    M = inst.modules["A"]
    tm = module_tensor_left(data, a_mod, M)
    iso = unit_iso(data, M, tm)
    assert iso.rank() == M.dim
    for u in range(data.U.dim):
        assert iso @ tm.module.action[u] == M.action[u] @ iso
    tm2 = module_tensor_left(data, M, a_mod)
    iso2 = unit_iso(data, M, tm2, a_first=False)
    assert iso2.rank() == M.dim
    for u in range(data.U.dim):
        assert iso2 @ tm2.module.action[u] == M.action[u] @ iso2


def test_tensor_flip_noncommutative_base(catalog):
    inst = catalog["env-upper2"]
    data = inst.data
    h = galois_map(data)
    M = inst.modules["A"]
    P = bimodule_a_right(data)
    N = inst.modules["A"]
    flip = tensor_flip(h, M, P, N)
    assert flip.source.dim == flip.target.dim
    assert (flip.forward @ flip.inverse) == Matrix.identity(flip.target.dim)


def test_galois_module_enveloping(env_qeps, env_qeps_hopf):
    data = env_qeps.data
    M = data.a_module()
    fwd, inv, src_mod, target = galois_module(env_qeps_hopf, M)
    assert (fwd @ inv) == Matrix.identity(fwd.nrows)
    for u in range(data.U.dim):
        assert fwd @ src_mod.action[u] == target.module.action[u] @ fwd


def _relation_sides(nu, nslots, i, j, first, second):
    """Both sides of first[r] acting on slot i  ~  second[r] acting on slot j.

    One (lhs, rhs) pair of sparse tuple-keyed vectors per r and per
    pure tensor of U-basis elements.
    """
    for f, s in zip(first, second):
        for cell in product(range(nu), repeat=nslots):
            lhs = {cell[:i] + (p,) + cell[i + 1:]: c for p, c in enumerate(f.col(cell[i])) if c}
            rhs = {cell[:j] + (q,) + cell[j + 1:]: c for q, c in enumerate(s.col(cell[j])) if c}
            yield lhs, rhs


def test_glued_spaces_match_row_reduction_quotients(catalog):
    # each of the four U-tensor spaces is U (x) .. (x) U modulo exactly
    # the relations written out here: both sides of every relation have
    # the same coordinates, and nothing else is glued
    from hopfhomology.linalg import Subspace, sparse_rank

    for name in ("env-qeps", "env-qxq", "env-upper2", "sweedler"):
        data = catalog[name].data
        nu = data.U.dim
        a_glue = (data.tri_r, data.tri_l)    # u <| a (x) v  ~  u (x) a |> v
        aop_glue = (data.bl_l, data.tri_r)   # a |>> u (x) v  ~  u (x) v <| a
        for space, nslots, glues in (
            (data.uau, 2, [(0, 1, *a_glue)]),
            (data.uaopu, 2, [(0, 1, *aop_glue)]),
            # u <| a (x) v (x) w  ~  u (x) a |> v (x) w,  u (x) v <| a (x) w  ~  u (x) v (x) a |> w
            (data.triple_a_space(), 3, [(0, 1, *a_glue), (1, 2, *a_glue)]),
            # a |>> u (x) v (x) w  ~  u (x) v (x) w <| a,  u (x) v <| a (x) w  ~  u (x) v (x) a |> w
            (data.translation_triple_space(), 3, [(0, 2, *aop_glue), (1, 2, *a_glue)]),
        ):
            flat = {cell: n for n, cell in enumerate(product(range(nu), repeat=nslots))}
            rels = []
            for glue in glues:
                for lhs, rhs in _relation_sides(nu, nslots, *glue):
                    assert space.project_pure(lhs) == space.project_pure(rhs), (name, glue[:2])
                    rel = {}
                    for side, sign in ((lhs, 1), (rhs, -1)):
                        for cell, c in side.items():
                            rel[flat[cell]] = rel.get(flat[cell], 0) + sign * c
                    rels.append({k: v for k, v in rel.items() if v})
            assert space.dim == nu ** nslots - sparse_rank(rels), (name, nslots, glues[0][:2])
            # dropping empty and repeated relations leaves the reduced echelon as it is
            assert space.relations.echelon == Subspace(nu ** nslots, rels).echelon, (name, glues[0][:2])


FINITE = ("kz2", "kz3", "qs3", "sweedler", "env-qeps", "env-qxq", "env-upper2", "monoid01")


def test_glued_space_project_lift_round_trip(catalog):
    # every balanced tensor reads coordinate k as the pure tensor words[k]:
    # projecting that pure tensor gives e_k, and lifting e_k gives the ambient
    # unit vector at its row-major index
    for name in FINITE:
        inst = catalog[name]
        data = inst.data
        nu = data.U.dim
        left = [data.a_module(), *inst.modules.values()]
        spaces = [
            ((nu, nu), data.uau),
            ((nu, nu), data.uaopu),
            ((nu,) * 3, data.triple_a_space()),
            ((nu,) * 3, data.translation_triple_space()),
            *(((M.dim, N.dim), module_tensor_left(data, M, N).space) for M in left for N in left),
            *(((P.dim, N.dim), tensor_over(data.U, P, N)) for P in inst.right_modules.values() for N in left),
        ]
        for shape, space in spaces:
            flat = {cell: n for n, cell in enumerate(product(*map(range, shape)))}
            assert len(space.words) == space.dim
            for k, word in enumerate(space.words):
                assert space.project_pure({word: 1}) == unit_vec(space.dim, k), (name, shape, word)
                assert space.lift(unit_vec(space.dim, k)) == unit_vec(space.ambient_dim, flat[word])


def test_centralizer_subspaces(env_qeps, env_qeps_hopf):
    data = env_qeps.data
    centre = data.takeuchi_centralizer()
    for i in range(data.U.dim):
        assert centre.contains(data.delta.col(i))
    aop = data.aop_centralizer()
    for i in range(data.U.dim):
        assert aop.contains(env_qeps_hopf.translation.col(i))
    # the centre is a proper subspace here (noncommutative base actions)
    assert centre.dim <= data.uau.dim


def test_galois_module_u_linear_on_qs3(qs3):
    data = qs3.data
    h = galois_map(data)
    mods = s3_modules(data)
    fwd, inv, src_mod, target = galois_module(h, mods["std2"])
    for u in range(data.U.dim):
        assert fwd @ src_mod.action[u] == target.module.action[u] @ fwd
