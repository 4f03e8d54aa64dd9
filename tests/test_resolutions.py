from fractions import Fraction as Q

import pytest

from hopfhomology.errors import LiftFailedError, WindowExceededError
from hopfhomology.instances import cyclic_group_algebra
from hopfhomology.linalg import Matrix, unit_vec, zero_vec
from hopfhomology.resolutions import (
    TotalTensorComplex,
    bar_resolution,
    lift_into_total,
    lift_to_bar,
)


def _homotopy_identity_holds(bar, n):
    for w in bar.words(n):
        lhs = bar.boundary_elt(bar.homotopy_word(w))
        for w2, c in bar.homotopy_elt(bar.boundary_word(w)).items():
            lhs[w2] = lhs.get(w2, 0) + c
            if not lhs[w2]:
                del lhs[w2]
        if n == 0:
            for w2, c in bar.homotopy_bottom(bar.augmentation_word(w)).items():
                lhs[w2] = lhs.get(w2, 0) + c
                if not lhs[w2]:
                    del lhs[w2]
        if lhs != {w: Q(1)}:
            return False
    return True


def test_bar_group_algebra_dims(qs3_bar):
    # over the ground field the degree n term has dimension |G|^{n+1}
    for n in range(5):
        assert qs3_bar.concrete_dim(n) == 6 ** (n + 1)


def test_bar_depth_zero_homotopy_identity():
    bar = bar_resolution(cyclic_group_algebra(2), 1)
    assert _homotopy_identity_holds(bar, 0)


def test_bar_contractibility_env(env_qeps_bar):
    for n in range(1, 5):
        for w in env_qeps_bar.words(n):
            assert not env_qeps_bar.boundary_elt(env_qeps_bar.boundary_word(w))
    for n in range(0, 5):
        assert _homotopy_identity_holds(env_qeps_bar, n)


def test_bar_window_enforced(env_qeps_bar):
    with pytest.raises(WindowExceededError):
        env_qeps_bar.rank(6)


def test_bar_generator_differential_matches_concrete(env_qeps_bar):
    bar = env_qeps_bar
    n = 2
    chain = bar.chain_matrix(n)
    for gi, g in enumerate(bar.generators(n)):
        gv = bar.generator_vector(n, g)
        img = chain.apply(gv)
        # reassemble from the generator-level columns
        expect = zero_vec(bar.concrete_dim(n - 1))
        for j, entry in bar.diff_cols(n)[gi].items():
            for u, c in enumerate(entry):
                if c:
                    expect[bar.word_index(n - 1, (u,) + bar.generators(n - 1)[j])] += c
        assert img == expect


def test_tensor_resolution_exact_env(env_qeps_bar):
    tot = TotalTensorComplex(env_qeps_bar, 3)
    report = tot.check_resolution()
    assert report.get("aug", True)
    assert report[0] and report[1] and report[2]


def test_tensor_resolution_semisimple_group():
    bar = bar_resolution(cyclic_group_algebra(2), 2)
    tot = TotalTensorComplex(bar, 2)
    report = tot.check_resolution()
    assert all(v for k, v in report.items())


def test_tensor_resolution_ground_field():
    # over the trivial group algebra every term is one dimensional and
    # the augmented total complex stays exact
    bar = bar_resolution(cyclic_group_algebra(1), 2)
    assert [bar.concrete_dim(n) for n in range(3)] == [1, 1, 1]
    tot = TotalTensorComplex(bar, 2)
    assert all(v for v in tot.check_resolution().values())


def closed_form_diagonal(bar, tot, upto):
    """BarResolution.diagonal as concrete matrices P_n -> Tot_n, extended U-linearly."""
    mats = []
    for n in range(upto + 1):
        on_gens = {}
        for g in bar.generators(n):
            v = zero_vec(tot.complex.dim(n))
            for i in range(n + 1):
                block = tot.blocks[(i, n - i)]
                dim_back = bar.concrete_dim(n - i)
                amb = zero_vec(bar.concrete_dim(i) * dim_back)
                for (x, y), c in bar.diagonal(g, i).items():
                    amb[bar.word_index(i, x) * dim_back + bar.word_index(n - i, y)] += c
                off = tot.offsets[(i, n - i)]
                v[off : off + block.space.dim] = block.space.project(amb)
            on_gens[g] = v
        cols = [tot.action[n][w[0]].apply(on_gens[w[1:]]) for w in bar.words(n)]
        mats.append(Matrix.from_cols(cols, nrows=tot.complex.dim(n)))
    return mats


# (instance, top total degree); the base algebras have dimension 1, 1, 2, 3
# and 2.  env-upper2 stops at degree 1: its reference total complex takes
# about 4 s to build there and about a minute at degree 2.
CHAIN_MAP_CASES = [("kz3", 2), ("sweedler", 2), ("env-qeps", 3), ("env-upper2", 1), ("env-qxq", 2)]


def test_diagonal_lift_is_chain_map(catalog):
    # the solve-based lift and the closed-form Alexander-Whitney diagonal
    # are both chain maps P -> Tot(P (x)_A P) over the augmentation
    for name, upto in CHAIN_MAP_CASES:
        bar = bar_resolution(catalog[name].data, upto + 1)
        tot = TotalTensorComplex(bar, upto)
        for diagonal in (lift_into_total, closed_form_diagonal):
            diag = diagonal(bar, tot, upto)
            where = f"{diagonal.__name__} on {name}"
            for n in range(1, upto + 1):
                lhs = tot.complex.d(n) @ diag[n]
                rhs = diag[n - 1] @ bar.chain_matrix(n)
                assert lhs == rhs, f"{where}: d Delta != Delta d in degree {n}"
            # augmentation compatibility at the bottom
            assert tot.aug @ diag[0] == bar.augmentation_matrix(), where


def test_lift_failed_on_corrupted_target(env_qeps_bar):
    bar = env_qeps_bar
    tot = TotalTensorComplex(bar, 2)
    # corrupting the degree 2 differential makes the lift equations
    # inconsistent (the target stops being exact there)
    tot.complex.diff[2] = Matrix.zeros(tot.complex.dim(1), tot.complex.dim(2))
    with pytest.raises(LiftFailedError):
        lift_into_total(bar, tot, 2)


def test_lift_to_bar_self_comparison_is_identity_on_ext(env_qeps, env_qeps_bar):
    from hopfhomology.homology import resolution_independence
    from hopfhomology.instances import bimodule_a

    bar2 = bar_resolution(env_qeps.data, 4)
    M = bimodule_a(env_qeps.data)
    iso = resolution_independence(env_qeps_bar, bar2, M, 2)
    assert iso.bijective
    assert (iso.forward @ iso.backward) == Matrix.identity(iso.forward.nrows)


def test_hom_tensor_double_complex_euler_characteristic(env_qeps, env_qeps_bar):
    # C^1_{mn} = Hom_U(P_m, M) (x) Hom_U(P_n, N) over the truncated range;
    # the Euler characteristic of the total complex factors
    from hopfhomology.complexes import DoubleComplex
    from hopfhomology.homology import cochain_matrix
    from hopfhomology.instances import bimodule_a

    bar = env_qeps_bar
    M = bimodule_a(env_qeps.data)
    top = 3
    dims = [bar.rank(n) * M.dim for n in range(top + 1)]
    deltas = {n: cochain_matrix(bar, M, n) for n in range(top)}
    spaces = {}
    dh = {}
    dv = {}
    # cochain double complex encoded homologically: position (i, j)
    # holds cochain bidegree (top - i, top - j)
    for i in range(top + 1):
        for j in range(top + 1):
            spaces[(i, j)] = dims[top - i] * dims[top - j]
    ident = {n: Matrix.identity(dims[n]) for n in range(top + 1)}
    for i in range(top + 1):
        for j in range(top + 1):
            if i >= 1:
                dh[(i, j)] = deltas[top - i].kron(ident[top - j])
            if j >= 1:
                dv[(i, j)] = ident[top - i].kron(deltas[top - j])
    dc = DoubleComplex(spaces, dh, dv)
    total, offs = dc.totalize()
    euler_total = sum((-1) ** n * total.dim(n) for n in total.degrees())
    euler_row = sum((-1) ** n * dims[n] for n in range(top + 1))
    assert euler_total == euler_row * euler_row


def test_lift_to_bar_chain_property(env_qeps_bar):
    bar = env_qeps_bar
    other = bar_resolution(bar.data, 4)
    mats = lift_to_bar(bar, other, 3)
    for n in range(1, 4):
        assert other.chain_matrix(n) @ mats[n] == mats[n - 1] @ bar.chain_matrix(n)
    assert other.augmentation_matrix() @ mats[0] == bar.augmentation_matrix()
    # the comparison must be U-linear, not merely k-linear
    for n in range(4):
        for u in range(bar.U.dim):
            src_act = bar.action_matrices(n)[u]
            dst_act = other.action_matrices(n)[u]
            assert mats[n] @ src_act == dst_act @ mats[n]


def _reference_boundary_word(bar, w):
    """b' of a normal word, every face rebuilt from scratch for this word.

    The counit face is eps(f_{t_n}) |>> u read from
    U.right_mult_matrix(eta_target(counit(f_t))), and pushes into the
    free slot read a column of the push matrix, with nothing cached.
    """
    U, data = bar.U, bar.data

    def sparse(vec):
        return {p: c for p, c in enumerate(vec) if c}

    def add(out, key, c):
        out[key] = out.get(key, 0) + c
        if not out[key]:
            del out[key]

    def renorm(word, k, vec):
        out = {}
        if k == 0 or bar.trivial_base:
            for b, c in vec.items():
                add(out, word[:k] + (b,) + word[k + 1 :], c)
            return out
        for b, cb in vec.items():
            for t, r, c in bar.expand[b]:
                w2 = word[:k] + (t,) + word[k + 1 :]
                if k == 1:
                    pushed = sparse(bar.push[r].col(word[0]))
                else:
                    pushed = sparse(bar.push[r].apply(bar.tails[word[k - 1]]))
                for w3, c3 in renorm(w2, k - 1, pushed).items():
                    add(out, w3, cb * c * c3)
        return out

    n = len(w) - 1
    out = {}
    if n == 0:
        return out
    prod = sparse(U.multiply(unit_vec(U.dim, w[0]), bar.tails[w[1]]))
    for p, c in prod.items():
        add(out, (p,) + w[2:], c)
    for i in range(1, n):
        vec = sparse(U.multiply(bar.tails[w[i]], bar.tails[w[i + 1]]))
        for w2, c in renorm(w[: i + 1] + w[i + 2 :], i, vec).items():
            add(out, w2, (-1) ** i * c)
    face = U.right_mult_matrix(data.eta_target(data.counit(bar.tails[w[n]])))
    if n == 1:
        for p, c in sparse(face.col(w[0])).items():
            add(out, (p,), (-1) ** n * c)
    else:
        target = sparse(face.apply(bar.tails[w[n - 1]]))
        for w2, c in renorm(w[:n], n - 1, target).items():
            add(out, w2, (-1) ** n * c)
    return out


@pytest.mark.parametrize("name", ["kz3", "sweedler", "env-qeps", "env-upper2"])
def test_boundary_word_matches_uncached_faces(catalog, name):
    bar = bar_resolution(catalog[name].data, 3)
    assert bar.trivial_base == (name in ("kz3", "sweedler"))
    for n in range(4):
        for w in bar.words(n):
            assert bar.boundary_word(w) == _reference_boundary_word(bar, w)
