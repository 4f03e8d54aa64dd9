"""Concrete algebras and Hopf structures that feed the test suite.

The catalog covers group algebras (Z/2, Z/3, S3), Sweedler's four
dimensional Hopf algebra, enveloping algebras A (x) A^op for three
small A, universal envelopes of small Lie algebras, and one negative
control (the bialgebra of the multiplicative monoid {0, 1}, which is
not Hopf).  Every finite dimensional entry is validated on
construction; the Lie entries carry their own degree-window checks.
"""

from __future__ import annotations

from collections.abc import Mapping

from .linalg import Matrix, memoized, unit_vec, zero_vec

# The finite builders import algebras and bialgebroid and the Lie
# builders pbw where they run, so a command loads only the side its
# instance lives on.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .algebras import FinDimAlgebra
    from .bialgebroid import BialgebroidData


# ---------------------------------------------------------------------------
# group algebras


def _perm_mul(p, q):
    # (p q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def monoid_algebra(labels, table, name):
    """Monoid algebra from a multiplication table of element indices, unit first."""
    from .algebras import FinDimAlgebra
    from .bialgebroid import BialgebroidData

    n = len(labels)
    mult = [[unit_vec(n, table[i][j]) for j in range(n)] for i in range(n)]
    U = FinDimAlgebra(n, labels, mult, unit_vec(n, 0))
    # Delta(m) = m (x) m, eps(m) = 1, over A = Q
    delta = Matrix.zeros(n * n, n)
    for g in range(n):
        delta.rows[g * n + g][g] = 1
    eps_hat = [Matrix([[1]]) for _ in range(n)]
    A = ground_field()
    eta = Matrix.from_cols([U.unit], nrows=n)
    return BialgebroidData(U, A, eta, delta, eps_hat, name=name)


def group_algebra_from_table(labels, table, inverse, name):
    """Group algebra from a multiplication table of element indices."""
    data = monoid_algebra(labels, table, name)
    data.group_inverse = inverse
    return data


def ground_field():
    from .algebras import FinDimAlgebra

    return FinDimAlgebra(1, ["1"], [[[1]]], [1])


def cyclic_group_algebra(m, name=None):
    labels = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, m)]
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    inverse = [(-i) % m for i in range(m)]
    return group_algebra_from_table(labels, table, inverse, name or f"kz{m}")


def symmetric3_group_algebra():
    perms = [
        (0, 1, 2),
        (1, 0, 2),
        (0, 2, 1),
        (2, 1, 0),
        (1, 2, 0),
        (2, 0, 1),
    ]
    labels = ["e", "(12)", "(23)", "(13)", "(123)", "(132)"]
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[_perm_mul(p, q)] for q in perms] for p in perms]
    inverse = [idx[tuple(sorted(range(3), key=lambda k: p[k]))] for p in perms]
    data = group_algebra_from_table(labels, table, inverse, "qs3")
    data.perms = perms
    return data


def sign_character_s3():
    return [1, -1, -1, -1, 1, 1]


def _character(U, values, side="left"):
    """The one dimensional module on which the k-th basis element of U acts by values[k]."""
    from .algebras import ModuleRep

    return ModuleRep(U, 1, side, [Matrix([[c]]) for c in values])


def s3_modules(data):
    """Left modules over QS3: trivial, sign, the 2 dim irreducible, regular."""
    from .algebras import ModuleRep

    U = data.U
    triv = _character(U, [1] * 6)
    sgn = _character(U, sign_character_s3())
    # standard representation on v1 = e1 - e2, v2 = e2 - e3;
    # a e1 + b e2 + c e3 with a + b + c = 0 reads (a, a + b) on (v1, v2)
    mats = []
    for p in data.perms:
        cols = []
        for basis in ((1, -1, 0), (0, 1, -1)):
            img = [0, 0, 0]
            for src, c in enumerate(basis):
                img[p[src]] += c
            cols.append([img[0], img[0] + img[1]])
        mats.append(Matrix.from_cols(cols, nrows=2))
    std = ModuleRep(U, 2, "left", mats)
    return {"trivial": triv, "sign": sgn, "std2": std, "regular": ModuleRep.regular_left(U)}


# ---------------------------------------------------------------------------
# Sweedler's four dimensional Hopf algebra


def sweedler_algebra():
    """Basis 1, g, x, gx with g^2 = 1, x^2 = 0, xg = -gx."""
    from .algebras import FinDimAlgebra
    from .bialgebroid import BialgebroidData

    labels = ["1", "g", "x", "gx"]
    n = 4
    I, G, X, GX = 0, 1, 2, 3

    def unit(i, c=1):
        v = zero_vec(n)
        v[i] = c
        return v

    table = {}
    table[(I, I)] = unit(I)
    table[(I, G)] = unit(G)
    table[(I, X)] = unit(X)
    table[(I, GX)] = unit(GX)
    table[(G, I)] = unit(G)
    table[(G, G)] = unit(I)
    table[(G, X)] = unit(GX)
    table[(G, GX)] = unit(X)
    table[(X, I)] = unit(X)
    table[(X, G)] = unit(GX, -1)
    table[(X, X)] = zero_vec(n)
    table[(X, GX)] = zero_vec(n)
    table[(GX, I)] = unit(GX)
    table[(GX, G)] = unit(X, -1)
    table[(GX, X)] = zero_vec(n)
    table[(GX, GX)] = zero_vec(n)
    mult = [[table[(i, j)] for j in range(n)] for i in range(n)]
    U = FinDimAlgebra(n, labels, mult, unit_vec(n, 0))

    delta = Matrix.zeros(n * n, n)

    def put(col, p, q, c=1):
        delta.rows[p * n + q][col] += c

    put(I, I, I)
    put(G, G, G)
    # Delta x = x (x) 1 + g (x) x
    put(X, X, I)
    put(X, G, X)
    # Delta gx = gx (x) g + 1 (x) gx
    put(GX, GX, G)
    put(GX, I, GX)
    eps = [1, 1, 0, 0]
    eps_hat = [Matrix([[e]]) for e in eps]
    A = ground_field()
    eta = Matrix.from_cols([U.unit], nrows=n)
    return BialgebroidData(U, A, eta, delta, eps_hat, name="sweedler")


def sweedler_modules(data):
    from .algebras import ModuleRep

    U = data.U
    triv = _character(U, (1, 1, 0, 0))
    sgn = _character(U, (1, -1, 0, 0))
    return {"trivial": triv, "sign": sgn, "regular": ModuleRep.regular_left(U)}


def sweedler_right_modules(data):
    # over the ground field the counit is an algebra map, so it carries
    # a one dimensional right module as well
    return {"trivial": _character(data.U, (1, 1, 0, 0), "right")}


# ---------------------------------------------------------------------------
# enveloping algebras U = A (x) A^op


def dual_numbers():
    """Q[eps]/(eps^2), basis 1, eps."""
    from .algebras import FinDimAlgebra

    mult = [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]
    return FinDimAlgebra(2, ["1", "eps"], mult, [1, 0])


def q_times_q():
    """Q x Q with idempotent basis."""
    from .algebras import FinDimAlgebra

    mult = [
        [[1, 0], [0, 0]],
        [[0, 0], [0, 1]],
    ]
    return FinDimAlgebra(2, ["e1", "e2"], mult, [1, 1])


def upper_triangular2():
    """Upper triangular 2x2 matrices, basis E11, E22, E12."""
    from .algebras import FinDimAlgebra

    n = 3
    E11, E22, E12 = 0, 1, 2
    z = zero_vec(n)

    def u(i):
        return unit_vec(n, i)

    mult = [[list(z) for _ in range(n)] for _ in range(n)]
    mult[E11][E11] = u(E11)
    mult[E22][E22] = u(E22)
    mult[E11][E12] = u(E12)
    mult[E12][E22] = u(E12)
    mult[E11][E22] = list(z)
    mult[E22][E11] = list(z)
    mult[E22][E12] = list(z)
    mult[E12][E11] = list(z)
    mult[E12][E12] = list(z)
    unit = [1, 1, 0]
    return FinDimAlgebra(n, ["E11", "E22", "E12"], mult, unit)


def enveloping_instance(A: FinDimAlgebra, name):
    """U = A (x) A^op as a bialgebroid over A.

    eta is the identity, the coproduct sends a (x) b to
    (a (x) 1) (x)_A (1 (x) b), and U acts on A by a . c . b.
    """
    from .bialgebroid import BialgebroidData

    U = A.enveloping()
    na = A.dim
    nu = U.dim
    eta = Matrix.identity(nu)
    delta = Matrix.zeros(nu * nu, nu)
    unit_a = A.unit
    for i in range(na):
        for j in range(na):
            col = i * na + j
            # (a_i (x) 1) (x) (1 (x) a_j), with 1 expanded on the basis
            for p, c in enumerate(unit_a):
                if not c:
                    continue
                for q, d in enumerate(unit_a):
                    if not d:
                        continue
                    row = (i * na + p) * nu + (q * na + j)
                    delta.rows[row][col] += c * d
    eps_hat = []
    for i in range(na):
        for j in range(na):
            eps_hat.append(A.left_mult_matrix(unit_vec(na, i)) @ A.right_mult_matrix(unit_vec(na, j)))
    # tail basis a_t (x) 1 makes U free over both base actions
    tails = []
    for t in range(na):
        v = zero_vec(nu)
        for q, d in enumerate(unit_a):
            if d:
                v[t * na + q] += d
        tails.append(v)
    return BialgebroidData(U, A, eta, delta, eps_hat, tail_basis=tails, name=name)


def bimodule_a(data: BialgebroidData):
    """A as a left module over U = A (x) A^op (both sided action on itself)."""
    return data.a_module()


def bimodule_a_right(data: BialgebroidData):
    """A as a right module over U = A (x) A^op: a . (x (x) y) = y a x."""
    from .algebras import ModuleRep

    A = data.A
    na = A.dim
    mats = []
    for i in range(na):
        for j in range(na):
            mats.append(A.right_mult_matrix(unit_vec(na, i)) @ A.left_mult_matrix(unit_vec(na, j)))
    return ModuleRep(data.U, na, "right", mats)


# ---------------------------------------------------------------------------
# negative control: the bialgebra of the multiplicative monoid {1, 0}


def monoid01_bialgebra():
    """k[M] for M = ({1, 0}, *): a bialgebra whose Galois map is singular."""
    return monoid_algebra(["m1", "m0"], [[0, 1], [1, 1]], "monoid01")


# ---------------------------------------------------------------------------
# Lie algebras


def lie_abelian(d):
    from .pbw import LieAlgebraData

    zero = [[zero_vec(d) for _ in range(d)] for _ in range(d)]
    return LieAlgebraData(d, zero, name=f"lie-abelian{d}")


def lie_nonabelian2():
    """[x, y] = y."""
    from .pbw import LieAlgebraData

    c = [[zero_vec(2) for _ in range(2)] for _ in range(2)]
    c[0][1] = [0, 1]
    c[1][0] = [0, -1]
    return LieAlgebraData(2, c, name="lie-nonabelian2")


def lie_sl2():
    """Basis h, e, f with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    from .pbw import LieAlgebraData

    H, E, F = 0, 1, 2
    c = [[zero_vec(3) for _ in range(3)] for _ in range(3)]
    c[H][E] = [0, 2, 0]
    c[E][H] = [0, -2, 0]
    c[H][F] = [0, 0, -2]
    c[F][H] = [0, 0, 2]
    c[E][F] = [1, 0, 0]
    c[F][E] = [-1, 0, 0]
    return LieAlgebraData(3, c, name="lie-sl2", labels=["h", "e", "f"])


# ---------------------------------------------------------------------------
# catalog


class Instance:
    def __init__(self, name: str, kind: str, data, modules=None, right_modules=None,
                 description: str = "", expect_hopf: bool = True):
        self.name, self.kind, self.data = name, kind, data  # kind: "findim", "lie" or "control"
        self.modules = {} if modules is None else modules
        self.right_modules = {} if right_modules is None else right_modules
        self.description, self.expect_hopf = description, expect_hopf

    def __repr__(self):
        return f"Instance({self.name})"


def _group_modules_z2(data):
    return {"trivial": _character(data.U, [1, 1]), "sign": _character(data.U, [1, -1])}


def _group_modules_z3(data):
    from .algebras import ModuleRep

    U = data.U
    rot = Matrix([[0, -1], [1, -1]])
    return {
        "trivial": _character(U, [1] * 3),
        "plane": ModuleRep(U, 2, "left", [Matrix.identity(2), rot, rot @ rot]),
    }


def _right_trivial_group(data):
    return _character(data.U, [1] * data.U.dim, "right")


def _entry(make, left=lambda data: {}, right=lambda data: {}):
    """A catalog build: make() the data, then its left and right modules."""

    def build():
        data = make()
        return data, left(data), right(data)

    return build


def _right_trivial_modules(data):
    return {"trivial": _right_trivial_group(data)}


def _envelope_modules(data):
    from .algebras import ModuleRep

    return {"A": bimodule_a(data), "U": ModuleRep.regular_left(data.U)}


def _envelope(make, name):
    return _entry(
        lambda: enveloping_instance(make(), name),
        _envelope_modules,
        lambda data: {"A": bimodule_a_right(data)},
    )


def _lie_left_modules(g):
    from .pbw import LieModule

    return {"trivial": LieModule.trivial(g), "adjoint": LieModule.adjoint(g)}


def _lie_right_modules(g):
    from .pbw import LieModule

    return {"trivial": LieModule.trivial(g, side="right")}


def _lie(make):
    return _entry(make, _lie_left_modules, _lie_right_modules)


_KOSZUL = "universal envelope of {} via its Koszul-type resolution"

# name -> (kind, description, expect_hopf, build); build() returns the
# validated data and its left and right modules.
CATALOG = {
    "kz2": ("findim", "group algebra of Z/2", True,
            _entry(lambda: cyclic_group_algebra(2), _group_modules_z2, _right_trivial_modules)),
    "kz3": ("findim", "group algebra of Z/3", True,
            _entry(lambda: cyclic_group_algebra(3), _group_modules_z3, _right_trivial_modules)),
    "qs3": ("findim", "group algebra of the symmetric group S3", True,
            _entry(symmetric3_group_algebra, s3_modules, _right_trivial_modules)),
    "sweedler": ("findim", "Sweedler's 4 dimensional Hopf algebra", True,
                 _entry(sweedler_algebra, sweedler_modules, sweedler_right_modules)),
    "env-qeps": ("findim", "enveloping algebra of Q[eps]/(eps^2)", True,
                 _envelope(dual_numbers, "env-qeps")),
    "env-qxq": ("findim", "enveloping algebra of Q x Q", True, _envelope(q_times_q, "env-qxq")),
    "env-upper2": ("findim", "enveloping algebra of upper triangular 2x2", True,
                   _envelope(upper_triangular2, "env-upper2")),
    "monoid01": ("control", "bialgebra of the multiplicative monoid {1,0}; Galois map is singular",
                 False, _entry(monoid01_bialgebra)),
    "lie-abelian1": ("lie", _KOSZUL.format("lie-abelian1"), True, _lie(lambda: lie_abelian(1))),
    "lie-abelian2": ("lie", _KOSZUL.format("lie-abelian2"), True, _lie(lambda: lie_abelian(2))),
    "lie-nonabelian2": ("lie", _KOSZUL.format("lie-nonabelian2"), True, _lie(lie_nonabelian2)),
    "lie-sl2": ("lie", _KOSZUL.format("lie-sl2"), True, _lie(lie_sl2)),
}


class _Catalog(Mapping):
    """Read-only view of CATALOG that builds an instance on its first lookup.

    Membership, length and iteration read only the names; a lookup builds
    the data (validated on construction) and its modules once.
    """

    @memoized
    def __getitem__(self, name):
        kind, description, expect_hopf, build = CATALOG[name]
        data, modules, right_modules = build()
        return Instance(name, kind, data, modules, right_modules, description, expect_hopf)

    def __contains__(self, name):
        return name in CATALOG

    def __iter__(self):
        return iter(CATALOG)

    def __len__(self):
        return len(CATALOG)


def builtin_instances() -> Mapping:
    """Catalog of validated instances, keyed by name; each is built when first looked up."""
    return _Catalog()
