"""Cup, composition, evaluation and cap products at chain level.

One class, Products, holds the one body of each product and its window
checks, over the bar resolution of a finite dimensional U and the
Koszul resolution of a universal envelope.  Cup and cap
(homology.cup_cochain, homology.cap_chain) evaluate the resolution's
closed-form diagonal on free generators; composition and evaluation
(homology.pull_cochain, homology.push_chain) read a degree m class
through the chain maps f_j : P_(m+j) -> P_j that the resolution's
lift(src, m, values, top) builds through its contraction.  Each context
supplies only what differs: BarProducts the tensor modules over A
(bialgebroid.module_tensor_left and module_tensor_right) and A as the
base of a class's values, CEProducts the Lie tensor modules, which are
M (x) N itself, and the ground field as that base.
Signs flow from two conventions fixed elsewhere: the totalization sign
(-1)^(horizontal degree) and the shift sign (-1)^m on a lifted degree m
class; cap_chain reads a degree m cochain past the front leg with the
Koszul sign and cup_cochain reads its cochains with none, so cup and cap
associate only up to sign:
(phi cup psi) cap z = (-1)^(mq) phi cap (psi cap z) in degrees m and q
(tests/test_products.py::test_cap_associates_with_cup_on_sweedler).
The graded commutation rule between composition and cup, and the
agreement of evaluation and cap against classes of the base, are
theorems the test suite checks; nothing here inserts them.
"""

from __future__ import annotations

from .errors import WindowExceededError
from .homology import cap_chain, cup_cochain, pull_cochain, push_chain
from .linalg import Matrix, memoized

# BarProducts imports bialgebroid and CEProducts pbw where they run,
# so a command loads only its own side; these serve the annotations alone.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .ce import CEResolution
    from .resolutions import BarResolution


def transport_cochain(rank, iso: Matrix, cochain, src_dim):
    """Apply a module map to the values of a generator cochain."""
    out = []
    for k in range(rank):
        vals = [cochain[k * src_dim + a] for a in range(src_dim)]
        out.extend(iso.apply(vals))
    return out


class Products:
    """Cup, cap, composition and evaluation over one resolution, with their windows.

    Cup and cap reach total degree total_degree, composition and
    evaluation res.max_degree, and a degree m class lifts up to degree
    top - m.  A context sets base_dim, the dimension of the base its
    classes take values in, and supplies _build_tensor(M, N, left): the
    tensor module for cup (left) or cap, its action, and the projection
    of M (x) N pair coordinates onto it.
    """

    def __init__(self, res, total_degree: int, top: int):
        self.res, self.total_degree, self.top = res, total_degree, top

    def cup(self, m, n, phi, psi, M, N):
        """(phi cup psi) as a cochain valued in the tensor module of M, N.

        Returns (cochain vector, tensor module of M and N).
        """
        if m + n > self.total_degree:
            raise WindowExceededError("cup exceeds the prepared total degree")
        tm, _, project = self._tensor_parts(M, N, True)
        return cup_cochain(self.res, m, n, phi, psi, M, N, project), tm

    def cap(self, m, phi, z, n, M, N):
        """phi cap z in Tor_{n-m} of the tensor module of M and N.

        z is a Tor_n(N, A) cycle vector; phi an Ext^m(A, M) cocycle.
        Returns (cycle vector, tensor module of M and N).
        """
        if n < m:
            raise WindowExceededError("cap needs n >= m")
        if n > self.total_degree:
            raise WindowExceededError("cap exceeds the prepared total degree")
        tm, T, project = self._tensor_parts(M, N, False)
        return cap_chain(self.res, m, phi, z, n, M, N, T, project), tm

    def lift_class(self, m, phi):
        """Chain maps f_j : P_{m+j} -> P_j with d f = (-1)^m f d, f over phi.

        f_j maps each generator to {generator: coefficient}, built by
        res.lift from the values of phi, base_dim of them per generator.
        """
        return self._lift(m, tuple(phi))

    @memoized
    def _lift(self, m, phi):
        res, na = self.res, self.base_dim
        values = [phi[k * na : (k + 1) * na] for k in range(res.rank(m))]
        return res.lift(res, m, values, self.top - m)

    def yoneda(self, m, n, phi, psi, M):
        """psi o phi for phi in Ext^m(A, A), psi in Ext^n(A, M); a cochain."""
        if m + n > self.res.max_degree:
            raise WindowExceededError("composition exceeds the resolution window")
        return pull_cochain(self.res, self.lift_class(m, phi), n, psi, M)

    def bullet(self, m, phi, z, n, N):
        """phi . z for phi in Ext^m(A, A), z a Tor_n(N, A) cycle vector."""
        if n < m:
            raise WindowExceededError("evaluation needs n >= m")
        if n > self.res.max_degree:
            raise WindowExceededError("evaluation exceeds the resolution window")
        return push_chain(self.res, self.lift_class(m, phi), n - m, z, N)

    def tensor(self, M, N, left):
        """The tensor module of M and N for cup (left) or cap."""
        return self._tensor_parts(M, N, left)[0]

    @memoized
    def _tensor_parts(self, M, N, left):
        """_build_tensor(M, N, left), built once per pair."""
        return self._build_tensor(M, N, left)


class BarProducts(Products):
    """Products over a finite dimensional Hopf structure via the bar model."""

    def __init__(self, h, bar: BarResolution, total_degree: int):
        if total_degree > bar.depth:
            raise WindowExceededError("total degree exceeds the bar window")
        super().__init__(bar, total_degree, bar.depth)
        self.h = h
        self.base_dim = h.data.A.dim

    def _build_tensor(self, M, N, left):
        from .bialgebroid import module_tensor_left, module_tensor_right

        tm = module_tensor_left(self.h.data, M, N) if left else module_tensor_right(self.h, M, N)
        return tm, tm.module, tm.space.project


class CEProducts(Products):
    """Products over U(g) through the Koszul resolution, in closed form."""

    base_dim = 1  # the base is the ground field

    def __init__(self, ce: CEResolution):
        super().__init__(ce, ce.max_degree, ce.g.dim)

    def _build_tensor(self, M, N, left):
        from .pbw import tensor_left_lie, tensor_right_lie

        # the Lie tensor module is M (x) N itself: list is its projection
        tm = (tensor_left_lie if left else tensor_right_lie)(self.res.g, M, N)
        return tm, tm, list
