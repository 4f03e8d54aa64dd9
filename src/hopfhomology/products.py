"""Cup, composition, evaluation and cap products at chain level.

Two contexts implement the same four products: the bar resolution over
a finite dimensional U and the Koszul resolution of a universal
envelope.  Each product has one body in homology, shared by both.  Cup
and cap (homology.cup_cochain, homology.cap_chain) evaluate a
closed-form diagonal on free generators: the Alexander-Whitney one
built from the coproduct (BarResolution.diagonal) and the
subset-splitting comultiplication (CEResolution.diagonal).  A class phi
of degree m lifts to chain maps f_j : P_(m+j) -> P_j, stored per degree
as {source generator: {target generator: coefficient}} with each
coefficient in its resolution's own form (U-coordinates on the bar
side, a PBW dict over U(g)); homology.lift builds them on both sides
through the resolution's contraction (the bar homotopy, and the Koszul
contraction of CEResolution.contract), homology.pull_cochain composes a
cochain with such a map and homology.push_chain evaluates a chain along
it.
The classes here keep the windows and build the tensor modules, which
differ between the contexts.  Signs flow from two conventions fixed
elsewhere: the totalization sign (-1)^(horizontal degree) and the shift
sign (-1)^m on a lifted degree m class; cap_chain reads a degree m
cochain past the front leg with the Koszul sign and cup_cochain reads
its cochains with none, so cup and cap associate only up to sign:
(phi cup psi) cap z = (-1)^(mq) phi cap (psi cap z) in degrees m and q
(tests/test_products.py::test_cap_associates_with_cup_on_sweedler).
The graded commutation rule between composition and cup, and the
agreement of evaluation and cap against classes of the base, are
theorems the test suite checks; nothing here inserts them.
"""

from __future__ import annotations

from .errors import WindowExceededError
from .homology import cap_chain, cup_cochain, lift, pull_cochain, push_chain
from .linalg import Matrix

# BarProducts imports bialgebroid and CEProducts ce and pbw where they run,
# so a command loads only its own side; these serve the annotations alone.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .ce import CEResolution
    from .pbw import LieModule
    from .resolutions import BarResolution


def transport_cochain(rank, iso: Matrix, cochain, src_dim):
    """Apply a module map to the values of a generator cochain."""
    out = []
    for k in range(rank):
        vals = [cochain[k * src_dim + a] for a in range(src_dim)]
        out.extend(iso.apply(vals))
    return out


# ---------------------------------------------------------------------------
# finite dimensional context


class BarProducts:
    """Products over a finite dimensional Hopf structure via the bar model."""

    def __init__(self, h, bar: BarResolution, total_degree: int):
        if total_degree > bar.depth:
            raise WindowExceededError("total degree exceeds the bar window")
        self.h = h
        self.data = h.data
        self.bar = bar
        self.total_degree = total_degree
        self._lift_cache = {}
        self._tensor_cache = {}

    # -- cup ---------------------------------------------------------------

    def cup(self, m, n, phi, psi, M, N):
        """(phi cup psi) as a cochain valued in the tensor module of M, N.

        Returns (cochain vector, TensorModule for M (x) N).
        """
        if m + n > self.total_degree:
            raise WindowExceededError("cup exceeds the prepared total degree")
        tm = self.tensor(M, N, left=True)
        return cup_cochain(self.bar, m, n, phi, psi, M, N, tm.space.project), tm

    # -- lifting a class of Ext(A, A) to a chain self-map --------------------

    def lift_class(self, m, phi):
        """Chain maps f_j : P_{m+j} -> P_j with d f = (-1)^m f d, f over phi.

        f_j maps each generator to {generator: U-coordinate tuple}, built
        by BarResolution.lift from the A-values of phi.
        """
        key = (m, tuple(phi))
        if key not in self._lift_cache:
            bar = self.bar
            na = self.data.A.dim
            values = [phi[k * na : (k + 1) * na] for k in range(bar.rank(m))]
            self._lift_cache[key] = bar.lift(bar, m, values, bar.depth - m)
        return self._lift_cache[key]

    def yoneda(self, m, n, phi, psi, M):
        """psi o phi for phi in Ext^m(A, A), psi in Ext^n(A, M); a cochain."""
        if m + n > self.bar.depth:
            raise WindowExceededError("composition exceeds the bar window")
        return pull_cochain(self.bar, self.lift_class(m, phi), n, psi, M)

    def bullet(self, m, phi, z, n, N):
        """phi . z for phi in Ext^m(A, A), z a Tor_n(N, A) cycle vector."""
        if n < m:
            raise WindowExceededError("evaluation needs n >= m")
        if n > self.bar.depth:
            raise WindowExceededError("evaluation exceeds the bar window")
        return push_chain(self.bar, self.lift_class(m, phi), n - m, z, N)

    def tensor(self, M, N, left):
        """The tensor module of M and N for cup (left) or cap, built once per pair."""
        key = (M, N, left)
        if key not in self._tensor_cache:
            from .bialgebroid import module_tensor_left, module_tensor_right

            self._tensor_cache[key] = (
                module_tensor_left(self.data, M, N) if left else module_tensor_right(self.h, M, N)
            )
        return self._tensor_cache[key]

    def cap(self, m, phi, z, n, M, N):
        """phi cap z in Tor_{n-m} of the tensor module of M and N.

        z is a Tor_n(N, A) cycle vector; phi an Ext^m(A, M) cocycle.
        Returns (cycle vector, TensorModule).
        """
        if n < m:
            raise WindowExceededError("cap needs n >= m")
        if n > self.total_degree:
            raise WindowExceededError("cap exceeds the prepared total degree")
        tm = self.tensor(M, N, left=False)
        return cap_chain(self.bar, m, phi, z, n, M, N, tm.module, tm.space.project), tm


# ---------------------------------------------------------------------------
# universal envelope context


class CEProducts:
    """Products over U(g) through the Koszul resolution, in closed form."""

    def __init__(self, ce: CEResolution):
        self.ce = ce
        self.g = ce.g
        self._lift_cache = {}

    def cup(self, m, n, phi, psi, M: LieModule, N: LieModule):
        from .pbw import tensor_left_lie

        tm = tensor_left_lie(self.g, M, N)
        # the Lie tensor module is M (x) N itself: list is its projection
        return cup_cochain(self.ce, m, n, phi, psi, M, N, list), tm

    def lift_class(self, m, phi):
        """f_j : P_{m+j} -> P_j with d f = (-1)^m f d, f over phi.

        f_j maps each generator to {generator: PBW dict}, built by
        homology.lift through the Koszul contraction CEResolution.contract.
        """
        from .pbw import mono_one

        key = (m, tuple(phi))
        if key not in self._lift_cache:
            ce = self.ce
            # f_0 sends e_G to phi(e_G) . 1
            unit = mono_one(self.g.dim)
            bottom = {G: {(): {unit: phi[k]}} for k, G in enumerate(ce.generators(m))}
            self._lift_cache[key] = lift(ce, ce, m, bottom, self.g.dim - m)
        return self._lift_cache[key]

    def yoneda(self, m, n, phi, psi, M: LieModule):
        return pull_cochain(self.ce, self.lift_class(m, phi), n, psi, M)

    def bullet(self, m, phi, z, n, N: LieModule):
        if n < m:
            raise WindowExceededError("evaluation needs n >= m")
        return push_chain(self.ce, self.lift_class(m, phi), n - m, z, N)

    def cap(self, m, phi, z, n, M: LieModule, N: LieModule):
        from .pbw import tensor_right_lie

        if n < m:
            raise WindowExceededError("cap needs n >= m")
        tm = tensor_right_lie(self.g, M, N)
        return cap_chain(self.ce, m, phi, z, n, M, N, tm, list), tm
