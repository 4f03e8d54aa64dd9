"""Hochschild (co)homology of the dual numbers, two independent ways.

The engine computes Ext and Tor over U = A (x) A^op from the bar
resolution with recorded free generators.  The oracle builds the
classical cochain complex Hom(A^{(x) n}, A) and chain complex
A^{(x) n+1} from the textbook formulas, with no resolutions anywhere.
Both must give (2, 1, 1, 1) in degrees 0..3 for A = Q[eps]/(eps^2).

The cup product on classes shows the rational oddity: the degree one
generator squares to zero (odd squares are 2-torsion under graded
commutativity, hence vanish over Q), while the product of the degree
one and degree two generators spans degree three.
"""

from hopfhomology.bialgebroid import galois_map, unit_iso
from hopfhomology.homology import ext, tor
from hopfhomology.instances import (
    bimodule_a,
    bimodule_a_right,
    dual_numbers,
    enveloping_instance,
)
from hopfhomology.oracles import hochschild_cohomology_dims, hochschild_homology_dims
from hopfhomology.products import BarProducts, transport_cochain
from hopfhomology.resolutions import bar_resolution


def main():
    A = dual_numbers()
    env = enveloping_instance(A, "env-qeps")
    bar = bar_resolution(env, 4)
    M = bimodule_a(env)
    N = bimodule_a_right(env)

    engine_up = [ext(bar, M, n).dim for n in range(4)]
    engine_down = [tor(bar, N, n).dim for n in range(4)]
    print("engine  HH^n:", engine_up, "  HH_n:", engine_down)
    print("oracle  HH^n:", hochschild_cohomology_dims(A, 3),
          "  HH_n:", hochschild_homology_dims(A, 3))

    h = galois_map(env)
    pr = BarProducts(h, bar, 3)
    groups = {n: ext(bar, M, n) for n in range(4)}
    u = groups[1].representatives()[0]
    v = groups[2].representatives()[0]

    sq, tm = pr.cup(1, 1, u, u, M, M)
    iso = unit_iso(env, M, tm)
    sq_cls = groups[2].class_of(transport_cochain(bar.rank(2), iso, sq, tm.space.dim))
    print("square of the degree 1 generator:", sq_cls, "(zero over Q)")

    uv, tm2 = pr.cup(1, 2, u, v, M, M)
    iso2 = unit_iso(env, M, tm2)
    uv_cls = groups[3].class_of(transport_cochain(bar.rank(3), iso2, uv, tm2.space.dim))
    print("degree 1 times degree 2:", uv_cls, "(spans degree 3)")


if __name__ == "__main__":
    main()
