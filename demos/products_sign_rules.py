"""The four products and the sign rules relating them.

Over the abelian two dimensional envelope (a polynomial ring in two
variables), Ext(k, k) is an exterior algebra on two degree one classes.
The script multiplies the basis classes in all orders and shows that
composition agrees with cup on the nose, while swapping the factors
costs (-1)^{mn}.  All signs emerge from the totalization and shift
conventions; nothing is inserted by the product code.

The second half pairs cohomology against homology: evaluating a lifted
class on a cycle (the composition-side product) lands in the same class
as the cap product through the comultiplication, here checked for every
basis class pair in every admissible degree.
"""

from fractions import Fraction as Q

from hopfhomology.ce import ce_resolution
from hopfhomology.homology import ext, tor
from hopfhomology.instances import lie_abelian
from hopfhomology.pbw import LieModule
from hopfhomology.products import CEProducts


def main():
    g = lie_abelian(2)
    res = ce_resolution(g)
    pr = CEProducts(res)
    triv = LieModule.trivial(g)
    trivr = LieModule.trivial(g, side="right")
    groups = {n: ext(res, triv, n) for n in range(3)}
    xi = groups[1].representatives()

    print("cup products of the degree one classes (classes in Ext^2):")
    for i, a in enumerate(xi):
        for j, b in enumerate(xi):
            c, _ = pr.cup(1, 1, a, b, triv, triv)
            print(f"  xi{i} cup xi{j} = {[str(x) for x in groups[2].class_of(c)]}")

    print()
    print("composition versus cup for all basis pairs, m + n <= 2:")
    agree = True
    for m in range(3):
        for n in range(3 - m):
            for a in groups[m].representatives():
                for b in groups[n].representatives():
                    y = pr.yoneda(m, n, a, b, triv)
                    c1, _ = pr.cup(m, n, a, b, triv, triv)
                    c2, _ = pr.cup(n, m, b, a, triv, triv)
                    t = groups[m + n]
                    agree &= t.class_of(y) == t.class_of(c1)
                    agree &= t.class_of(c1) == [Q(-1) ** (m * n) * x for x in t.class_of(c2)]
    print("  composition = cup and swap costs (-1)^(mn):", agree)

    print()
    print("evaluation versus cap on all class pairs:")
    agree = True
    for m in range(3):
        for n in range(m, 3):
            tg = tor(res, trivr, n)
            for phi in groups[m].representatives():
                for z in tg.representatives():
                    b = pr.bullet(m, phi, z, n, trivr)
                    cp, tm = pr.cap(m, phi, z, n, triv, trivr)
                    out1 = tor(res, trivr, n - m)
                    out2 = tor(res, tm, n - m)
                    agree &= out1.class_of(b) == out2.class_of(cp)
    print("  evaluation = cap classwise:", agree)


if __name__ == "__main__":
    main()
