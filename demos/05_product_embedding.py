"""Fit the distortion of the product embedding and test enlargements.

A base vertex maps to (its image in the electrified graph, the quasi-tree
vertex where the geodesic from a basepoint last leaves a cone).  If the family
is the right one, the product metric reconstructs the base metric up to a
multiplicative and additive constant, and the constant should not care how
long the rings are.  Enlargement goes the other way: it re-inflates an
electrified geodesic into an honest base-graph walk whose length is linearly
bounded by the electrified distance.
"""

from gromovlab import (
    build_quasitree,
    edge_lipschitz,
    electrify,
    enlargement,
    qi_fit,
    tree_of_rings,
)


def setup(ring_len):
    g, fam = tree_of_rings(2, 3, ring_len)
    return electrify(g, fam), build_quasitree(g, fam, "auto")


def main():
    print("distortion fit across ring lengths (constants should be flat):")
    for ring_len in [12, 24, 48]:
        eg, y = setup(ring_len)
        rep = qi_fit(eg, y, basepoint=0)
        step = edge_lipschitz(eg, y, basepoint=0)
        print(f"  ring_len={ring_len:<3} L={rep.L_fit:<7.4f} C={rep.C_fit:<7.4f} "
              f"violations={rep.violation_count}/{rep.n_pairs} "
              f"edge step<={step}")
        print(f"      electrified delta={rep.eg_delta} ({rep.eg_delta_mode}), "
              f"worst member delta={rep.peripheral_delta_max}, "
              f"flags={rep.quasi_tree_flags}")

    # Enlargement: take the worst pair, expand its electrified geodesic.
    eg, _ = setup(12)
    far = max(range(eg.base_size), key=lambda v: eg.graph.shortest_distance(0, v))
    d_eg = eg.graph.shortest_distance(0, far)
    walk = eg.graph.geodesic(0, far)
    enlarged = enlargement(eg, walk)
    cones = [v for v in enlarged if eg.is_cone(v)]
    print(f"\nenlargement of the geodesic 0 -> {far} (electrified length {d_eg}):")
    print(f"  base-graph walk of length {len(enlarged) - 1}, cones left: {len(cones)}")
    print(f"  linear bound 4*d + 8 = {4 * d_eg + 8}: "
          f"{'holds' if len(enlarged) - 1 <= 4 * d_eg + 8 else 'VIOLATED'}")

    worst = max(
        (len(enlargement(eg, eg.graph.geodesic(a, b))) - 1 - 4 * eg.graph.shortest_distance(a, b)
         for a in range(0, eg.base_size, 7)
         for b in range(a + 1, eg.base_size, 7)),
    )
    print(f"  worst slack len - 4*d over a coarse pair sweep: {worst} (bound allows 8)")


if __name__ == "__main__":
    main()
