"""Assemble the quasi-tree of family members and poke at its geometry.

Each member contributes an intrinsic copy of itself; two copies get a cross
edge when every other member sees the pair only from nearby (their mutual
projections stay within theta).  On a ring-tree the result is the disjoint
rings re-glued along the skeleton pattern, and it is as thin as the rings
themselves.  Drop theta low enough on the wrong family and the space falls
apart, which the builder reports instead of papering over.
"""

from gromovlab import (
    SubgraphFamily,
    build_quasitree,
    cycle,
    electrify,
    four_point_delta,
    tree_of_rings,
    wide_points,
    y_distance,
)


def main():
    g, fam = tree_of_rings(2, 3, 12)
    y = build_quasitree(g, fam, "auto")  # theta = 3R + 3 from the measured R
    print(f"quasi-tree at theta={y.theta}: {y.graph.n} vertices, "
          f"{len(y.graph.edges)} edges, {len(y.cross_edges)} cross edges")

    # Cross edges pair exactly the rings that share a skeleton vertex.
    touching = sum(
        1
        for i in range(len(fam.members))
        for j in range(i + 1, len(fam.members))
        if set(fam.members[i]) & set(fam.members[j])
    )
    print(f"vertex-sharing ring pairs in the family: {touching} (same count)")

    # Both gluing rules, one from projections and one from wide points of
    # connecting geodesics, settle on the same edges here.
    d = y.diff
    print(f"rule agreement: {d['common']} common, "
          f"{len(d['projection_only'])} projection-only, "
          f"{len(d['widepoint_only'])} widepoint-only")

    rep = four_point_delta(y.graph)
    print(f"hyperbolicity of the quasi-tree: delta = {rep.delta}")

    p, q = (0, fam.members[0][0]), (5, fam.members[5][3])
    print(f"distance in Y between tagged points {p} and {q}: {y_distance(y, p, q)}")

    # Wide points: cone visits of an electrified geodesic whose entry and
    # exit sit intrinsically far apart inside the member being crossed.
    eg = electrify(g, fam)
    far = max(range(g.n), key=lambda v: eg.graph.shortest_distance(0, v))
    walk = eg.graph.geodesic(0, far)
    print(f"wide points of an electrified geodesic at theta=3: "
          f"{wide_points(eg, walk, 3)} as (position, member)")
    print(f"same walk at theta=100: {wide_points(eg, walk, 100)} "
          f"(nothing is wide at that scale)")

    # Failure mode: three arcs on a circle, threshold too small to glue them.
    ring = cycle(30)
    arcs = SubgraphFamily([range(0, 9), range(10, 19), range(20, 29)])
    try:
        build_quasitree(ring, arcs, theta=1)
    except ValueError as exc:
        print(f"\narcs on cycle(30) at theta=1: {exc}")
    y2 = build_quasitree(ring, arcs, theta=10)
    print(f"same arcs at theta=10: connected, {len(y2.cross_edges)} cross edges")


if __name__ == "__main__":
    main()
