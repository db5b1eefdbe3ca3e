"""Covers at scale, dimension profiles, and the closed-form genus bounds.

A cover certifies an upper dimension bound at one scale R: blocks of bounded
diameter such that every R-ball meets few of them.  One strategy per shape:
consecutive runs for path-like graphs, bricks for grids, and a net-plus-
Voronoi partition for anything.  The product construction multiplies covers
without multiplying the guarantee, and the hierarchy bound turns per-piece
numbers into a number for the glued-up whole, ending in the genus table.
"""

from gromovlab import (
    build_quasitree,
    cover_at_scale,
    dim_profile,
    genus_bounds,
    grid,
    hierarchy_bound,
    multiplicity_check,
    path,
    product_cover,
    tree_of_rings,
)


def main():
    line = path(1000)
    print("interval covers of path(1000) (multiplicity 2 certifies dimension <= 1):")
    for R in [2, 5, 10]:
        c = cover_at_scale(line, R, "interval")
        print(f"  R={R:<3} blocks={len(c.blocks):<4} D={c.D:<3} mult={c.multiplicity}")

    sq = grid(40, 40)
    c = cover_at_scale(sq, 3, "brick")
    print(f"\nbrick cover of grid(40,40) at R=3: {len(c.blocks)} bricks, "
          f"D={c.D}, mult={c.multiplicity} (<= 3 certifies dimension <= 2)")

    # Recount with the standalone checker; the stored number is not trusted.
    mult, witness = multiplicity_check(sq, c.blocks, 3)
    print(f"independent recount: mult={mult}, witness ball center {witness}")

    g, fam = tree_of_rings(3, 3, 12)
    y = build_quasitree(g, fam, "auto")
    print(f"\nnet-Voronoi profile of the quasi-tree ({y.graph.n} vertices):")
    prof = dim_profile(y.graph, [2, 4, 8], "net_voronoi")
    print("  " + prof.to_csv().replace("\n", "\n  ").rstrip())

    cx = cover_at_scale(path(100), 5, "interval")
    cy = cover_at_scale(path(100), 5, "interval")
    prod, pc = product_cover(path(100), path(100), cx, cy)
    print(f"\nproduct cover of path(100) x path(100) at R=5: mult={pc.multiplicity}, "
          f"guarantee from factors: {pc.meta['guarantee']}")

    print(f"\nhierarchy bound, base 5 with three dimension-5 pieces: "
          f"{hierarchy_bound(5, [5, 5, 5])}")

    print("\ngenus table:")
    print(f"  {'g':>2} {'chi':>4} {'curvegraph':>10} {'pieces':>7} "
          f"{'electrified':>11} {'diskgraph':>9}")
    for genus in [2, 3, 4]:
        b = genus_bounds(genus)
        print(f"  {b.genus:>2} {b.chi:>4} {b.bound_curvegraph:>10} "
              f"{b.bound_ibundle_pieces:>7} {b.bound_electrified_diskgraph:>11} "
              f"{b.bound_diskgraph:>9}")
    b = genus_bounds(2, p=1)
    print(f"  punctured case g=2, p=1: chi={b.chi}, diskgraph bound {b.bound_diskgraph}")


if __name__ == "__main__":
    main()
