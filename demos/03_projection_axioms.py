"""Audit the projection axioms on a family of subgraphs.

Closest-point projections between family members behave like projections
between pants curves on a surface when three things hold: each pairwise
projection set is uniformly small (axiom 1), in any triple at most one of the
three mutual projection distances is large (axiom 2), and for a fixed pair of
points only finitely many members see them far apart (axiom 3).  The ring
family of a ring-tree passes with room to spare; a family of overlapping
intervals on a path line fails axiom 2 immediately, which is the point of the
negative control.
"""

from gromovlab import SubgraphFamily, axiom_check, path, project, tree_of_rings


def main():
    g, fam = tree_of_rings(2, 3, 12)

    # Projections of single vertices first, to see what is being measured.
    ring0 = fam.members[0]
    sample = [5, 40, 90, 130]
    for x in sample:
        print(f"project({x} -> ring 0) = {project(g, ring0, x)}")

    rep = axiom_check(g, fam, theta="auto")
    print(f"\nring-tree audit at theta={rep.theta} ({rep.theta_mode}):")
    print(f"  axiom 1: R_measured = {rep.R_measured}")
    print(f"  axiom 2: {len(rep.axiom2_violations)} violations over all "
          f"{rep.triples_checked} triples")
    print(f"  axiom 3: worst count {rep.axiom3_max} over {sum(rep.axiom3_histogram)} pairs, "
          f"pairs per count {rep.axiom3_histogram}")

    # Same audit on a bigger instance, still over every triple.
    g3, fam3 = tree_of_rings(3, 3, 12)
    rep3 = axiom_check(g3, fam3, theta="auto")
    print(f"\ndepth-3 instance ({len(fam3.members)} rings): "
          f"{len(rep3.axiom2_violations)} violations over {rep3.triples_checked} "
          f"triples, R_measured = {rep3.R_measured}")

    # Negative control: three long overlapping intervals on a path.  Every
    # interval projects onto a fat stretch of every other, so all three
    # mutual distances in the one triple are large at once.
    line = path(30)
    intervals = SubgraphFamily([range(0, 14), range(10, 24), range(18, 30)])
    bad = axiom_check(line, intervals, theta=1)
    print(f"\noverlapping intervals on path(30) at theta=1:")
    print(f"  R_measured = {bad.R_measured} (already past theta)")
    for v in bad.axiom2_violations:
        print(f"  triple {v['triple']} has distances {v['values']}, "
              f"more than one exceeds theta -> axiom 2 fails")


if __name__ == "__main__":
    main()
