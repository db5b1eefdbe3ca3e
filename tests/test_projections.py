"""Nearest-point projections between family members and the axiom checker."""

import pytest

import _oracles as orc
from _corpus import family_instance, small
from gromovlab.electrify import SubgraphFamily
from gromovlab.generators import grid, path, tree_of_rings
from gromovlab.projections import (
    axiom_check,
    hausdorff_distance,
    proj_set_diameter,
    project,
    projection_constant,
    set_diameter,
    triple_distance,
)


def test_project_returns_all_nearest_member_vertices():
    g, fam = family_instance("rings-2-3-12")
    D = orc.distance_matrix(g)
    for member in fam.members:
        for x in range(0, g.n, 5):
            assert project(g, member, x) == orc.projection_oracle(D, member, x)


def test_project_onto_grid_column():
    g = grid(7, 7)
    column = [7 * y for y in range(7)]
    # projecting any vertex onto the left column lands on its own row
    for x in (3, 6):
        for y in (0, 4):
            assert project(g, column, y * 7 + x) == (7 * y,)


def test_project_input_validation():
    g = path(10)
    with pytest.raises(ValueError, match="empty"):
        project(g, [], 0)
    with pytest.raises(ValueError, match="connected"):
        project(g, [0, 9], 4)


def test_set_diameter_and_hausdorff_match_oracles():
    g = small("grid-4-4")
    D = orc.distance_matrix(g)
    sets = ([0, 1, 2], [5, 10, 15], [3], [0, 15])
    for vs in sets:
        assert set_diameter(g, vs) == orc.set_diameter_oracle(D, vs)
    for a in sets:
        for b in sets:
            assert hausdorff_distance(g, a, b) == orc.hausdorff_oracle(D, a, b)
            assert hausdorff_distance(g, a, b) == hausdorff_distance(g, b, a)
    with pytest.raises(ValueError):
        set_diameter(g, [])
    with pytest.raises(ValueError):
        hausdorff_distance(g, [], [0])


def test_proj_set_diameter_matches_a_direct_recount():
    g, fam = family_instance("rings-2-3-12")
    D = orc.distance_matrix(g)
    members = fam.members
    for c in range(3):
        for d in range(3):
            if c == d:
                continue
            pts = set()
            for x in members[d]:
                pts.update(orc.projection_oracle(D, members[c], x))
            assert proj_set_diameter(g, members[c], members[d]) == orc.set_diameter_oracle(D, pts)
    with pytest.raises(ValueError, match="identical"):
        proj_set_diameter(g, members[0], members[0])


def test_rings_have_pointlike_projections():
    # neighbouring rings meet in a single cut vertex, so every pairwise
    # projection is a single point and R_measured is 0
    g, fam = family_instance("rings-2-3-12")
    rep = axiom_check(g, fam)
    assert rep.R_measured == 0
    assert rep.theta == 3.0
    assert rep.theta_mode == "auto"


def test_triple_distance_is_symmetric_and_matches_the_oracle():
    g, fam = family_instance("rings-2-3-12")
    D = orc.distance_matrix(g)
    members = fam.members
    for a, b, c in ((0, 1, 2), (3, 7, 11), (5, 2, 9)):
        got = triple_distance(g, fam, a, b, c)
        assert got == triple_distance(g, fam, a, c, b)
        assert got == orc.triple_oracle(D, members, a, b, c)
    with pytest.raises(ValueError, match="distinct"):
        triple_distance(g, fam, 1, 1, 2)


def test_axiom_check_on_the_small_ring_tree():
    g, fam = family_instance("rings-2-3-12")
    rep = axiom_check(g, fam)
    assert rep.triples_checked == 220
    assert rep.triples_exhaustive is True
    assert rep.axiom2_violations == []
    assert rep.axiom3_max == 2
    assert len(rep.axiom3_pairs) == len(rep.axiom3_counts) == 66
    assert rep.seed == 0


def test_axiom_check_on_the_large_ring_tree_is_exhaustive_and_clean():
    g, fam = family_instance("rings-3-3-12")
    rep = axiom_check(g, fam, triple_budget=10000)
    assert rep.triples_checked == 9139
    assert rep.triples_exhaustive is True
    assert rep.axiom2_violations == []
    assert rep.R_measured == 0
    assert rep.axiom3_max == 4


def test_axiom_check_sampling_kicks_in_over_budget():
    g, fam = family_instance("rings-3-3-12")
    rep = axiom_check(g, fam, triple_budget=100)
    assert rep.triples_checked == 100
    assert rep.triples_exhaustive is False
    assert rep.axiom2_violations == []
    # same seed, same sampled triples
    rep2 = axiom_check(g, fam, triple_budget=100)
    assert rep2.to_obj() == rep.to_obj()


def test_overlapping_intervals_violate_axiom_two_at_small_theta():
    g = path(30)
    fam = SubgraphFamily([range(0, 12), range(8, 20), range(16, 28)])
    rep = axiom_check(g, fam, theta=1)
    assert rep.R_measured == 3
    assert rep.theta_mode == "given"
    assert rep.axiom2_violations == [{"triple": [0, 1, 2], "values": [3, 11, 3]}]
    assert rep.axiom3_max == 1
    # the auto threshold absorbs the overlap
    assert axiom_check(g, fam).axiom2_violations == []


def test_axiom_check_validation():
    g = path(30)
    fam = SubgraphFamily([range(0, 12), range(8, 20), range(16, 28)])
    with pytest.raises(ValueError, match="two family members"):
        axiom_check(g, SubgraphFamily([[0, 1]]))
    with pytest.raises(ValueError, match="triple_budget"):
        axiom_check(g, fam, triple_budget=0)
    with pytest.raises(ValueError, match="positive"):
        axiom_check(g, fam, theta=-2)


@pytest.mark.parametrize(
    "spec,audit,rows",
    [((2, 3, 12), axiom_check, 4), ((3, 3, 12), projection_constant, 13)],
    ids=["axiom_check-rings-2-3-12", "projection_constant-rings-3-3-12"],
)
def test_the_row_cache_holds_only_the_rows_of_projection_points(spec, audit, rows):
    g, fam = tree_of_rings(*spec)  # a fresh graph, so the row cache starts empty
    audit(g, fam)
    D = orc.distance_matrix(g)
    points = set()
    for c, hc in enumerate(fam.members):
        for d, hd in enumerate(fam.members):
            if c != d:
                for x in hd:
                    points.update(orc.projection_oracle(D, hc, x))
    assert set(g._dist_rows) == points
    assert len(points) == rows


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
def test_axiom_check_rejects_a_non_finite_theta(theta):
    g = path(30)
    fam = SubgraphFamily([range(0, 12), range(8, 20), range(16, 28)])
    with pytest.raises(ValueError, match="finite positive"):
        axiom_check(g, fam, theta=theta)
