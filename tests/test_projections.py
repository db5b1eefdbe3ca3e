"""Nearest-point projections between family members and the axiom checker."""

import functools
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as orc
import gromovlab
from _corpus import connected_graphs, family_instance, small
from gromovlab.electrify import SubgraphFamily
from gromovlab.generators import grid, path, tree_of_rings
from gromovlab.projections import (
    ProjectionTable,
    axiom_check,
    proj_set_diameter,
    project,
    set_diameter,
    triple_distance,
)
from gromovlab.quasitree import build_quasitree, y_to_obj


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
    h = path(6)
    with pytest.raises(ValueError, match="family members must be nonempty"):
        proj_set_diameter(h, [0, 1], [])
    with pytest.raises(ValueError, match="projection target does not induce a connected subgraph"):
        proj_set_diameter(h, [0, 2], [4])


def test_set_diameter_matches_the_oracle():
    g = small("grid-4-4")
    D = orc.distance_matrix(g)
    for vs in ([0, 1, 2], [5, 10, 15], [3], [0, 15]):
        assert set_diameter(g, vs) == orc.set_diameter_oracle(D, vs)
    with pytest.raises(ValueError):
        set_diameter(g, [])


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
    m = len(fam)
    for bad in (-1, m, 99):
        with pytest.raises(ValueError, match=f"unknown member index {bad}"):
            triple_distance(g, fam, 0, 1, bad)
    for bad in (2.0, True, "2", None):
        with pytest.raises(ValueError, match="member index must be an integer"):
            triple_distance(g, fam, bad, 0, 1)


def test_triple_distance_validates_the_members_it_reads():
    g, fam = family_instance("rings-2-3-12")
    m = len(fam)
    # member m does not induce a connected subgraph, member m + 1 leaves g
    wider = SubgraphFamily([*fam.members, [0, g.n - 1], [0, g.n]])
    assert triple_distance(g, wider, 0, 1, 2) == triple_distance(g, fam, 0, 1, 2)
    for a, b, c in ((m, 0, 1), (0, m, 1), (0, 1, m)):
        with pytest.raises(ValueError, match=f"family member {m} does not induce a connected"):
            triple_distance(g, wider, a, b, c)
    with pytest.raises(ValueError, match=f"family member {m + 1} references unknown vertex {g.n}"):
        triple_distance(g, wider, 0, 1, m + 1)


@functools.lru_cache(maxsize=None)
def projection_table(name):
    return ProjectionTable(*family_instance(name))


def test_table_accessors_check_their_member_index():
    table = projection_table("rings-2-3-12")
    m = 12
    for bad in (-1, m):
        for read in (table.member, table.anchors):
            with pytest.raises(ValueError, match=f"unknown member index {bad} \\(family has {m}"):
                read(bad)
    for bad in (True, 2.0, "1"):
        for read in (table.member, table.anchors):
            with pytest.raises(ValueError, match="member index must be an integer"):
                read(bad)
    assert table.anchors(np.int64(1)).tolist() == table.anchors(1).tolist()
    with pytest.raises(ValueError, match="anchors need a family of at least two members"):
        ProjectionTable(*family_instance("rings-1-1-12")).anchors(0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["rings-2-3-12", "rings-3-3-12"]), st.data())
def test_triple_distance_is_the_projection_table_entry(name, data):
    g, fam = family_instance(name)
    index = st.integers(0, len(fam) - 1)
    a, b, c = data.draw(st.lists(index, min_size=3, max_size=3, unique=True))
    assert triple_distance(g, fam, a, b, c) == projection_table(name).member(a)[b, c]


def test_axiom_check_on_the_small_ring_tree():
    g, fam = family_instance("rings-2-3-12")
    rep = axiom_check(g, fam)
    assert rep.triples_checked == 220
    assert rep.axiom2_violations == []
    assert rep.axiom3_max == 2
    assert rep.axiom3_histogram == [21, 18, 27]  # over all 66 pairs


def test_axiom_check_on_the_large_ring_tree_is_exhaustive_and_clean():
    g, fam = family_instance("rings-3-3-12")
    rep = axiom_check(g, fam)
    assert rep.triples_checked == 9139
    assert rep.axiom2_violations == []
    assert rep.R_measured == 0
    assert rep.axiom3_max == 4
    assert rep.axiom3_histogram == [75, 99, 162, 162, 243]


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
    with pytest.raises(ValueError, match="positive"):
        axiom_check(g, fam, theta=-2)


@pytest.mark.parametrize(
    "spec,rows",
    [((2, 3, 12), 4), ((3, 3, 12), 13)],
    # axiom_check also measures the projection constant R (its R_measured)
    ids=["axiom_check-rings-2-3-12", "projection_constant-rings-3-3-12"],
)
def test_the_row_cache_holds_only_the_rows_of_projection_points(spec, rows):
    g, fam = tree_of_rings(*spec)  # a fresh graph, so the row cache starts empty
    axiom_check(g, fam)
    D = orc.distance_matrix(g)
    points = set()
    for c, hc in enumerate(fam.members):
        for d, hd in enumerate(fam.members):
            if c != d:
                for x in hd:
                    points.update(orc.projection_oracle(D, hc, x))
    assert set(g._dist_rows) == points
    assert len(points) == rows


def test_the_table_holds_its_rows_and_a_byte_per_member_vertex():
    # the cached rows of the |U| distinct projection points, 4 n |U| bytes,
    # are the only distances the table holds; all else fits in m n bytes
    g, fam = tree_of_rings(4, 3, 16)
    tracemalloc.start()
    try:
        table = ProjectionTable(g, fam)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    points = len(set(np.concatenate(table._points).tolist()))
    assert (g.n, len(fam), points) == (1801, 120, 40)
    assert held < 4 * g.n * points + len(fam) * g.n


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
def test_axiom_check_rejects_a_non_finite_theta(theta):
    g = path(30)
    fam = SubgraphFamily([range(0, 12), range(8, 20), range(16, 28)])
    with pytest.raises(ValueError, match="finite positive"):
        axiom_check(g, fam, theta=theta)


@st.composite
def ball_families(draw):
    """A random connected graph, its distance matrix, and 2-5 BFS balls of
    radius 0-2; overlapping balls have projections of positive diameter."""
    g = draw(connected_graphs())
    D = orc.distance_matrix(g)
    balls = draw(st.lists(st.tuples(st.integers(0, g.n - 1), st.integers(0, 2)),
                          min_size=2, max_size=5))
    return g, D, SubgraphFamily([[v for v in range(g.n) if D[x, v] <= r] for x, r in balls])


@settings(max_examples=60, deadline=None)
@given(ball_families())
def test_the_table_matches_the_oracles_on_random_ball_families(instance):
    g, D, fam = instance
    members = fam.members
    m = len(members)
    table = ProjectionTable(g, fam)
    for c in range(m):
        M = table.member(c)
        anchors = table.anchors(c)
        assert not M[c].any() and not M[:, c].any()
        for b in range(m):
            if b == c:
                continue
            proj = set()
            for x in members[b]:
                proj.update(orc.projection_oracle(D, members[c], x))
            assert M[b, b] == orc.set_diameter_oracle(D, proj)
            nearest = min(proj, key=lambda s: (min(int(D[s, h]) for h in members[b]), s))
            assert anchors[b] == nearest
            for d in range(m):
                if d not in (b, c):
                    assert M[b, d] == orc.triple_oracle(D, members, c, b, d)


@settings(max_examples=60, deadline=None)
@given(ball_families(), st.one_of(st.just("auto"), st.floats(0.25, 8.0)))
def test_axiom_check_matches_the_brute_force_audit_on_random_ball_families(instance, theta):
    g, D, fam = instance
    rep = axiom_check(g, fam, theta=theta)
    R, theta_val, violations, histogram, triples = orc.axiom_oracle(D, fam.members, theta)
    assert (rep.R_measured, rep.theta) == (R, theta_val)
    assert rep.axiom2_violations == violations
    assert rep.axiom3_histogram == histogram
    assert rep.axiom3_max == len(histogram) - 1
    assert rep.triples_checked == triples


def test_the_audits_and_the_farey_cover_never_import_numpy_ma():
    # the first np.unique or np.setdiff1d of a process imports numpy.ma
    # (14-19 ms and about 1.7 MiB of peak RSS with numpy 2.4)
    probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
    if subprocess.run([sys.executable, "-c", probe], capture_output=True,
                      text=True, check=True).stdout.strip() == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    script = """
import sys
from gromovlab.asdimlab import cover_at_scale
from gromovlab.electrify import electrify
from gromovlab.embedding import qi_fit
from gromovlab.generators import farey_ball, tree_of_rings
from gromovlab.hyperbolicity import four_point_delta
from gromovlab.projections import axiom_check
from gromovlab.quasitree import build_quasitree

cover_at_scale(farey_ball(9), 4, "net_voronoi")
g, fam = tree_of_rings(2, 3, 12)
axiom_check(g, fam)
build_quasitree(g, fam, "auto")
g, fam = tree_of_rings(3, 3, 12)
four_point_delta(g, mode="sampled", samples=2000, seed=1)
four_point_delta(g)
qi_fit(electrify(g, fam), build_quasitree(g, fam, "auto"), basepoint=0)
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    src = str(Path(gromovlab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def test_the_axiom_payload_is_byte_stable():
    rep = axiom_check(*tree_of_rings(3, 3, 12))
    assert _sha256(rep.to_obj()) == (
        "114fe18ef99da57dde42edb0fe5cfa05a8a497ac94573570f6f6f88fdd368a8a")


def test_the_quasitree_payload_is_byte_stable():
    y = build_quasitree(*tree_of_rings(3, 3, 12), "auto", with_diff=True)
    assert _sha256(y_to_obj(y)) == (
        "9996f4d62155c761d54d179d09e4248f18c220e7fffabb5fb0d3fc88bdb09b4a")
