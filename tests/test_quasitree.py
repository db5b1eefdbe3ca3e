"""Quasi-tree of member copies: tags, cross edges, rules, serialization."""

import hashlib
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _oracles as orc
from _corpus import FAMILY_NAMES, connected_graphs, family_instance, quasitree_setup, ring_instance
from gromovlab.electrify import SubgraphFamily, electrify
from gromovlab.generators import cycle, hierarchy_tower, path
from gromovlab.graphs import MetricGraph, dump_json
from gromovlab.projections import ProjectionTable, axiom_check, project
from gromovlab.quasitree import (
    _narrow_reach,
    build_quasitree,
    wide_points,
    y_distance,
    y_from_obj,
    y_to_obj,
)


def test_single_member_gives_one_plain_copy():
    g = path(10)
    y = build_quasitree(g, SubgraphFamily([range(10)]), theta=2.0)
    assert y.graph.n == 10
    assert len(y.graph.edges) == 9
    assert y.cross_edges == []
    assert y.tags == [(0, v) for v in range(10)]
    # theta "auto" comes from R, which one member does not have
    with pytest.raises(ValueError, match="projection constant R needs at least two family members"):
        build_quasitree(g, SubgraphFamily([range(10)]), "auto")


def test_ring_tree_quasitree_shape():
    g, fam, eg, theta, y = quasitree_setup(2, 3, 12)
    assert theta == 3.0
    assert y.graph.n == sum(len(m) for m in fam.members) == 144
    assert len(y.graph.edges) == 165
    assert len(y.cross_edges) == 21
    assert y.rule == "projection"
    # tags enumerate each member's vertices in order, and round-trip by id
    assert y.tags[:3] == [(0, 0), (0, 1), (0, 13)]
    for i, tag in enumerate(y.tags):
        assert y.id_of(tag) == i
    with pytest.raises(ValueError, match="unknown tagged"):
        y.id_of((99, 0))
    for tag in [(0.9, 0.2), (0, 1.0), (True, 0), ("0", 0)]:  # never truncated to (0, 0)
        with pytest.raises(ValueError, match="must be an integer"):
            y.id_of(tag)
    for tag in [(0, 1, 2), (0, 1, "x"), (0,), (), [0, 1]]:  # never read as (0, 1)
        with pytest.raises(ValueError, match="must be a pair"):
            y.id_of(tag)
    with pytest.raises(ValueError, match="must be a pair"):
        y_distance(y, (), 0)


def test_intra_member_edges_are_the_induced_ring_edges():
    g, fam, _, _, y = quasitree_setup(2, 3, 12)
    # every member contributes its cycle, 12 edges each
    per_member = {c: 0 for c in range(len(fam))}
    for a, b in y.graph.edges:
        ca, va = y.tags[a]
        cb, vb = y.tags[b]
        if ca == cb:
            per_member[ca] += 1
            assert tuple(sorted((va, vb))) in g.edges
    assert all(count == 12 for count in per_member.values())


def test_cross_edges_join_members_that_share_a_vertex():
    g, fam, _, _, y = quasitree_setup(2, 3, 12)
    members = [set(m) for m in fam.members]
    sharing = {
        (c, d)
        for c in range(len(members))
        for d in range(c + 1, len(members))
        if members[c] & members[d]
    }
    got = {(rec["c"], rec["d"]) for rec in y.cross_edges}
    assert got == sharing


def test_cross_edge_anchors_live_in_the_projection_sets():
    g, fam, _, _, y = quasitree_setup(2, 3, 12)
    for rec in y.cross_edges:
        c, d = rec["c"], rec["d"]
        assert rec["x_cd"] in project(g, fam[c], rec["x_dc"])
        assert rec["x_dc"] in project(g, fam[d], rec["x_cd"])


def test_y_distance_accepts_tags_and_raw_ids():
    _, _, _, _, y = quasitree_setup(2, 3, 12)
    tag_a, tag_b = y.tags[0], y.tags[40]
    d = y_distance(y, tag_a, tag_b)
    assert d == y_distance(y, 0, 40)
    assert d == y.graph.shortest_distance(0, 40)
    for raw in (1.7, "3", True, None):  # never read as id 1 or 3
        with pytest.raises(ValueError, match="vertex id must be an integer"):
            y_distance(y, raw, 0)
        with pytest.raises(ValueError, match="vertex id must be an integer"):
            y_distance(y, 0, raw)


def test_both_rules_agree_on_the_ring_corpus():
    g, fam, _, theta, y = quasitree_setup(2, 3, 12)
    assert y.diff == {"projection_only": [], "widepoint_only": [], "common": 21}
    yw = build_quasitree(g, fam, theta, rule="widepoint")
    assert yw.rule == "widepoint"
    assert yw.graph == y.graph


def test_loose_theta_connects_every_member_pair():
    g, fam, _, _, _ = quasitree_setup(2, 3, 12)
    y = build_quasitree(g, fam, theta=10.0)
    assert len(y.cross_edges) == 66
    assert len(y.graph.edges) == 144 + 66


def test_quasitree_delta_is_small():
    from gromovlab.hyperbolicity import four_point_delta

    _, _, _, _, y = quasitree_setup(2, 3, 12)
    rep = four_point_delta(y.graph, mode="exact")
    assert rep.delta == 3.0
    assert rep.delta == orc.delta_vectorized(orc.distance_matrix(y.graph))


def test_blocked_family_raises_a_disconnect_error():
    g = cycle(30)
    fam = SubgraphFamily([range(0, 9), range(10, 19), range(20, 29)])
    with pytest.raises(ValueError, match="not connected at theta"):
        build_quasitree(g, fam, 1.0)
    # at a loose threshold the same family glues into one space
    assert len(build_quasitree(g, fam, 10.0).cross_edges) == 3


def test_build_validation():
    g = path(10)
    fam = SubgraphFamily([range(5), range(4, 10)])
    with pytest.raises(ValueError, match="empty family"):
        build_quasitree(g, SubgraphFamily([]), 1.0)
    with pytest.raises(ValueError, match="positive"):
        build_quasitree(g, fam, 0)
    with pytest.raises(ValueError, match="rule"):
        build_quasitree(g, fam, 1.0, rule="nearest")


def test_wide_points_flags_deep_cone_crossings():
    g, fam, eg, _, _ = quasitree_setup(2, 3, 12)
    far = int(eg.graph.distances_from(0)[: g.n].argmax())
    walk = eg.graph.geodesic(0, far)
    assert wide_points(eg, walk, 3.0) == [(1, 0), (3, 3)]
    assert wide_points(eg, walk, 100.0) == []
    for theta in (float("nan"), float("inf"), 0.0, True, "3"):
        with pytest.raises(ValueError, match="theta"):
            wide_points(eg, walk, theta)
    eg = electrify(path(6), SubgraphFamily([[0, 1, 2]]))  # the cone is vertex 6
    with pytest.raises(ValueError, match="only defined for efficient walks"):
        wide_points(eg, [6, 0, 6], 1.0)
    assert wide_points(eg, [6, 2, 3], 1.0) == []  # a visit at an endpoint is skipped


def test_y_json_round_trip():
    _, _, _, _, y = quasitree_setup(2, 3, 12)
    back = y_from_obj(y_to_obj(y))
    assert back.graph == y.graph
    assert back.tags == y.tags
    assert back.theta == y.theta
    assert back.cross_edges == y.cross_edges
    assert back.diff == y.diff
    with pytest.raises(ValueError, match="missing"):
        y_from_obj({"graph": {}, "tags": []})


@pytest.mark.parametrize(
    "tags",
    [5, [[0, 1, 2]], [[0, 0]], [[0, 0]] * 144],
    ids=["not-a-list", "not-a-pair", "too-few", "duplicated"],
)
def test_y_loader_rejects_mistyped_tags(tags):
    _, _, _, _, y = quasitree_setup(2, 3, 12)
    bad = y_to_obj(y)
    bad["tags"] = tags
    with pytest.raises(ValueError, match="tags"):
        y_from_obj(bad)


def test_y_loader_rejects_an_unknown_rule():
    _, _, _, _, y = quasitree_setup(2, 3, 12)
    bad = y_to_obj(y)
    bad["rule"] = "bogus"
    with pytest.raises(ValueError, match="unknown cross-edge rule 'bogus'"):
        y_from_obj(bad)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_auto_theta_is_the_audit_theta(name):
    # a one-member family has no R: both refuse it with the same error
    def theta_or_error(run):
        try:
            return run().theta
        except ValueError as exc:
            return str(exc)

    g, fam = family_instance(name)
    built = theta_or_error(lambda: build_quasitree(g, fam, "auto", with_diff=False))
    assert built == theta_or_error(lambda: axiom_check(g, fam))


@pytest.mark.parametrize("payload", [5, "y", [1, 2], None])
def test_y_loader_rejects_non_object_payloads(payload):
    with pytest.raises(ValueError, match="must be an object"):
        y_from_obj(payload)


@pytest.mark.parametrize(
    "theta", [None, True, "3.0", [3], float("nan"), float("inf"), float("-inf"), 0, -1.5]
)
def test_y_loader_rejects_a_theta_that_is_not_a_real_number(theta):
    _, _, _, _, y = quasitree_setup(2, 3, 12)
    bad = y_to_obj(y)
    bad["theta"] = theta
    with pytest.raises(ValueError, match="theta"):
        y_from_obj(bad)


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
def test_build_rejects_a_non_finite_theta(theta):
    g = path(10)
    fam = SubgraphFamily([range(5), range(4, 10)])
    with pytest.raises(ValueError, match="finite positive"):
        build_quasitree(g, fam, theta)


ARCS_OF_C12 = [range(0, 5), range(4, 9), [8, 9, 10, 11, 0]]


# first 16 hex digits of the sha256 of dump_json(y_to_obj(y)); None where the
# projection rule leaves the arcs unglued
@pytest.mark.parametrize(
    "name,theta,rule,with_diff,digest",
    [
        ("rings-2-3-12", "auto", "projection", True, "bdef31eead7c5835"),
        ("rings-2-3-12", "auto", "projection", False, "4886ab676bc8336e"),
        ("rings-2-3-12", "auto", "widepoint", True, "1462d804f09fce16"),
        ("rings-2-3-12", "auto", "widepoint", False, "670c7ede76bdf6f3"),
        ("rings-2-3-12", 1.0, "projection", True, "016e805494818016"),
        ("rings-2-3-12", 1.0, "projection", False, "553d9d2831e04db6"),
        ("rings-2-3-12", 1.0, "widepoint", True, "231d3941889b3231"),
        ("rings-2-3-12", 1.0, "widepoint", False, "0f1e8b161ea2a326"),
        ("rings-2-3-12", 10.0, "projection", True, "8d94443227c80ef6"),
        ("rings-2-3-12", 10.0, "projection", False, "fdc7136977ff7339"),
        ("rings-2-3-12", 10.0, "widepoint", True, "11c04066f23c33d0"),
        ("rings-2-3-12", 10.0, "widepoint", False, "0ebc4ee176dfdc3d"),
        ("arcs-12", "auto", "projection", True, "5c5d8365bc6eb030"),
        ("arcs-12", "auto", "projection", False, "ca23bfd0171c0c62"),
        ("arcs-12", "auto", "widepoint", True, "696ec1052b63a939"),
        ("arcs-12", "auto", "widepoint", False, "039cf4609d57066e"),
        ("arcs-12", 1.0, "projection", True, None),
        ("arcs-12", 1.0, "projection", False, None),
        ("arcs-12", 1.0, "widepoint", True, "f24d66b2be4f0d47"),
        ("arcs-12", 1.0, "widepoint", False, "f3aeda9d70643b70"),
        ("arcs-12", 10.0, "projection", True, "c1dc184871fd1c26"),
        ("arcs-12", 10.0, "projection", False, "8b739ebe8291a116"),
        ("arcs-12", 10.0, "widepoint", True, "14db3142c479368f"),
        ("arcs-12", 10.0, "widepoint", False, "0fd144654ec15908"),
    ],
)
def test_the_quasitree_payload_matrix_is_pinned(name, theta, rule, with_diff, digest):
    g, fam = ring_instance(2, 3, 12) if name == "rings-2-3-12" else (cycle(12), SubgraphFamily(ARCS_OF_C12))
    if digest is None:
        with pytest.raises(ValueError, match=f"quasi-tree is not connected at theta={theta}"):
            build_quasitree(g, fam, theta, rule=rule, with_diff=with_diff)
        return
    y = build_quasitree(g, fam, theta, rule=rule, with_diff=with_diff)
    assert hashlib.sha256(dump_json(y_to_obj(y)).encode()).hexdigest()[:16] == digest


def _anchors(g, fam):
    table = ProjectionTable(g, fam)
    return [table.anchors(c).tolist() for c in range(len(fam))]


def _widepoint_pairs(eg, anchor, theta):
    """(sweep pairs, oracle pairs): member pairs (c, d), c < d, joined by the
    widepoint rule, read from the narrow reach of x_cd and from the networkx
    oracle on x_cd, x_dc."""
    sweep, oracle = set(), set()
    for c, d in combinations(range(len(anchor)), 2):
        u, w = anchor[c][d], anchor[d][c]
        if w in _narrow_reach(eg, u, theta):
            sweep.add((c, d))
        if orc.narrow_geodesic_oracle(eg, u, w, theta):
            oracle.add((c, d))
    return sweep, oracle


def _built_widepoint_pairs(g, fam, theta):
    """The cross-edge pairs of the widepoint quasi-tree, or None where the
    rule leaves it disconnected."""
    try:
        y = build_quasitree(g, fam, theta, rule="widepoint", with_diff=False)
    except ValueError as exc:
        assert "not connected" in str(exc)
        return None
    return {(rec["c"], rec["d"]) for rec in y.cross_edges}


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.data())
def test_narrow_reach_matches_the_geodesic_oracle_on_families_of_balls(g, data):
    centers = data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=4))
    fam = SubgraphFamily([g.ball(c, data.draw(st.integers(1, 3))) for c in centers])
    try:
        eg = electrify(g, fam)
    except ValueError:
        assume(False)
    anchor = _anchors(g, fam)
    u = data.draw(st.integers(0, g.n - 1))
    for theta in (1.0, 2.0, 2.5, 4.0):
        # every vertex, cones too, not only the anchors
        expect = {w for w in range(eg.graph.n) if orc.narrow_geodesic_oracle(eg, u, w, theta)}
        assert _narrow_reach(eg, u, theta) == expect
        sweep, oracle = _widepoint_pairs(eg, anchor, theta)
        assert sweep == oracle
        built = _built_widepoint_pairs(g, fam, theta)
        assert built is None or built == oracle


@pytest.mark.parametrize("theta", [2.0, 3.0, 4.0])
def test_widepoint_pairs_match_the_oracle_on_a_tower_level(theta):
    g, fam = hierarchy_tower(3, 3, 6, depth=1)[2]  # 88 vertices, 18 rings of 6
    sweep, oracle = _widepoint_pairs(electrify(g, fam), _anchors(g, fam), theta)
    assert sweep == oracle
    assert _built_widepoint_pairs(g, fam, theta) == oracle


@pytest.mark.parametrize("theta", [1.0, 2.0, 6.0, 7.0])
def test_widepoint_pairs_match_the_oracle_on_rings_that_share_cut_vertices(theta):
    # ring 12 has diameter 6: at theta 7 no cone crossing is wide
    g, fam = ring_instance(2, 3, 12)
    anchor = _anchors(g, fam)
    shared = {(c, d) for c, d in combinations(range(len(fam)), 2) if anchor[c][d] == anchor[d][c]}
    assert len(shared) == 21
    sweep, oracle = _widepoint_pairs(electrify(g, fam), anchor, theta)
    assert sweep == oracle
    assert shared <= sweep  # a geodesic of length 0 crosses nothing
    if theta > 6:
        assert len(sweep) == 66
    assert _built_widepoint_pairs(g, fam, theta) == oracle


def test_narrow_reach_reads_every_entry_of_a_cone():
    # u = 9 enters the cone of the path 0..8 at 0 and at 4 on the same level;
    # the tail 10 hangs off 8, which only the cone brings within reach, and is
    # reached narrowly only from the entry at 4 (intrinsic distances 8 and 4)
    g = MetricGraph(11, [(v, v + 1) for v in range(8)] + [(0, 9), (4, 9), (8, 10)])
    eg = electrify(g, SubgraphFamily([range(9)]))
    for theta in (4.0, 5.0, 9.0):
        expect = {w for w in range(eg.graph.n) if orc.narrow_geodesic_oracle(eg, 9, w, theta)}
        assert _narrow_reach(eg, 9, theta) == expect
        assert (10 in expect) == (theta > 4)
