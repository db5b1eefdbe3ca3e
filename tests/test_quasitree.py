"""Quasi-tree of member copies: tags, cross edges, rules, serialization."""

import pytest

import _oracles as orc
from _corpus import FAMILY_NAMES, family_instance, quasitree_setup
from gromovlab.electrify import SubgraphFamily
from gromovlab.generators import cycle, path
from gromovlab.projections import axiom_check, project
from gromovlab.quasitree import (
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
