"""Coning off families: structure, round trips, efficiency, penetration."""

import hashlib
import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import connected_graphs, electrified, family_instance, ring_instance
from _oracles import _dijkstra_path, to_networkx
from gromovlab.electrify import (
    FormatError,
    SubgraphFamily,
    _astar_path,
    cone_visits,
    de_electrify,
    eg_from_obj,
    eg_to_obj,
    electrify,
    family_from_obj,
    family_to_obj,
    is_efficient,
    load_eg,
    penetration_profile,
)
from gromovlab.generators import cycle, farey_ball, path
from gromovlab.graphs import MetricGraph, dump_json


def test_family_normalizes_members():
    fam = SubgraphFamily([[3, 1, 2, 1], (0,)])
    assert fam.members == ((1, 2, 3), (0,))
    assert len(fam) == 2
    assert fam[1] == (0,)
    assert list(fam) == [(1, 2, 3), (0,)]


def test_family_rejects_bad_members():
    with pytest.raises(ValueError, match="nonempty"):
        SubgraphFamily([[]])
    with pytest.raises(ValueError, match="negative"):
        SubgraphFamily([[-1, 0]])


@pytest.mark.parametrize("vertex", [1.7, 2.0, True, "3", None])
def test_family_rejects_member_ids_that_are_not_integers(vertex):
    with pytest.raises(ValueError, match="vertex id must be an integer"):
        SubgraphFamily([[0, vertex]])


def test_family_validation_against_a_graph():
    g = path(6)
    SubgraphFamily([[0, 1], [3, 4, 5]]).validate_against(g)
    with pytest.raises(ValueError, match="unknown vertex"):
        SubgraphFamily([[0, 99]]).validate_against(g)
    with pytest.raises(ValueError, match="connected"):
        SubgraphFamily([[0, 5]]).validate_against(g)


def test_family_overlap_detection():
    assert SubgraphFamily([[0, 1], [1, 2]]).is_overlapping()
    assert not SubgraphFamily([[0, 1], [2, 3]]).is_overlapping()


def test_family_json_round_trip():
    fam = SubgraphFamily([[0, 1, 2], [4, 5]])
    assert family_from_obj(family_to_obj(fam)) == fam
    with pytest.raises(ValueError, match="peripherals"):
        family_from_obj({"members": []})


def test_electrify_adds_one_labeled_cone_per_member():
    g, fam = ring_instance(2, 3, 12)
    eg = electrified(2, 3, 12)
    assert eg.base_size == g.n
    assert eg.graph.n == g.n + len(fam)
    assert len(eg.graph.edges) == len(g.edges) + sum(len(m) for m in fam.members)
    for c, member in enumerate(fam.members):
        vc = eg.base_size + c
        assert vc == g.n + c
        assert eg.graph.label(vc) == f"cone{c}"
        assert eg.graph.neighbors(vc) == member
        assert eg.is_cone(vc) and not eg.is_cone(member[0])
        assert eg.cone_index(vc) == c
    assert eg.family == fam


def test_electrify_refuses_to_cone_twice():
    g, fam = ring_instance(1, 1, 12)
    eg = electrify(g, fam)
    with pytest.raises(ValueError, match="already electrified"):
        electrify(eg.graph, fam)


def test_recone_error_names_the_smallest_coning_vertex():
    # cone vertices 2 and 3 are both adjacent to exactly the member {0, 1}
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
    g = MetricGraph(4, edges, {2: "cone0", 3: "cone1"})
    with pytest.raises(ValueError, match=r"member 0 is already electrified \(vertex 2 cones it\)"):
        electrify(g, SubgraphFamily([[0, 1]]))
    # without the cone labels they are ordinary vertices
    assert electrify(MetricGraph(4, edges), SubgraphFamily([[0, 1]])).base_size == 4
    # a vertex adjacent to the member and more is not a cone
    g = MetricGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert electrify(g, SubgraphFamily([[0, 1]])).base_size == 4


@pytest.mark.parametrize(
    "g,members",
    [
        # vertex 2 neighbours exactly the edge {0, 1}
        (cycle(3), [[0, 1]]),
        # vertices 0 and 2 neighbour exactly the middle vertex
        (path(3), [[1]]),
        # 8 of these 31 edges have a vertex adjacent to exactly their ends
        (farey_ball(3), [list(e) for e in farey_ball(3).edges]),
    ],
    ids=["triangle-edge", "path-middle", "farey3-edges"],
)
def test_an_unlabelled_vertex_adjacent_to_exactly_a_member_is_no_cone(g, members):
    for fam in [SubgraphFamily(members)] + [SubgraphFamily([m]) for m in members]:
        eg = electrify(g, fam)
        back = eg_from_obj(eg_to_obj(eg))
        assert back.graph == eg.graph and back.family == fam
        with pytest.raises(ValueError, match="already electrified"):
            electrify(eg.graph, fam)


def test_de_electrify_inverts_electrify_on_the_corpus():
    for name in ("rings-1-1-12", "rings-2-3-12", "rings-3-3-12"):
        g, fam = family_instance(name)
        base, fam_back = de_electrify(electrify(g, fam))
        assert base == g
        assert fam_back == fam
    # overlapping hand-built family on a cycle
    g = cycle(9)
    fam = SubgraphFamily([[0, 1, 2, 3], [3, 4, 5], [6, 7]])
    base, fam_back = de_electrify(electrify(g, fam))
    assert base == g and fam_back == fam


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.data())
def test_de_electrify_inverts_electrify_on_families_of_balls(g, data):
    # balls of radius >= 1 are connected, and no vertex outside one can cone it
    centers = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=4))
    fam = SubgraphFamily([g.ball(c, data.draw(st.integers(1, 3))) for c in centers])
    base, fam_back = de_electrify(electrify(g, fam))
    assert base == g
    assert fam_back == fam


def test_base_graph_is_cached_and_correct():
    eg = electrified(2, 3, 12)
    g, _ = ring_instance(2, 3, 12)
    assert eg.base_graph() == g
    assert eg.base_graph() is eg.base_graph()


def test_electrify_keeps_its_inputs():
    g, fam = ring_instance(2, 3, 12)
    eg = electrify(g, fam)
    assert eg.base_graph() is g
    assert eg.family is fam


def test_accessors_refuse_bad_members_and_vertices():
    eg = electrified(2, 3, 12)
    m = len(eg.family)
    outside = next(v for v in range(eg.base_size) if v not in eg.family[0])
    for c in (-1, m):
        with pytest.raises(ValueError, match=f"unknown member index {c}"):
            eg.intrinsic(c)
    for c in (1.0, True, "0"):
        with pytest.raises(ValueError, match="member index must be an integer"):
            eg.intrinsic_distance(c, *eg.family[0][:2])
    with pytest.raises(ValueError, match="vertex 999 is not in member 0"):
        eg.intrinsic_distance(0, 999, eg.family[0][0])
    with pytest.raises(ValueError, match=f"vertex {outside} is not in member 0"):
        eg.intrinsic_geodesic(0, eg.family[0][0], outside)
    with pytest.raises(ValueError, match="vertex id must be an integer"):
        eg.intrinsic_distance(0, eg.family[0][0], 0.5)
    with pytest.raises(ValueError, match="vertex id must be an integer"):
        eg.cone_index(eg.base_size + 0.5)
    for v in (0, eg.graph.n):
        with pytest.raises(ValueError, match=f"vertex {v} is not a cone vertex"):
            eg.cone_index(v)
    assert eg.cone_index(eg.graph.n - 1) == m - 1


def test_intrinsic_member_distances_ignore_the_rest_of_the_graph():
    eg = electrified(2, 3, 12)
    member = eg.family[0]
    sub, old_to_new = eg.intrinsic(0)
    assert sub.n == len(member)
    a, b = member[0], member[len(member) // 2]
    d = eg.intrinsic_distance(0, a, b)
    assert d == sub.shortest_distance(old_to_new[a], old_to_new[b])
    walk = eg.intrinsic_geodesic(0, a, b)
    assert walk[0] == a and walk[-1] == b and len(walk) - 1 == d
    assert set(walk) <= set(member)


def test_cone_structure_validation_catches_corruption():
    g, fam = ring_instance(1, 1, 12)
    eg = electrify(g, fam)
    obj = eg_to_obj(eg)
    # cone id mismatch
    bad = json.loads(json.dumps(obj))
    bad["cones"] = [[0, 5]]
    with pytest.raises(FormatError, match="must have id"):
        eg_from_obj(bad)
    # a one-member family whose cone claims member index 1
    bad = eg_to_obj(electrify(path(6), SubgraphFamily([[0, 1, 2]])))
    bad["cones"] = [[1, 7]]
    with pytest.raises(FormatError, match="cone indices must be dense"):
        eg_from_obj(bad)
    # base_size beyond the vertex count
    bad = json.loads(json.dumps(obj))
    bad["base_size"] = eg.graph.n + 1
    with pytest.raises(FormatError, match="base_size"):
        eg_from_obj(bad)
    with pytest.raises(FormatError, match='"graph"'):
        eg_from_obj({"base_size": 3})


@pytest.mark.parametrize("cones", [5, [[0, 5, 1]]], ids=["not-a-list", "not-a-pair"])
def test_eg_loader_rejects_mistyped_cones(cones):
    bad = eg_to_obj(electrify(*ring_instance(1, 1, 12)))
    bad["cones"] = cones
    with pytest.raises(FormatError, match="cones"):
        eg_from_obj(bad)


@pytest.mark.parametrize("base_size", [None, "x", True, 2.0, -1])
def test_eg_loader_rejects_mistyped_base_size(base_size):
    bad = eg_to_obj(electrify(*ring_instance(1, 1, 12)))
    bad["base_size"] = base_size
    with pytest.raises(FormatError, match="base_size"):
        eg_from_obj(bad)


def test_cone_to_cone_edges_are_rejected():
    # two cones over adjacent singletons, plus a forged cone-cone edge
    forged = {
        "graph": {"n": 4, "edges": [[0, 1], [0, 2], [1, 3], [2, 3]]},
        "base_size": 2,
        "cones": [[0, 2], [1, 3]],
    }
    with pytest.raises(FormatError, match="member 0 references unknown vertex 3"):
        eg_from_obj(forged)


def _relabelled_cone(obj):
    obj["graph"]["labels"][str(obj["base_size"])] = "not a cone"
    return obj


@pytest.mark.parametrize(
    "forged,message",
    [
        # the base graph, vertices 0 and 1, has no edge
        ({"graph": {"n": 3, "edges": [[0, 2], [1, 2]]}, "base_size": 2, "cones": [[0, 2]]},
         "disconnected"),
        # the member {0, 2} is disconnected in the base path 0 - 1 - 2
        ({"graph": {"n": 4, "edges": [[0, 1], [1, 2], [0, 3], [2, 3]]}, "base_size": 3,
          "cones": [[0, 3]]}, "member 0 does not induce a connected subgraph"),
        # base vertex 2, labelled as a cone, already cones the member {0, 1}
        ({"graph": {"n": 4, "edges": [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3]],
                    "labels": {"2": "cone0"}}, "base_size": 3,
          "cones": [[0, 3]]}, r"member 0 is already electrified \(vertex 2 cones it\)"),
        (_relabelled_cone(eg_to_obj(electrify(*ring_instance(1, 1, 12)))),
         "not the electrification of its base graph and family"),
    ],
    ids=["disconnected-base", "disconnected-member", "coned-member", "cone-label"],
)
def test_eg_loader_accepts_only_an_electrification(forged, message):
    with pytest.raises(FormatError, match=message):
        eg_from_obj(forged)


def test_eg_file_round_trip(tmp_path):
    eg = electrified(2, 3, 12)
    target = tmp_path / "x.eg.json"
    target.write_text(dump_json(eg_to_obj(eg)), encoding="utf-8")
    back = load_eg(target)
    assert back.graph == eg.graph
    assert back.base_size == eg.base_size
    assert back.family == eg.family


def test_electrified_distances_never_exceed_base_distances():
    g, _ = ring_instance(2, 3, 12)
    eg = electrified(2, 3, 12)
    for u in range(0, g.n, 7):
        base_row = g.distances_from(u)
        eg_row = eg.graph.distances_from(u)[: g.n]
        assert (eg_row <= base_row).all()


@pytest.mark.parametrize("depth,expected", [(1, 4), (2, 8), (3, 12)])
def test_electrified_diameter_stays_linear_in_depth(depth, expected):
    eg = electrified(depth, 3, 12)
    diam = max(int(eg.graph.distances_from(v).max()) for v in range(eg.graph.n))
    assert diam == expected
    assert diam <= 4 * depth + 2


def test_cone_visits_lists_positions_and_members():
    eg = electrified(1, 1, 12)
    member = eg.family[0]
    vc = eg.base_size  # the cone of member 0
    walk = [member[0], vc, member[3]]
    assert cone_visits(walk, eg) == [(1, 0)]
    assert cone_visits([member[0], member[1]], eg) == []


def test_canonical_geodesics_are_efficient():
    eg = electrified(2, 3, 12)
    rng = np.random.default_rng(2)
    for _ in range(200):
        u, v = (int(x) for x in rng.integers(eg.base_size, size=2))
        if u == v:
            continue
        assert is_efficient(eg.graph.geodesic(u, v), eg)


def test_efficiency_rejects_double_visits_and_bad_walks():
    eg = electrified(1, 1, 12)
    member = eg.family[0]
    vc = eg.base_size  # the cone of member 0
    double = [member[0], vc, member[2], vc, member[4]]
    assert is_efficient(double, eg) is False
    with pytest.raises(ValueError, match="empty"):
        is_efficient([], eg)
    with pytest.raises(ValueError, match="not an edge"):
        is_efficient([member[0], member[0]], eg)
    with pytest.raises(ValueError, match="not in the graph"):
        is_efficient([eg.graph.n], eg)
    for bad in (0.5, True, "0"):  # a one-vertex walk of a non-integer is no walk
        with pytest.raises(ValueError, match="walk vertex must be an integer"):
            is_efficient([bad], eg)


def test_efficiency_rejects_walks_with_string_vertices():
    eg = electrified(1, 1, 12)
    for walk in (["a"], [0, "b"], ["0", 1]):
        with pytest.raises(ValueError, match="walk vertex must be an integer"):
            is_efficient(walk, eg)
    # an array of integer ids is a walk like any other sequence
    assert is_efficient(np.array(eg.graph.geodesic(0, 6)), eg)


def test_penetration_profile_on_rings_reports_tight_crossings():
    for ring_len, n_records in ((12, 85), (24, 127)):
        eg = electrified(2, 3, ring_len)
        rep = penetration_profile(eg, L=1.5, samples=50, seed=0)
        assert rep.p_estimate == 0
        assert rep.missed_total == 0
        assert rep.overlapping_family is True
        assert len(rep.records) == n_records
        for rec in rep.records:
            assert rec["depth"] >= rep.deep_threshold
            assert rec["crossed"] >= 1
            assert rec["paths"] >= rec["crossed"]
    # ring length 12 vs 24: spread estimate moves by at most 2
    p12 = penetration_profile(electrified(2, 3, 12), L=1.5, samples=50, seed=0).p_estimate
    p24 = penetration_profile(electrified(2, 3, 24), L=1.5, samples=50, seed=0).p_estimate
    assert abs(p12 - p24) <= 2


def test_penetration_profile_is_deterministic():
    eg = electrified(1, 1, 12)
    a = penetration_profile(eg, L=2.0, samples=30, seed=4).to_obj()
    b = penetration_profile(eg, L=2.0, samples=30, seed=4).to_obj()
    assert a == b


def test_penetration_profile_validates_inputs():
    eg = electrified(1, 1, 12)
    with pytest.raises(ValueError, match=">= 1"):
        penetration_profile(eg, L=0.5, samples=10, seed=0)
    with pytest.raises(ValueError, match="budget"):
        penetration_profile(eg, L=1.5, samples=0, seed=0)
    with pytest.raises(ValueError, match="deep_threshold"):
        penetration_profile(eg, L=1.5, samples=10, seed=0, deep_threshold=0)


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.data(), st.sampled_from([1.0 + 1e-6, 1.5, 3.0]))
def test_astar_returns_the_dijkstra_path(g, data, hi):
    # near-uniform weights (hi = 1 + 1e-6) are where a tie-break difference would show
    source = data.draw(st.integers(0, g.n - 1))
    target = data.draw(st.integers(0, g.n - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    weights = np.random.default_rng(seed).uniform(1.0, hi, len(g.edges)).tolist()
    index = {e: i for i, e in enumerate(g.edges)}
    nbrs = [tuple((w, index[(x, w) if x < w else (w, x)]) for w in g.neighbors(x)) for x in range(g.n)]
    hops = g.distances_from(target).tolist()
    walk = _astar_path(nbrs, weights, hops, source, target)
    expect = _dijkstra_path(g, dict(zip(g.edges, weights)), source, target)
    assert walk == expect
    # and its weight is the least one, by an independent search
    h = to_networkx(g)
    for (a, b), w in zip(g.edges, weights):
        h[a][b]["w"] = w
    total = sum(h[a][b]["w"] for a, b in zip(walk, walk[1:]))
    assert total == pytest.approx(nx.dijkstra_path_length(h, source, target, "w"), rel=1e-12)


@pytest.mark.parametrize("L", [1.0, 1.5, 3.0])
def test_astar_reroutes_are_efficient(L):
    # penetration_profile keeps a reroute without testing is_efficient: each
    # settled vertex's prev chain strictly decreases in weight, so the walk is
    # simple and visits each cone at most once
    hi = max(L, 1.0 + 1e-6)
    arcs = (cycle(12), SubgraphFamily([range(0, 5), range(4, 9), [8, 9, 10, 11, 0]]))
    for eg in (electrified(1, 1, 12), electrified(2, 3, 12), electrified(2, 2, 7), electrify(*arcs)):
        graph = eg.graph
        index = {e: i for i, e in enumerate(graph.edges)}
        nbrs = [tuple((w, index[(x, w) if x < w else (w, x)]) for w in graph.neighbors(x))
                for x in range(graph.n)]
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for _ in range(20):
                u, v = (int(x) for x in rng.integers(eg.base_size, size=2))
                hops = graph.distances_from(v).tolist()
                weights = rng.uniform(1.0, hi, len(graph.edges)).tolist()
                assert is_efficient(_astar_path(nbrs, weights, hops, u, v), eg)


@pytest.mark.parametrize(
    "L,seed,digest",
    [(1.5, 1, "0b06b082109f7217"), (1.5, 7, "dd9c3e657a87c6c2"), (1.0, 1, "ff156575326d2775")],
)
def test_penetration_payload_is_pinned(L, seed, digest):
    rep = penetration_profile(electrified(3, 3, 12), L, 50, seed)
    text = json.dumps(rep.to_obj(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
