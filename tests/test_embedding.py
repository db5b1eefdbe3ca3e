"""Product embedding: anchors, fitted constants, enlargements, edge moves."""

import hashlib
from itertools import combinations

import numpy as np
import pytest

import _oracles as orc
from _corpus import quasitree_setup
from gromovlab import embedding, hyperbolicity
from gromovlab.electrify import SubgraphFamily, electrify
from gromovlab.embedding import cone_exit_anchor, edge_lipschitz, enlargement, qi_fit
from gromovlab.generators import path, tree_of_rings
from gromovlab.graphs import MetricGraph, dump_json
from gromovlab.hyperbolicity import four_point_delta
from gromovlab.projections import axiom_check
from gromovlab.quasitree import build_quasitree


def test_anchor_falls_back_to_the_basepoint_tag():
    g, fam, eg = quasitree_setup(2, 3, 12)[:3]
    # a target inside the basepoint's own ring: the canonical geodesic stays
    # in the base graph, so the anchor is the basepoint's tag
    member = fam.members[0]
    assert 0 in member
    target = next(v for v in member if 0 < eg.graph.shortest_distance(0, v) <= 2)
    walk = eg.graph.geodesic(0, target)
    if all(not eg.is_cone(v) for v in walk):
        assert cone_exit_anchor(eg, 0, target) == (0, 0)


def test_anchor_is_the_exit_vertex_of_the_last_cone():
    g, fam, eg = quasitree_setup(2, 3, 12)[:3]
    far = int(eg.graph.distances_from(0)[: g.n].argmax())
    walk = eg.graph.geodesic(0, far)
    cones = [(k, eg.cone_index(v)) for k, v in enumerate(walk) if eg.is_cone(v)]
    assert cones, "expected the far target to need at least one cone"
    k, c = cones[-1]
    assert cone_exit_anchor(eg, 0, far) == (c, walk[k + 1])


def test_anchor_validation():
    g, fam, eg = quasitree_setup(2, 3, 12)[:3]
    with pytest.raises(ValueError, match="not a base vertex"):
        cone_exit_anchor(eg, 0, eg.graph.n - 1)
    with pytest.raises(ValueError, match="target must be an integer"):
        cone_exit_anchor(eg, 0, "3")
    # True would otherwise be taken as vertex 1, and "3" or 2.5 looked up as ids
    for bad in ("3", 2.5, True):
        with pytest.raises(ValueError, match="basepoint must be an integer"):
            cone_exit_anchor(eg, bad, 5)
    eg = electrify(path(6), SubgraphFamily([[0, 1, 2]]))
    with pytest.raises(ValueError, match="basepoint 5 lies in no family member"):
        cone_exit_anchor(eg, 5, 0)


def test_qi_fit_on_the_small_ring_tree():
    g, fam, eg, _, y = quasitree_setup(2, 3, 12)
    rep = qi_fit(eg, y, basepoint=0, pair_budget=2000, seed=11)
    assert rep.L_fit == 2.5
    assert rep.C_fit == 2.5
    assert rep.violation_count == 0
    assert rep.n_pairs == 1984
    assert rep.eg_delta == 0.5
    assert rep.eg_delta_mode == "exact"
    assert rep.peripheral_delta_max == 3.0
    assert rep.peripheral_delta_mode == "exact"
    assert rep.quasi_tree_flags == {
        "delta_cutoff": 2.0,
        "electrified_graph": True,
        "all_peripherals": False,
    }
    # two-sided bound holds on every recorded pair
    for d_g, d_p in rep.records:
        assert d_g / rep.L_fit - rep.C_fit <= d_p <= rep.L_fit * d_g + rep.C_fit


def test_repeated_blocks_and_members_are_scanned_once(monkeypatch):
    g, fam, eg, _, y = quasitree_setup(2, 3, 12)
    scans, diagnostics = [], []
    scan, diagnostic = hyperbolicity._max_defect, embedding._delta_diagnostic
    monkeypatch.setattr(
        hyperbolicity, "_max_defect", lambda D, *args: scans.append(len(D)) or scan(D, *args))
    monkeypatch.setattr(
        embedding, "_delta_diagnostic", lambda h, seed: diagnostics.append(h.n) or diagnostic(h, seed))
    # the electrified graph is 12 identical wheels of 13 vertices glued at cut vertices
    assert four_point_delta(eg.graph).delta == 0.5
    assert scans == [13]
    rep = qi_fit(eg, y, basepoint=0, pair_budget=100)
    # one delta for the electrified graph and one for the 12 identical rings
    assert len(fam) == 12 and diagnostics == [eg.graph.n, 12]
    assert (rep.eg_delta, rep.peripheral_delta_max) == (0.5, 3.0)


def test_qi_fit_is_deterministic():
    g, fam, eg, _, y = quasitree_setup(2, 3, 12)
    a = qi_fit(eg, y, basepoint=0, pair_budget=300, seed=5).to_obj()
    b = qi_fit(eg, y, basepoint=0, pair_budget=300, seed=5).to_obj()
    assert a == b


def test_qi_fit_report_is_pinned_byte_for_byte():
    # pinned values: a change to the order of the rng draws changes them
    g, fam, _, _, _ = quasitree_setup(2, 3, 12)
    eg = electrify(g, fam)  # the coned graph starts with a cold row cache
    y = build_quasitree(g, fam, 3.0)
    obj = qi_fit(eg, y, basepoint=0, pair_budget=500, seed=4).to_obj()
    assert (obj["n_pairs"], obj["L_fit"], obj["violation_count"]) == (497, 7 / 3, 0)
    assert obj["records"][:5] == [[19, 30], [22, 33], [5, 7], [10, 15], [18, 29]]
    assert (obj["eg_delta"], obj["eg_delta_mode"]) == (0.5, "exact")
    digest = hashlib.sha256(dump_json(obj).encode()).hexdigest()
    assert digest == "0faf54bf685f2126ac07999f84eeeebf642a5a5d414358f8cff5f1b13dbe6c87"


def test_the_qi_fit_payload_of_a_larger_ring_tree_is_pinned():
    # exact delta now reaches the 469-vertex electrified graph; against the
    # sampled diagnostic that it replaces, only eg_delta_mode changed
    g, fam = tree_of_rings(3, 3, 12)
    obj = qi_fit(electrify(g, fam), build_quasitree(g, fam, "auto"), basepoint=0).to_obj()
    assert (obj["eg_delta"], obj["eg_delta_mode"], obj["peripheral_delta_mode"]) == (
        0.5, "exact", "exact")
    digest = hashlib.sha256(dump_json(obj).encode()).hexdigest()
    assert digest == "3dcad8140e103895edad7dcae46fe3661a9d5e176cb28ecdb4a41e3d5919bf54"


def test_edge_lipschitz_does_not_grow_with_ring_length():
    values = []
    for ring_len in (12, 24, 48):
        g, fam, eg, _, y = quasitree_setup(2, 3, ring_len)
        values.append(edge_lipschitz(eg, y, basepoint=0))
    assert values == [5, 5, 5]


def test_enlargement_replaces_cone_hops_by_member_geodesics():
    g, fam, eg, _, _ = quasitree_setup(2, 3, 12)
    far = int(eg.graph.distances_from(0)[: g.n].argmax())
    walk = eg.graph.geodesic(0, far)
    big = enlargement(eg, walk)
    assert big[0] == walk[0] and big[-1] == walk[-1]
    # result is a walk of the base graph
    for a, b in zip(big, big[1:]):
        assert b in g.neighbors(a)
    assert all(v < eg.base_size for v in big)
    assert len(big) >= len(walk)


def test_enlargement_is_short_on_every_pair():
    # every canonical electrified geodesic stretches to at most 4d - 3 steps
    g, fam, eg, _, _ = quasitree_setup(2, 3, 12)
    worst = None
    for u, v in combinations(range(g.n), 2):
        big = enlargement(eg, eg.graph.geodesic(u, v))
        slack = (len(big) - 1) - 4 * g.shortest_distance(u, v)
        if worst is None or slack > worst:
            worst = slack
    assert worst == -3


def test_enlargement_validation():
    g, fam, eg, _, _ = quasitree_setup(2, 3, 12)
    vc = eg.base_size + 0
    member = fam.members[0]
    with pytest.raises(ValueError, match="empty"):
        enlargement(eg, [])
    with pytest.raises(ValueError, match="base vertices"):
        enlargement(eg, [vc, member[0]])
    with pytest.raises(ValueError, match="not an edge"):
        enlargement(eg, [0, g.n - 1])
    # a valid walk that is longer than the true distance is rejected:
    # two adjacent ring interior vertices reached through the cone
    a, b = member[2], member[3]
    assert eg.graph.shortest_distance(a, b) == 1
    with pytest.raises(ValueError, match="not a geodesic"):
        enlargement(eg, [a, vc, b])


def test_enlargement_rejects_walks_with_string_vertices():
    # the walk is checked before any vertex is compared with the cone ids
    _, _, eg, _, _ = quasitree_setup(2, 3, 12)
    for walk in (["a"], [0, "b"], ["0", 1]):
        with pytest.raises(ValueError, match="walk vertex must be an integer"):
            enlargement(eg, walk)
    walk = eg.graph.geodesic(0, 50)
    assert enlargement(eg, np.array(walk)) == enlargement(eg, walk)


def test_qi_fit_validation():
    g, fam, eg, _, y = quasitree_setup(2, 3, 12)
    with pytest.raises(ValueError, match="pair_budget"):
        qi_fit(eg, y, basepoint=0, pair_budget=0)


def test_qi_fit_samples_delta_of_members_above_the_exact_guard():
    # two 400-spoke wheels sharing a rim vertex: each member has 79 400
    # far-apart pairs (rim vertices at distance 2) and each cone block about
    # as many, over the pair cap, so both diagnostics fall back to sampled mode
    rim0, rim1 = list(range(1, 401)), [400, *range(402, 801)]
    edges = [
        edge
        for hub, rim in ((0, rim0), (401, rim1))
        for i, r in enumerate(rim)
        for edge in ((hub, r), (r, rim[i - 1]))
    ]
    g, fam = MetricGraph(801, edges), SubgraphFamily([[0, *rim0], [401, *rim1]])
    theta = axiom_check(g, fam).theta
    y = build_quasitree(g, fam, theta)
    eg = electrify(g, fam)
    rep = qi_fit(eg, y, basepoint=0, pair_budget=200)
    assert (rep.eg_delta_mode, rep.peripheral_delta_mode) == ("sampled", "sampled")
    # a sampled value is a lower bound; a wheel has diameter 2, so delta <= 1
    assert rep.peripheral_delta_max <= 1.0
    assert rep.peripheral_delta_max == max(
        orc.sampled_delta_loop(orc.distance_matrix(eg.intrinsic(c)[0]), 4000, 11)[0]
        for c in range(len(fam))
    )
