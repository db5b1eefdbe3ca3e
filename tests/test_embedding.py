"""Product embedding: anchors, fitted constants, enlargements, edge moves."""

from itertools import combinations

import pytest

from _corpus import quasitree_setup, ring_instance
from gromovlab.electrify import electrify
from gromovlab.embedding import (
    cone_exit_anchor,
    edge_lipschitz,
    embed_point,
    enlargement,
    product_distance,
    qi_fit,
)
from gromovlab.projections import axiom_check
from gromovlab.quasitree import build_quasitree


def test_anchor_falls_back_to_the_basepoint_tag():
    g, fam, eg, _, y = quasitree_setup(2, 3, 12)
    # a target inside the basepoint's own ring: the canonical geodesic stays
    # in the base graph, so the anchor is the basepoint's tag
    member = fam.members[0]
    assert 0 in member
    target = next(v for v in member if 0 < eg.graph.shortest_distance(0, v) <= 2)
    walk = eg.graph.geodesic(0, target)
    if all(not eg.is_cone(v) for v in walk):
        assert cone_exit_anchor(eg, y, 0, target) == (0, 0)


def test_anchor_is_the_exit_vertex_of_the_last_cone():
    g, fam, eg, _, y = quasitree_setup(2, 3, 12)
    far = int(eg.graph.distances_from(0)[: g.n].argmax())
    walk = eg.graph.geodesic(0, far)
    cones = [(k, eg.cone_index(v)) for k, v in enumerate(walk) if eg.is_cone(v)]
    assert cones, "expected the far target to need at least one cone"
    k, c = cones[-1]
    assert cone_exit_anchor(eg, y, 0, far) == (c, walk[k + 1])


def test_anchor_validation():
    g, fam, eg, _, y = quasitree_setup(2, 3, 12)
    with pytest.raises(ValueError, match="not a base vertex"):
        cone_exit_anchor(eg, y, 0, eg.graph.n - 1)


def test_embed_point_and_product_distance_compose():
    g, fam, eg, _, y = quasitree_setup(2, 3, 12)
    img_a = embed_point(eg, y, 0, 7)
    img_b = embed_point(eg, y, 0, 99)
    assert img_a[0] == 7 and img_b[0] == 99
    d = product_distance(eg, y, img_a, img_b)
    expect = eg.graph.shortest_distance(7, 99) + y.graph.shortest_distance(
        y.id_of(img_a[1]), y.id_of(img_b[1])
    )
    assert d == expect


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


def test_qi_fit_is_deterministic():
    g, fam, eg, _, y = quasitree_setup(2, 3, 12)
    a = qi_fit(eg, y, basepoint=0, pair_budget=300, seed=5).to_obj()
    b = qi_fit(eg, y, basepoint=0, pair_budget=300, seed=5).to_obj()
    assert a == b


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
    vc = eg.cone_of[0]
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


def test_qi_fit_validation():
    g, fam, eg, _, y = quasitree_setup(2, 3, 12)
    with pytest.raises(ValueError, match="pair_budget"):
        qi_fit(eg, y, basepoint=0, pair_budget=0)


def test_qi_fit_samples_delta_of_members_above_the_exact_guard():
    # two rings of 320 vertices: exact delta refuses each member and the
    # electrified graph, so both diagnostics fall back to sampled mode
    g, fam = ring_instance(1, 2, 320)
    theta = axiom_check(g, fam).theta
    y = build_quasitree(g, fam, theta)
    rep = qi_fit(electrify(g, fam), y, basepoint=0, pair_budget=200)
    assert (rep.eg_delta_mode, rep.peripheral_delta_mode) == ("sampled", "sampled")
    # a sampled value is a lower bound; the exact delta of C_320 is 80
    assert 0 < rep.peripheral_delta_max <= 80.0
