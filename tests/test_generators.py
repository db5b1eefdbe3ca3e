"""Generator corpus: sizes, shapes, determinism, and structural audits."""

import pytest

import _oracles as orc
from _corpus import ring_instance, small, tower
from gromovlab.generators import (
    cycle,
    farey_ball,
    grid,
    hierarchy_tower,
    path,
    ring_subdivide,
    tower_audit,
    tree,
    tree_of_rings,
)
from gromovlab.graphs import MetricGraph, dump_json, graph_to_obj


def test_path_and_cycle_shapes():
    p = path(5)
    assert p.n == 5 and len(p.edges) == 4
    assert p.shortest_distance(0, 4) == 4
    c = cycle(8)
    assert c.n == 8 and len(c.edges) == 8
    assert all(c.degree(v) == 2 for v in range(8))
    assert c.shortest_distance(0, 4) == 4
    assert c.shortest_distance(0, 5) == 3


def test_grid_coordinates_and_labels():
    g = grid(4, 5)
    assert g.n == 20
    assert len(g.edges) == 3 * 5 + 4 * 4
    assert g.label(0) == "0,0"
    assert g.label(7) == "3,1"
    # orthogonal neighbors only
    assert g.shortest_distance(0, 5) == 2


def test_tree_uses_the_degree_convention():
    # degree counts the root's children; inner vertices get degree - 1 children
    t = tree(2, 3)
    assert t.n == 10
    assert t.degree(0) == 3
    assert max(t.degree(v) for v in range(t.n)) == 3
    # degree 2 gives a path: 2 branches of the stated depth
    t2 = tree(6, 2)
    assert t2.n == 13
    assert sorted(t2.degree(v) for v in range(t2.n)).count(1) == 2


@pytest.mark.parametrize(
    "factory,args",
    [
        (path, (0,)),
        (cycle, (2,)),
        (grid, (0, 3)),
        (tree, (1, 0)),
        (tree, (True, 2)),
        (farey_ball, (0,)),
        (tree_of_rings, (1, 1, 2)),
        (hierarchy_tower, (2, 0, 12, 2)),
        (hierarchy_tower, (2, True, 12, 2)),
        (hierarchy_tower, (2, 3, 12, -3)),
        (hierarchy_tower, (2, 3, 12, 2.5)),
        (hierarchy_tower, (1, 3, 2, 2)),
    ],
)
def test_parameter_validation(factory, args):
    with pytest.raises(ValueError):
        factory(*args)


def test_generators_are_deterministic_byte_for_byte():
    for build in (lambda: grid(6, 7), lambda: farey_ball(4), lambda: tree_of_rings(2, 3, 12)[0]):
        a = dump_json(graph_to_obj(build()))
        b = dump_json(graph_to_obj(build()))
        assert a == b


def test_tree_of_rings_counts():
    g, fam = ring_instance(2, 3, 12)
    # skeleton: every internal vertex has 3 children, depth 2 -> 13 vertices
    assert g.n == 13 + 12 * 10
    assert len(fam) == 12
    assert len(g.edges) == 144
    g3, fam3 = ring_instance(3, 3, 12)
    assert g3.n == 430
    assert len(fam3) == 39


def test_each_ring_is_an_induced_cycle_with_antipodal_attachments():
    g, fam = ring_instance(2, 3, 12)
    skeleton_n = 13
    for member in fam.members:
        sub, old_to_new = g.induced(member)
        assert sub.n == 12
        assert all(sub.degree(v) == 2 for v in range(sub.n))
        attach = [v for v in member if v < skeleton_n]
        assert len(attach) == 2
        d = sub.shortest_distance(old_to_new[attach[0]], old_to_new[attach[1]])
        assert d == 6


def test_neighbouring_rings_share_exactly_one_skeleton_vertex():
    g, fam = ring_instance(2, 3, 12)
    members = [set(m) for m in fam.members]
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            shared = members[i] & members[j]
            assert len(shared) <= 1
            if shared:
                assert max(shared) < 13


def test_ring_subdivide_on_a_single_edge_gives_one_cycle():
    g, fam = ring_subdivide(path(2), 5)
    assert g.n == 5
    assert len(fam) == 1
    assert fam[0] == (0, 1, 2, 3, 4)
    assert all(g.degree(v) == 2 for v in range(5))


def test_hierarchy_tower_sizes_and_audit():
    tw = tower(3, 3, 12)
    sizes = [(g.n, len(fam)) for g, fam in tw]
    assert sizes == [(13, 0), (133, 12), (1573, 144)]
    # level 2 is exactly the matching tree of rings
    assert tw[1][0] == ring_instance(2, 3, 12)[0]
    audit = tower_audit(tw)
    assert audit == {"ok": True, "levels_checked": 2, "per_level": [True, True]}


def test_tower_audit_flags_missing_rings():
    tw = list(tower(2, 3, 12))
    g1, fam1 = tw[1]
    from gromovlab.electrify import SubgraphFamily

    broken = SubgraphFamily(list(fam1.members)[:-1])
    assert tower_audit([tw[0], (g1, broken)])["ok"] is False


def test_tower_audit_flags_a_ring_moved_or_attached_at_three_vertices():
    from gromovlab.electrify import SubgraphFamily

    (g1, fam1), (g2, fam2) = hierarchy_tower(2, 3, 12)
    ring, rest = fam2[0], list(fam2.members[1:])
    interior = [v for v in ring if v >= g1.n]
    edges = set(g1.edges)
    pair = next((a, b) for a in range(g1.n) for b in range(a + 1, g1.n) if (a, b) not in edges)
    moved = SubgraphFamily([[*pair, *interior], *rest])
    assert tower_audit([(g1, fam1), (g2, moved)]) == {
        "ok": False, "levels_checked": 1, "per_level": [False],
    }
    # a ring attached at a third vertex of level 1 stops the level's scan
    third = next(v for v in range(g1.n) if v not in ring)
    widened = SubgraphFamily([[*ring, third], *rest])
    assert tower_audit([(g1, fam1), (g2, widened)])["per_level"] == [False]


@pytest.mark.parametrize("radius,n,e", [(4, 33, 63), (5, 65, 127), (6, 129, 255)])
def test_farey_ball_sizes(radius, n, e):
    g = farey_ball(radius)
    assert (g.n, len(g.edges)) == (n, e)


def test_farey_adjacency_is_the_determinant_condition():
    g = small("farey-4")
    fracs = {}
    for v in range(g.n):
        p, q = g.label(v).split("/")
        fracs[v] = (int(p), int(q))
    for u, v in g.edges:
        p, q = fracs[u]
        r, s = fracs[v]
        assert abs(p * s - q * r) == 1
    # base triangle present
    index = {f: v for v, f in fracs.items()}
    zero, one, inf = index[(0, 1)], index[(1, 1)], index[(1, 0)]
    assert one in g.neighbors(zero)
    assert inf in g.neighbors(zero)
    assert inf in g.neighbors(one)


def _determinant_farey_ball(radius):
    """farey_ball by brute force: every round adds the mediant of every
    pair with |ps - qr| = 1, and edges are all such pairs."""
    fracs = {(0, 1), (1, 1), (1, 0)}
    for _ in range(radius):
        pairs = [(a, b) for a in fracs for b in fracs if a[0] * b[1] - a[1] * b[0] == 1]
        fracs |= {(a[0] + b[0], a[1] + b[1]) for a, b in pairs}
    fracs = sorted(fracs, key=lambda f: (f[1], f[0]))
    edges = [
        (i, j)
        for i, (p, q) in enumerate(fracs)
        for j, (r, s) in enumerate(fracs)
        if i < j and abs(p * s - q * r) == 1
    ]
    full = MetricGraph(len(fracs), edges, {i: f"{p}/{q}" for i, (p, q) in enumerate(fracs)})
    return full.induced(full.ball(fracs.index((0, 1)), radius))[0]


def test_farey_ball_equals_the_determinant_graph():
    for radius in range(1, 9):
        assert farey_ball(radius) == _determinant_farey_ball(radius)


def test_farey_ball_respects_its_radius():
    for radius in (3, 4):
        g = farey_ball(radius)
        zero = next(v for v in range(g.n) if g.label(v) == "0/1")
        assert int(g.distances_from(zero).max()) <= radius
        # neighbors of 0/1 are exactly the 1/q fractions in range
        for w in g.neighbors(zero):
            p, q = g.label(w).split("/")
            assert abs(int(p)) == 1
