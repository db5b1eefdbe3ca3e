"""Core metric graph type: construction, distances, geodesics, serialization."""

import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as orc
from _corpus import SMALL_NAMES, connected_graphs, small
from gromovlab import graphs
from gromovlab.asdimlab import cover_at_scale
from gromovlab.generators import farey_ball, grid, tree_of_rings
from gromovlab.graphs import (
    MetricGraph,
    biconnected_blocks,
    cartesian_product,
    dump_json,
    graph_from_obj,
    graph_to_dot,
    graph_to_obj,
    load_graph,
    multi_source_distances,
    nearest_points,
    nearest_set,
    set_diameter,
    unwrap_payload,
)


def test_rejects_bad_vertex_counts():
    for bad in (0, -1, True, 2.5, "3"):
        with pytest.raises(ValueError):
            MetricGraph(bad, [])


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        MetricGraph(3, [(0, 1), (1, 2), (2, 2)])


def test_rejects_parallel_edges_in_either_orientation():
    with pytest.raises(ValueError, match="parallel"):
        MetricGraph(3, [(0, 1), (1, 2), (1, 0)])


def test_rejects_weighted_edge_triples():
    with pytest.raises(ValueError, match="not a pair"):
        MetricGraph(2, [(0, 1, 3.0)])


def test_rejects_unknown_and_non_integer_vertices():
    with pytest.raises(ValueError, match="unknown vertex"):
        MetricGraph(2, [(0, 5)])
    with pytest.raises(ValueError, match="integer"):
        MetricGraph(2, [(0, True)])


def test_rejects_disconnected_input():
    with pytest.raises(ValueError, match="connected"):
        MetricGraph(4, [(0, 1), (2, 3)])


def test_single_vertex_graph_is_fine():
    g = MetricGraph(1, [])
    assert g.n == 1
    assert g.shortest_distance(0, 0) == 0
    assert g.geodesic(0, 0) == [0]


def test_edges_are_normalized_and_sorted():
    g = MetricGraph(3, [(2, 1), (1, 0)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.neighbors(1) == (0, 2)
    assert g.degree(1) == 2


def test_labels_are_kept_and_coerced_to_str():
    g = MetricGraph(2, [(0, 1)], labels={0: 7})
    assert g.label(0) == "7"
    assert g.label(1) is None
    with pytest.raises(ValueError):
        MetricGraph(2, [(0, 1)], labels={5: "x"})


def test_graphs_are_unhashable_value_types():
    g = MetricGraph(2, [(0, 1)])
    h = MetricGraph(2, [(0, 1)])
    assert g == h
    with pytest.raises(TypeError):
        hash(g)


@pytest.mark.parametrize("name", ["grid-8-8", "farey-5", "rings-1-1-12"])
def test_distances_match_networkx(name):
    g = small(name)
    D = orc.distance_matrix(g)
    assert np.array_equal(g.distance_matrix(), D)
    for u in (0, g.n // 2, g.n - 1):
        assert np.array_equal(g.distances_from(u), D[u])


def test_distance_matrix_is_symmetric_with_zero_diagonal():
    g = small("grid-4-4")
    D = g.distance_matrix()
    assert np.array_equal(D, D.T)
    assert (np.diag(D) == 0).all()


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_geodesics_are_valid_and_deterministic(name):
    g = small(name)
    pairs = [(0, g.n - 1), (g.n // 3, g.n // 2), (g.n - 1, 0)]
    for u, v in pairs:
        walk = g.geodesic(u, v)
        assert walk[0] == u and walk[-1] == v
        assert len(walk) - 1 == g.shortest_distance(u, v)
        for a, b in zip(walk, walk[1:]):
            assert b in g.neighbors(a)
        assert walk == g.geodesic(u, v)


def test_ball_matches_direct_scan():
    g = small("grid-8-8")
    D = orc.distance_matrix(g)
    for v, r in ((0, 0), (27, 3), (63, 100)):
        expected = sorted(int(w) for w in range(g.n) if D[v][w] <= r)
        assert g.ball(v, r) == expected


def test_induced_subgraph_keeps_internal_edges_only():
    g = small("grid-4-4")
    keep = [0, 1, 2, 4, 5]
    sub, old_to_new = g.induced(keep)
    assert sub.n == len(keep)
    assert sorted(old_to_new) == keep
    back = {i: v for v, i in old_to_new.items()}
    sub_edges = {tuple(sorted((back[a], back[b]))) for a, b in sub.edges}
    expect = {e for e in g.edges if e[0] in keep and e[1] in keep}
    assert sub_edges == expect


def test_induced_rejects_disconnected_subsets():
    g = small("path-50")
    assert not g.is_connected_subset([0, 1, 10])
    assert g.is_connected_subset([3, 4, 5])
    with pytest.raises(ValueError):
        g.induced([0, 1, 10])


def test_multi_source_distance_is_min_over_rows():
    g = small("grid-8-8")
    sources = [0, 63, 12]
    got = multi_source_distances(g, sources)
    expect = np.min([g.distances_from(s) for s in sources], axis=0)
    assert np.array_equal(got, expect)
    with pytest.raises(ValueError):
        multi_source_distances(g, [])


def test_cartesian_product_adds_coordinates():
    gx = small("cycle-8")
    gy = small("path-50")
    prod = cartesian_product(gx, gy)
    assert prod.n == gx.n * gy.n
    assert len(prod.edges) == gx.n * len(gy.edges) + gy.n * len(gx.edges)
    # product metric is the sum of coordinate metrics
    rng = np.random.default_rng(5)
    for _ in range(25):
        x1, x2 = rng.integers(gx.n, size=2)
        y1, y2 = rng.integers(gy.n, size=2)
        d = prod.shortest_distance(int(x1) * gy.n + int(y1), int(x2) * gy.n + int(y2))
        assert d == gx.shortest_distance(int(x1), int(x2)) + gy.shortest_distance(int(y1), int(y2))


def test_json_round_trip_preserves_equality_and_bytes(tmp_path):
    g = small("farey-4")
    obj = graph_to_obj(g)
    assert graph_from_obj(obj) == g
    payload = dump_json(obj)
    assert payload == dump_json(graph_to_obj(graph_from_obj(json.loads(payload))))
    target = tmp_path / "g.json"
    target.write_text(payload, encoding="utf-8")
    assert load_graph(target) == g


def test_unwrap_payload_handles_wrapped_and_raw():
    raw = {"n": 2, "edges": [[0, 1]]}
    assert unwrap_payload(raw) == raw
    assert unwrap_payload({"manifest": {}, "data": raw}) == raw


def test_dot_export_lists_vertices_and_edges():
    g = MetricGraph(3, [(0, 1), (1, 2)], labels={0: "start"})
    dot = graph_to_dot(g)
    assert "0 -- 1" in dot and "1 -- 2" in dot
    assert "start" in dot


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_metric_axioms_hold_on_random_graphs(g):
    D = g.distance_matrix()
    assert (np.diag(D) == 0).all()
    assert np.array_equal(D, D.T)
    # triangle inequality via one intermediate broadcast
    n = g.n
    for k in range(n):
        assert (D <= D[:, k : k + 1] + D[k : k + 1, :]).all()
    assert np.array_equal(D, orc.distance_matrix(g))


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.data())
def test_set_diameter_and_bfs_views_match_networkx(g, data):
    D = orc.distance_matrix(g)
    vertex_sets = st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True)
    vs = data.draw(vertex_sets)
    expect = int(D[np.ix_(vs, vs)].max())
    assert set_diameter(g, vs) == expect  # cold: early-stop BFS, nothing cached
    for v in data.draw(st.lists(st.sampled_from(vs), unique=True)):
        g.distances_from(v)  # warm some or all of the set's rows
    assert set_diameter(g, vs) == expect
    g.distance_matrix()  # every row warm
    assert set_diameter(g, vs) == expect

    u = data.draw(st.integers(0, g.n - 1))
    r = data.draw(st.integers(0, g.n))
    assert g.ball(u, r) == [v for v in range(g.n) if D[u, v] <= r]
    sources = data.draw(vertex_sets)
    assert np.array_equal(multi_source_distances(g, sources), D[sources].min(axis=0))
    h = orc.to_networkx(g)
    assert g.is_connected_subset(vs) == nx.is_connected(h.subgraph(vs))


def _corpus_sets():
    """(graph maker, distance matrix, vertex sets) at sizes where the
    eccentricity bounds prune: whole graphs, random subsets, cover blocks."""
    rng = np.random.default_rng(5)
    makers = [lambda: grid(17, 17), lambda: farey_ball(7), lambda: tree_of_rings(2, 3, 12)[0]]
    for make in makers:
        g = make()
        sets = [list(range(g.n))]
        for size in (2, 5, 20, g.n // 3, g.n // 2):
            sets.append(sorted(rng.choice(g.n, size, replace=False).tolist()))
        yield make, orc.distance_matrix(g), sets
    big = grid(40, 40)
    # grid distance is the l1 distance of the "x,y" coordinates
    x, y = np.arange(big.n) % 40, np.arange(big.n) // 40
    D = np.abs(x[:, None] - x) + np.abs(y[:, None] - y)
    sets = [list(b) for strategy in ("interval", "brick")
            for b in cover_at_scale(big, 4, strategy).blocks]
    yield (lambda: grid(40, 40)), D, sets


def test_set_diameter_matches_the_distance_matrix_on_corpus_sets():
    rng = np.random.default_rng(7)
    for make, D, sets in _corpus_sets():
        warm = make()
        warm.distance_matrix()
        for vs in sets:
            expect = int(D[np.ix_(vs, vs)].max())
            cold = make()
            assert set_diameter(cold, vs) == expect
            assert cold._dist_rows == {}
            half = make()
            for v in rng.permutation(vs)[: len(vs) // 2]:
                half.distances_from(int(v))
            assert set_diameter(half, vs) == expect
            assert set_diameter(warm, vs) == expect


def test_cold_set_diameter_of_a_grid_runs_few_bfs(monkeypatch):
    passes = []
    real = graphs._bit_bfs

    def counting(*args, **kwargs):
        passes.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(graphs, "_bit_bfs", counting)
    g = grid(20, 20)
    assert set_diameter(g, range(g.n)) == 38
    assert passes == [64]
    assert g._dist_rows == {}
    passes.clear()
    f = farey_ball(9)
    assert set_diameter(f, range(f.n)) == 10
    assert len(passes) <= 3
    assert f._dist_rows == {}


@pytest.mark.parametrize("k", [1, 63, 64])
def test_bit_bfs_matches_multi_source_distances(k):
    for g in (grid(9, 9), farey_ball(6), tree_of_rings(2, 3, 12)[0]):
        sources = np.linspace(0, g.n - 1, k).astype(int)
        rows = np.array([multi_source_distances(g, [s]) for s in sources])
        # with k = 64 source 63 owns the top bit, so the search only ends
        # once the full mask is all ones
        assert np.array_equal(graphs._bit_bfs(g, sources, range(g.n)), rows)
        targets = np.arange(0, g.n, 3)
        for cap in (0, 2, 5):
            capped = np.where(rows <= cap + 1, rows, cap + 2)[:, targets]
            assert np.array_equal(graphs._bit_bfs(g, sources, targets, cap), capped)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["farey-6", "rings-2-3-12"]), st.data())
def test_capped_set_diameter_is_exact_up_to_the_cap(name, data):
    g = small(name)
    D = orc.distance_matrix(g)
    # more than 64 members, so that passes after the first one can run
    vs = data.draw(st.lists(st.integers(0, g.n - 1), min_size=65, max_size=g.n, unique=True))
    expect = int(D[np.ix_(vs, vs)].max())
    cap = data.draw(st.integers(0, expect + 2))
    got = set_diameter(MetricGraph(g.n, g.edges), vs, cap)
    if expect <= cap:
        assert got == expect
    else:
        assert cap < got <= expect
    assert set_diameter(MetricGraph(g.n, g.edges), vs) == expect


def test_one_vertex_set_has_diameter_zero_without_any_row(monkeypatch):
    g = grid(5, 5)
    monkeypatch.setattr(graphs, "_bfs_levels", None)  # any BFS would raise
    assert set_diameter(g, [7]) == 0
    assert set_diameter(g, [7, 7, 7]) == 0
    assert g._dist_rows == {}
    with pytest.raises(ValueError, match="unknown vertex id 25"):
        set_diameter(g, [25])
    with pytest.raises(ValueError, match="unknown vertex id -1"):
        set_diameter(g, [-1])
    with pytest.raises(ValueError, match="empty set"):
        set_diameter(g, [])


@settings(max_examples=80, deadline=None)
@given(connected_graphs(), st.data())
def test_nearest_points_and_sets_match_the_distance_matrix_argmin(g, data):
    D = orc.distance_matrix(g)
    H = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    hs = sorted(set(H))
    dist, labels = nearest_points(g, H)
    assert dist.tolist() == multi_source_distances(g, H).tolist()
    for v in range(g.n):
        assert dist[v] == min(D[v][h] for h in hs)
        assert 0 < labels[v] < 1 << len(hs)
        got = tuple(h for i, h in enumerate(hs) if labels[v] >> i & 1)
        assert got == orc.projection_oracle(D, hs, v)
    xs = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    union = set().union(*(orc.projection_oracle(D, hs, x) for x in xs))
    assert nearest_set(hs, labels, xs) == tuple(sorted(union))


def test_nearest_points_validation():
    g = grid(3, 3)
    with pytest.raises(ValueError, match="at least one"):
        nearest_points(g, [])
    with pytest.raises(ValueError, match="unknown vertex"):
        nearest_points(g, [0, 9])


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_biconnected_blocks_match_networkx(g):
    blocks = biconnected_blocks(g)
    assert all(b == sorted(b) for b in blocks)
    expect = {frozenset(c) for c in nx.biconnected_components(orc.to_networkx(g))}
    assert {frozenset(b) for b in blocks} == expect
    assert len(blocks) == len(expect)


def test_biconnected_blocks_of_small_shapes():
    assert biconnected_blocks(MetricGraph(1, [])) == []
    # two triangles sharing vertex 2, and a pendant edge at 4
    g = MetricGraph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5)])
    assert biconnected_blocks(g) == [[0, 1, 2], [2, 3, 4], [4, 5]]
