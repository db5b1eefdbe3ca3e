"""Core metric graph type: construction, distances, geodesics, serialization."""

import json
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as orc
from _corpus import SMALL_NAMES, connected_graphs, small
from gromovlab import graphs
from gromovlab.asdimlab import cover_at_scale
from gromovlab.generators import cycle, farey_ball, grid, tree_of_rings
from gromovlab.graphs import (
    MetricGraph,
    block_tree,
    cartesian_product,
    dilation,
    dump_json,
    graph_from_obj,
    graph_to_dot,
    graph_to_obj,
    load_graph,
    max_set_diameter,
    multi_source_distances,
    nearest_points,
    set_diameter,
    unwrap_payload,
)
from gromovlab.projections import _projection


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
    with pytest.raises(ValueError, match="weighted graphs are not supported"):
        graph_from_obj({"n": 2, "edges": [[0, 1]], "weights": [1]})


def test_rejects_unknown_and_non_integer_vertices():
    with pytest.raises(ValueError, match="unknown vertex"):
        MetricGraph(2, [(0, 5)])
    with pytest.raises(ValueError, match="integer"):
        MetricGraph(2, [(0, True)])


def test_rejects_disconnected_input():
    with pytest.raises(ValueError, match="connected"):
        MetricGraph(4, [(0, 1), (2, 3)])


def test_loader_refuses_too_few_edges_before_allocating():
    # a vertex count far above the edge count must not size the adjacency
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="disconnected"):
            graph_from_obj({"n": 2_000_000, "edges": [[0, 1]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    assert not g.is_connected_subset([])
    with pytest.raises(ValueError, match="induced subgraph needs at least one vertex"):
        g.induced([])


@settings(max_examples=80, deadline=None)
@given(connected_graphs(), st.data())
def test_an_induced_ball_is_the_networkx_induced_subgraph(g, data):
    v = data.draw(st.integers(0, g.n - 1))
    keep = g.ball(v, data.draw(st.integers(0, 4)))
    sub, old_to_new = g.induced(keep)
    assert old_to_new == {w: i for i, w in enumerate(keep)}
    h = nx.relabel_nodes(orc.to_networkx(g).subgraph(keep), old_to_new)
    assert sub.n == h.number_of_nodes()
    assert sorted(sub.edges) == sorted(tuple(sorted(e)) for e in h.edges)


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
    reach = dilation(g, sources, r)
    assert sorted(reach) == [v for v in range(g.n) if D[sources, v].min() <= r]
    assert [int(D[sources, v].min()) for v in reach] == sorted(D[sources, v].min() for v in reach)
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


@settings(max_examples=60, deadline=None)
@given(st.one_of(connected_graphs(), st.sampled_from(["farey-6", "rings-2-3-12"]).map(small)), st.data())
def test_prefetched_rows_match_single_source_bfs(g, data):
    g = MetricGraph(g.n, g.edges)  # a cold row cache
    ids = st.integers(0, g.n - 1)
    warm = data.draw(st.lists(ids, max_size=8))
    for s in warm:
        g.distances_from(s)
    kept = {s: g._dist_rows[s] for s in warm}
    # on the corpus graphs more than 64 distinct sources, so several passes run
    distinct = data.draw(st.lists(ids, min_size=65 if g.n > 65 else 1, max_size=g.n, unique=True))
    repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=10))
    g.prefetch_rows(distinct + repeats)
    assert g._dist_rows.keys() == set(warm) | set(distinct)
    for s, row in g._dist_rows.items():
        assert not row.flags.writeable
        assert np.array_equal(row, multi_source_distances(g, [s]))
    assert all(g._dist_rows[s] is row for s, row in kept.items())


@settings(max_examples=60, deadline=None)
@given(st.one_of(connected_graphs(), st.sampled_from(["farey-6", "rings-2-3-12"]).map(small)), st.data())
def test_every_cached_row_is_indexed_when_it_is_cached(g, data):
    g = MetricGraph(g.n, g.edges)  # a cold row cache
    D = orc.distance_matrix(g)
    ids = st.integers(0, g.n - 1)
    steps = st.sampled_from(["distances_from", "prefetch_rows", "pair_distances", "distance_matrix"])
    for step in data.draw(st.lists(steps, min_size=1, max_size=6)):
        if step == "distances_from":
            g.distances_from(data.draw(ids))
        elif step == "prefetch_rows":
            g.prefetch_rows(data.draw(st.lists(ids, max_size=70)))
        elif step == "pair_distances":
            pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=40))
            us, vs = [u for u, _ in pairs], [v for _, v in pairs]
            assert g.pair_distances(us, vs).tolist() == [int(D[u, v]) for u, v in pairs]
        else:
            assert np.array_equal(g.distance_matrix(), D)
        for s, row in g._dist_rows.items():
            block, lane = g._row_at[:, s]
            assert block >= 0 and not row.flags.writeable
            kept = g._row_store[block][lane]
            assert np.array_equal(row, kept) and np.shares_memory(row, kept)
            assert np.array_equal(row, D[s])


def test_prefetch_checks_every_id_before_computing_a_row():
    g = grid(5, 5)
    row = g.distances_from(3)
    for bad in ([0, 1, 25], [-1, 2], [2, True], [4, 2.0], [3, 2**64]):
        with pytest.raises(ValueError):
            g.prefetch_rows(bad)
        assert g._dist_rows.keys() == {3} and g._dist_rows[3] is row


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_pair_distances_read_the_oracle_distances(data):
    g = data.draw(connected_graphs())
    ids = st.integers(0, g.n - 1)
    pairs = data.draw(st.lists(st.tuples(ids, ids), max_size=40))
    us, vs = [u for u, _ in pairs], [v for _, v in pairs]
    dtype = data.draw(st.sampled_from([None, np.int64, np.uint64, np.int32]))
    got = g.pair_distances(*(x if dtype is None else np.array(x, dtype=dtype) for x in (us, vs)))
    D = orc.distance_matrix(g)
    assert got.dtype == np.int32 and got.tolist() == [int(D[u, v]) for u, v in pairs]
    assert g._dist_rows.keys() == set(us)  # rows of the sources only


def test_pair_distances_check_every_id_before_computing_a_row():
    g = grid(5, 5)
    bad = [
        ([0, 25], [1, 2]),
        ([0, 1], [-1, 2]),
        ([0, True], [1, 2]),
        ([0, 1.0], [1, 2]),
        (np.array([True, False]), np.array([1, 2])),
        (np.array([0.0, 1.0]), np.array([1, 2])),
        (np.array([[0, 1]]), np.array([[2, 3]])),
        ([0, 1], [2, 3, 4]),
    ]
    for us, vs in bad:
        with pytest.raises(ValueError):
            g.pair_distances(us, vs)
        assert not g._dist_rows


def test_distance_matrix_of_a_grid_runs_five_passes_and_no_row_bfs(monkeypatch):
    passes = []
    real = graphs._bit_bfs

    def counting(*args, **kwargs):
        passes.append(len(args[1]))
        return real(*args, **kwargs)

    g = grid(17, 17)
    monkeypatch.setattr(graphs, "_bit_bfs", counting)
    monkeypatch.setattr(graphs, "_bfs_levels", None)  # any single-source BFS would raise
    D = g.distance_matrix()
    assert passes == [64, 64, 64, 64, 33]
    assert D.shape == (289, 289) and int(D.max()) == 32


@pytest.mark.parametrize("k", [1, 63, 64])
def test_bit_bfs_matches_multi_source_distances(k):
    for g in (grid(9, 9), farey_ball(6), tree_of_rings(2, 3, 12)[0]):
        sources = np.linspace(0, g.n - 1, k).astype(int)
        rows = np.array([multi_source_distances(g, [s]) for s in sources])
        # with k = 64 source 63 owns the top bit, so the search only ends
        # once the full mask is all ones
        assert np.array_equal(graphs._bit_bfs(graphs._csr(g), sources, range(g.n)), rows)
        targets = np.arange(0, g.n, 3)
        for cap in (0, 2, 5):
            capped = np.where(rows <= cap + 1, rows, cap + 2)[:, targets]
            assert np.array_equal(graphs._bit_bfs(graphs._csr(g), sources, targets, cap), capped)


def test_bit_bfs_counts_only_the_needed_lanes():
    rng = np.random.default_rng(3)
    for g in (grid(9, 9), farey_ball(6), tree_of_rings(2, 3, 12)[0]):
        sources = np.linspace(0, g.n - 1, 64).astype(int)
        rows = np.array([multi_source_distances(g, [s]) for s in sources])
        targets = np.arange(0, g.n, 2)
        # one random word per target; lane 63 is the sign bit of an int64
        need = rng.integers(0, 2**64, size=targets.size, dtype=np.uint64)
        bit = (need[None, :] >> np.arange(64, dtype=np.uint64)[:, None]) & np.uint64(1)
        got = graphs._bit_bfs(graphs._csr(g), sources, targets, None, need)
        assert np.array_equal(got, np.where(bit == 1, rows[:, targets], 0))
        for cap in (0, 2, 5):
            capped = np.where(rows <= cap + 1, rows, cap + 2)[:, targets]
            got = graphs._bit_bfs(graphs._csr(g), sources, targets, cap, need)
            assert np.array_equal(got, np.where(bit == 1, capped, 0))


@pytest.mark.parametrize("k", [2, 6, 64])
def test_bit_bfs_lets_one_vertex_fill_several_lanes(k):
    rng = np.random.default_rng(k)
    for g in (grid(9, 9), farey_ball(6), tree_of_rings(2, 3, 12)[0]):
        # k lanes from at most k // 2 + 1 vertices, lane 63 a repeat when k = 64
        sources = rng.choice(rng.choice(g.n, k // 2 + 1, replace=False), k)
        sources[-1] = sources[0]
        rows = np.array([multi_source_distances(g, [s]) for s in sources])
        targets = np.arange(0, g.n, 2)
        got = graphs._bit_bfs(graphs._csr(g), sources, targets)
        assert np.array_equal(got, rows[:, targets])
        need = rng.integers(0, 2**k, size=targets.size, dtype=np.uint64)
        bit = (need[None, :] >> np.arange(k, dtype=np.uint64)[:, None]) & np.uint64(1)
        for cap in (None, 0, 2):
            capped = rows if cap is None else np.where(rows <= cap + 1, rows, cap + 2)
            got = graphs._bit_bfs(graphs._csr(g), sources, targets, cap, need)
            assert np.array_equal(got, np.where(bit == 1, capped[:, targets], 0))


@settings(max_examples=60, deadline=None)
@given(connected_graphs(), st.data())
def test_bit_dilations_match_dilation_for_every_set(g, data):
    # more than 64 sets, so several passes: every single vertex, then drawn
    # sets that overlap, repeat ids or are empty
    ids = st.integers(0, g.n - 1)
    sets = [[v] for v in range(g.n)]
    sets += data.draw(st.lists(st.lists(ids, max_size=2 * g.n), min_size=65 - g.n, max_size=140))
    radius = data.draw(st.integers(0, 4))
    got = []
    for a, at, words in graphs._bit_dilations(graphs._csr(g), sets, radius):
        batch = sets[a:a + 64]
        lanes = [v.tolist() for v in graphs._lane_vertices(at, words, len(batch))]
        assert at.tolist() == sorted(set().union(*lanes))
        # each vertex's word counts the sets of the batch that reach it
        assert graphs._popcount(words).tolist() == [sum(v in lane for lane in lanes) for v in at]
        got += lanes
    assert got == [sorted(dilation(g, s, radius)) if s else [] for s in sets]


@pytest.mark.parametrize(
    "g,r,most", [(cycle(30), 3, 3), (tree_of_rings(2, 3, 12)[0], 2, 7)], ids=["cycle-30", "rings-2-3-12"]
)
def test_overlapping_balls_share_their_passes(monkeypatch, g, r, most):
    # the ball of radius r around every vertex: a vertex lies in several
    # balls and may be a source of each in one pass; making a repeated
    # source wait for a later pass takes 10 passes on cycle(30), 27 on
    # rings-2-3-12
    passes = []
    real = graphs._bit_bfs

    def counting(*args, **kwargs):
        passes.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(graphs, "_bit_bfs", counting)
    balls = [g.ball(v, r) for v in range(g.n)]
    D = orc.distance_matrix(g)
    expect = max(orc.set_diameter_oracle(D, b) for b in balls)
    assert max_set_diameter(g, balls) == expect
    assert len(passes) <= most
    for cap in range(expect):
        assert cap < max_set_diameter(g, balls, cap) <= expect


@settings(max_examples=80, deadline=None)
@given(st.one_of(connected_graphs(), st.sampled_from(["farey-6", "rings-2-3-12"]).map(small)), st.data())
def test_max_set_diameter_matches_the_oracle_on_random_families(g, data):
    g = MetricGraph(g.n, g.edges)  # a cold row cache
    D = orc.distance_matrix(g)
    ids = st.integers(0, g.n - 1)
    # up to 80 sets, so that more than 64 sets share their first passes;
    # the sets overlap, repeat ids and may be singletons
    width = data.draw(st.sampled_from([3, 40]))
    sets = data.draw(st.lists(st.lists(ids, min_size=1, max_size=width), min_size=1, max_size=80))
    expect = max(orc.set_diameter_oracle(D, s) for s in sets)
    cap = data.draw(st.none() | st.integers(0, expect + 2))
    got = max_set_diameter(g, sets, cap)
    if cap is None or expect <= cap:
        assert got == expect
    else:
        assert cap < got <= expect
    assert g._dist_rows == {}


def test_one_source_per_set_leaves_open_what_it_cannot_bound():
    # 81 corners {c, c + 1, c + 10} of grid(10, 10): each set's first and
    # only source is its corner c, whose eccentricity 1 becomes the global
    # lower bound, while its two other members are 2 apart; their upper
    # bound 2 keeps them open until a later pass finds that distance
    g = grid(10, 10)
    sets = [[c, c + 1, c + 10] for c in range(90) if c % 10 < 9]
    assert max_set_diameter(g, sets) == 2
    assert max_set_diameter(g, sets, 1) == 2


def test_max_set_diameter_checks_every_set():
    g = grid(5, 5)
    assert max_set_diameter(g, [[0], [7, 7]]) == 0
    assert max_set_diameter(g, [np.array([0, 24]), (np.int32(3), 4)]) == 8
    with pytest.raises(ValueError, match="unknown vertex id 25"):
        max_set_diameter(g, [[0, 1], [3, 25]])
    with pytest.raises(ValueError, match=f"unknown vertex id {2**70}"):
        max_set_diameter(g, [[0, 1], [3, 2**70]])
    with pytest.raises(ValueError, match="vertex id must be an integer, got True"):
        max_set_diameter(g, [[0, 1], [2, True]])
    with pytest.raises(ValueError, match="vertex id must be an integer, got 2.0"):
        max_set_diameter(g, [[0, 1], [3, 2.0]])
    with pytest.raises(ValueError, match="empty set"):
        max_set_diameter(g, [[0, 1], []])
    with pytest.raises(ValueError, match="at least one vertex set"):
        max_set_diameter(g, [])
    with pytest.raises(ValueError, match="diameter cap"):
        max_set_diameter(g, [[0, 1]], -1)


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
    assert _projection(g, hs, [xs])[0].tolist() == [h in union for h in hs]


def test_nearest_points_validation():
    # nearest_points, multi_source_distances and dilation share one source check
    g = grid(3, 3)
    bad = [([], "at least one"), ([0, 9], "unknown vertex"), ([0, True], "integer"), ([1.5], "integer")]
    for call in (nearest_points, multi_source_distances, lambda g, s: dilation(g, s, 1)):
        for sources, message in bad:
            with pytest.raises(ValueError, match=message):
                call(g, sources)
    for radius in (-1, True, 1.5):
        with pytest.raises(ValueError, match="radius"):
            dilation(g, [0], radius)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_biconnected_blocks_match_networkx(g):
    blocks, spans, order = block_tree(g)
    assert sorted(order) == list(range(g.n))
    for b, (lo, hi) in zip(blocks, spans):
        # the top hangs above the block, its other vertices below it
        assert b[0] not in order[lo:hi] and set(b[1:]) <= set(order[lo:hi])
    expect = {frozenset(c) for c in nx.biconnected_components(orc.to_networkx(g))}
    assert {frozenset(b) for b in blocks} == expect
    assert len(blocks) == len(expect)


def test_biconnected_blocks_of_small_shapes():
    assert block_tree(MetricGraph(1, []))[0] == []
    # two triangles sharing vertex 2, and a pendant edge at 4
    g = MetricGraph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5)])
    assert sorted(sorted(b) for b in block_tree(g)[0]) == [[0, 1, 2], [2, 3, 4], [4, 5]]
