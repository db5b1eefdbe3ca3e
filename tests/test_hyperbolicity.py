"""Four-point hyperbolicity: exact scan, sampling, guards, and side gauges."""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import _oracles as orc
from _corpus import connected_graphs, family_instance, small
from gromovlab import hyperbolicity
from gromovlab.generators import cycle, farey_ball, grid, path, tree, tree_of_rings
from gromovlab.graphs import MetricGraph, SizeLimitError, _csr, block_tree
from gromovlab.hyperbolicity import (
    _far_apart_pairs,
    _ranks_to_vertices,
    four_point_delta,
    quasiconvexity_constant,
)

# frozen reference values, all confirmed by the oracles below
KNOWN_DELTAS = {
    "cycle-8": 2.0,
    "cycle-12": 3.0,
    "grid-4-4": 3.0,
    "grid-8-8": 7.0,
    "tree-2-3": 0.0,
    "tree-3-3": 0.0,
    "farey-4": 1.0,
    "farey-5": 1.0,
    "farey-6": 1.0,
    "rings-2-3-12": 3.0,
}


@pytest.mark.parametrize("name,expected", sorted(KNOWN_DELTAS.items()))
def test_exact_delta_known_values(name, expected):
    rep = four_point_delta(small(name), mode="exact")
    assert rep.delta == expected
    assert rep.mode == "exact"
    assert rep.n_vertices == small(name).n


@pytest.mark.parametrize("name", ["cycle-8", "tree-2-3", "grid-4-4", "rings-1-1-12", "farey-4"])
def test_exact_delta_matches_bruteforce_oracle(name):
    g = small(name)
    D = orc.distance_matrix(g)
    assert four_point_delta(g).delta == orc.delta_bruteforce(D)


def test_exact_delta_matches_vectorized_oracle_on_medium_graphs():
    for name in ("grid-8-8", "farey-5"):
        g = small(name)
        assert four_point_delta(g).delta == orc.delta_vectorized(orc.distance_matrix(g))


def test_witness_attains_the_reported_delta():
    g = small("cycle-12")
    rep = four_point_delta(g)
    D = orc.distance_matrix(g)
    assert orc.quadruple_defect(D, rep.witness) == 2 * rep.delta


def test_trees_are_zero_hyperbolic():
    for depth, valence in ((2, 3), (3, 3), (6, 2), (4, 4)):
        g = tree(depth, valence)
        assert g.n <= 300
        assert four_point_delta(g).delta == 0.0


def test_delta_grows_with_grid_size():
    assert four_point_delta(grid(8, 8)).delta > four_point_delta(grid(4, 4)).delta


def test_tiny_graphs_have_delta_zero_without_scanning():
    rep = four_point_delta(path(3))
    assert rep.delta == 0.0
    assert rep.witness is None


def test_exact_mode_refuses_oversized_graphs(monkeypatch):
    # farey_ball(9): one block with 178 022 far-apart pairs, over the pair cap
    with pytest.raises(SizeLimitError, match="far-apart pairs.*sampled"):
        four_point_delta(farey_ball(9), mode="exact")
    # one block of 4097 vertices is over the vertex cap, refused before the matrix exists
    long = cycle(4097)
    with pytest.raises(SizeLimitError, match="4096 vertices.*sampled"):
        four_point_delta(long, mode="exact")
    assert long._dist_matrix is None
    # the pair cap is one constant: K_{2,400} has 1 + C(400, 2) far-apart
    # pairs, and its scan stops at the first pair, which reaches the diameter
    k2 = MetricGraph(402, [(a, x) for a in (0, 1) for x in range(2, 402)])
    with pytest.raises(SizeLimitError, match="79801"):
        four_point_delta(k2)
    monkeypatch.setattr(hyperbolicity, "_FAR_PAIRS", 1 << 17)
    rep = four_point_delta(k2)
    assert (rep.delta, rep.witness) == (1.0, (0, 1, 2, 3))


def test_exact_caps_apply_per_block(monkeypatch):
    # 4096 bridges, each a block of two: delta 0, and no block needs a matrix
    long = path(4097)
    monkeypatch.setattr(MetricGraph, "distance_matrix", None)  # any matrix would raise
    rep = four_point_delta(long)
    assert (rep.delta, rep.witness) == (0.0, (0, 1, 2, 3))
    assert long._dist_matrix is None
    # two distinct blocks of 3000 and 3001 vertices hold more cells than one of 4096
    edges = [(v, (v + 1) % 3000) for v in range(3000)]
    edges += [(0, 3000), (5999, 0)] + [(v, v + 1) for v in range(3000, 5999)]
    with pytest.raises(SizeLimitError, match="4096 vertices.*18006001 cells.*sampled"):
        four_point_delta(MetricGraph(6000, edges))


def test_a_ring_tree_past_the_old_vertex_cap_is_exact():
    # 12 013 vertices in 1092 rings of 12: one matrix of 12 x 12 cells
    g, _ = tree_of_rings(6, 3, 12)
    rep = four_point_delta(g)
    assert (rep.delta, rep.mode, rep.witness) == (3.0, "exact", (0, 1, 1095, 1100))


def _ladder_with_a_ring(rungs, ring):
    """A 2 x ``rungs`` ladder on the low ids, and a ``ring``-cycle on the high
    ids hung off its last vertex by a bridge: delta comes from the ring, but
    the ladder is as long as its defect, so every ladder vertex is a witness
    candidate and the first witness needs three ring vertices."""
    top, ring0 = rungs, 2 * rungs
    edges = [(v, v + 1) for v in range(rungs - 1)]
    edges += [(top + v, top + v + 1) for v in range(rungs - 1)]
    edges += [(v, top + v) for v in range(rungs)] + [(ring0 - 1, ring0)]
    edges += [(ring0 + v, ring0 + (v + 1) % ring) for v in range(ring)]
    return MetricGraph(ring0 + ring, edges)


def _k40_less_two_edges():
    """K_40 less two disjoint edges among its last four vertices, which alone
    have the maximal defect 2: the witness scan visits nearly every (i, j)."""
    miss = {(36, 37), (38, 39)}
    return MetricGraph(40, [e for e in itertools.combinations(range(40), 2) if e not in miss])


def test_the_witness_scan_is_refused_past_its_work_cap(monkeypatch):
    g = _ladder_with_a_ring(50, 40)
    # vertex 0 has gate 100 on the ring, and 100, 110, 120, 130 form its square
    assert four_point_delta(g).witness == (0, 110, 120, 130)
    monkeypatch.setattr(hyperbolicity, "_WITNESS_WORK", 10**5)
    with pytest.raises(SizeLimitError, match="witness scan.*sampled"):
        four_point_delta(_k40_less_two_edges())


def test_a_block_below_the_maximum_gets_no_witness_scan():
    # the 2 x 300 ladder is as long as the ring's defect 50 but has defect 2
    # itself: scanned for the witness, it alone would pass the work cap
    rep = four_point_delta(_ladder_with_a_ring(300, 100))
    assert (rep.delta, rep.witness) == (25.0, (0, 625, 650, 675))


def _first_attaining(g, defect):
    D = orc.distance_matrix(g)
    return next(
        q for q in itertools.combinations(range(g.n), 4) if orc.quadruple_defect(D, q) == defect
    )


def _spy(monkeypatch, name, log):
    inner = getattr(hyperbolicity, name)

    def spy(*args):
        # the block's size and its int arguments (not its matrix or adjacency)
        log.append((name, len(args[0]), tuple(a for a in args[1:] if isinstance(a, int))))
        return inner(*args)

    monkeypatch.setattr(hyperbolicity, name, spy)


def test_a_block_scanned_after_the_maximum_is_scanned_once(monkeypatch):
    # a 2 x 6 ladder on 0..11 bridged to the prism C_8 x K_2 on 12..27: the
    # prism, larger, sets the maximum defect 4 first, so the ladder, within
    # its diameter 6, is scanned once against 4, finds its own 2 below it
    # and is dropped before the witness scan
    e = [(v, v + 1) for v in (0, 1, 2, 3, 4, 6, 7, 8, 9, 10)] + [(v, v + 6) for v in range(6)]
    e += [(11, 12)] + [(c + v, c + (v + 1) % 8) for c in (12, 20) for v in range(8)]
    g = MetricGraph(28, e + [(12 + v, 20 + v) for v in range(8)])
    log = []
    _spy(monkeypatch, "_max_defect", log)
    _spy(monkeypatch, "_block_witness", log)
    rep = four_point_delta(g)
    assert (rep.delta, rep.witness) == (2.0, _first_attaining(g, 4))
    assert log == [
        ("_max_defect", 16, (0,)),
        ("_max_defect", 12, (4,)),
        ("_block_witness", 16, (4, 0)),
    ]


def test_a_block_whose_diameter_ties_the_maximum_is_held_to_the_pair_cap(monkeypatch):
    # C_9 on 0..8 (diameter 4, defect 3, 9 far-apart pairs) bridged to the
    # prism C_8 x K_2 (defect 4, 8 pairs): the prism, larger, sets the
    # maximum 4, which C_9's diameter ties, so C_9 is scanned against it, and
    # with room for 8 pairs that scan is refused
    e = [(v, (v + 1) % 9) for v in range(9)] + [(8, 9)]
    e += [(c + v, c + (v + 1) % 8) for c in (9, 17) for v in range(8)]
    g = MetricGraph(25, sorted(tuple(sorted(x)) for x in e + [(9 + v, 17 + v) for v in range(8)]))
    rep = four_point_delta(g)
    assert (rep.delta, rep.witness) == (2.0, _first_attaining(g, 4))
    monkeypatch.setattr(hyperbolicity, "_FAR_PAIRS", 8)
    with pytest.raises(SizeLimitError, match="block of 9 vertices has 9"):
        four_point_delta(g)


def _chordal_strip(k):
    """The 2 x ``k`` strip with one diagonal per square, a chordal block:
    top row 0..k-1, bottom row k..2k-1, and each square's diagonal from its
    top left to its bottom right."""
    e = [(v, v + 1) for v in range(k - 1)] + [(k + v, k + v + 1) for v in range(k - 1)]
    e += [(v, k + v) for v in range(k)] + [(v, k + v + 1) for v in range(k - 1)]
    return MetricGraph(2 * k, e)


def _attach(edges, n, block, at, bridge):
    """Add ``block`` to the graph on 0..n-1 with the list ``edges``: its
    vertex 0 is the vertex ``at``, or is joined to it by a bridge, and its
    other vertices take the next ids.  Returns the new vertex count."""
    first = n if bridge else n - 1
    ids = list(range(first, first + block.n))
    if bridge:
        edges.append((at, n))
    else:
        ids[0] = at
    edges += [(ids[u], ids[v]) for u, v in block.edges]
    return first + block.n


def _chain(parts, bridge=False):
    """The graphs ``parts`` in a chain, each one's vertex 0 the last vertex
    placed or, with ``bridge``, joined to it by a bridge."""
    edges, n = list(parts[0].edges), parts[0].n
    for part in parts[1:]:
        n = _attach(edges, n, part, n - 1, bridge)
    return MetricGraph(n, edges)


def test_a_chordal_block_after_a_maximum_above_2_is_skipped(monkeypatch):
    # grid(5, 5), defect 8, bridged by 24-25 to the chordal 2 x 11 strip,
    # whose diameter 10 exceeds 8 but whose defect is at most 2: the strip
    # gets no far-apart mask and no scan
    g = _chain([grid(5, 5), _chordal_strip(11)], bridge=True)
    log = []
    _spy(monkeypatch, "_far_apart_pairs", log)
    rep = four_point_delta(g)
    assert (rep.delta, rep.witness) == (4.0, (0, 4, 20, 24))
    assert rep.witness == _first_attaining(g, 8)
    assert [k for _, k, _ in log] == [25]


def test_each_distinct_block_gets_one_witness_scan(monkeypatch):
    # six 8-cycles through vertex 0, ids dealt round-robin: every ring's four
    # least ids beat the first ring's witness, so all six are visited
    e = []
    for r in range(6):
        ring = [0] + [1 + 6 * j + r for j in range(7)]
        e += [(min(u, v), max(u, v)) for u, v in zip(ring, ring[1:] + ring[:1])]
    g = MetricGraph(43, e)
    log = []
    _spy(monkeypatch, "_block_witness", log)
    rep = four_point_delta(g)
    assert (rep.delta, rep.witness) == (2.0, _first_attaining(g, 4))
    assert log == [("_block_witness", 8, (4, 0))]


def test_the_witness_cap_admits_every_graph_of_at_most_300_vertices(monkeypatch):
    def bound(n):
        return sum(j * (hyperbolicity._WITNESS_VISIT + (n - 1 - j) ** 2) for j in range(n))

    assert bound(300) <= hyperbolicity._WITNESS_WORK
    # the bound holds where the scan is longest
    monkeypatch.setattr(hyperbolicity, "_WITNESS_WORK", bound(40))
    assert four_point_delta(_k40_less_two_edges()).witness == (36, 37, 38, 39)


def test_sampled_mode_is_reproducible_and_below_exact():
    g = small("cycle-8")
    rep1 = four_point_delta(g, mode="sampled", samples=200, seed=7)
    rep2 = four_point_delta(g, mode="sampled", samples=200, seed=7)
    assert (rep1.delta, rep1.witness) == (rep2.delta, rep2.witness)
    assert rep1.delta <= four_point_delta(g).delta
    assert rep1.mode == "sampled"
    assert rep1.samples == 200 and rep1.seed == 7
    # with this budget on 8 vertices the sampler finds the true value
    assert rep1.delta == 2.0


def test_sampled_report_is_pinned_on_a_large_ring_tree():
    # pinned values: a change to the order of the rng draws changes them
    g = family_instance("rings-3-3-12")[0]
    rep = four_point_delta(MetricGraph(g.n, g.edges), mode="sampled", samples=2000, seed=3)
    assert rep.to_obj() == {
        "delta": 2.0,
        "mode": "sampled",
        "samples": 2000,
        "seed": 3,
        "witness": [193, 309, 53, 57],
        "n_vertices": 430,
    }


@settings(max_examples=30, deadline=None)
@given(connected_graphs(), st.integers(0, 2**32 - 1), st.integers(1000, 2100))
@example(MetricGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), 0, 2048)
def test_sampled_chunks_match_the_per_quadruple_loop(g, seed, samples):
    # the counts cross the 1024-quadruple chunks; a tie keeps the earlier witness
    rep = four_point_delta(g, mode="sampled", samples=samples, seed=seed)
    assert (rep.delta, rep.witness) == orc.sampled_delta_loop(
        orc.distance_matrix(g), samples, seed)


@pytest.mark.parametrize("n", range(4, 8))
def test_rank_mapping_is_a_bijection_onto_ordered_quadruples(n):
    ranks = np.array(list(itertools.product(range(n), range(n - 1), range(n - 2), range(n - 3))))
    quads = _ranks_to_vertices(ranks).tolist()
    assert sorted(map(tuple, quads)) == sorted(itertools.permutations(range(n), 4))


@settings(max_examples=100, deadline=None)
@given(st.integers(4, 2**31), st.integers(0, 2**32 - 1))
def test_drawn_quadruples_are_distinct_and_in_range(n, seed):
    # the draw of sampled mode, with the largest and the smallest ranks
    bounds = [n, n - 1, n - 2, n - 3]
    ranks = np.random.default_rng(seed).integers(0, bounds, size=(256, 4))
    ranks = np.vstack([ranks, np.subtract(bounds, 1), np.zeros(4, dtype=np.int64)])
    quads = np.sort(_ranks_to_vertices(ranks), axis=1)
    assert quads[:, 0].min() >= 0 and quads[:, 3].max() < n
    assert (quads[:, 1:] > quads[:, :-1]).all()


def test_sampled_mode_validates_its_arguments():
    g = small("cycle-8")
    with pytest.raises(ValueError, match="samples"):
        four_point_delta(g, mode="sampled", seed=1)
    with pytest.raises(ValueError, match="seed"):
        four_point_delta(g, mode="sampled", samples=10)
    with pytest.raises(ValueError, match="unknown mode"):
        four_point_delta(g, mode="montecarlo")


@pytest.mark.parametrize("samples", ["x", -3, 0, True, 2.5])
def test_exact_mode_checks_a_given_sample_count(samples):
    g = small("cycle-8")
    with pytest.raises(ValueError, match="samples must be"):
        four_point_delta(g, samples=samples)
    with pytest.raises(ValueError, match="samples must be"):
        four_point_delta(g, mode="sampled", samples=samples, seed=1)
    assert four_point_delta(g, samples=None).samples is None


@pytest.mark.parametrize("g", [path(6), tree(3, 3)], ids=["path-6", "tree-3-3"])
def test_zero_delta_witness_is_four_distinct_vertices(g):
    rep = four_point_delta(g)
    assert rep.delta == 0.0
    assert rep.witness == (0, 1, 2, 3)
    D = orc.distance_matrix(g)
    w, x, y, z = rep.witness
    sums = sorted((D[w, x] + D[y, z], D[w, y] + D[x, z], D[w, z] + D[x, y]))
    assert sums[2] - sums[1] == 0


def test_witness_is_the_first_attaining_quadruple_of_the_whole_graph():
    assert four_point_delta(small("rings-2-3-12")).witness == (0, 1, 15, 20)
    # a pendant vertex 0 on the cycle 1..8: the maximum is attained inside the
    # cycle, first by (1, 3, 5, 7), but (0, 3, 5, 7) comes earlier and spans
    # both blocks
    g = MetricGraph(9, [(0, 1)] + [(v, v % 8 + 1) for v in range(1, 9)])
    assert sorted(sorted(b) for b in block_tree(g)[0]) == [[0, 1], [1, 2, 3, 4, 5, 6, 7, 8]]
    rep = four_point_delta(g)
    assert (rep.delta, rep.witness) == (2.0, (0, 3, 5, 7))
    assert orc.quadruple_defect(orc.distance_matrix(g), (1, 3, 5, 7)) == 4


@st.composite
def shuffled_connected_graphs(draw):
    """Random spanning tree plus chords on 4-14 vertices, ids shuffled so
    that blocks are not runs of consecutive ids."""
    n = draw(st.integers(min_value=4, max_value=14))
    ids = draw(st.permutations(range(n)))
    edges = {
        tuple(sorted((ids[draw(st.integers(0, v - 1))], ids[v]))) for v in range(1, n)
    }
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return MetricGraph(n, sorted(edges))


@settings(max_examples=150, deadline=None)
@given(shuffled_connected_graphs())
# a 4-cycle with a roof: defect 1 comes first, then 2, the diameter
@example(MetricGraph(5, [(0, 1), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)]))
def test_exact_delta_and_witness_match_bruteforce_on_random_graphs(g):
    rep = four_point_delta(g)
    D = orc.distance_matrix(g)
    assert rep.delta == orc.delta_bruteforce(D)
    first = next(
        q for q in itertools.combinations(range(g.n), 4)
        if orc.quadruple_defect(D, q) == 2 * rep.delta
    )
    assert rep.witness == first
    per_block = [
        orc.delta_bruteforce(orc.distance_matrix(g.induced(b)[0]))
        for b in block_tree(g)[0]
    ]
    assert rep.delta == max(per_block)


@st.composite
def block_cut_trees(draw):
    """Up to five small blocks glued at cut vertices: each is a cycle of 2-6
    vertices (2: a bridge) with random chords, hung from a vertex placed
    before it, and the ids are shuffled so that fiber minima matter."""
    edges, n = set(), 1
    for _ in range(draw(st.integers(1, 5))):
        ring = [draw(st.integers(0, n - 1)), *range(n, n + draw(st.integers(1, 5)))]
        n += len(ring) - 1
        pairs = list(zip(ring, ring[1:] + ring[:1]))
        pairs += draw(st.lists(st.tuples(st.sampled_from(ring), st.sampled_from(ring)), max_size=3))
        edges |= {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    ids = draw(st.permutations(range(n)))
    return MetricGraph(n, [(ids[u], ids[v]) for u, v in edges])


@settings(max_examples=150, deadline=None)
@given(block_cut_trees())
# three 4-cycles in a chain: the first quadruple, (0, 1, 2, 5), is the middle
# block's with 1 in place of the cut vertex 7, whose fiber holds it
@example(MetricGraph(10, [(0, 5), (5, 2), (2, 7), (7, 0), (2, 3), (3, 8), (8, 9), (9, 2),
                          (7, 1), (1, 4), (4, 6), (6, 7)]))
def test_block_cut_trees_match_bruteforce(g):
    assume(g.n >= 4)
    rep = four_point_delta(g)
    D = orc.distance_matrix(g)
    assert rep.delta == orc.delta_bruteforce(D)
    assert rep.witness == next(
        q for q in itertools.combinations(range(g.n), 4)
        if orc.quadruple_defect(D, q) == 2 * rep.delta
    )


def _bruteforce(g):
    """(delta, first quadruple attaining it) of ``g``, over every quadruple
    in lexicographic order at once, and (0.0, None) below four vertices."""
    if g.n < 4:
        return 0.0, None
    D = orc.distance_matrix(g)
    w, x, y, z = q = np.array(list(itertools.combinations(range(g.n), 4))).T
    s = np.sort([D[w, x] + D[y, z], D[w, y] + D[x, z], D[w, z] + D[x, y]], axis=0)
    top = int(np.argmax(s[2] - s[1]))
    return (s[2, top] - s[1, top]) / 2, tuple(int(v) for v in q[:, top])


@st.composite
def glued_blocks(draw):
    """2-5 blocks, each a grid of at most 4 x 4, a cycle of 4-10 vertices, a
    Farey ball of radius 1-3, a chordal 2 x k strip or a cycle of 4-10
    vertices with random chords, glued at a vertex placed before it or hung
    from one by a bridge; a block that would take the graph past 36
    vertices is left out, and the ids are shuffled.  Blocks this large tie
    each other's defects, and strips follow maxima above 2."""
    edges, n = [], 0
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["grid", "cycle", "farey", "strip", "chorded"]))
        if kind == "grid":
            block = grid(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
        elif kind == "cycle":
            block = cycle(draw(st.integers(4, 10)))
        elif kind == "farey":
            block = farey_ball(draw(st.integers(1, 3)))
        elif kind == "strip":
            block = _chordal_strip(draw(st.integers(2, 8)))
        else:
            m = draw(st.integers(4, 10))
            chords = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                                   max_size=4))
            pairs = {tuple(sorted(e)) for e in cycle(m).edges + tuple(chords) if e[0] != e[1]}
            block = MetricGraph(m, sorted(pairs))
        if not n:
            edges, n = list(block.edges), block.n
            continue
        bridge = draw(st.booleans())
        if n + block.n - (not bridge) <= 36:
            n = _attach(edges, n, block, draw(st.integers(0, n - 1)), bridge)
    ids = draw(st.permutations(range(n)))
    return MetricGraph(n, [(ids[u], ids[v]) for u, v in edges])


@settings(max_examples=100, deadline=None)
@given(glued_blocks())
# grid(3, 3) and C_8 tie at defect 4, and the strip after them is skipped
@example(_chain([grid(3, 3), cycle(8), _chordal_strip(4)]))
def test_glued_blocks_match_bruteforce_and_their_own_deltas(g):
    rep = four_point_delta(g)
    assert (rep.delta, rep.witness) == _bruteforce(g)
    assert rep.delta == max(_bruteforce(g.induced(b)[0])[0] for b in block_tree(g)[0])


@settings(max_examples=150, deadline=None)
@given(shuffled_connected_graphs())
def test_a_witness_scan_of_one_row_per_chunk_finds_the_first_quadruple(g):
    D = orc.distance_matrix(g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperbolicity, "_WITNESS_CELLS", 1)
        rep = four_point_delta(g)
    assert rep.witness == next(
        q for q in itertools.combinations(range(g.n), 4)
        if orc.quadruple_defect(D, q) == 2 * rep.delta
    )


@settings(max_examples=150, deadline=None)
@given(shuffled_connected_graphs())
def test_far_apart_pairs_match_their_definition(g):
    D = orc.distance_matrix(g)
    nbrs = [g.neighbors(v) for v in range(g.n)]
    xs, ys = _far_apart_pairs(D, _csr(g))
    expect = [
        (x, y) for x, y in itertools.combinations(range(g.n), 2)
        if all(D[w, y] <= D[x, y] for w in nbrs[x])
        and all(D[w, x] <= D[x, y] for w in nbrs[y])
    ]
    assert list(zip(xs.tolist(), ys.tolist())) == expect


def test_far_apart_pairs_are_taken_within_each_block():
    # a pendant at every vertex of an 8-cycle: in the whole graph no pair of
    # cycle vertices is far-apart, in the cycle's own block every antipodal one is
    g = MetricGraph(16, [(v, (v + 1) % 8) for v in range(8)] + [(v, v + 8) for v in range(8)])
    rep = four_point_delta(g)
    D = orc.distance_matrix(g)
    assert rep.delta == orc.delta_bruteforce(D) == 2.0
    assert orc.quadruple_defect(D, rep.witness) == 4


def test_an_edge_can_be_one_pair_of_the_only_maximal_quadruple():
    # two triangles on the edge 1-2: the sum d(0, 3) + d(1, 2) = 3 is the
    # largest only with the edge, so the scan must reach pairs at distance 1
    g = MetricGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    rep = four_point_delta(g)
    assert (rep.delta, rep.witness) == (0.5, (0, 1, 2, 3))


@pytest.mark.parametrize("name", ["farey-5", "grid-8-8", "cycle-12"])
def test_tiles_smaller_than_the_pair_list_give_the_oracle_delta(monkeypatch, name):
    g = small(name)
    default = four_point_delta(g)
    monkeypatch.setattr(hyperbolicity, "_TILE_COLS", 3)
    monkeypatch.setattr(hyperbolicity, "_TILE_ROWS", 5)
    rep = four_point_delta(g)
    assert rep.delta == orc.delta_vectorized(orc.distance_matrix(g))
    assert rep.witness == default.witness


@settings(max_examples=150, deadline=None)
@given(shuffled_connected_graphs())
def test_tiny_tiles_match_bruteforce_on_random_graphs(g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hyperbolicity, "_TILE_COLS", 2)
        mp.setattr(hyperbolicity, "_TILE_ROWS", 3)
        assert four_point_delta(g).delta == orc.delta_bruteforce(orc.distance_matrix(g))


def test_large_diameter_takes_the_int16_buffers():
    # 2 * diam = 260 does not fit int8
    rep = four_point_delta(cycle(260))
    assert (rep.delta, rep.witness) == (65.0, (0, 65, 130, 195))


def test_farey7_delta_and_witness():
    rep = four_point_delta(farey_ball(7))
    assert (rep.delta, rep.witness) == (1.0, (0, 17, 30, 41))


def test_farey8_delta_and_witness():
    # one chordal block of 513 vertices: its scan ends at the first defect 2
    rep = four_point_delta(farey_ball(8))
    assert (rep.delta, rep.witness) == (1.0, (0, 19, 34, 47))


@settings(max_examples=150, deadline=None)
@given(connected_graphs())
def test_the_witness_is_the_first_quadruple_attaining_delta(g):
    assume(g.n >= 4)
    rep = four_point_delta(g)
    assert rep.witness == _first_attaining(g, int(2 * rep.delta))


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.data())
def test_a_defect_is_reached_across_u_classes_or_in_the_centre(g, data):
    # u_x = d(i,x) - d(j,x): a quadruple's defect t > 0 needs |u_k - u_l| >= t,
    # or both |u_k| and |u_l| at most d(i,j) - t
    assume(g.n >= 4)
    D = orc.distance_matrix(g)
    for _ in range(20):
        i, j, k, l = data.draw(st.permutations(range(g.n)))[:4]
        t = orc.quadruple_defect(D, (i, j, k, l))
        u = D[i] - D[j]
        assert (np.abs(u) <= D[i, j]).all()
        assert D[i, k] + D[j, l] - D[i, l] - D[j, k] == u[k] - u[l]
        if t > 0:
            assert abs(u[k] - u[l]) >= t or max(abs(u[k]), abs(u[l])) <= D[i, j] - t


@pytest.mark.parametrize("radius", [3, 4, 5, 6])
def test_the_witness_scan_of_a_farey_ball_matches_bruteforce(radius):
    # a farey ball is one chordal block of delta 1, so its maximum defect is 2
    g = farey_ball(radius)
    assert hyperbolicity._block_witness(orc.distance_matrix(g), 2, 0)[0] == _first_attaining(g, 2)


def _cycle8(order):
    """C_8 with the ids ``order`` around it."""
    return MetricGraph(8, [tuple(sorted((order[p], order[p - 1]))) for p in range(8)])


@pytest.mark.parametrize("order,centre", [
    # the first quadruple (0, 1, 2, 3) has its largest sum d(0,1) + d(2,3):
    # u_2 = u_3 = 0, so only the centre, |u| <= d(0,1) - 4 = 0, holds (2, 3)
    ([0, 4, 2, 5, 1, 6, 3, 7], True),
    # the first quadruple (0, 2, 4, 6) has d(0,2) = 2 < 4, so no centre:
    # (4, 6) is a cross-class pair, u_4 - u_6 = 4
    (list(range(8)), False),
], ids=["centre", "cross"])
def test_the_witness_scan_finds_a_centre_or_a_cross_class_pair(order, centre):
    g = _cycle8(order)
    D = orc.distance_matrix(g)
    quad = i, j, k, l = _first_attaining(g, 4)
    u = D[i] - D[j]
    if centre:
        assert abs(u[k] - u[l]) < 4 and max(abs(u[k]), abs(u[l])) <= D[i, j] - 4
    else:
        assert D[i, j] < 4 and abs(u[k] - u[l]) >= 4
    assert hyperbolicity._block_witness(D, 4, 0)[0] == quad
    assert four_point_delta(g).witness == quad


@st.composite
def subtree_intersection_graphs(draw):
    """Chordal graphs on 4-14 vertices: the intersection graphs of subtrees
    of a random tree.  Each subtree grows from a node of an earlier one, so
    the graph is connected, and the ids are shuffled."""
    m = draw(st.integers(1, 12))
    tree_adj = [[] for _ in range(m)]
    for v in range(1, m):
        u = draw(st.integers(0, v - 1))
        tree_adj[u].append(v)
        tree_adj[v].append(u)
    n = draw(st.integers(4, 14))
    subtrees = []
    for i in range(n):
        nodes = [0]
        if i:
            earlier = subtrees[draw(st.integers(0, i - 1))]
            nodes = [draw(st.sampled_from(sorted(earlier)))]
        for _ in range(draw(st.integers(0, 4))):
            node = draw(st.sampled_from(nodes))
            if tree_adj[node]:
                nodes.append(draw(st.sampled_from(tree_adj[node])))
        subtrees.append(set(nodes))
    ids = draw(st.permutations(range(n)))
    edges = [
        tuple(sorted((ids[i], ids[j])))
        for i, j in itertools.combinations(range(n), 2) if subtrees[i] & subtrees[j]
    ]
    return MetricGraph(n, edges)


@settings(max_examples=150, deadline=None)
@given(st.one_of(shuffled_connected_graphs(), connected_graphs(), subtree_intersection_graphs()))
@example(farey_ball(3))
@example(cycle(4))
# the wheel on the 4-cycle 1..4, hub 0 visited first: each rim vertex's
# visited neighbours are all adjacent to the hub, and only the last visited
# one tells that the rim is a hole
@example(MetricGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)]))
def test_chordality_matches_networkx(g):
    assert hyperbolicity._chordal(g._adj) == nx.is_chordal(orc.to_networkx(g))


@settings(max_examples=150, deadline=None)
@given(subtree_intersection_graphs())
# random ones this small rarely reach delta 1; farey_ball(3) does
@example(farey_ball(3))
def test_chordal_graphs_have_delta_at_most_one(g):
    assert hyperbolicity._chordal(g._adj)
    rep = four_point_delta(g)
    D = orc.distance_matrix(g)
    assert rep.delta == orc.delta_bruteforce(D) <= 1
    assert rep.witness == next(
        q for q in itertools.combinations(range(g.n), 4)
        if orc.quadruple_defect(D, q) == 2 * rep.delta
    )


def test_only_a_chordal_block_is_scanned_with_the_stop_at_defect_2(monkeypatch):
    # farey_ball(6) is one triangulated polygon, grid(4, 4) has induced 4-cycles
    log = []
    _spy(monkeypatch, "_max_defect", log)
    assert four_point_delta(farey_ball(6)).delta == 1.0
    assert four_point_delta(grid(4, 4)).delta == 3.0
    assert log == [("_max_defect", 129, (0, 2)), ("_max_defect", 16, (0,))]


@settings(max_examples=150, deadline=None)
@given(connected_graphs(), st.integers(0, 2**32 - 1), st.integers(1, 50))
def test_exact_delta_is_at_most_half_the_diameter_and_sampled_delta_below_it(g, seed, samples):
    exact = four_point_delta(g).delta
    assert exact <= orc.distance_matrix(g).max() / 2
    assert four_point_delta(g, mode="sampled", samples=samples, seed=seed).delta <= exact


def test_quasiconvexity_of_rings_and_grid_rows_is_zero():
    g, fam = family_instance("rings-2-3-12")
    assert quasiconvexity_constant(g, fam[0]) == 0
    assert quasiconvexity_constant(grid(8, 8), range(8)) == 0
    # a 6-vertex arc of C_8: the geodesic between its ends runs outside it
    assert quasiconvexity_constant(cycle(8), range(6)) == 1
    with pytest.raises(ValueError):
        quasiconvexity_constant(g, [0, g.n - 1])
