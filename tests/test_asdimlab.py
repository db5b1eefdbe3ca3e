"""Covers at scale, multiplicity verification, profiles, and genus bounds."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as orc
from _corpus import connected_graphs, quasitree_setup, small
from gromovlab import asdimlab, graphs
from gromovlab.asdimlab import (
    SCALE_NOTE,
    Cover,
    cover_at_scale,
    cover_from_obj,
    dim_profile,
    genus_bounds,
    hierarchy_bound,
    load_cover,
    multiplicity_check,
    product_cover,
)
from gromovlab.generators import farey_ball, grid, path, tree, tree_of_rings
from gromovlab.graphs import MetricGraph, cartesian_product, dump_json


def blocks_partition(g, cover):
    seen = sorted(v for b in cover.blocks for v in b)
    assert seen == list(range(g.n)), "blocks must partition the vertex set"


def test_multiplicity_check_counts_blocks_meeting_each_ball():
    g = path(10)
    singletons = [[v] for v in range(10)]
    assert multiplicity_check(g, singletons, 0) == (1, 0)
    mult, witness = multiplicity_check(g, singletons, 1)
    assert mult == 3
    # the witness ball really does meet that many blocks
    ball = set(g.ball(witness, 1))
    assert sum(1 for b in singletons if ball & set(b)) == 3
    assert multiplicity_check(g, [list(range(10))], 5) == (1, 0)


@settings(max_examples=80, deadline=None)
@given(connected_graphs(), st.data())
def test_multiplicity_by_dilation_matches_the_ball_recount(g, data):
    k = data.draw(st.integers(1, 5))
    # each vertex lies in one or more of k blocks; some blocks may stay empty
    homes = data.draw(st.lists(st.sets(st.integers(0, k - 1), min_size=1),
                               min_size=g.n, max_size=g.n))
    blocks = [[v for v in range(g.n) if bi in homes[v]] for bi in range(k)]
    if data.draw(st.booleans()):
        blocks = [b[::-1] + b for b in blocks]  # unsorted, with repeats
    R = data.draw(st.integers(0, 4))
    expect = orc.multiplicity_oracle(orc.distance_matrix(g), blocks, R)
    assert multiplicity_check(g, blocks, R) == expect


def test_multiplicity_check_validation():
    g = path(10)
    with pytest.raises(ValueError, match="do not cover"):
        multiplicity_check(g, [[0, 1, 2]], 1)
    with pytest.raises(ValueError, match="unknown vertex"):
        multiplicity_check(g, [list(range(10)), [77]], 1)
    # a float or a boolean is no vertex id, even where its value would be one
    for blocks in ([[0, 1, 2], [3, 4, 5.0]], [[0, 1, True], [2, 3, 4, 5]]):
        with pytest.raises(ValueError, match="vertex id must be an integer"):
            multiplicity_check(path(6), blocks, 1)
    for bad_r in (-1, True, 1.5):
        with pytest.raises(ValueError, match="scale R"):
            multiplicity_check(g, [list(range(10))], bad_r)


@pytest.mark.parametrize("R,D,blocks", [(2, 3, 250), (5, 9, 100), (10, 19, 50)])
def test_interval_cover_of_the_long_path(R, D, blocks):
    g = path(1000)
    cov = cover_at_scale(g, R, "interval")
    assert cov.multiplicity <= 2
    assert cov.D == D
    assert len(cov.blocks) == blocks
    blocks_partition(g, cov)
    # blocks are contiguous runs of vertices
    for block in cov.blocks:
        assert list(block) == list(range(block[0], block[-1] + 1))


def test_interval_cover_works_on_any_graph():
    g = small("grid-8-8")
    cov = cover_at_scale(g, 2, "interval")
    assert cov.multiplicity <= 2
    blocks_partition(g, cov)


@pytest.mark.parametrize("R,D,nblocks", [(3, 16, 28), (5, 28, 10)])
def test_brick_cover_of_the_big_grid(R, D, nblocks):
    g = grid(40, 40)
    cov = cover_at_scale(g, R, "brick")
    assert cov.multiplicity == 3
    assert cov.D == D
    assert cov.D <= 6 * R - 2
    assert len(cov.blocks) == nblocks
    blocks_partition(g, cov)


def test_brick_cover_from_width_params_matches_labels():
    g = grid(12, 12)
    bare = MetricGraph(g.n, g.edges)
    a = cover_at_scale(g, 2, "brick")
    b = cover_at_scale(bare, 2, "brick", params={"width": 12})
    assert a.blocks == b.blocks
    with pytest.raises(ValueError, match="grid coordinates"):
        cover_at_scale(bare, 2, "brick")


@pytest.mark.parametrize("width", [0, -12, 2.5, True, "12"])
def test_brick_width_must_be_a_positive_integer(width):
    g = grid(12, 12)
    bare = MetricGraph(g.n, g.edges)
    with pytest.raises(ValueError, match="width"):
        cover_at_scale(bare, 2, "brick", params={"width": width})


@pytest.mark.parametrize("strategy", ["interval", "net_voronoi"])
@pytest.mark.parametrize("width", [0, -12, 2.5, True, "12"])
def test_every_strategy_checks_a_given_width(strategy, width):
    # only brick reads the width, but a bad one is refused whatever the strategy
    g = grid(6, 6)
    with pytest.raises(ValueError, match="width"):
        cover_at_scale(g, 2, strategy, params={"width": width})
    with pytest.raises(ValueError, match="width"):
        dim_profile(g, [1, 2], strategy, params={"width": width})
    assert cover_at_scale(g, 2, strategy, params={"width": 6}).blocks == (
        cover_at_scale(g, 2, strategy).blocks
    )


def test_net_voronoi_cover_structure():
    g = small("grid-8-8")
    for R in (1, 2, 4):
        cov = cover_at_scale(g, R, "net_voronoi")
        blocks_partition(g, cov)
        assert cov.D <= 8 * R  # every block fits the cap, which the merge relies on
        net = cov.meta["net"]
        assert net, "net must be nonempty"
        # net points are pairwise more than 2R apart
        for i, u in enumerate(net):
            row = g.distances_from(u)
            for w in net[i + 1 :]:
                assert int(row[w]) > 2 * R
        assert cov.meta["num_colors"] >= 1
        assert "certificate" in cov.meta


def test_net_voronoi_known_profiles():
    _, _, _, _, y = quasitree_setup(3, 3, 12)
    prof = dim_profile(y.graph, [2, 4, 8], "net_voronoi", graph_id="rings-3-3-12-quasitree")
    assert [(r["R"], r["D"], r["multiplicity"]) for r in prof.rows] == [
        (2, 13, 2),
        (4, 27, 2),
        (8, 41, 1),
    ]
    proft = dim_profile(tree(6, 2), [1, 2, 4], "net_voronoi")
    assert [r["multiplicity"] for r in proft.rows] == [2, 1, 1]
    profg = dim_profile(small("grid-8-8"), [2, 4], "net_voronoi")
    assert [r["multiplicity"] for r in profg.rows] == [1, 1]


def test_net_voronoi_cover_of_the_farey_ball_at_scale_one():
    # the merge asks set_diameter only whether each candidate stays within 8R
    cov = cover_at_scale(farey_ball(9), 1, "net_voronoi")
    assert (cov.D, cov.multiplicity, len(cov.blocks)) == (8, 3, 6)


@pytest.mark.parametrize(
    "make,R,digest",
    [
        (lambda: grid(40, 40), 4, "2d619672b8088e9ec32b74d557f7a04865b4bdca15c61201dc2308ac36a14a02"),
        (lambda: farey_ball(9), 1, "70176d98d4d626546dbc11b43b06ad748bbbfa1f5a4dd1e0dca5a68ad0ffa746"),
        (lambda: farey_ball(9), 4, "5ceffddab83c18e59af26f2a0ac51b3cbf4e2b74d845cef2e2977282f782c00d"),
        (lambda: tree_of_rings(3, 3, 12)[0], 4, "3f4518616d78dbdb4bdf12667fac2b235c01d9f44f1f2126b57c6501838b3ee6"),
    ],
    ids=["grid-40-40", "farey-9-R1", "farey-9-R4", "rings-3-3-12"],
)
def test_net_voronoi_payloads_are_pinned(make, R, digest):
    # blocks, net and num_colors: the whole payload, byte for byte
    payload = dump_json(cover_at_scale(make(), R, "net_voronoi").to_obj())
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


def subdivided(g, k):
    """``g`` with every edge replaced by a path of k edges, new vertices last."""
    edges = []
    n = g.n
    for u, v in g.edges:
        walk = [u, *range(n, n + k - 1), v]
        n += k - 1
        edges += zip(walk, walk[1:])
    return MetricGraph(n, edges)


@settings(max_examples=80, deadline=None)
@given(connected_graphs(), st.integers(1, 4), st.integers(1, 3))
def test_net_voronoi_net_and_cells_match_the_distance_matrix(g, k, R):
    # subdivided edges stretch the 12-vertex graphs past the 8R block cap,
    # so that most covers have several blocks
    g = subdivided(g, k)
    D = orc.distance_matrix(g)
    cov = cover_at_scale(g, R, "net_voronoi")
    net = []
    for v in range(g.n):  # the greedy 2R-net in id order
        if all(D[v][s] > 2 * R for s in net):
            net.append(v)
    assert cov.meta["net"] == net
    blocks_partition(g, cov)
    where = {v: bi for bi, b in enumerate(cov.blocks) for v in b}
    for v in range(g.n):
        # v's cell is its least-id nearest net point's, and blocks are unions of cells
        owner = min(net, key=lambda s: (D[v][s], s))
        assert where[v] == where[owner]


@settings(max_examples=80, deadline=None)
@given(connected_graphs(), st.integers(1, 4), st.integers(1, 3))
def test_net_voronoi_blocks_match_the_merge_oracle(g, k, R):
    # the row bounds decide most unions without set_diameter; the oracle
    # measures every candidate union, so both must build the same blocks
    g = subdivided(g, k)
    cov = cover_at_scale(g, R, "net_voronoi")
    assert list(cov.blocks) == orc.net_voronoi_blocks_oracle(orc.distance_matrix(g), R)
    assert cov.D <= 8 * R


def test_net_voronoi_merge_runs_few_bfs(monkeypatch):
    passes = []
    real = graphs._bit_bfs

    def counting(*args, **kwargs):
        passes.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(graphs, "_bit_bfs", counting)
    monkeypatch.setattr(asdimlab, "_bit_bfs", counting)
    # asking set_diameter about each of the 62 candidate unions took 70 passes
    cov = cover_at_scale(grid(40, 40), 4, "net_voronoi")
    assert (cov.D, cov.multiplicity) == (32, 3)
    assert len(passes) <= 24
    passes.clear()
    # a one-cell cover has no candidate union, so no net-point rows: the
    # passes are those of the recomputed diameter
    cov = cover_at_scale(farey_ball(9), 4, "net_voronoi")
    assert len(cov.blocks) == 1
    assert len(passes) <= 3


@pytest.mark.parametrize(
    "make,R,strategy,D,most",
    [
        (lambda: grid(40, 40), 4, "interval", 78, 2),  # one pass per block: 10
        (lambda: grid(40, 40), 4, "brick", 22, 4),  # 15
        (lambda: grid(40, 40), 4, "net_voronoi", 32, 3),  # 8
        (lambda: farey_ball(9), 2, "interval", 10, 6),  # 6
        (lambda: farey_ball(9), 4, "interval", 10, 3),  # one block: 3
    ],
    ids=["grid-40-40-interval", "grid-40-40-brick", "grid-40-40-net_voronoi",
         "farey-9-R2-interval", "farey-9-R4-interval"],
)
def test_cover_diameter_shares_its_bfs_passes_across_blocks(monkeypatch, make, R, strategy, D, most):
    g = make()
    blocks = cover_at_scale(g, R, strategy).blocks
    passes = []
    real = graphs._bit_bfs

    def counting(*args, **kwargs):
        passes.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(graphs, "_bit_bfs", counting)
    cov = Cover.from_blocks(g, blocks, R, strategy)
    assert cov.D == D
    assert len(passes) <= most


def test_overlapping_loaded_blocks_keep_their_diameter():
    # every block holds vertex 0, the first pick of each: vertex 0 fills
    # one lane per block in the first pass
    g = grid(12, 12)
    blocks = [[0, *range(12 * y, 12 * y + 12)] for y in range(12)]
    cov = cover_from_obj(g, {"R": 1, "blocks": blocks})
    D = orc.distance_matrix(g)
    assert cov.D == max(orc.set_diameter_oracle(D, b) for b in blocks) == 22
    assert cov.multiplicity == 12
    # interval bands dilated by one overlap their neighbours
    g = grid(40, 40)
    bands = cover_at_scale(g, 4, "interval").blocks
    cov = cover_from_obj(g, {"R": 4, "blocks": [graphs.dilation(g, b, 1) for b in bands]})
    assert (cov.D, cov.multiplicity) == (78, 3)
    # 342 overlapping balls of radius 2 and 683 singletons
    f = farey_ball(9)
    balls = [graphs.dilation(f, [v], 2) for v in range(0, f.n, 3)]
    ones = [[v] for v in range(f.n) if v % 3]
    cov = cover_from_obj(f, {"R": 1, "blocks": balls + ones})
    assert (cov.D, cov.multiplicity) == (4, 178)


def test_every_strategy_rechecks_multiplicity_against_the_graph():
    g = path(200)
    for strategy in ("interval", "net_voronoi"):
        cov = cover_at_scale(g, 3, strategy)
        mult, _ = multiplicity_check(g, cov.blocks, cov.R)
        assert mult == cov.multiplicity


def test_cover_validation():
    g = path(20)
    with pytest.raises(ValueError, match="scale R"):
        cover_at_scale(g, 0, "interval")
    with pytest.raises(ValueError, match="scale R"):
        cover_at_scale(g, True, "interval")
    with pytest.raises(ValueError, match="unknown cover strategy"):
        cover_at_scale(g, 2, "onion")
    with pytest.raises(ValueError, match="at least one block"):
        Cover.from_blocks(g, [], 2, "manual")


def test_cover_json_round_trip_recomputes_claims(tmp_path):
    g = path(100)
    cov = cover_at_scale(g, 5, "interval")
    obj = cov.to_obj()
    assert cover_from_obj(g, obj).blocks == cov.blocks
    # tampered D and multiplicity in the file are ignored and recomputed
    obj["D"] = 999
    obj["multiplicity"] = 999
    target = tmp_path / "c.json"
    target.write_text(json.dumps(obj), encoding="utf-8")
    back = load_cover(g, target)
    assert back.D == cov.D
    assert back.multiplicity == cov.multiplicity
    with pytest.raises(ValueError, match='"R" and "blocks"'):
        cover_from_obj(g, {"blocks": []})


@pytest.mark.parametrize("blocks", [7, [7], [[0, "a"]], [[0, None]]])
def test_cover_loader_rejects_mistyped_blocks(blocks):
    with pytest.raises(ValueError, match="blocks"):
        cover_from_obj(path(10), {"R": 1, "blocks": blocks})


def test_an_empty_cover_block_is_named():
    # multiplicity_check accepts an empty block; a cover names it and refuses it
    with pytest.raises(ValueError, match="cover block 1 is empty"):
        cover_from_obj(path(4), {"R": 1, "blocks": [[0, 1, 2, 3], []]})


def test_cover_serialization_is_deterministic():
    g = path(100)
    a = dump_json(cover_at_scale(g, 5, "interval").to_obj())
    b = dump_json(cover_at_scale(g, 5, "interval").to_obj())
    assert a == b


def test_product_cover_multiplies_multiplicities():
    p = path(100)
    cx = cover_at_scale(p, 5, "interval")
    prod, cov = product_cover(p, p, cx, cx)
    assert prod == cartesian_product(p, p)
    assert cov.multiplicity == 4
    assert cov.meta["guarantee"] == 4
    assert cov.multiplicity <= cov.meta["guarantee"]
    assert cov.D == 18
    assert len(cov.blocks) == 100
    blocks_partition(prod, cov)
    other = cover_at_scale(p, 4, "interval")
    with pytest.raises(ValueError, match="scale mismatch"):
        product_cover(p, p, cx, other)


def test_dim_profile_rows_and_csv():
    g = path(200)
    prof = dim_profile(g, [2, 5], "interval", graph_id="p200")
    assert prof.graph_id == "p200"
    assert prof.note == SCALE_NOTE
    csv = prof.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "R,D,multiplicity,strategy"
    assert lines[1] == "2,3,2,interval"
    assert lines[2] == "5,9,2,interval"
    # default graph id mentions size
    assert dim_profile(g, [2], "interval").graph_id == "graph-v200-e199"


def test_dim_profile_requires_increasing_scales():
    g = path(50)
    with pytest.raises(ValueError, match="strictly increasing"):
        dim_profile(g, [2, 2], "interval")
    with pytest.raises(ValueError, match="at least one scale"):
        dim_profile(g, [], "interval")


def test_scale_note_states_the_finite_size_caveat():
    assert "not the true asymptotic invariant" in SCALE_NOTE
    assert "D/R ratio <= 8" in SCALE_NOTE
    cov = cover_at_scale(path(30), 2, "interval")
    assert cov.note == SCALE_NOTE


@pytest.mark.parametrize(
    "base,dims,total",
    [(0, [], 0), (4, [1], 6), (5, [5, 5, 5], 23), (0, [5] * 3, 18)],
)
def test_hierarchy_bound_folds_one_level_at_a_time(base, dims, total):
    assert hierarchy_bound(base, dims) == total


def test_hierarchy_bound_validation():
    for bad in (-1, True, 1.5):
        with pytest.raises(ValueError):
            hierarchy_bound(bad, [])
    with pytest.raises(ValueError):
        hierarchy_bound(0, [2, -1])
    with pytest.raises(ValueError):
        hierarchy_bound(0, [True])


@pytest.mark.parametrize(
    "genus,chi,disk",
    [(2, -2, 18), (3, -4, 48), (4, -6, 90)],
)
def test_genus_bounds_closed_forms(genus, chi, disk):
    rec = genus_bounds(genus)
    assert rec.chi == chi
    assert rec.bound_curvegraph == 2 * abs(chi)
    assert rec.bound_ibundle_pieces == abs(chi) + 2
    assert rec.bound_electrified_diskgraph == abs(chi) + 3
    assert rec.peripheral_bound == 2 * genus + 1
    assert rec.bound_diskgraph == disk
    assert rec.hierarchy_total == disk


def test_genus_bounds_with_punctures():
    rec = genus_bounds(2, p=1)
    assert rec.chi == -3
    assert rec.bound_curvegraph == 6
    assert rec.bound_ibundle_pieces == 5
    assert rec.bound_electrified_diskgraph == 6
    # electrified bound is always one step above the bundle pieces
    for g in (2, 3, 4, 5):
        r = genus_bounds(g)
        assert r.bound_electrified_diskgraph == r.bound_ibundle_pieces + 1


def test_genus_bounds_validation():
    with pytest.raises(ValueError, match="genus"):
        genus_bounds(1)
    with pytest.raises(ValueError, match="integer"):
        genus_bounds(True)
    with pytest.raises(ValueError, match="punctures"):
        genus_bounds(2, p=-1)
