"""Covers at scale, multiplicity verification, profiles, and genus bounds."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as orc
from _corpus import connected_graphs, quasitree_setup, small
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
from gromovlab.generators import farey_ball, grid, path, tree
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


def test_net_voronoi_cover_structure():
    g = small("grid-8-8")
    for R in (1, 2, 4):
        cov = cover_at_scale(g, R, "net_voronoi")
        blocks_partition(g, cov)
        assert cov.D <= 8 * R or len(cov.blocks) == 1
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
