"""Top-level acceptance gate: nine criteria, one printed line each.

Each test computes its verdict first, prints a single PASS/FAIL line that
bypasses pytest capture, and only then asserts, so the printed scoreboard is
complete even on failure.
"""

import json
from itertools import combinations

import numpy as np
import pytest

import _oracles as orc
from _corpus import (
    SMALL_NAMES,
    electrified,
    family_instance,
    quasitree_setup,
    ring_instance,
    small,
    tower,
)
from gromovlab.asdimlab import cover_at_scale, genus_bounds, multiplicity_check
from gromovlab.cli import main as cli_main
from gromovlab.electrify import SubgraphFamily, de_electrify, electrify, is_efficient
from gromovlab.embedding import enlargement, qi_fit
from gromovlab.generators import cycle, farey_ball, grid, path, tree
from gromovlab.hyperbolicity import four_point_delta
from gromovlab.projections import axiom_check, project, triple_distance


def verdict(capsys, num, slug, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {num} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance criterion {num} ({slug}) failed: {detail}"


def run_cli(argv):
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


def test_criterion_1_formula_fidelity(capsys):
    expected_disk = {2: 18, 3: 48, 4: 90}
    ok = True
    details = []
    for g, disk in expected_disk.items():
        rec = genus_bounds(g)
        chi = 2 - 2 * g
        ok &= rec.bound_diskgraph == disk
        ok &= rec.bound_curvegraph == 2 * abs(chi)
        ok &= rec.bound_ibundle_pieces == abs(chi) + 2
        ok &= rec.bound_electrified_diskgraph == abs(chi) + 3
        ok &= rec.hierarchy_total == disk
        details.append(f"g={g}:{rec.bound_diskgraph}")
    code = run_cli(["bounds", "--genus", "2"])
    stdout = capsys.readouterr().out
    ok &= code == 0 and "bound_diskgraph = 18" in stdout
    verdict(capsys, 1, "formula-fidelity", ok, ", ".join(details) + ", cli ok")


def test_criterion_2_hyperbolicity_calibration(capsys):
    tree_deltas = []
    for depth, valence in ((2, 3), (3, 3), (4, 3), (6, 2), (2, 5), (5, 3)):
        t = tree(depth, valence)
        assert t.n <= 300
        tree_deltas.append(four_point_delta(t).delta)
    trees_ok = all(d == 0.0 for d in tree_deltas)
    d4 = four_point_delta(grid(4, 4)).delta
    d8 = four_point_delta(grid(8, 8)).delta
    grids_ok = d8 > d4
    farey = [four_point_delta(farey_ball(r)).delta for r in (4, 5, 6)]
    farey_ok = max(farey) - min(farey) <= 1.0
    ok = trees_ok and grids_ok and farey_ok
    verdict(
        capsys, 2, "hyperbolicity-calibration", ok,
        f"trees all 0: {trees_ok}, grid {d4}<{d8}, farey {farey}",
    )


def test_criterion_3_projection_axioms(capsys):
    g, fam = family_instance("rings-3-3-12")
    rep = axiom_check(g, fam)
    ok = (
        rep.theta_mode == "auto"
        and rep.triples_checked == 9139
        and rep.axiom2_violations == []
        and rep.R_measured <= 2
    )
    verdict(
        capsys, 3, "projection-axioms", ok,
        f"R={rep.R_measured}, {rep.triples_checked} exhaustive triples, "
        f"{len(rep.axiom2_violations)} violations",
    )


def test_criterion_4_electrification_contract(capsys):
    instances = [family_instance(n) for n in ("rings-1-1-12", "rings-2-3-12", "rings-3-3-12")]
    instances += [lv for lv in tower(3, 3, 12)[1:]]
    instances.append((cycle(9), SubgraphFamily([[0, 1, 2, 3], [3, 4, 5], [6, 7]])))
    round_trip_ok = True
    for g, fam in instances:
        base, fam_back = de_electrify(electrify(g, fam))
        round_trip_ok &= base == g and fam_back == fam

    eg = electrified(2, 3, 12)
    geodesics_ok = True
    contraction_ok = True
    for u in range(eg.graph.n):
        row_eg = eg.graph.distances_from(u)
        if u < eg.base_size:
            row_g = eg.base_graph().distances_from(u)
            contraction_ok &= bool((row_eg[: eg.base_size] <= row_g).all())
        for v in range(u + 1, eg.graph.n):
            geodesics_ok &= is_efficient(eg.graph.geodesic(u, v), eg)
    ok = round_trip_ok and geodesics_ok and contraction_ok
    verdict(
        capsys, 4, "electrification-contract", ok,
        f"{len(instances)} round trips, all geodesics efficient: {geodesics_ok}, "
        f"d_eg <= d_g: {contraction_ok}",
    )


def test_criterion_5_embedding_quality(capsys):
    fits = []
    violations = 0
    pairs = 0
    for ring_len in (12, 24, 48):
        g, fam, eg, theta, y = quasitree_setup(2, 3, ring_len)
        rep = qi_fit(eg, y, basepoint=0, pair_budget=2000, seed=11)
        fits.append(rep.L_fit)
        violations += rep.violation_count
        pairs += rep.n_pairs
    ratio = max(fits) / min(fits)
    ok = ratio <= 1.5 and violations == 0
    verdict(
        capsys, 5, "embedding-quality", ok,
        f"L_fit={fits}, ratio={ratio:.3f}, violations={violations}/{pairs}",
    )


def test_criterion_6_enlargement_length(capsys):
    g, fam = ring_instance(2, 3, 12)
    eg = electrified(2, 3, 12)
    assert g.n <= 200
    worst = None
    ok = True
    for u, v in combinations(range(g.n), 2):
        walk = eg.graph.geodesic(u, v)
        big = enlargement(eg, walk)
        slack = (len(big) - 1) - 4 * g.shortest_distance(u, v)
        worst = slack if worst is None else max(worst, slack)
        if slack > 8:
            ok = False
    verdict(
        capsys, 6, "enlargement-length", ok,
        f"max(length - 4d) = {worst} over all {g.n * (g.n - 1) // 2} pairs, allowed 8",
    )


def test_criterion_7_cover_multiplicities(capsys):
    results = []
    ok = True

    p = path(1000)
    for R in (2, 5, 10):
        cov = cover_at_scale(p, R, "interval")
        mult, _ = multiplicity_check(p, cov.blocks, R)
        ok &= mult <= 2
        results.append(f"interval R={R}:{mult}")

    g40 = grid(40, 40)
    cov = cover_at_scale(g40, 3, "brick")
    mult, _ = multiplicity_check(g40, cov.blocks, 3)
    ok &= mult <= 3
    results.append(f"brick R=3:{mult}")

    _, _, _, _, y = quasitree_setup(3, 3, 12)
    for R in (2, 4, 8):
        cov = cover_at_scale(y.graph, R, "net_voronoi")
        mult, _ = multiplicity_check(y.graph, cov.blocks, R)
        ok &= mult <= 3
        results.append(f"net R={R}:{mult}")

    verdict(capsys, 7, "cover-multiplicities", ok, ", ".join(results))


def test_criterion_8_determinism(tmp_path, capsys):
    def stage_files(tag):
        base = tmp_path / tag
        base.mkdir()
        out = base / "tor"
        run_cli(["gen", "tree-of-rings", "--depth", "2", "--valence", "3",
                 "--ring-len", "12", "--out", str(out)])
        graph = str(out) + ".graph.json"
        family = str(out) + ".family.json"
        run_cli(["electrify", graph, family, "--out", str(base / "e")])
        run_cli(["delta", graph, "--out", str(base / "d")])
        run_cli(["axioms", graph, family, "--out", str(base / "a")])
        run_cli(["quasitree", graph, family, "--out", str(base / "y")])
        run_cli(["cover", graph, "--scale", "2", "--out", str(base / "c")])
        run_cli(["profile", graph, "--scales", "2,4", "--out", str(base / "p")])
        names = ["tor.graph.json", "tor.family.json", "e.eg.json", "d.delta.json",
                 "a.axioms.json", "y.y.json", "c.cover.json", "p.profile.json"]
        return base, names

    base1, names = stage_files("run1")
    base2, _ = stage_files("run2")
    capsys.readouterr()
    ok = True
    for name in names:
        one = json.loads((base1 / name).read_text(encoding="utf-8"))
        two = json.loads((base2 / name).read_text(encoding="utf-8"))
        ok &= json.dumps(one["data"], sort_keys=True) == json.dumps(two["data"], sort_keys=True)
        for obj in (one, two):
            obj["manifest"].pop("wall_time_s")
            # path-valued parameters differ between the two runs by design;
            # the payload hashes in inputs_sha256 must not
            for key in ("out", "graph", "family"):
                obj["manifest"]["params"].pop(key, None)
        ok &= one == two
    csv_same = (base1 / "p.profile.csv").read_bytes() == (base2 / "p.profile.csv").read_bytes()
    ok &= csv_same
    verdict(
        capsys, 8, "determinism", ok,
        f"{len(names)} artifacts byte-identical modulo manifest wall time, csv identical: {csv_same}",
    )


def test_criterion_9_oracle_equivalence(capsys):
    distance_ok = True
    delta_ok = True
    for name in SMALL_NAMES:
        g = small(name)
        assert g.n <= 300
        D = orc.distance_matrix(g)
        distance_ok &= bool(np.array_equal(g.distance_matrix(), D))
        delta_ok &= four_point_delta(g).delta == orc.delta_oracle(D)

    projection_ok = True
    triple_ok = True
    for name in ("rings-1-1-12", "rings-2-3-12"):
        g, fam = family_instance(name)
        D = orc.distance_matrix(g)
        members = fam.members
        for member in members:
            for x in range(g.n):
                projection_ok &= project(g, member, x) == orc.projection_oracle(D, member, x)
        for a, b, c in combinations(range(len(members)), 3):
            triple_ok &= triple_distance(g, fam, a, b, c) == orc.triple_oracle(D, members, a, b, c)
    # a second, non-ring family exercises the same oracles on overlap
    gp = path(30)
    famp = SubgraphFamily([range(0, 12), range(8, 20), range(16, 28)])
    Dp = orc.distance_matrix(gp)
    for a, b, c in combinations(range(3), 3):
        triple_ok &= triple_distance(gp, famp, a, b, c) == orc.triple_oracle(Dp, famp.members, a, b, c)

    ok = distance_ok and delta_ok and projection_ok and triple_ok
    verdict(
        capsys, 9, "oracle-equivalence", ok,
        f"{len(SMALL_NAMES)} graphs: distances {distance_ok}, delta {delta_ok}, "
        f"projections {projection_ok}, triples {triple_ok}",
    )
