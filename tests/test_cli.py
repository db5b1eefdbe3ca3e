"""Command-line entry point: artifacts, exit codes, summaries, determinism."""

import json

import pytest

from gromovlab import projections
from gromovlab.cli import main
from gromovlab.electrify import load_eg
from gromovlab.generators import tree_of_rings
from gromovlab.graphs import load_graph
from gromovlab.quasitree import load_quasitree


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def masked(obj, drop_params=("out",)):
    out = json.loads(json.dumps(obj))
    out["manifest"].pop("wall_time_s")
    for p in drop_params:
        out["manifest"]["params"].pop(p, None)
    return out


@pytest.fixture
def rings(tmp_path):
    """Graph and family JSON for the standard small ring tree."""
    out = tmp_path / "tor"
    assert run(["gen", "tree-of-rings", "--depth", "2", "--valence", "3",
                "--ring-len", "12", "--out", str(out)]) == 0
    return str(out) + ".graph.json", str(out) + ".family.json"


def test_gen_writes_wrapped_loadable_artifacts(tmp_path, capsys):
    out = tmp_path / "t"
    assert run(["gen", "tree-of-rings", "--depth", "2", "--valence", "3",
                "--ring-len", "12", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "tree-of-rings: 133 vertices, 144 edges, 12 family members" in stdout
    g = load_graph(str(out) + ".graph.json")
    expect, fam = tree_of_rings(2, 3, 12)
    assert g == expect
    obj = read(tmp_path / "t.graph.json")
    assert obj["manifest"]["command"] == "gen"
    assert obj["manifest"]["params"]["kind"] == "tree-of-rings"
    assert "wall_time_s" in obj["manifest"]
    assert "version" in obj["manifest"]


def test_gen_dot_output(tmp_path):
    out = tmp_path / "c"
    assert run(["gen", "cycle", "--n", "6", "--out", str(out), "--dot"]) == 0
    dot = (tmp_path / "c.dot").read_text(encoding="utf-8")
    assert "0 -- 1" in dot


def test_gen_tower_writes_every_level(tmp_path, capsys):
    out = tmp_path / "tw"
    assert run(["gen", "tower", "--levels", "2", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "level 1: 13 vertices" in stdout
    assert "level 2: 133 vertices" in stdout
    assert "tower audit: ok" in stdout
    for name in ("tw.level1.graph.json", "tw.level1.family.json",
                 "tw.level2.graph.json", "tw.level2.family.json"):
        assert (tmp_path / name).exists()
    assert load_graph(tmp_path / "tw.level2.graph.json").n == 133


def test_delta_summary_and_artifact(tmp_path, capsys):
    out = tmp_path / "c"
    run(["gen", "cycle", "--n", "8", "--out", str(out)])
    capsys.readouterr()
    assert run(["delta", str(out) + ".graph.json", "--out", str(tmp_path / "d")]) == 0
    stdout = capsys.readouterr().out
    assert "delta = 2.0 (exact, 8 vertices, witness (0, 2, 4, 6))" in stdout
    obj = read(tmp_path / "d.delta.json")
    assert obj["data"]["delta"] == 2.0
    assert obj["manifest"]["command"] == "delta"
    assert obj["manifest"]["inputs_sha256"]["graph"]


def test_usage_errors_exit_64(tmp_path):
    assert run(["delta", "foo.json", "--bogus"]) == 64
    assert run(["frobnicate"]) == 64
    assert run([]) == 64


def test_validation_errors_exit_2(tmp_path):
    assert run(["gen", "cycle", "--n", "2", "--out", str(tmp_path / "x")]) == 2
    assert run(["delta", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}', encoding="utf-8")
    assert run(["delta", str(bad)]) == 2


MISTYPED = [
    ("delta", "graph", {"n": 5, "edges": 3}),
    ("delta", "graph", {"n": 5, "edges": [1, 2]}),
    ("delta", "graph", {"n": 2, "edges": [[0, 1]], "labels": [1]}),
    ("axioms", "family", {"peripherals": 5}),
    ("axioms", "family", {"peripherals": [[0, [1]]]}),
    ("axioms", "family", {"peripherals": [[0, 1.5]]}),
    ("report", "artifact", {"manifest": [1], "data": {}}),
]


@pytest.mark.parametrize("command,kind,payload", MISTYPED)
def test_mistyped_artifacts_exit_2_without_traceback(rings, tmp_path, capsys, command, kind, payload):
    graph, family = rings
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    inputs = [graph, str(bad)] if kind == "family" else [str(bad)]
    capsys.readouterr()
    assert run([command, *inputs, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["axioms", "quasitree", "embed"])
def test_a_non_finite_theta_exits_2(rings, tmp_path, capsys, command, theta):
    graph, family = rings
    out = tmp_path / "x"
    assert run([command, graph, family, f"--theta={theta}", "--out", str(out)]) == 2
    assert "finite positive" in capsys.readouterr().err
    assert list(tmp_path.glob("x.*")) == []


@pytest.mark.parametrize("command,extra", [("cover", ["--scale", "2"]), ("profile", ["--scales", "2"])])
def test_a_zero_brick_width_exits_2(tmp_path, capsys, command, extra):
    out = tmp_path / "g"
    assert run(["gen", "grid", "--width", "6", "--height", "6", "--out", str(out)]) == 0
    graph = str(out) + ".graph.json"
    argv = [command, graph, *extra, "--strategy", "brick", "--out", str(tmp_path / "c")]
    assert run(argv) == 0
    capsys.readouterr()
    assert run([*argv, "--width", "0"]) == 2
    assert "width must be >= 1" in capsys.readouterr().err


def test_size_guard_exits_3(tmp_path):
    out = tmp_path / "p"
    run(["gen", "path", "--n", "400", "--out", str(out)])
    assert run(["delta", str(out) + ".graph.json", "--mode", "exact"]) == 3
    assert run(["delta", str(out) + ".graph.json", "--mode", "sampled",
                "--samples", "200", "--seed", "1"]) == 0


@pytest.mark.parametrize("command", ["quasitree", "embed"])
def test_quasitree_and_embed_label_each_member_once(tmp_path, monkeypatch, command):
    calls = []
    original = projections.nearest_points

    def counted(g, H):
        calls.append(tuple(H))
        return original(g, H)

    monkeypatch.setattr(projections, "nearest_points", counted)
    out = str(tmp_path / "r")
    assert run(["gen", "tree-of-rings", "--depth", "3", "--valence", "3",
                "--ring-len", "12", "--out", out]) == 0
    argv = [command, out + ".graph.json", out + ".family.json", "--out", out]
    assert run(argv + (["--pairs", "50"] if command == "embed" else [])) == 0
    _, fam = tree_of_rings(3, 3, 12)
    assert sorted(calls) == sorted(fam.members)


def test_electrify_and_downstream_stages(rings, tmp_path, capsys):
    graph, family = rings
    capsys.readouterr()

    assert run(["electrify", graph, family, "--out", str(tmp_path / "e")]) == 0
    assert "electrified: 133 base + 12 cone vertices, 288 edges" in capsys.readouterr().out
    eg = load_eg(str(tmp_path / "e") + ".eg.json")
    assert eg.graph.n == 145

    assert run(["axioms", graph, family, "--out", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert "R_measured = 0" in out
    assert "theta = 3.0 (auto)" in out
    assert "axiom-2 violations = 0 over 220 exhaustive triples" in out
    a_obj = read(tmp_path / "a.axioms.json")
    assert a_obj["data"]["R_measured"] == 0

    assert run(["quasitree", graph, family, "--out", str(tmp_path / "y")]) == 0
    out = capsys.readouterr().out
    assert "quasi-tree: 144 vertices, 165 edges, 21 cross edges at theta = 3.0" in out
    assert "rule diff: 0 projection-only, 0 widepoint-only" in out
    y = load_quasitree(str(tmp_path / "y") + ".y.json")
    assert y.graph.n == 144

    assert run(["embed", graph, family, "--out", str(tmp_path / "m")]) == 0
    out = capsys.readouterr().out
    assert "embedding: L_fit = 2.5, C_fit = 2.5, violations = 0/1984" in out
    m_obj = read(tmp_path / "m.embed.json")
    assert m_obj["data"]["violation_count"] == 0

    assert run(["enlarge", graph, family, "--from", "0", "--to", "50",
                "--out", str(tmp_path / "w")]) == 0
    out = capsys.readouterr().out
    assert "enlargement 0 -> 50:" in out
    w_obj = read(tmp_path / "w.enlarge.json")["data"]
    assert w_obj["enlarged_length"] <= 4 * w_obj["base_distance"] + 8
    assert w_obj["electrified_walk"][0] == 0
    assert w_obj["enlarged_walk"][-1] == 50

    assert run(["penetration", graph, family, "--out", str(tmp_path / "pen")]) == 0
    assert "penetration: p_estimate = 0" in capsys.readouterr().out

    assert run(["cover", graph, "--scale", "2", "--strategy", "net_voronoi",
                "--out", str(tmp_path / "cov")]) == 0
    assert "multiplicity =" in capsys.readouterr().out
    c_obj = read(tmp_path / "cov.cover.json")["data"]
    assert c_obj["R"] == 2

    assert run(["profile", str(tmp_path / "tor.graph.json"), "--scales", "2,4",
                "--strategy", "net_voronoi", "--out", str(tmp_path / "pr")]) == 0
    out = capsys.readouterr().out
    assert "R = 2:" in out and "R = 4:" in out
    csv = (tmp_path / "pr.profile.csv").read_text(encoding="utf-8")
    assert csv.startswith("R,D,multiplicity,strategy\n")
    assert read(tmp_path / "pr.profile.json")["manifest"]["command"] == "profile"


def test_bounds_prints_every_field(tmp_path, capsys):
    assert run(["bounds", "--genus", "2"]) == 0
    out = capsys.readouterr().out
    assert "bound_diskgraph = 18" in out
    assert "chi = -2" in out
    assert "hierarchy_total = 18" in out
    assert run(["bounds", "--genus", "1"]) == 2


def test_report_bundles_artifacts(rings, tmp_path, capsys):
    graph, family = rings
    run(["delta", graph, "--out", str(tmp_path / "d")])
    run(["axioms", graph, family, "--out", str(tmp_path / "a")])
    capsys.readouterr()
    assert run(["report", str(tmp_path / "d.delta.json"), str(tmp_path / "a.axioms.json"),
                "--out", str(tmp_path / "report.md")]) == 0
    text = (tmp_path / "report.md").read_text(encoding="utf-8")
    assert "| artifact | command | summary |" in text
    assert "d.delta.json | delta |" in text
    assert "a.axioms.json | axioms |" in text
    # an unwrapped file is refused
    loose = tmp_path / "loose.json"
    loose.write_text("{}", encoding="utf-8")
    assert run(["report", str(loose), "--out", str(tmp_path / "r2.md")]) == 2


def test_reruns_are_byte_identical_after_masking_wall_time(rings, tmp_path):
    graph, family = rings
    for i in (1, 2):
        run(["delta", graph, "--out", str(tmp_path / f"d{i}")])
        run(["axioms", graph, family, "--out", str(tmp_path / f"a{i}")])
        run(["cover", graph, "--scale", "2", "--out", str(tmp_path / f"c{i}")])
        run(["profile", graph, "--scales", "2,4", "--out", str(tmp_path / f"p{i}")])
    for prefix, suffix in (("d", ".delta.json"), ("a", ".axioms.json"),
                           ("c", ".cover.json"), ("p", ".profile.json")):
        one = read(tmp_path / f"{prefix}1{suffix}")
        two = read(tmp_path / f"{prefix}2{suffix}")
        assert json.dumps(one["data"], sort_keys=True) == json.dumps(two["data"], sort_keys=True)
        assert masked(one) == masked(two)
    csv1 = (tmp_path / "p1.profile.csv").read_bytes()
    csv2 = (tmp_path / "p2.profile.csv").read_bytes()
    assert csv1 == csv2


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.startswith("gromovlab ")
