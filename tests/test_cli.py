"""Command-line entry point: artifacts, exit codes, summaries, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gromovlab
from gromovlab import cli, generators, graphs, projections
from gromovlab.cli import main
from gromovlab.electrify import eg_to_obj, electrify, family_to_obj, load_eg
from gromovlab.generators import tree_of_rings
from gromovlab.graphs import dump_json, graph_to_dot, graph_to_obj, load_graph
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


def test_artifacts_are_written_in_the_digest_encoding(rings, tmp_path):
    # the streamed file is byte for byte dump_json of its wrapper, manifest included
    graph, family = rings
    assert run(["embed", graph, family, "--pairs", "50", "--out", str(tmp_path / "e")]) == 0
    text = (tmp_path / "e.embed.json").read_text(encoding="utf-8")
    assert text == dump_json(json.loads(text))


def test_usage_errors_exit_64(tmp_path):
    assert run(["delta", "foo.json", "--bogus"]) == 64
    assert run(["frobnicate"]) == 64
    assert run([]) == 64


def test_validation_errors_exit_2(tmp_path):
    assert run(["gen", "cycle", "--n", "2", "--out", str(tmp_path / "x")]) == 2
    for flag in (["--valence", "0"], ["--depth", "-3"]):
        assert run(["gen", "tower", "--levels", "2", *flag, "--out", str(tmp_path / "x")]) == 2
    assert run(["delta", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}', encoding="utf-8")
    assert run(["delta", str(bad)]) == 2


def test_a_bad_sample_count_exits_2_in_exact_mode(tmp_path, capsys):
    out = tmp_path / "c"
    assert run(["gen", "cycle", "--n", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["delta", str(out) + ".graph.json", "--samples", "0"]) == 2
    assert "samples must be >= 1, got 0" in capsys.readouterr().err


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


NOT_INT = st.one_of(
    st.text(max_size=3), st.floats(), st.booleans(), st.none(),
    st.lists(st.integers(0, 3), max_size=2), st.just({}),
)
NOT_LIST = st.one_of(
    st.integers(-2, 5), st.text(max_size=3), st.floats(), st.booleans(), st.none(), st.just({}),
)
NOT_DICT = st.one_of(st.lists(st.integers(0, 3), max_size=2), st.integers(-2, 5), st.text(max_size=3))
# typed slots of each format: an int, a dict, or a list of integer lists
SLOTS = {
    "graph": [(("n",), "int"), (("labels",), "dict"), (("edges",), "lists")],
    "family": [(("peripherals",), "lists")],
    "eg": [(("base_size",), "int"), (("cones",), "lists"),
           (("graph", "n"), "int"), (("graph", "edges"), "lists")],
}


def _mistype(data, obj, kind):
    """A copy of ``obj`` with one typed slot holding a value of the wrong type."""
    obj = json.loads(json.dumps(obj))
    path, slot = data.draw(st.sampled_from(SLOTS[kind]))
    holder = obj
    for key in path[:-1]:
        holder = holder[key]
    key = path[-1]
    if slot == "int":
        holder[key] = data.draw(NOT_INT)
    elif slot == "dict":
        holder[key] = data.draw(NOT_DICT)
    else:
        depth = data.draw(st.integers(0, 2))  # the list, one of its lists, or one entry
        if depth:
            holder = holder[key]
            key = data.draw(st.integers(0, len(holder) - 1))
        if depth == 2:
            holder = holder[key]
            key = data.draw(st.integers(0, len(holder) - 1))
        holder[key] = data.draw(NOT_INT if depth == 2 else NOT_LIST)
    return obj


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory with the valid graph and family of the smallest ring tree."""
    root = tmp_path_factory.mktemp("fuzz")
    g, fam = tree_of_rings(1, 1, 12)
    objs = {"graph": graph_to_obj(g), "family": family_to_obj(fam), "eg": eg_to_obj(electrify(g, fam))}
    for kind in ("graph", "family"):
        (root / f"{kind}.json").write_text(json.dumps(objs[kind]), encoding="utf-8")
    return root, objs


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_truncated_and_mistyped_inputs_exit_2_without_traceback(fuzz_dir, data):
    root, objs = fuzz_dir
    kind = data.draw(st.sampled_from(["graph", "family", "eg"]))
    obj = objs[kind]
    if data.draw(st.booleans()):  # loaders also accept the artifact wrapper
        obj = {"manifest": {"command": kind}, "data": obj}
    mode = data.draw(st.sampled_from(["truncated", "mistyped", "top-level"]))
    if mode == "truncated":
        text = json.dumps(obj)
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    elif mode == "mistyped":
        if "manifest" in obj:
            obj = dict(obj, data=_mistype(data, obj["data"], kind))
        else:
            obj = _mistype(data, obj, kind)
        text = json.dumps(obj)
    else:
        depth = data.draw(st.sampled_from([1, 2, 100_000]))
        text = "[" * depth + "]" * depth
    bad = root / "bad.json"
    bad.write_text(text, encoding="utf-8")
    graph, family = str(root / "graph.json"), str(root / "family.json")
    if kind == "family":
        commands = [["axioms", graph, str(bad)], ["penetration", graph, str(bad)]]
    else:  # an electrified graph is no graph either
        commands = [["delta", str(bad)], ["axioms", str(bad), family], ["penetration", str(bad), family]]
    if mode != "mistyped":  # the report reads only the wrapper
        commands.append(["report", str(bad)])
    if kind == "eg":
        with pytest.raises(ValueError):
            load_eg(bad)
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run([*argv, "--out", str(root / "x")]) == 2, argv
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue(), argv
    assert not list(root.glob("x*"))


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["axioms", "quasitree", "embed"])
def test_a_non_finite_theta_exits_2(rings, tmp_path, capsys, command, theta):
    graph, family = rings
    out = tmp_path / "x"
    assert run([command, graph, family, f"--theta={theta}", "--out", str(out)]) == 2
    assert "finite positive" in capsys.readouterr().err
    assert list(tmp_path.glob("x.*")) == []


@pytest.mark.parametrize("quality", ["nan", "inf", "0.5"])
def test_a_bad_penetration_quality_exits_2(rings, tmp_path, capsys, quality):
    graph, family = rings
    out = tmp_path / "x"
    argv = ["penetration", graph, family, f"--quality={quality}", "--samples", "5"]
    assert run([*argv, "--out", str(out)]) == 2
    assert "quality L must be a finite positive number >= 1" in capsys.readouterr().err
    assert list(tmp_path.glob("x.*")) == []


def test_the_axiom_audit_takes_no_budget_and_ignores_its_seed(rings, tmp_path):
    graph, family = rings
    budget = ["--triple-budget", "10"]
    assert run(["axioms", graph, family, *budget, "--out", str(tmp_path / "b")]) == 64
    for seed in ("0", "5"):
        assert run(["axioms", graph, family, "--seed", seed, "--out", str(tmp_path / seed)]) == 0
    zero, five = read(tmp_path / "0.axioms.json"), read(tmp_path / "5.axioms.json")
    assert zero["manifest"]["seeds"] == five["manifest"]["seeds"] == {}
    assert zero["data"] == five["data"]


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
    # farey_ball(9) is over the far-apart pair cap, cycle(4097), one block, over the vertex cap
    farey, ring = tmp_path / "f", tmp_path / "c"
    assert run(["gen", "farey", "--radius", "9", "--out", str(farey)]) == 0
    assert run(["gen", "cycle", "--n", "4097", "--out", str(ring)]) == 0
    assert run(["delta", str(farey) + ".graph.json", "--mode", "exact"]) == 3
    assert run(["delta", str(ring) + ".graph.json", "--mode", "exact"]) == 3
    assert run(["delta", str(farey) + ".graph.json", "--mode", "sampled",
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


@pytest.mark.parametrize(
    "command,extra",
    [("embed", ["--pairs", "50"]), ("enlarge", ["--from", "0", "--to", "132"]), ("penetration", [])],
)
def test_electrified_commands_build_the_base_graph_once(rings, tmp_path, monkeypatch, command, extra):
    # the base graph is the loaded one: electrify keeps it, nothing rebuilds it
    sizes = []
    original = graphs.MetricGraph.__init__

    def counted(self, n, edges, labels=None):
        sizes.append(n)
        original(self, n, edges, labels)

    monkeypatch.setattr(graphs.MetricGraph, "__init__", counted)
    graph, family = rings
    assert run([command, graph, family, *extra, "--out", str(tmp_path / "x")]) == 0
    assert sizes.count(133) == 1


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


def test_one_parser_per_process_leaks_no_arguments_between_calls(rings, tmp_path):
    # main() reuses one parser: each artifact of a run in this process must
    # equal that of the same command in a fresh process
    graph, family = rings
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gromovlab.__file__)))
    runs = [
        (["quasitree", graph, family, "--rule", "widepoint", "--no-diff"], ".y.json"),
        (["quasitree", graph, family], ".y.json"),
        (["delta", graph, "--mode", "sampled", "--samples", "200", "--seed", "3"], ".delta.json"),
        (["delta", graph], ".delta.json"),
    ]
    for i, (argv, suffix) in enumerate(runs):
        warm, fresh = tmp_path / f"warm{i}", tmp_path / f"fresh{i}"
        assert run(argv + ["--out", str(warm)]) == 0
        subprocess.run([sys.executable, "-m", "gromovlab.cli", *argv, "--out", str(fresh)],
                       env=env, check=True, capture_output=True)
        assert masked(read(tmp_path / f"warm{i}{suffix}")) == masked(read(tmp_path / f"fresh{i}{suffix}"))


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.startswith("gromovlab ")


# Every subcommand's artifacts on tree_of_rings(2, 3, 12): per artifact, the
# first 16 hex digits of the sha256 of its data payload (of the whole file
# for CSV, DOT and markdown), and per command the inputs its manifest hashes
# and the seeds it records.  ``{graph}`` and ``{family}`` name the inputs.
GF = ["family", "graph"]
PINNED = {
    "gen": (
        ["gen", "tree-of-rings", "--depth", "2", "--valence", "3", "--ring-len", "12", "--dot"],
        {".graph.json": "115839264e3f73cf", ".family.json": "2ed7f1a9f716d24a",
         ".dot": "f40c04d01a98a265"},
        [], {},
    ),
    "gen-tower": (
        ["gen", "tower", "--levels", "2"],
        {".level1.graph.json": "cb24e20be508fe43", ".level1.family.json": "6b02cc9f57394fa6",
         ".level2.graph.json": "115839264e3f73cf", ".level2.family.json": "2ed7f1a9f716d24a"},
        [], {},
    ),
    "electrify": (["electrify", "{graph}", "{family}"], {".eg.json": "a49a45155043ebfb"}, GF, {}),
    "delta-exact": (["delta", "{graph}"], {".delta.json": "2ce91cdc8fe75451"}, ["graph"], {}),
    "delta-sampled": (
        ["delta", "{graph}", "--mode", "sampled", "--samples", "200", "--seed", "3"],
        {".delta.json": "b7b500071b1237ae"}, ["graph"], {"seed": 3},
    ),
    "axioms": (
        ["axioms", "{graph}", "{family}", "--seed", "7"],
        {".axioms.json": "fa0c45e464488f9a"}, GF, {},
    ),
    "quasitree": (["quasitree", "{graph}", "{family}"], {".y.json": "bdef31eead7c5835"}, GF, {}),
    "embed": (
        ["embed", "{graph}", "{family}", "--pairs", "200"], {".embed.json": "67da613123f7ed33"},
        GF, {"seed": 11},
    ),
    "enlarge": (
        ["enlarge", "{graph}", "{family}", "--from", "0", "--to", "50"],
        {".enlarge.json": "eb7aca8dc02e1290"}, GF, {},
    ),
    "penetration": (
        ["penetration", "{graph}", "{family}", "--samples", "10"],
        {".penetration.json": "48f317d95d603a98"}, GF, {"seed": 0},
    ),
    "cover": (
        ["cover", "{graph}", "--scale", "2"], {".cover.json": "ab6d8325ecc02b45"}, ["graph"], {},
    ),
    "profile": (
        ["profile", "{graph}", "--scales", "2,4"],
        {".profile.csv": "2dfda21e05c9b1af", ".profile.json": "b6302d78ff5caef5"}, ["graph"], {},
    ),
    "bounds": (["bounds", "--genus", "2"], {".bounds.json": "2f90c6948f9a49ba"}, [], {}),
    "report": (["report", "{graph}", "{family}"], {".md": "e1da00063b0d62c1"}, [], {}),
}


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    assert run(["gen", "tree-of-rings", "--depth", "2", "--valence", "3",
                "--ring-len", "12", "--out", str(root / "tor")]) == 0
    return root


@pytest.mark.parametrize("case", PINNED)
def test_every_command_writes_its_pinned_artifacts(pinned_inputs, tmp_path, capsys, case):
    argv, digests, inputs, seeds = PINNED[case]
    graph, family = pinned_inputs / "tor.graph.json", pinned_inputs / "tor.family.json"
    out = str(tmp_path / "x")
    argv = [arg.format(graph=graph, family=family) for arg in argv]
    assert run([*argv, "--out", out + ".md" if case == "report" else out]) == 0
    capsys.readouterr()
    for suffix, digest in digests.items():
        raw = (tmp_path / f"x{suffix}").read_bytes()
        if suffix.endswith(".json"):
            obj = json.loads(raw)
            assert sorted(obj) == ["data", "manifest"]
            manifest = obj["manifest"]
            assert sorted(manifest) == [
                "command", "inputs_sha256", "params", "seeds", "version", "wall_time_s"
            ]
            assert manifest["command"] == argv[0]
            assert sorted(manifest["inputs_sha256"]) == inputs
            assert manifest["seeds"] == seeds
            raw = dump_json(obj["data"]).encode("utf-8")
        assert hashlib.sha256(raw).hexdigest()[:16] == digest, suffix


# ------------------------------------------------------------ the gen surface

# kind, its flags, the manifest params they give, and the library call they
# stand for; the tower's other flags keep their defaults
GEN_KINDS = [
    ("tree", ["--depth", "2", "--valence", "3"], {"depth": 2, "valence": 3},
     lambda: generators.tree(2, 3)),
    ("cycle", ["--n", "6"], {"n": 6}, lambda: generators.cycle(6)),
    ("path", ["--n", "5"], {"n": 5}, lambda: generators.path(5)),
    ("grid", ["--width", "3", "--height", "2"], {"width": 3, "height": 2},
     lambda: generators.grid(3, 2)),
    ("tree-of-rings", ["--depth", "1", "--valence", "2", "--ring-len", "4"],
     {"depth": 1, "valence": 2, "ring_len": 4}, lambda: generators.tree_of_rings(1, 2, 4)),
    ("farey", ["--radius", "2"], {"radius": 2}, lambda: generators.farey_ball(2)),
    ("tower", ["--levels", "2"], {"levels": 2, "valence": 3, "ring_len": 12, "depth": 2},
     lambda: generators.hierarchy_tower(2, 3, 12, 2)),
]


@pytest.mark.parametrize("kind,argv,params,build", GEN_KINDS, ids=[case[0] for case in GEN_KINDS])
def test_every_generator_writes_its_library_output_and_one_dot_per_graph(
    tmp_path, capsys, kind, argv, params, build
):
    out = str(tmp_path / "g")
    assert run(["gen", kind, *argv, "--dot", "--out", out]) == 0
    capsys.readouterr()
    made = build()
    if kind == "tower":
        levels = [(f".level{i}", g, fam) for i, (g, fam) in enumerate(made, start=1)]
    else:
        g, fam = made if isinstance(made, tuple) else (made, None)
        levels = [("", g, fam)]
    expect_files = set()
    for stem, g, fam in levels:
        payloads = [(".graph.json", graph_to_obj(g))]
        if fam is not None:
            payloads.append((".family.json", family_to_obj(fam)))
        for suffix, data in payloads:
            obj = read(tmp_path / f"g{stem}{suffix}")
            assert obj["data"] == data
            assert obj["manifest"]["params"] == {
                "command": "gen", "kind": kind, **params, "out": out, "dot": True,
            }
            expect_files.add(f"g{stem}{suffix}")
        assert (tmp_path / f"g{stem}.dot").read_text(encoding="utf-8") == graph_to_dot(g)
        expect_files.add(f"g{stem}.dot")
    assert set(os.listdir(tmp_path)) == expect_files


GEN_USAGE = {
    "tree": "usage: gromovlab gen tree [-h] --depth DEPTH --valence VALENCE --out OUT [--dot]\n",
    "cycle": "usage: gromovlab gen cycle [-h] --n N --out OUT [--dot]\n",
    "path": "usage: gromovlab gen path [-h] --n N --out OUT [--dot]\n",
    "grid": "usage: gromovlab gen grid [-h] --width WIDTH --height HEIGHT --out OUT [--dot]\n",
    "tree-of-rings": "usage: gromovlab gen tree-of-rings [-h] --depth DEPTH --valence VALENCE "
                     "--ring-len RING_LEN --out OUT [--dot]\n",
    "farey": "usage: gromovlab gen farey [-h] --radius RADIUS --out OUT [--dot]\n",
    "tower": "usage: gromovlab gen tower [-h] --levels LEVELS [--valence VALENCE] "
             "[--ring-len RING_LEN] [--depth DEPTH] --out OUT [--dot]\n",
}
GEN_HELP = {
    "tree": "rooted tree with the given vertex degree",
    "cycle": "cycle graph",
    "path": "path graph",
    "grid": "w x h grid graph",
    "tree-of-rings": "tree with every edge subdivided through a ring",
    "farey": "ball in the Farey graph around 0/1",
    "tower": "chain of graphs linked by electrification",
}


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_gen_usage_lines_and_help_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps usage at the terminal width
    kinds = _subcommands(_subcommands(cli._build_parser()).choices["gen"])
    assert list(kinds.choices) == list(GEN_USAGE)
    assert {kind: q.format_usage() for kind, q in kinds.choices.items()} == GEN_USAGE
    assert {action.dest: action.help for action in kinds._choices_actions} == GEN_HELP


def test_gen_looks_its_generator_up_at_call_time(tmp_path, monkeypatch):
    # a tracer that rebinds generators.cycle must see the command's call
    calls = []
    original = generators.cycle

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(generators, "cycle", counting)
    assert run(["gen", "cycle", "--n", "5", "--out", str(tmp_path / "c")]) == 0
    assert calls == [5]


def test_report_summarizes_the_first_eight_sorted_fields(tmp_path, capsys):
    assert run(["bounds", "--genus", "2", "--out", str(tmp_path / "b")]) == 0
    data = read(tmp_path / "b.bounds.json")["data"]
    assert len(data) == 9 and all(isinstance(v, int) for v in data.values())
    assert run(["report", str(tmp_path / "b.bounds.json"), "--out", str(tmp_path / "r.md")]) == 0
    capsys.readouterr()
    text = (tmp_path / "r.md").read_text(encoding="utf-8")
    summary = ", ".join(f"{key}={data[key]}" for key in sorted(data)[:8])
    assert f"| b.bounds.json | bounds | {summary} |" in text.splitlines()
    assert "punctures" not in text
