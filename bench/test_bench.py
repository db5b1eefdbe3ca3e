"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gromovlab  # noqa: E402
from gromovlab import cli, embedding, hyperbolicity  # noqa: E402
from tracer import EXACT_COUNTERS, SELF_TIME, Tracer  # noqa: E402
from workloads import CheckFailed, check_witness  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def test_install_rebinds_every_import_and_uninstall_restores():
    original = hyperbolicity.four_point_delta
    t = Tracer().install()
    try:
        wrapped = hyperbolicity.four_point_delta
        assert wrapped is not original
        assert cli.four_point_delta is wrapped
        assert embedding.four_point_delta is wrapped
        assert gromovlab.four_point_delta is wrapped
    finally:
        t.uninstall()
    assert hyperbolicity.four_point_delta is original
    assert cli.four_point_delta is original
    assert "distances_from" in gromovlab.MetricGraph.__dict__
    assert not hasattr(gromovlab.MetricGraph.distances_from, "__wrapped__")


def test_fold_self_times_and_counts(tracer):
    g = gromovlab.cycle(8)
    rep = gromovlab.four_point_delta(g)
    assert rep.delta == 2.0
    out = tracer.fold()
    assert out["hyperbolicity.quadruples"] == comb(8, 4)
    assert out["graphs.distances_from_calls"] == 8
    assert out["graphs.rows_distinct"] == 8
    assert out["graphs.row_bytes_computed"] == 8 * 8 * 4
    assert out["graphs.graphs_built"] == 1

    cols = tracer.arrays()
    dur = cols["end"] - cols["start"]
    names = [tracer.names[i] for i in cols["name"]]
    top = names.index("hyperbolicity.four_point_delta")
    assert cols["parent"][top] == -1
    children = [i for i, p in enumerate(cols["parent"]) if p == top]
    assert [names[i] for i in children] == ["graphs.MetricGraph.distance_matrix"]
    expected_self = dur[top] - dur[children].sum()
    assert out["hyperbolicity.four_point_delta_s"] == pytest.approx(expected_self)
    total_self = sum(out[k] for k in SELF_TIME)
    assert total_self == pytest.approx(dur[cols["parent"] == -1].sum())


def test_row_counter_sees_repeated_rows_as_hits(tracer):
    g = gromovlab.path(5)
    g.distances_from(0)
    g.distances_from(0)
    g.shortest_distance(0, 3)
    h = gromovlab.path(5)  # equal graph, distinct object: its own rows
    h.distances_from(0)
    out = tracer.fold()
    assert out["graphs.distances_from_calls"] == 4
    assert out["graphs.rows_distinct"] == 2
    assert out["graphs.row_hit_ratio"] == pytest.approx(0.5)


def test_witness_check_is_strict():
    g = gromovlab.cycle(8)
    check_witness(g.n, g.edges, 2.0, (0, 2, 4, 6))
    with pytest.raises(CheckFailed):
        check_witness(g.n, g.edges, 2.0, (0, 1, 2, 3))
    with pytest.raises(CheckFailed):
        check_witness(g.n, g.edges, 0.0, (0, 1, 2, 2))


def traced_counters(workload, tmp_path, tag):
    workdir = tmp_path / tag
    workdir.mkdir()
    record = tmp_path / f"{tag}.json"
    subprocess.run(
        [sys.executable, str(HERE / "repeat.py"), "--workload", workload, "--seed", "5",
         "--workdir", str(workdir), "--record", str(record), "--trace"],
        check=True, timeout=170,
    )
    rec = json.loads(record.read_text())
    assert all(op["ok"] for op in rec["ops"]), rec["ops"]
    return {k: rec["layers"][k] for k in EXACT_COUNTERS}


@pytest.mark.parametrize("workload", ["rings-chain", "farey"])
def test_exact_counters_repeat_between_traced_runs(workload, tmp_path):
    first = traced_counters(workload, tmp_path, "a")
    assert first == traced_counters(workload, tmp_path, "b")
    assert first["hyperbolicity.quadruples"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
