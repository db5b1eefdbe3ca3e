#!/usr/bin/env python3
"""gromovlab benchmark driver: run one workload for a fixed time and print
its metrics.

    python3 bench/run.py --workload rings-chain --seed 1 --seconds 40 --trace 0

A closed loop: one caller issues one operation at a time, the next only after
the previous returns.  Every repeat of the workload runs in a fresh,
single-threaded Python process (``bench/repeat.py``), started one after the
other; repeats are started while the next one is expected to end within
``--seconds``, and at least two always run.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json (medians over
the run's repeats; ``setup_s`` also over a few set-up-only processes).
``--trace 1`` alternates untraced and traced repeats and prints the per-layer
metrics, folded from the traced repeats' spans, plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(versions, machine, load, seed) and the raw repeats go to
``.bench_out/<workload>-seed<seed>-trace<t>.json``; a traced run also keeps
its spans under ``.bench_out/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the whole invocation must end within 180 s, whatever --seconds says
HARD_LIMIT_S = 165.0
SETUP_PROBES = 5
# a median needs more than one repeat, so a grid run (about 21 s a repeat)
# overruns --seconds
MIN_REPEATS = 2
# certificate times that are not end-to-end metrics: axioms_s, quasitree_s and
# embed_s exist on rings-chain only, and cover_s spreads too much from run to
# run (see README.md).  An untraced run prints them in its table; a traced run
# reports their untraced medians as the per-layer metrics e2e.<name>.
PER_LAYER_CERTS = ("axioms_s", "quasitree_s", "embed_s", "cover_s")
CLOCK = time.CLOCK_MONOTONIC


def now() -> float:
    return time.clock_gettime(CLOCK)


def read_first_line(path, prefix=""):
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.strip()
    except OSError:
        return None
    return None


def load_1min():
    line = read_first_line("/proc/loadavg")
    return float(line.split()[0]) if line else None


def git_state():
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha or None, bool(dirty)


class Runner:
    """Spawns repeat processes and keeps their records."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.start = now()
        self.deadline = self.start + seconds
        self.work = ROOT / ".bench_work"
        self.out = ROOT / ".bench_out"
        self.spans_dir = self.out / "spans" / workload
        self.errors: list[str] = []
        self.repeats: list[dict] = []  # timed repeats, traced or not
        self.setups: list[float] = []
        self.crashed = 0  # repeat processes that wrote no record

    def spawn(self, traced=False, setup_only=False):
        self.work.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=self.work))
        record_path = workdir / "record.json"
        repeat_id = len(self.repeats)
        cmd = [sys.executable, str(HERE / "repeat.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(workdir),
               "--record", str(record_path), "--repeat-id", str(repeat_id)]
        if traced:
            self.spans_dir.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace", "--spans", str(self.spans_dir / f"repeat{repeat_id}.npz")]
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        timeout = max(5.0, self.start + HARD_LIMIT_S - now())
        t0 = now()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                env=env, text=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            err = f"repeat killed after {timeout:.0f} s"
        finally:  # also on SIGTERM: never leave a repeat running
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        wall = now() - t0
        record = None
        if proc.returncode == 0 and record_path.is_file():
            record = json.loads(record_path.read_text(encoding="utf-8"))
        shutil.rmtree(workdir, ignore_errors=True)
        if record is None:
            self.crashed += 1
            self.errors.append(f"repeat process failed (exit {proc.returncode}): "
                               f"{err.strip()[-2000:]}")
            return None
        record["setup_s"] = record["setup_end"] - t0
        record["wall_s"] = wall
        record["traced"] = traced
        self.setups.append(record["setup_s"])
        if not setup_only:
            self.repeats.append(record)
        return record

    def fits(self, walls, min_repeats=0) -> bool:
        """Is the next repeat, as long as the longest in ``walls``, expected to
        end before the deadline?  Until ``min_repeats`` have run, only the
        hard limit counts."""
        deadline = self.start + HARD_LIMIT_S - 5
        if len(walls) >= min_repeats:
            deadline = min(deadline, self.deadline)
        return not walls or now() + max(walls) <= deadline

    def run(self):
        if not self.trace:
            for _ in range(SETUP_PROBES):
                if self.spawn(setup_only=True) is None:
                    return
            while self.fits([r["wall_s"] for r in self.repeats], MIN_REPEATS):
                if self.spawn() is None:
                    return
            return
        while True:  # alternate untraced and traced repeats, at least one each
            traced = len(self.repeats) % 2 == 1
            if not self.fits([r["wall_s"] for r in self.repeats if r["traced"] == traced], 1):
                break
            if self.spawn(traced=traced) is None:
                return

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def tally(runner):
    """Attempted and failed operations.  A payload that differs from the
    first repeat's fails that operation; a crashed repeat counts as one
    failed operation."""
    attempted = failed = runner.crashed
    first = {}
    errors = runner.errors
    for rep in runner.repeats:
        for op in rep["ops"]:
            attempted += 1
            ok = op["ok"]
            if ok:
                ref = first.setdefault(op["name"], op["digest"])
                if op["digest"] != ref:
                    ok = False
                    errors.append(f"{op['name']}: payload differs between repeats")
            elif op["error"]:
                errors.append(f"{op['name']}: {op['error'].strip()}")
            failed += not ok
    return attempted, failed


def cert_times(rep) -> dict:
    out = {}
    for op in rep["ops"]:
        if op["cert"]:
            out[op["cert"]] = out.get(op["cert"], 0.0) + op["seconds"]
    return out


def summarize(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def end_to_end(runner):
    reps = runner.repeats
    per = {
        "run_s": [r["run_s"] for r in reps],
        "setup_s": runner.setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    for rep in reps:
        for cert, secs in cert_times(rep).items():
            per.setdefault(cert, []).append(secs)
    return per


def per_layer(runner):
    untraced = [r for r in runner.repeats if not r["traced"]]
    traced = [r for r in runner.repeats if r["traced"]]
    if not untraced or not traced:
        return None, {}
    layers = {}
    for name in traced[0]["layers"]:
        layers[name] = [r["layers"][name] for r in traced]
    for name in EXACT_COUNTERS:
        if len(set(layers[name])) != 1:
            runner.errors.append(f"counter {name} differs between traced repeats: {layers[name]}")
    # a value that repeats exactly (every count) is kept as it is, not averaged
    med = {name: v[0] if len(set(v)) == 1 else statistics.median(v)
           for name, v in layers.items()}
    run_u = statistics.median(r["run_s"] for r in untraced)
    run_t = statistics.median(r["run_s"] for r in traced)
    med["trace.run_s_untraced"] = run_u
    med["trace.run_s_traced"] = run_t
    med["trace.overhead_s"] = run_t - run_u
    for cert in PER_LAYER_CERTS:
        med[f"e2e.{cert}"] = statistics.median(cert_times(r).get(cert, 0.0) for r in untraced)
    return med, layers


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gromovlab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no gromovlab sources under {ROOT / 'src'} (or no BENCHMARK.json); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_1min_start": load_1min(),
        "nproc": os.cpu_count(),
        "cpu_model": (read_first_line("/proc/cpuinfo", "model name") or "").partition(":")[2].strip(),
    }
    info["git_sha"], info["git_dirty"] = git_state()
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        shutil.rmtree(runner.spans_dir, ignore_errors=True)
    try:
        runner.run()
    finally:
        runner.cleanup()
    info["loadavg_1min_end"] = load_1min()
    info["elapsed_s"] = now() - runner.start
    if runner.repeats:
        first = runner.repeats[0]
        info.update(python=first["python"], numpy=first["numpy"], gromovlab=first["gromovlab"])

    attempted, failed = tally(runner)
    metrics, table = {}, []
    if args.trace == 0:
        per = end_to_end(runner)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name in units:
            if per.get(name):
                metrics[name] = {"value": statistics.median(per[name]), "unit": units[name]}
        for name in list(units) + [c for c in PER_LAYER_CERTS if c not in units]:
            if per.get(name):
                table.append((name, units.get(name, "s"), summarize(per[name])))
        table.append(("ops_failed_frac", "ratio",
                      summarize([failed / attempted if attempted else 1.0])))
    else:
        med, raw = per_layer(runner)
        if med is not None:
            for m in spec["per_layer"]:
                metrics[m["name"]] = {"value": med[m["name"]], "unit": m["unit"]}
                table.append((m["name"], m["unit"],
                              summarize(raw.get(m["name"], [med[m["name"]]]))))
        else:
            runner.errors.append("traced run needs one untraced and one traced repeat")
    names = [m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]]
    correct = not runner.errors and failed == 0 and set(metrics) == set(names)

    print(f"gromovlab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(runner.repeats)} repeats in {info['elapsed_s']:.1f} s")
    print(f"{'metric':44s} {'unit':14s} {'median':>14s} {'min':>14s} {'max':>14s} {'n':>3s}")
    for name, unit, s in table:
        print(f"{name:44s} {unit:14s} {s['median']:14.6g} {s['min']:14.6g} "
              f"{s['max']:14.6g} {s['n']:3d}")
    for err in runner.errors:
        print(f"FAILED: {err}")
    print("run record: " + json.dumps(info, sort_keys=True))

    runner.out.mkdir(exist_ok=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (runner.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": info, "result": result, "errors": runner.errors,
                    "repeats": runner.repeats, "setups": runner.setups}, indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
