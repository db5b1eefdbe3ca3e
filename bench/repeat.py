"""One repeat of one workload, in a fresh process: set up, run every
operation once in order, check each, and write a JSON record.

    python3 bench/repeat.py --workload grid --seed 0 --workdir DIR --record FILE
        [--trace] [--spans FILE] [--setup-only]

The process's cwd becomes ``--workdir`` (where CLI artifacts go).  The record
holds the monotonic-clock instant set-up ended, so the parent can time set-up
from before it spawned this process.  ``bench/run.py`` drives this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def digest(payload) -> str:
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="where a traced repeat writes its spans")
    parser.add_argument("--repeat-id", type=int, default=0, dest="repeat_id")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    args = parser.parse_args(argv)
    os.chdir(args.workdir)

    import numpy

    import gromovlab
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.repeat_id).install()
        span = tracer.call
    else:
        def span(name, fn, *args):
            return fn(*args)

    workload = WORKLOADS[args.workload](args.seed, span)
    workload.setup()
    setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)
    record = {
        "setup_end": setup_end,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "gromovlab": gromovlab.__version__,
    }
    if args.setup_only:
        Path(args.record).write_text(json.dumps(record), encoding="utf-8")
        return 0

    ops = []
    for op in workload.operations():
        entry = {"name": op.name, "cert": op.cert, "ok": False, "error": None, "digest": None}
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # a failed operation is recorded, and the loop goes on
            entry["seconds"] = time.perf_counter() - t0
            entry["error"] = traceback.format_exc(limit=3)
        else:
            entry["seconds"] = time.perf_counter() - t0
            try:
                entry["digest"] = digest(op.check(result))
                entry["ok"] = True
            except Exception as exc:  # CheckFailed, or output too broken to check
                entry["error"] = f"check failed: {exc!r}"
        ops.append(entry)
    record["ops"] = ops
    record["run_s"] = sum(e["seconds"] for e in ops)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.fold()
        layers["cli.artifact_bytes"] = sum(
            p.stat().st_size for p in Path(".").iterdir() if p.is_file()
        )
        record["layers"] = layers
        if args.spans:
            tracer.save(args.spans)
    Path(args.record).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
