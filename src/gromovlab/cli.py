"""Command line front end wiring every module together.

Exit codes: 0 success, 2 invalid input, 3 refused as over one of exact
mode's caps (cells of the block matrices, so 4096 vertices in a block;
far-apart pairs per block; witness work; see ``hyperbolicity``), 64 usage
error.
Every JSON artifact is wrapped as {"manifest": ..., "data": ...}; the data
payload is deterministic, wall time lives only in the manifest.  CSV profiles
get their manifest in a sibling .profile.json.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

from . import __version__, generators
from .asdimlab import cover_at_scale, dim_profile, genus_bounds
from .electrify import (
    electrify,
    eg_to_obj,
    family_to_obj,
    load_family,
    penetration_profile,
)
from .embedding import enlargement, qi_fit
from .graphs import (
    SizeLimitError,
    dump_json,
    graph_to_dot,
    graph_to_obj,
    load_graph,
    read_json,
    write_json,
)
from .hyperbolicity import four_point_delta
from .projections import axiom_check
from .quasitree import RULES, build_quasitree, y_to_obj


class _Parser(argparse.ArgumentParser):
    # reserve exit code 2 for data errors; usage mistakes exit 64
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _sha256(path) -> str:
    """Digest of the input that feeds the computation.

    For wrapped artifacts this is the canonical data payload, so the hash is
    stable across reruns whose manifests differ only in wall time.  Anything
    else is hashed as raw bytes.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        obj = json.loads(raw)
        if isinstance(obj, dict) and "manifest" in obj and "data" in obj:
            raw = dump_json(obj["data"]).encode("utf-8")
    except (ValueError, UnicodeDecodeError):
        pass
    return hashlib.sha256(raw).hexdigest()


def _write(args, started: float, suffix: str, data, seeds=None) -> None:
    """Write ``data`` to ``<out><suffix>`` wrapped with its manifest: the
    command, its parameters, ``seeds``, the digests of whichever of the
    graph and family inputs the command reads, the version and the wall
    time so far."""
    inputs = [name for name in ("family", "graph") if hasattr(args, name)]
    manifest = {
        "command": args.command,
        "params": {key: value for key, value in vars(args).items() if key != "func"},
        "seeds": seeds or {},
        "inputs_sha256": {name: _sha256(getattr(args, name)) for name in inputs},
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    path = f"{args.out}{suffix}"
    with open(path, "w", encoding="utf-8") as fh:
        write_json({"manifest": manifest, "data": data}, fh)
    print(f"wrote {path}")


def _inputs(args):
    """The electrification of the graph and family read from ``args``."""
    return electrify(load_graph(args.graph), load_family(args.family))


def _parse_theta(raw):
    if raw == "auto":
        return "auto"
    return float(raw)


# ---------------------------------------------------------------- generators


# kind -> (help, name of its function in ``generators``, its integer flags in
# call order with their defaults, None for required); the function is looked
# up by name at each call, so a rebinding of the module attribute is seen
_GENERATORS = {
    "tree": ("rooted tree with the given vertex degree", "tree",
             {"depth": None, "valence": None}),
    "cycle": ("cycle graph", "cycle", {"n": None}),
    "path": ("path graph", "path", {"n": None}),
    "grid": ("w x h grid graph", "grid", {"width": None, "height": None}),
    "tree-of-rings": ("tree with every edge subdivided through a ring", "tree_of_rings",
                      {"depth": None, "valence": None, "ring_len": None}),
    "farey": ("ball in the Farey graph around 0/1", "farey_ball", {"radius": None}),
    "tower": ("chain of graphs linked by electrification", "hierarchy_tower",
              {"levels": None, "valence": 3, "ring_len": 12, "depth": 2}),
}


def cmd_gen(args, started: float) -> int:
    kind = args.kind
    _, name, flags = _GENERATORS[kind]
    made = getattr(generators, name)(*(getattr(args, flag) for flag in flags))
    tower = kind == "tower"
    # every kind but the tower makes one level: a graph, or a (graph, family) pair
    levels = made if tower else [made if isinstance(made, tuple) else (made, None)]
    for i, (g, family) in enumerate(levels, start=1):
        stem = f".level{i}" if tower else ""
        _write(args, started, f"{stem}.graph.json", graph_to_obj(g))
        if family is not None:
            _write(args, started, f"{stem}.family.json", family_to_obj(family))
        if args.dot:
            with open(f"{args.out}{stem}.dot", "w", encoding="utf-8") as fh:
                fh.write(graph_to_dot(g))
            print(f"wrote {args.out}{stem}.dot")
        head, members = (f"level {i}", "members") if tower else (kind, "family members")
        extra = f", {len(family)} {members}" if family is not None else ""
        print(f"{head}: {g.n} vertices, {len(g.edges)} edges{extra}")
    if tower:
        audit = generators.tower_audit(levels)
        print(
            f"tower audit: {'ok' if audit['ok'] else 'FAILED'} "
            f"({audit['levels_checked']} levels checked)"
        )
    return 0


# ------------------------------------------------------------ electrification


def cmd_electrify(args, started: float) -> int:
    eg = _inputs(args)
    _write(args, started, ".eg.json", eg_to_obj(eg))
    print(
        f"electrified: {eg.base_size} base + {len(eg.family)} cone vertices, "
        f"{len(eg.graph.edges)} edges"
    )
    return 0


def cmd_penetration(args, started: float) -> int:
    eg = _inputs(args)
    rep = penetration_profile(
        eg,
        L=args.quality,
        samples=args.samples,
        seed=args.seed,
        deep_threshold=args.deep,
        alternates=args.alternates,
    )
    _write(args, started, ".penetration.json", rep.to_obj(), {"seed": args.seed})
    print(
        f"penetration: p_estimate = {rep.p_estimate}, deep crossings = {len(rep.records)}, "
        f"missed = {rep.missed_total}"
    )
    return 0


# ---------------------------------------------------------------- measurement


def cmd_delta(args, started: float) -> int:
    g = load_graph(args.graph)
    rep = four_point_delta(g, mode=args.mode, samples=args.samples, seed=args.seed)
    if args.out:
        seeds = {"seed": args.seed} if args.mode == "sampled" else None
        _write(args, started, ".delta.json", rep.to_obj(), seeds)
    print(f"delta = {rep.delta} ({rep.mode}, {g.n} vertices, witness {rep.witness})")
    return 0


def cmd_axioms(args, started: float) -> int:
    g = load_graph(args.graph)
    fam = load_family(args.family)
    rep = axiom_check(g, fam, theta=_parse_theta(args.theta))
    _write(args, started, ".axioms.json", rep.to_obj())
    print(
        f"axioms: R_measured = {rep.R_measured}, theta = {rep.theta} ({rep.theta_mode}), "
        f"axiom-2 violations = {len(rep.axiom2_violations)} over {rep.triples_checked} "
        f"exhaustive triples, axiom-3 max count = {rep.axiom3_max}"
    )
    return 0


def cmd_quasitree(args, started: float) -> int:
    g = load_graph(args.graph)
    fam = load_family(args.family)
    y = build_quasitree(
        g, fam, _parse_theta(args.theta), rule=args.rule, with_diff=not args.no_diff
    )
    _write(args, started, ".y.json", y_to_obj(y))
    msg = (
        f"quasi-tree: {y.graph.n} vertices, {len(y.graph.edges)} edges, "
        f"{len(y.cross_edges)} cross edges at theta = {y.theta} ({y.rule} rule)"
    )
    if y.diff is not None:
        msg += f"; rule diff: {len(y.diff['projection_only'])} projection-only, " \
               f"{len(y.diff['widepoint_only'])} widepoint-only"
    print(msg)
    return 0


def cmd_embed(args, started: float) -> int:
    eg = _inputs(args)
    y = build_quasitree(
        eg.base_graph(), eg.family, _parse_theta(args.theta), rule=args.rule, with_diff=False
    )
    rep = qi_fit(eg, y, basepoint=args.basepoint, pair_budget=args.pairs, seed=args.seed)
    _write(args, started, ".embed.json", rep.to_obj(), {"seed": args.seed})
    print(
        f"embedding: L_fit = {rep.L_fit}, C_fit = {rep.C_fit}, "
        f"violations = {rep.violation_count}/{rep.n_pairs}, "
        f"eg delta = {rep.eg_delta} ({rep.eg_delta_mode}), "
        f"peripheral delta max = {rep.peripheral_delta_max}"
    )
    return 0


def cmd_enlarge(args, started: float) -> int:
    eg = _inputs(args)
    walk = eg.graph.geodesic(args.src, args.dst)
    enlarged = enlargement(eg, walk)
    d_base = eg.base_graph().shortest_distance(args.src, args.dst)
    data = {
        "src": args.src,
        "dst": args.dst,
        "electrified_walk": walk,
        "enlarged_walk": enlarged,
        "electrified_length": len(walk) - 1,
        "enlarged_length": len(enlarged) - 1,
        "base_distance": int(d_base),
    }
    if args.out:
        _write(args, started, ".enlarge.json", data)
    print(
        f"enlargement {args.src} -> {args.dst}: electrified length {len(walk) - 1}, "
        f"enlarged length {len(enlarged) - 1}, base distance {int(d_base)}"
    )
    return 0


# --------------------------------------------------------------------- covers


def cmd_cover(args, started: float) -> int:
    g = load_graph(args.graph)
    params = {"width": args.width} if args.width is not None else None
    cov = cover_at_scale(g, args.scale, args.strategy, params)
    _write(args, started, ".cover.json", cov.to_obj())
    print(
        f"cover: R = {cov.R}, {len(cov.blocks)} blocks, D = {cov.D}, "
        f"multiplicity = {cov.multiplicity} (witness vertex {cov.witness}, {cov.strategy})"
    )
    return 0


def cmd_profile(args, started: float) -> int:
    g = load_graph(args.graph)
    scales = [int(s) for s in args.scales.split(",") if s.strip()]
    params = {"width": args.width} if args.width is not None else None
    prof = dim_profile(g, scales, args.strategy, params)
    csv_path = f"{args.out}.profile.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(prof.to_csv())
    print(f"wrote {csv_path}")
    _write(args, started, ".profile.json", prof.to_obj())
    for row in prof.rows:
        print(f"R = {row['R']}: D = {row['D']}, multiplicity = {row['multiplicity']}")
    return 0


def cmd_bounds(args, started: float) -> int:
    rec = genus_bounds(args.genus, args.punctures)
    if args.out:
        _write(args, started, ".bounds.json", rec.to_obj())
    for key, value in rec.to_obj().items():
        print(f"{key} = {value}")
    return 0


# --------------------------------------------------------------------- report


def _summarize_data(data) -> str:
    if not isinstance(data, dict):
        return str(data)
    parts = []
    for key in sorted(data):
        value = data[key]
        if isinstance(value, (int, float, str, bool)) and not isinstance(value, dict):
            text = f"{value}"
            if len(text) > 40:
                text = text[:37] + "..."
            parts.append(f"{key}={text}")
        if len(parts) == 8:
            break
    return ", ".join(parts) if parts else "(structured payload)"


def cmd_report(args, started: float) -> int:
    rows = []
    for path_ in args.inputs:
        obj = read_json(path_)
        if not isinstance(obj, dict) or not isinstance(obj.get("manifest"), dict) or "data" not in obj:
            raise ValueError(f"{path_}: not a wrapped artifact (missing manifest/data)")
        manifest = obj["manifest"]
        rows.append((os.path.basename(path_), manifest.get("command", "?"), _summarize_data(obj["data"])))
    lines = [
        "# Run report",
        "",
        f"{len(rows)} artifacts, tool version {__version__}.",
        "",
        "| artifact | command | summary |",
        "| --- | --- | --- |",
    ]
    for name, command, summary in rows:
        lines.append(f"| {name} | {command} | {summary} |")
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out} ({len(rows)} artifacts)")
    return 0


# ------------------------------------------------------------------- parsing


def _add_out(p, required=True):
    p.add_argument("--out", required=required, help="output path prefix")


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="gromovlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gromovlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="deterministic graph generators")
    gen_sub = p.add_subparsers(dest="kind", required=True, parser_class=_Parser)

    for kind, (helptext, _, flags) in _GENERATORS.items():
        q = gen_sub.add_parser(kind, help=helptext)
        for flag, default in flags.items():
            q.add_argument("--" + flag.replace("_", "-"), type=int,
                           required=default is None, default=default)
        _add_out(q)
        q.add_argument("--dot", action="store_true", help="also write a DOT file")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("electrify", help="cone off a family of subgraphs")
    p.add_argument("graph")
    p.add_argument("family")
    _add_out(p)
    p.set_defaults(func=cmd_electrify)

    p = sub.add_parser("delta", help="four-point hyperbolicity constant")
    p.add_argument("graph")
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_out(p, required=False)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("axioms", help="projection axiom audit for a family")
    p.add_argument("graph")
    p.add_argument("family")
    p.add_argument("--theta", default="auto")
    p.add_argument("--seed", type=int, default=0, help="ignored: the audit draws nothing")
    _add_out(p)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("quasitree", help="build the quasi-tree of the family")
    p.add_argument("graph")
    p.add_argument("family")
    p.add_argument("--theta", default="auto")
    p.add_argument("--rule", choices=RULES, default="projection")
    p.add_argument("--no-diff", action="store_true", help="skip evaluating the other rule")
    _add_out(p)
    p.set_defaults(func=cmd_quasitree)

    p = sub.add_parser("embed", help="fit the product embedding quality")
    p.add_argument("graph")
    p.add_argument("family")
    p.add_argument("--theta", default="auto")
    p.add_argument("--rule", choices=RULES, default="projection")
    p.add_argument("--basepoint", type=int, default=0)
    p.add_argument("--pairs", type=int, default=2000)
    p.add_argument("--seed", type=int, default=11)
    _add_out(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("enlarge", help="replace cone shortcuts by member geodesics")
    p.add_argument("graph")
    p.add_argument("family")
    p.add_argument("--from", type=int, required=True, dest="src")
    p.add_argument("--to", type=int, required=True, dest="dst")
    _add_out(p, required=False)
    p.set_defaults(func=cmd_enlarge)

    p = sub.add_parser("penetration", help="how deeply quasi-geodesics cross members")
    p.add_argument("graph")
    p.add_argument("family")
    p.add_argument("--quality", type=float, default=1.5, help="quasi-geodesic quality L")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deep", type=int, default=4, help="min crossing depth to record")
    p.add_argument("--alternates", type=int, default=4)
    _add_out(p)
    p.set_defaults(func=cmd_penetration)

    p = sub.add_parser("cover", help="verified bounded cover at one scale")
    p.add_argument("graph")
    p.add_argument("--scale", type=int, required=True)
    p.add_argument("--strategy", choices=("interval", "brick", "net_voronoi"), default="net_voronoi")
    p.add_argument("--width", type=int, default=None, help="grid width for the brick strategy")
    _add_out(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("profile", help="cover statistics across scales")
    p.add_argument("graph")
    p.add_argument("--scales", required=True, help="comma-separated, e.g. 2,4,8,16")
    p.add_argument("--strategy", choices=("interval", "brick", "net_voronoi"), default="net_voronoi")
    p.add_argument("--width", type=int, default=None)
    _add_out(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("bounds", help="closed-form genus-indexed dimension bounds")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--punctures", type=int, default=0)
    _add_out(p, required=False)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("report", help="bundle JSON artifacts into one markdown table")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        return args.func(args, started)
    except SizeLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
