"""Command line front end wiring every module together.

Exit codes: 0 success, 2 invalid input, 3 size-guard refusal, 64 usage error.
Every JSON artifact is wrapped as {"manifest": ..., "data": ...}; the data
payload is deterministic, wall time lives only in the manifest.  CSV profiles
get their manifest in a sibling .profile.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .asdimlab import cover_at_scale, dim_profile, genus_bounds
from .electrify import (
    electrify,
    eg_to_obj,
    family_to_obj,
    load_family,
    penetration_profile,
)
from .embedding import enlargement, qi_fit
from .generators import (
    cycle,
    farey_ball,
    grid,
    hierarchy_tower,
    path,
    tower_audit,
    tree,
    tree_of_rings,
)
from .graphs import SizeLimitError, dump_json, graph_to_dot, graph_to_obj, load_graph
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


def _params(args) -> dict:
    out = {}
    for key, value in vars(args).items():
        if key == "func":
            continue
        out[key] = value
    return out


def _manifest(args, started: float, inputs=None, seeds=None) -> dict:
    return {
        "command": getattr(args, "command", "?"),
        "params": _params(args),
        "seeds": seeds or {},
        "inputs_sha256": {name: _sha256(p) for name, p in sorted((inputs or {}).items())},
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }


def _write(path, manifest: dict, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json({"manifest": manifest, "data": data}))
    print(f"wrote {path}")


def _parse_theta(raw):
    if raw == "auto":
        return "auto"
    return float(raw)


# ---------------------------------------------------------------- generators


def cmd_gen(args, started: float) -> int:
    kind = args.kind
    family = None
    if kind == "tree":
        g = tree(args.depth, args.valence)
    elif kind == "cycle":
        g = cycle(args.n)
    elif kind == "path":
        g = path(args.n)
    elif kind == "grid":
        g = grid(args.width, args.height)
    elif kind == "tree-of-rings":
        g, family = tree_of_rings(args.depth, args.valence, args.ring_len)
    elif kind == "farey":
        g = farey_ball(args.radius)
    elif kind == "tower":
        levels = hierarchy_tower(args.levels, args.valence, args.ring_len, args.depth)
        audit = tower_audit(levels)
        for i, (g, fam) in enumerate(levels, start=1):
            manifest = _manifest(args, started)
            _write(f"{args.out}.level{i}.graph.json", manifest, graph_to_obj(g))
            _write(f"{args.out}.level{i}.family.json", manifest, family_to_obj(fam))
            print(f"level {i}: {g.n} vertices, {len(g.edges)} edges, {len(fam)} members")
        print(
            f"tower audit: {'ok' if audit['ok'] else 'FAILED'} "
            f"({audit['levels_checked']} levels checked)"
        )
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown generator {kind!r}")

    manifest = _manifest(args, started)
    _write(f"{args.out}.graph.json", manifest, graph_to_obj(g))
    if family is not None:
        _write(f"{args.out}.family.json", manifest, family_to_obj(family))
    if args.dot:
        with open(f"{args.out}.dot", "w", encoding="utf-8") as fh:
            fh.write(graph_to_dot(g))
        print(f"wrote {args.out}.dot")
    extra = f", {len(family)} family members" if family is not None else ""
    print(f"{kind}: {g.n} vertices, {len(g.edges)} edges{extra}")
    return 0


# ------------------------------------------------------------ electrification


def cmd_electrify(args, started: float) -> int:
    g = load_graph(args.graph)
    fam = load_family(args.family)
    eg = electrify(g, fam)
    manifest = _manifest(args, started, inputs={"graph": args.graph, "family": args.family})
    _write(f"{args.out}.eg.json", manifest, eg_to_obj(eg))
    print(
        f"electrified: {eg.base_size} base + {len(eg.family)} cone vertices, "
        f"{len(eg.graph.edges)} edges"
    )
    return 0


def cmd_penetration(args, started: float) -> int:
    g = load_graph(args.graph)
    fam = load_family(args.family)
    eg = electrify(g, fam)
    rep = penetration_profile(
        eg,
        L=args.quality,
        samples=args.samples,
        seed=args.seed,
        deep_threshold=args.deep,
        alternates=args.alternates,
    )
    manifest = _manifest(
        args,
        started,
        inputs={"graph": args.graph, "family": args.family},
        seeds={"seed": args.seed},
    )
    _write(f"{args.out}.penetration.json", manifest, rep.to_obj())
    print(
        f"penetration: p_estimate = {rep.p_estimate}, deep crossings = {len(rep.records)}, "
        f"missed = {rep.missed_total}"
    )
    return 0


# ---------------------------------------------------------------- measurement


def cmd_delta(args, started: float) -> int:
    g = load_graph(args.graph)
    rep = four_point_delta(g, mode=args.mode, samples=args.samples, seed=args.seed)
    seeds = {"seed": args.seed} if args.mode == "sampled" else {}
    if args.out:
        manifest = _manifest(args, started, inputs={"graph": args.graph}, seeds=seeds)
        _write(f"{args.out}.delta.json", manifest, rep.to_obj())
    print(f"delta = {rep.delta} ({rep.mode}, {g.n} vertices, witness {rep.witness})")
    return 0


def cmd_axioms(args, started: float) -> int:
    g = load_graph(args.graph)
    fam = load_family(args.family)
    rep = axiom_check(
        g,
        fam,
        theta=_parse_theta(args.theta),
        triple_budget=args.triple_budget,
        seed=args.seed,
    )
    manifest = _manifest(
        args,
        started,
        inputs={"graph": args.graph, "family": args.family},
        seeds={"seed": args.seed},
    )
    _write(f"{args.out}.axioms.json", manifest, rep.to_obj())
    scope = "exhaustive" if rep.triples_exhaustive else "sampled"
    print(
        f"axioms: R_measured = {rep.R_measured}, theta = {rep.theta} ({rep.theta_mode}), "
        f"axiom-2 violations = {len(rep.axiom2_violations)} over {rep.triples_checked} "
        f"{scope} triples, axiom-3 max count = {rep.axiom3_max}"
    )
    return 0


def cmd_quasitree(args, started: float) -> int:
    g = load_graph(args.graph)
    fam = load_family(args.family)
    y = build_quasitree(
        g, fam, _parse_theta(args.theta), rule=args.rule, with_diff=not args.no_diff
    )
    manifest = _manifest(args, started, inputs={"graph": args.graph, "family": args.family})
    _write(f"{args.out}.y.json", manifest, y_to_obj(y))
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
    g = load_graph(args.graph)
    fam = load_family(args.family)
    eg = electrify(g, fam)
    y = build_quasitree(g, fam, _parse_theta(args.theta), rule=args.rule, with_diff=False)
    rep = qi_fit(eg, y, basepoint=args.basepoint, pair_budget=args.pairs, seed=args.seed)
    manifest = _manifest(
        args,
        started,
        inputs={"graph": args.graph, "family": args.family},
        seeds={"seed": args.seed},
    )
    _write(f"{args.out}.embed.json", manifest, rep.to_obj())
    print(
        f"embedding: L_fit = {rep.L_fit}, C_fit = {rep.C_fit}, "
        f"violations = {rep.violation_count}/{rep.n_pairs}, "
        f"eg delta = {rep.eg_delta} ({rep.eg_delta_mode}), "
        f"peripheral delta max = {rep.peripheral_delta_max}"
    )
    return 0


def cmd_enlarge(args, started: float) -> int:
    g = load_graph(args.graph)
    fam = load_family(args.family)
    eg = electrify(g, fam)
    walk = eg.graph.geodesic(args.src, args.dst)
    enlarged = enlargement(eg, walk)
    d_base = g.shortest_distance(args.src, args.dst)
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
        manifest = _manifest(args, started, inputs={"graph": args.graph, "family": args.family})
        _write(f"{args.out}.enlarge.json", manifest, data)
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
    manifest = _manifest(args, started, inputs={"graph": args.graph})
    _write(f"{args.out}.cover.json", manifest, cov.to_obj())
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
    manifest = _manifest(args, started, inputs={"graph": args.graph})
    csv_path = f"{args.out}.profile.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(prof.to_csv())
    print(f"wrote {csv_path}")
    _write(f"{args.out}.profile.json", manifest, prof.to_obj())
    for row in prof.rows:
        print(f"R = {row['R']}: D = {row['D']}, multiplicity = {row['multiplicity']}")
    return 0


def cmd_bounds(args, started: float) -> int:
    rec = genus_bounds(args.genus, args.punctures)
    if args.out:
        manifest = _manifest(args, started)
        _write(f"{args.out}.bounds.json", manifest, rec.to_obj())
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
        with open(path_, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="gromovlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gromovlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="deterministic graph generators")
    gen_sub = p.add_subparsers(dest="kind", required=True, parser_class=_Parser)

    q = gen_sub.add_parser("tree", help="rooted tree with the given vertex degree")
    q.add_argument("--depth", type=int, required=True)
    q.add_argument("--valence", type=int, required=True)
    for name, helptext in (("cycle", "cycle graph"), ("path", "path graph")):
        q = gen_sub.add_parser(name, help=helptext)
        q.add_argument("--n", type=int, required=True)
    q = gen_sub.add_parser("grid", help="w x h grid graph")
    q.add_argument("--width", type=int, required=True)
    q.add_argument("--height", type=int, required=True)
    q = gen_sub.add_parser("tree-of-rings", help="tree with every edge subdivided through a ring")
    q.add_argument("--depth", type=int, required=True)
    q.add_argument("--valence", type=int, required=True)
    q.add_argument("--ring-len", type=int, required=True, dest="ring_len")
    q = gen_sub.add_parser("farey", help="ball in the Farey graph around 0/1")
    q.add_argument("--radius", type=int, required=True)
    q = gen_sub.add_parser("tower", help="chain of graphs linked by electrification")
    q.add_argument("--levels", type=int, required=True)
    q.add_argument("--valence", type=int, default=3)
    q.add_argument("--ring-len", type=int, default=12, dest="ring_len")
    q.add_argument("--depth", type=int, default=2)
    for q in gen_sub.choices.values():
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
    p.add_argument("--triple-budget", type=int, default=5000, dest="triple_budget")
    p.add_argument("--seed", type=int, default=0)
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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
