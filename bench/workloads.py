"""The three benchmark workloads, each a closed loop of gromovlab operations
on one graph shape, with a correctness check per operation.

A workload's ``setup()`` generates its inputs (counted in ``setup_s``) and
``operations()`` lists the timed calls.  Each ``Op`` has a ``run`` (the timed
call into gromovlab) and a ``check`` (untimed; raises ``CheckFailed`` or
returns the deterministic payload whose digest must repeat across repeats).
Pinned values were measured at the commit that introduced this benchmark.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    name: str
    cert: str | None  # certificate time (e.g. "delta_s") this op's time adds to
    run: Callable
    check: Callable


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def bfs_row(n, edges, source):
    """Plain BFS distances, independent of gromovlab's own kernel."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for w in adj[x]:
            if dist[w] < 0:
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist


def check_witness(n, edges, delta, witness):
    """The witness has four distinct vertices and its defect is 2 * delta."""
    expect(witness is not None and len(set(witness)) == 4,
           f"witness {witness} does not have four distinct vertices")
    w, x, y, z = witness
    dw, dx, dy = (bfs_row(n, edges, s) for s in (w, x, y))
    sums = sorted((dw[x] + dy[z], dw[y] + dx[z], dw[z] + dx[y]))
    expect(sums[2] - sums[1] == 2 * delta,
           f"witness {witness} has defect {sums[2] - sums[1]}, not 2 * delta = {2 * delta}")


def delta_check(g, delta, witness):
    def check(rep):
        expect(rep.mode == "exact", f"mode {rep.mode}")
        expect(rep.delta == delta, f"delta {rep.delta} != {delta}")
        expect(tuple(rep.witness) == witness, f"witness {rep.witness} != {witness}")
        check_witness(g.n, g.edges, rep.delta, rep.witness)
        return rep.to_obj()
    return check


def cover_check(D, multiplicity):
    def check(cov):
        expect((cov.D, cov.multiplicity) == (D, multiplicity),
               f"cover (D, multiplicity) = ({cov.D}, {cov.multiplicity}), "
               f"expected ({D}, {multiplicity})")
        return cov.to_obj()
    return check


class Workload:
    name = ""

    def __init__(self, seed: int, span):
        self.seed = seed
        self.span = span  # span(name, fn, *args): fn(*args), traced or not

    def setup(self):
        raise NotImplementedError

    def operations(self) -> list:
        raise NotImplementedError


class RingsChain(Workload):
    """Demo 07's CLI chain in-process on tree_of_rings(3, 3, 12), plus exact
    delta on tree_of_rings(2, 3, 12).  Runs with the process cwd as the
    artifact directory; every command reloads its inputs from JSON."""

    name = "rings-chain"

    def cli(self, argv):
        from gromovlab import cli

        return self.span(f"cli.{argv[0]}", cli.main, argv)

    def setup(self):
        for argv in (
            ["gen", "tree-of-rings", "--depth", "3", "--valence", "3", "--ring-len", "12",
             "--out", "rings"],
            ["gen", "tree-of-rings", "--depth", "2", "--valence", "3", "--ring-len", "12",
             "--out", "small"],
        ):
            rc = self.cli(argv)
            if rc != 0:
                raise RuntimeError(f"gromovlab {' '.join(argv)} exited {rc}")
        self.graphs = {}
        for stem in ("rings", "small"):
            with open(f"{stem}.graph.json", encoding="utf-8") as fh:
                data = json.load(fh)["data"]
            self.graphs[stem] = (data["n"], [tuple(e) for e in data["edges"]])

    def _artifact(self, path, check):
        def run_check(rc):
            expect(rc == 0, f"exit code {rc}")
            with open(path, encoding="utf-8") as fh:
                if path.endswith(".md"):
                    return check(fh.read())
                return check(json.load(fh)["data"])
        return run_check

    def operations(self):
        s = str(self.seed)
        g, f = "rings.graph.json", "rings.family.json"

        def electrify(d):
            expect(d["base_size"] == 430 and len(d["cones"]) == 39,
                   f"electrified graph has base {d['base_size']}, {len(d['cones'])} cones")
            return d

        def sampled_delta(d):
            expect(d["mode"] == "sampled" and d["delta"] <= 3.0,
                   f"sampled delta {d['delta']} exceeds the exact 3.0")
            check_witness(*self.graphs["rings"], d["delta"], d["witness"])
            return d

        def exact_delta(d):
            expect(d["mode"] == "exact" and d["delta"] == 3.0, f"exact delta {d['delta']} != 3.0")
            check_witness(*self.graphs["small"], d["delta"], d["witness"])
            return d

        def axioms(d):
            expect(d["R_measured"] == 0, f"R_measured {d['R_measured']} != 0")
            expect(d["theta"] == 3.0, f"theta {d['theta']} != 3.0")
            expect(d["axiom2_violations"] == [], "axiom-2 violations found")
            return d

        def quasitree(d):
            expect(d["theta"] == 3.0, f"quasi-tree theta {d['theta']} != 3.0")
            return d

        def embed(d):
            expect(d["violation_count"] == 0, f"{d['violation_count']} embedding violations")
            return d

        def enlarge(d):
            n, edges = self.graphs["rings"]
            walk = d["enlarged_walk"]
            edge_set = {tuple(sorted(e)) for e in edges}
            expect(walk[0] == 0 and walk[-1] == 400, "enlarged walk has wrong endpoints")
            expect(all(tuple(sorted(p)) in edge_set for p in zip(walk, walk[1:])),
                   "enlarged walk leaves the base graph")
            expect(d["base_distance"] == bfs_row(n, edges, 0)[400], "wrong base distance")
            expect(d["enlarged_length"] >= d["base_distance"], "enlarged walk beats a geodesic")
            return d

        def cover(d):
            expect((d["D"], d["multiplicity"]) == (24, 2),
                   f"cover (D, multiplicity) = ({d['D']}, {d['multiplicity']}), expected (24, 2)")
            return d

        def bounds(d):
            expect(d["hierarchy_total"] == 18, f"genus-2 hierarchy total {d['hierarchy_total']}")
            return d

        def report(text):
            expect("5 artifacts" in text, "report does not bundle 5 artifacts")
            return text

        def passthrough(d):
            return d

        steps = [
            ("electrify", None, ["electrify", g, f, "--out", "rings"], "rings.eg.json", electrify),
            ("delta-sampled", "delta_s",
             ["delta", g, "--mode", "sampled", "--samples", "4000", "--seed", s, "--out", "rings"],
             "rings.delta.json", sampled_delta),
            ("delta-exact", "delta_s", ["delta", "small.graph.json", "--seed", s, "--out", "small"],
             "small.delta.json", exact_delta),
            ("axioms", "axioms_s", ["axioms", g, f, "--seed", s, "--out", "rings"],
             "rings.axioms.json", axioms),
            ("quasitree", "quasitree_s", ["quasitree", g, f, "--out", "rings"],
             "rings.y.json", quasitree),
            ("embed", "embed_s", ["embed", g, f, "--seed", s, "--out", "rings"],
             "rings.embed.json", embed),
            ("enlarge", None, ["enlarge", g, f, "--from", "0", "--to", "400", "--out", "rings"],
             "rings.enlarge.json", enlarge),
            ("penetration", None, ["penetration", g, f, "--seed", s, "--out", "rings"],
             "rings.penetration.json", passthrough),
            ("cover", "cover_s", ["cover", g, "--scale", "4", "--out", "rings"],
             "rings.cover.json", cover),
            ("bounds", None, ["bounds", "--genus", "2", "--out", "genus2"],
             "genus2.bounds.json", bounds),
            ("report", None,
             ["report", "rings.delta.json", "rings.axioms.json", "rings.embed.json",
              "rings.cover.json", "genus2.bounds.json", "--out", "report.md"],
             "report.md", report),
        ]
        return [
            Op(name, cert, (lambda argv=argv: self.cli(argv)), self._artifact(path, check))
            for name, cert, argv, path, check in steps
        ]


class Grid(Workload):
    """Flat single-block shape with large delta: exact delta on grid(17, 17),
    then the three cover strategies on grid(40, 40), each on a fresh graph."""

    name = "grid"

    def setup(self):
        from gromovlab import generators

        self.g17 = generators.grid(17, 17)
        self.g40 = {s: generators.grid(40, 40) for s in ("interval", "brick", "net_voronoi")}

    def operations(self):
        from gromovlab import asdimlab, hyperbolicity

        ops = [Op("delta-grid17", "delta_s",
                  lambda: hyperbolicity.four_point_delta(self.g17),
                  delta_check(self.g17, 16.0, (0, 16, 272, 288)))]
        for strategy, pins in (("interval", (78, 2)), ("brick", (22, 3)),
                               ("net_voronoi", (32, 3))):
            ops.append(Op(
                f"cover-{strategy}", "cover_s",
                lambda s=strategy: asdimlab.cover_at_scale(self.g40[s], 4, s),
                cover_check(*pins),
            ))
        return ops


class Farey(Workload):
    """One biconnected block with delta 1 and high-degree hubs: exact delta
    on farey_ball(7), then two covers of farey_ball(9)."""

    name = "farey"

    def setup(self):
        from gromovlab import generators

        self.f7 = generators.farey_ball(7)
        self.f9 = [generators.farey_ball(9) for _ in range(2)]

    def operations(self):
        from gromovlab import asdimlab, hyperbolicity

        return [
            Op("delta-farey7", "delta_s", lambda: hyperbolicity.four_point_delta(self.f7),
               delta_check(self.f7, 1.0, (0, 17, 30, 41))),
            Op("cover-net_voronoi-R4", "cover_s",
               lambda: asdimlab.cover_at_scale(self.f9[0], 4, "net_voronoi"),
               cover_check(10, 1)),
            Op("cover-interval-R2", "cover_s",
               lambda: asdimlab.cover_at_scale(self.f9[1], 2, "interval"),
               cover_check(10, 2)),
        ]


WORKLOADS = {w.name: w for w in (RingsChain, Grid, Farey)}
