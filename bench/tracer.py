"""Outside-in tracer: spans and counters recorded around gromovlab's public
functions, without editing the package.

``Tracer.install()`` replaces each traced function in every ``gromovlab``
module that binds it (a ``from .x import f`` creates one binding per importing
module, e.g. ``gromovlab.cli.four_point_delta`` and
``gromovlab.embedding.four_point_delta``), and each traced method on its
class.  A span holds a name, start, end and parent span; spans live in flat
arrays in memory and are written once, by ``save()``, when the repeat ends.
``fold()`` turns them into the per-layer metrics: a span's self time is its
duration minus the time its child spans cover, and every ``*_s`` metric is a
sum of self times.  Counts are derived from the call stream (span counts and
the values the wrapped calls return), never from private attributes.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
import weakref
from array import array
from math import comb

# (module, attribute) of every traced module-level function
FUNCTIONS = (
    ("generators", "tree_of_rings"),
    ("generators", "grid"),
    ("generators", "farey_ball"),
    ("graphs", "load_graph"),
    ("graphs", "dump_json"),
    ("hyperbolicity", "four_point_delta"),
    ("electrify", "electrify"),
    ("electrify", "penetration_profile"),
    ("projections", "axiom_check"),
    ("projections", "set_diameter"),
    ("quasitree", "build_quasitree"),
    ("embedding", "qi_fit"),
    ("embedding", "cone_exit_anchor"),
    ("asdimlab", "cover_at_scale"),
    ("asdimlab", "multiplicity_check"),
)

# (module, class, method) of every traced method
METHODS = (
    ("graphs", "MetricGraph", "__init__"),
    ("graphs", "MetricGraph", "distances_from"),
    ("graphs", "MetricGraph", "distance_matrix"),
    ("graphs", "MetricGraph", "geodesic"),
    ("graphs", "MetricGraph", "ball"),
    ("electrify", "ElectrifiedGraph", "intrinsic_distance"),
    ("asdimlab", "Cover", "from_blocks"),
)

CLI_COMMANDS = (
    "gen", "electrify", "delta", "axioms", "quasitree", "embed",
    "enlarge", "penetration", "cover", "bounds", "report",
)

# per-layer time metric -> span names whose self times it sums
SELF_TIME = {
    "hyperbolicity.four_point_delta_s": ("hyperbolicity.four_point_delta",),
    "graphs.distances_from_s": ("graphs.MetricGraph.distances_from",),
    "graphs.ball_s": ("graphs.MetricGraph.ball",),
    "graphs.construct_s": ("graphs.MetricGraph.__init__",),
    "graphs.geodesic_s": ("graphs.MetricGraph.geodesic",),
    "graphs.distance_matrix_s": ("graphs.MetricGraph.distance_matrix",),
    "graphs.io_s": ("graphs.load_graph", "graphs.dump_json"),
    "projections.axiom_check_s": ("projections.axiom_check",),
    "projections.set_diameter_s": ("projections.set_diameter",),
    "quasitree.build_quasitree_s": ("quasitree.build_quasitree",),
    "embedding.qi_fit_s": ("embedding.qi_fit",),
    "embedding.cone_exit_anchor_s": ("embedding.cone_exit_anchor",),
    "electrify.electrify_s": ("electrify.electrify",),
    "electrify.intrinsic_distance_s": ("electrify.ElectrifiedGraph.intrinsic_distance",),
    "electrify.penetration_profile_s": ("electrify.penetration_profile",),
    "asdimlab.cover_at_scale_s": ("asdimlab.cover_at_scale",),
    "asdimlab.verify_s": ("asdimlab.Cover.from_blocks",),
    "asdimlab.multiplicity_check_s": ("asdimlab.multiplicity_check",),
    "generators.tree_of_rings_s": ("generators.tree_of_rings",),
    "generators.grid_s": ("generators.grid",),
    "generators.farey_ball_s": ("generators.farey_ball",),
}
SELF_TIME.update({f"cli.{c}_s": (f"cli.{c}",) for c in CLI_COMMANDS})

# per-layer call count -> span name
CALLS = {
    "graphs.distances_from_calls": "graphs.MetricGraph.distances_from",
    "graphs.ball_calls": "graphs.MetricGraph.ball",
    "graphs.graphs_built": "graphs.MetricGraph.__init__",
    "graphs.geodesic_calls": "graphs.MetricGraph.geodesic",
    "projections.axiom_check_calls": "projections.axiom_check",
    "projections.set_diameter_calls": "projections.set_diameter",
    "quasitree.build_quasitree_calls": "quasitree.build_quasitree",
    "embedding.cone_exit_anchor_calls": "embedding.cone_exit_anchor",
    "electrify.intrinsic_distance_calls": "electrify.ElectrifiedGraph.intrinsic_distance",
}

# counters that must repeat exactly between two traced runs of one seed
EXACT_COUNTERS = (
    "graphs.rows_distinct",
    "graphs.row_hit_ratio",
    "hyperbolicity.quadruples",
    "projections.axiom_check_calls",
    "graphs.neighbors_calls",
    "graphs.graphs_built",
)


class Tracer:
    """Span and count recorder for one repeat in one process."""

    def __init__(self, repeat_id: int = 0):
        self.repeat_id = repeat_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.totals = {
            "hyperbolicity.quadruples": 0,
            "projections.triples_checked": 0,
            "quasitree.cross_edges": 0,
            "embedding.pairs": 0,
            "asdimlab.blocks": 0,
            "graphs.row_bytes_computed": 0,
        }
        self._neighbors_calls = [0]
        self._rows: set = set()
        self._graph_ids: dict[int, tuple] = {}
        self._graph_serials = itertools.count()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recording one span per call; ``on_return(args, result)``
        runs after the span closes, to count work from the returned value."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = t0
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args)

    # -- counters read from the call stream ---------------------------------

    def _graph_serial(self, g) -> int:
        entry = self._graph_ids.get(id(g))
        if entry is None or entry[0]() is not g:
            entry = (weakref.ref(g), next(self._graph_serials))
            self._graph_ids[id(g)] = entry
        return entry[1]

    def _on_row(self, args, row):
        g, u = args[0], args[1]
        key = (self._graph_serial(g), int(u))
        if key not in self._rows:
            self._rows.add(key)
            self.totals["graphs.row_bytes_computed"] += row.nbytes

    def _on_delta(self, args, rep):
        if rep.n_vertices >= 4:
            quads = comb(rep.n_vertices, 4) if rep.mode == "exact" else rep.samples
            self.totals["hyperbolicity.quadruples"] += quads

    def _adder(self, key, measure):
        totals = self.totals

        def on_return(args, result):
            totals[key] += measure(result)

        return on_return

    # -- install / uninstall -----------------------------------------------

    def install(self):
        """Wrap every traced function and method of the imported package."""
        import gromovlab.cli  # noqa: F401  (the package imports every other module)

        hooks = {
            "hyperbolicity.four_point_delta": self._on_delta,
            "graphs.MetricGraph.distances_from": self._on_row,
            "projections.axiom_check": self._adder(
                "projections.triples_checked", lambda r: r.triples_checked),
            "quasitree.build_quasitree": self._adder(
                "quasitree.cross_edges", lambda y: len(y.cross_edges)),
            "embedding.qi_fit": self._adder("embedding.pairs", lambda r: r.n_pairs),
            "asdimlab.cover_at_scale": self._adder("asdimlab.blocks", lambda c: len(c.blocks)),
        }
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "gromovlab" or k.startswith("gromovlab."))]
        for mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"gromovlab.{mod_name}"], attr)
            name = f"{mod_name}.{attr}"
            traced = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"gromovlab.{mod_name}"], cls_name)
            raw = cls.__dict__[attr]
            name = f"{mod_name}.{cls_name}.{attr}"
            if isinstance(raw, classmethod):
                traced = classmethod(self.wrap(name, raw.__func__, hooks.get(name)))
            else:
                traced = self.wrap(name, raw, hooks.get(name))
            self._patch(cls, attr, traced)
        metric_graph = sys.modules["gromovlab.graphs"].MetricGraph
        neighbors = metric_graph.__dict__["neighbors"]
        cell = self._neighbors_calls

        def counted_neighbors(g, v):
            cell[0] += 1
            return neighbors(g, v)

        self._patch(metric_graph, "neighbors", counted_neighbors)
        return self

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def arrays(self):
        import numpy as np

        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path):
        """Write every span (name, start, end, parent, repeat id) to ``path``."""
        import numpy as np

        cols = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            repeat=np.full(len(cols["name"]), self.repeat_id, dtype=np.int32),
            **cols,
        )

    def fold(self) -> dict:
        """Per-layer metrics of this repeat."""
        import numpy as np

        cols = self.arrays()
        name, parent = cols["name"], cols["parent"]
        dur = cols["end"] - cols["start"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        self_by_name = np.bincount(name, weights=self_time, minlength=k)
        calls_by_name = np.bincount(name, minlength=k)

        def self_of(span):
            nid = self._name_ids.get(span)
            return float(self_by_name[nid]) if nid is not None else 0.0

        def calls_of(span):
            nid = self._name_ids.get(span)
            return int(calls_by_name[nid]) if nid is not None else 0

        out = {m: sum(self_of(s) for s in spans) for m, spans in SELF_TIME.items()}
        out.update({m: calls_of(s) for m, s in CALLS.items()})
        out.update(self.totals)
        out["graphs.neighbors_calls"] = self._neighbors_calls[0]
        rows, row_calls = len(self._rows), out["graphs.distances_from_calls"]
        out["graphs.rows_distinct"] = rows
        out["graphs.row_hit_ratio"] = 1.0 - rows / row_calls if row_calls else 0.0
        fpd_self = out["hyperbolicity.four_point_delta_s"]
        out["hyperbolicity.quadruples_per_s"] = (
            out["hyperbolicity.quadruples"] / fpd_self if fpd_self > 0 else 0.0
        )

        ids = self._name_ids
        qi_fit = ids.get("embedding.qi_fit", -2)
        delta = ids.get("hyperbolicity.four_point_delta", -2)
        diag = (name == delta) & nested
        diag[diag] = name[parent[diag]] == qi_fit
        out["embedding.delta_diagnostic_s"] = float(dur[diag].sum())

        # an axiom audit is asked for only under `gromovlab axioms`; the ones
        # under quasitree/embed only resolve --theta auto
        audits = np.flatnonzero(name == ids.get("projections.axiom_check", -2))
        useful = 0
        for sid in audits:
            p = parent[sid]
            while p >= 0 and not self.names[name[p]].startswith("cli."):
                p = parent[p]
            useful += int(p >= 0 and self.names[name[p]] == "cli.axioms")
        out["projections.axiom_check_useful_ratio"] = useful / len(audits) if len(audits) else 0.0
        return out
