"""Coning off peripheral subgraph families, efficiency of paths, and an
empirical probe of the bounded-penetration behavior of quasi-geodesics."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from itertools import combinations

import numpy as np

from .graphs import (
    MetricGraph,
    check_int,
    check_int_lists,
    check_int_pairs,
    check_real,
    graph_from_obj,
    graph_to_obj,
    read_json,
    unwrap_payload,
)


class FormatError(ValueError):
    """Malformed on-disk structure (e.g. corrupted cone adjacency)."""


class SubgraphFamily:
    """Indexed family of connected vertex-induced subgraphs H_0, H_1, ...

    Members may overlap; each member is stored as a sorted vertex tuple and
    the index of a member is its position.
    """

    def __init__(self, members):
        norm = []
        for member in members:
            vs = tuple(sorted({check_int("vertex id", v) for v in member}))
            if not vs:
                raise ValueError("family member must be a nonempty vertex set")
            if any(v < 0 for v in vs):
                raise ValueError("family member contains a negative vertex id")
            norm.append(vs)
        self._members = tuple(norm)

    @property
    def members(self) -> tuple:
        return self._members

    def __len__(self):
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    def __getitem__(self, c: int) -> tuple:
        return self._members[c]

    def check_index(self, c) -> int:
        """``c`` as a member index: an integer in 0..m-1."""
        c = check_int("member index", c)
        if not 0 <= c < len(self._members):
            raise ValueError(f"unknown member index {c} (family has {len(self._members)} members)")
        return c

    def __eq__(self, other):
        if not isinstance(other, SubgraphFamily):
            return NotImplemented
        return self._members == other._members

    def __repr__(self):
        return f"SubgraphFamily({len(self._members)} members)"

    def validate_member(self, g: MetricGraph, c: int):
        member = self._members[c]
        if member[-1] >= g.n:
            raise ValueError(f"family member {c} references unknown vertex {member[-1]}")
        if not g.is_connected_subset(member):
            raise ValueError(f"family member {c} does not induce a connected subgraph")

    def validate_against(self, g: MetricGraph):
        for c in range(len(self._members)):
            self.validate_member(g, c)

    def is_overlapping(self) -> bool:
        return sum(map(len, self._members)) != len(set().union(*self._members))


def family_to_obj(fam: SubgraphFamily) -> dict:
    return {"peripherals": [list(m) for m in fam.members]}


def family_from_obj(obj) -> SubgraphFamily:
    obj = unwrap_payload(obj)
    if not isinstance(obj, dict) or "peripherals" not in obj:
        raise ValueError('family JSON must be an object with "peripherals"')
    return SubgraphFamily(check_int_lists("peripherals", obj["peripherals"]))


def load_family(path) -> SubgraphFamily:
    return family_from_obj(read_json(path))


class ElectrifiedGraph:
    """The base graph and family that ``electrify`` was given, and the graph
    that cones them off.

    Cone vertex for member c has id base_size + c and is adjacent to exactly
    H_c.  The base graph is recovered by dropping all cone vertices.
    """

    def __init__(self, base: MetricGraph, family: SubgraphFamily, graph: MetricGraph):
        self._base = base
        self.family = family
        self.graph = graph
        self.base_size = base.n
        self._intrinsic_cache = {}

    def base_graph(self) -> MetricGraph:
        return self._base

    def is_cone(self, v: int) -> bool:
        return v >= self.base_size

    def cone_index(self, v: int) -> int:
        v = check_int("vertex id", v)
        if not self.base_size <= v < self.graph.n:
            raise ValueError(f"vertex {v} is not a cone vertex")
        return v - self.base_size

    def intrinsic(self, c: int):
        """Induced subgraph of member c in the base graph, with its id map."""
        c = self.family.check_index(c)
        if c not in self._intrinsic_cache:
            self._intrinsic_cache[c] = self._base.induced(self.family[c])
        return self._intrinsic_cache[c]

    def _member_ids(self, c: int, a: int, b: int):
        """(induced subgraph of member c, ids of a and b in it)."""
        sub, old_to_new = self.intrinsic(c)
        try:
            return sub, old_to_new[check_int("vertex id", a)], old_to_new[check_int("vertex id", b)]
        except KeyError as exc:
            raise ValueError(f"vertex {exc.args[0]} is not in member {c}") from None

    def intrinsic_distance(self, c: int, a: int, b: int) -> int:
        sub, i, j = self._member_ids(c, a, b)
        return sub.shortest_distance(i, j)

    def intrinsic_geodesic(self, c: int, a: int, b: int) -> list:
        # induced() numbers the sorted member 0..k-1
        sub, i, j = self._member_ids(c, a, b)
        return [self.family[c][x] for x in sub.geodesic(i, j)]


def electrify(g: MetricGraph, fam: SubgraphFamily) -> ElectrifiedGraph:
    """Add one cone vertex per family member, adjacent to exactly that member.

    Rejects families that do not validate against ``g`` and re-coning: if a
    vertex labelled ``cone...``, as ``electrify`` labels its cone vertices, is
    adjacent to exactly H_c, the member counts as already electrified.  Any
    other vertex adjacent to exactly H_c (the third corner of a triangle on
    an edge member, a leaf next to a one-vertex member) is no cone.
    """
    fam.validate_against(g)
    labels = g.labels
    for c, member in enumerate(fam.members):
        # a vertex that cones H neighbours H[0] and its sorted neighbours are H
        for u in g.neighbors(member[0]):
            if labels.get(u, "").startswith("cone") and g.neighbors(u) == member:
                raise ValueError(
                    f"family member {c} is already electrified (vertex {u} cones it)"
                )
    edges = list(g.edges)
    for c, member in enumerate(fam.members):
        labels[g.n + c] = f"cone{c}"
        edges.extend((h, g.n + c) for h in member)
    return ElectrifiedGraph(g, fam, MetricGraph(g.n + len(fam), edges, labels))


def _split(graph: MetricGraph, base_size: int):
    """(base graph, family) of a coned graph: the base is the subgraph on
    the first ``base_size`` vertices, member c the neighbours of vertex
    base_size + c."""
    # edges are sorted pairs (u, v) with u < v
    base_edges = [(u, v) for (u, v) in graph.edges if v < base_size]
    base_labels = {v: lab for v, lab in graph.labels.items() if v < base_size}
    base = MetricGraph(base_size, base_edges, base_labels)
    fam = SubgraphFamily([graph.neighbors(vc) for vc in range(base_size, graph.n)])
    return base, fam


def de_electrify(eg: ElectrifiedGraph):
    """Inverse of electrify: the (base graph, family) read off ``eg.graph``
    alone.  Round trips exactly."""
    return _split(eg.graph, eg.base_size)


def eg_to_obj(eg: ElectrifiedGraph) -> dict:
    return {
        "graph": graph_to_obj(eg.graph),
        "base_size": eg.base_size,
        "cones": [[c, eg.base_size + c] for c in range(len(eg.family))],
    }


def eg_from_obj(obj) -> ElectrifiedGraph:
    """The electrified graph of an ``.eg.json`` payload, accepted only if its
    graph is exactly ``electrify`` of the base graph and family it holds."""
    obj = unwrap_payload(obj)
    if not isinstance(obj, dict) or "graph" not in obj or "base_size" not in obj:
        raise FormatError('electrified-graph JSON needs "graph", "base_size", "cones"')
    try:
        graph = graph_from_obj(obj["graph"])
        base_size = check_int("base_size", obj["base_size"], 0)
        cones = check_int_pairs("cones", obj.get("cones", []))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if base_size > graph.n:
        raise FormatError("base_size exceeds vertex count")
    if sorted(c for c, _ in cones) != list(range(graph.n - base_size)):
        raise FormatError("cone indices must be dense 0..m-1")
    for c, vc in cones:
        if vc != base_size + c:
            raise FormatError(f"cone vertex for member {c} must have id {base_size + c}")
    try:
        eg = electrify(*_split(graph, base_size))
    except ValueError as exc:
        raise FormatError(f"not an electrified graph: {exc}") from exc
    if eg.graph != graph:
        raise FormatError("graph is not the electrification of its base graph and family")
    return eg


def load_eg(path) -> ElectrifiedGraph:
    return eg_from_obj(read_json(path))


def cone_visits(walk, eg: ElectrifiedGraph) -> list:
    """Positions k where the walk sits on a cone vertex, as (k, member index)."""
    return [(k, eg.cone_index(v)) for k, v in enumerate(walk) if eg.is_cone(v)]


def check_walk(walk, graph: MetricGraph) -> None:
    """Raise unless ``walk`` is a nonempty sequence of integer vertex ids of
    ``graph`` whose every step is an edge."""
    if len(walk) == 0:
        raise ValueError("empty walk")
    for v in walk:
        if check_int("walk vertex", v) < 0 or v >= graph.n:
            raise ValueError(f"walk vertex {v} not in the graph")
    for a, b in zip(walk, walk[1:]):
        if b not in graph.neighbors(a):
            raise ValueError(f"walk step {a}->{b} is not an edge")


def is_efficient(walk, eg: ElectrifiedGraph) -> bool:
    """True iff the walk visits each cone vertex at most once and every cone
    visit enters and leaves through the coned member."""
    check_walk(walk, eg.graph)
    # steps are edges and a cone neighbours only its member: entries are clean
    cones = [c for _, c in cone_visits(walk, eg)]
    return len(cones) == len(set(cones))


@dataclass
class PenetrationReport:
    L: float
    p_estimate: int
    samples: int
    seed: int
    deep_threshold: int
    alternates: int
    missed_total: int
    overlapping_family: bool
    records: list = field(default_factory=list)

    def to_obj(self) -> dict:
        # shallow: the records are plain JSON values, so nothing needs a copy
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _astar_path(nbrs, weights: list, hops: list, source: int, target: int) -> list:
    """Least-weight walk from ``source`` to ``target`` by A* search (Hart,
    Nilsson and Raphael, 1968).  ``nbrs[x]`` lists (neighbour, edge index)
    pairs, ``weights`` is indexed by edge and every weight is >= 1, and
    ``hops`` is the BFS row of ``target``.  Hop counts change by at most one
    along an edge, so hops(x) <= W(x, w) + hops(w): the heuristic is
    consistent, every vertex is settled at its exact least weight, and the
    walk is the one Dijkstra's search returns, since both add the weights in
    the same order from the source."""
    inf = float("inf")
    dist = [inf] * len(hops)
    dist[source] = 0.0
    prev = {}
    heap = [(hops[source], 0.0, source)]
    while heap:
        _, d, x = heapq.heappop(heap)
        if x == target:
            break
        if d > dist[x]:
            continue  # stale entry: x was reached more cheaply since
        for w, e in nbrs[x]:
            nd = d + weights[e]
            if nd < dist[w]:
                dist[w] = nd
                prev[w] = x
                heapq.heappush(heap, (nd + hops[w], nd, w))
    walk = [target]
    while walk[-1] != source:
        walk.append(prev[walk[-1]])
    walk.reverse()
    return walk


def penetration_profile(
    eg: ElectrifiedGraph,
    L: float,
    samples: int,
    seed: int,
    deep_threshold: int = 4,
    alternates: int = 4,
) -> PenetrationReport:
    """Probe how uniformly quasi-geodesics cross peripheral members.

    For sampled base endpoint pairs, generates efficient L-quasi-geodesics by
    perturbed-weight rerouting (uniform edge weights in [1, L], then shortest
    path; a path is accepted iff its unit length is <= L*d + L).  For every
    deep cone crossing the report records how far apart the entry/exit points
    of different paths sit inside the member, and how many comparison paths
    miss the cone entirely.  p_estimate is the max observed entry/exit spread.

    Each pair (u, v) reads one cached BFS row, that of v: it gives the hop
    distance d, the canonical geodesic, and the heuristic of the A* search
    that finds each rerouted path.  Weights are >= 1, so hop counts never
    overestimate the remaining weight and A* returns Dijkstra's path while
    settling only the vertices whose weight plus hops to v stays below the
    path's weight: on tree_of_rings(3, 3, 12), 23 of 469 per search against
    Dijkstra's 241.
    """
    L = check_real("quasi-geodesic quality L", L, 1)
    samples = check_int("sampling budget", samples, 1)
    deep_threshold = check_int("deep_threshold", deep_threshold, 1)
    alternates = check_int("alternates", alternates, 0)
    seed = check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    graph = eg.graph
    base_n = eg.base_size
    hi = max(L, 1.0 + 1e-6)
    edge_index = {e: i for i, e in enumerate(graph.edges)}
    nbrs = [
        tuple((w, edge_index[(x, w) if x < w else (w, x)]) for w in graph._adj[x])
        for x in range(graph.n)
    ]
    records = []
    p_estimate = 0
    missed_total = 0
    for _ in range(samples):
        u = int(rng.integers(base_n))
        v = int(rng.integers(base_n))
        if u == v:
            continue
        to_v = graph.distances_from(v)
        d_eg = int(to_v[u])
        hops = to_v.tolist()
        paths = [graph.geodesic(u, v)]
        for _ in range(alternates):
            weights = rng.uniform(1.0, hi, len(graph.edges)).tolist()
            cand = _astar_path(nbrs, weights, hops, u, v)
            if len(cand) - 1 <= L * d_eg + L:
                paths.append(cand)
        # deep crossings: compare entry/exit points across all sampled paths
        by_cone = {}
        for path_ in paths:
            for k, c in cone_visits(path_, eg):
                by_cone.setdefault(c, []).append((path_[k - 1], path_[k + 1]))
        for c in sorted(by_cone):
            crossings = by_cone[c]
            # entry and exit points neighbour cone c, so they are members of c
            # and have ids in its induced subgraph
            sub, ids = eg.intrinsic(c)
            inner = [(ids[a], ids[b]) for a, b in crossings]
            depth = max(int(sub.distances_from(i)[j]) for i, j in inner)
            if depth < deep_threshold:
                continue
            # entry to entry and exit to exit, for every two crossings
            ends = [ij for two in combinations(inner, 2) for ij in zip(*two)]
            spread = max((int(sub.distances_from(i)[j]) for i, j in ends), default=0)
            missed = len(paths) - len(crossings)
            missed_total += missed
            p_estimate = max(p_estimate, spread)
            records.append(
                {
                    "pair": [u, v],
                    "member": c,
                    "depth": depth,
                    "spread": spread,
                    "paths": len(paths),
                    "crossed": len(crossings),
                    "missed": missed,
                }
            )
    return PenetrationReport(
        L=L,
        p_estimate=p_estimate,
        samples=samples,
        seed=seed,
        deep_threshold=deep_threshold,
        alternates=alternates,
        missed_total=missed_total,
        overlapping_family=eg.family.is_overlapping(),
        records=records,
    )
