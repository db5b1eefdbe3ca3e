"""Coning off peripheral subgraph families, efficiency of paths, and an
empirical probe of the bounded-penetration behavior of quasi-geodesics."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields

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

    def __eq__(self, other):
        if not isinstance(other, SubgraphFamily):
            return NotImplemented
        return self._members == other._members

    def __repr__(self):
        return f"SubgraphFamily({len(self._members)} members)"

    def validate_against(self, g: MetricGraph):
        for c, member in enumerate(self._members):
            if member[-1] >= g.n:
                raise ValueError(f"family member {c} references unknown vertex {member[-1]}")
            if not g.is_connected_subset(member):
                raise ValueError(f"family member {c} does not induce a connected subgraph")

    def is_overlapping(self) -> bool:
        seen = set()
        for member in self._members:
            for v in member:
                if v in seen:
                    return True
            seen.update(member)
        return False


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
    """A graph together with one cone vertex per family member.

    Cone vertex for member c has id base_size + c and is adjacent to exactly
    H_c.  The base graph is recovered by dropping all cone vertices.
    """

    def __init__(self, graph: MetricGraph, base_size: int, cone_of: dict):
        self.graph = graph
        self.base_size = int(base_size)
        self.cone_of = dict(cone_of)
        _validate_cone_structure(self.graph, self.base_size, self.cone_of)
        self._intrinsic_cache = {}
        self._base = None
        self._family = SubgraphFamily(
            [graph.neighbors(self.cone_of[c]) for c in sorted(self.cone_of)]
        )

    @property
    def family(self) -> SubgraphFamily:
        return self._family

    def base_graph(self) -> MetricGraph:
        if self._base is None:
            self._base, _ = de_electrify(self)
        return self._base

    def is_cone(self, v: int) -> bool:
        return v >= self.base_size

    def cone_index(self, v: int) -> int:
        if not self.is_cone(v):
            raise ValueError(f"vertex {v} is not a cone vertex")
        return v - self.base_size

    def intrinsic(self, c: int):
        """Induced subgraph of member c in the base graph, with its id map."""
        cached = self._intrinsic_cache.get(c)
        if cached is None:
            cached = self.base_graph().induced(self._family[c])
            self._intrinsic_cache[c] = cached
        return cached

    def intrinsic_distance(self, c: int, a: int, b: int) -> int:
        sub, old_to_new = self.intrinsic(c)
        return sub.shortest_distance(old_to_new[a], old_to_new[b])

    def intrinsic_geodesic(self, c: int, a: int, b: int) -> list:
        sub, old_to_new = self.intrinsic(c)
        new_to_old = {i: v for v, i in old_to_new.items()}
        return [new_to_old[x] for x in sub.geodesic(old_to_new[a], old_to_new[b])]


def _validate_cone_structure(graph: MetricGraph, base_size: int, cone_of: dict):
    m = graph.n - base_size
    if m < 0:
        raise FormatError("base_size exceeds vertex count")
    if sorted(cone_of) != list(range(m)):
        raise FormatError("cone indices must be dense 0..m-1")
    for c, vc in cone_of.items():
        if vc != base_size + c:
            raise FormatError(f"cone vertex for member {c} must have id {base_size + c}")
        nbrs = graph.neighbors(vc)
        if not nbrs:
            raise FormatError(f"cone vertex {vc} has no neighbors")
        if any(w >= base_size for w in nbrs):
            raise FormatError(f"cone vertex {vc} is adjacent to another cone vertex")


def electrify(g: MetricGraph, fam: SubgraphFamily) -> ElectrifiedGraph:
    """Add one cone vertex per family member, adjacent to exactly that member.

    Rejects families that do not validate against ``g`` and re-coning: if some
    existing vertex is already adjacent to exactly H_c (the structural
    fingerprint of a cone), the member counts as already electrified.
    """
    fam.validate_against(g)
    for c, member in enumerate(fam.members):
        hset = set(member)
        # a vertex that cones H neighbours H's first vertex
        for u in g.neighbors(member[0]):
            if u in hset or g.degree(u) != len(hset):
                continue
            if set(g.neighbors(u)) == hset:
                raise ValueError(
                    f"family member {c} is already electrified (vertex {u} cones it)"
                )
    edges = list(g.edges)
    labels = g.labels
    for c, member in enumerate(fam.members):
        vc = g.n + c
        labels[vc] = f"cone{c}"
        for h in member:
            edges.append((h, vc))
    eg_graph = MetricGraph(g.n + len(fam), edges, labels or None)
    return ElectrifiedGraph(eg_graph, g.n, {c: g.n + c for c in range(len(fam))})


def de_electrify(eg: ElectrifiedGraph):
    """Inverse of electrify: returns (base graph, family), checking that each
    member is connected in the base graph.  Round trips exactly."""
    graph = eg.graph
    base_size = eg.base_size
    base_edges = [(u, v) for (u, v) in graph.edges if u < base_size and v < base_size]
    base_labels = {v: lab for v, lab in graph.labels.items() if v < base_size}
    base = MetricGraph(base_size, base_edges, base_labels or None)
    eg.family.validate_against(base)
    return base, eg.family


def eg_to_obj(eg: ElectrifiedGraph) -> dict:
    return {
        "graph": graph_to_obj(eg.graph),
        "base_size": eg.base_size,
        "cones": [[c, vc] for c, vc in sorted(eg.cone_of.items())],
    }


def eg_from_obj(obj) -> ElectrifiedGraph:
    obj = unwrap_payload(obj)
    if not isinstance(obj, dict) or "graph" not in obj or "base_size" not in obj:
        raise FormatError('electrified-graph JSON needs "graph", "base_size", "cones"')
    try:
        graph = graph_from_obj(obj["graph"])
        base_size = check_int("base_size", obj["base_size"], 0)
        cone_of = dict(check_int_pairs("cones", obj.get("cones", [])))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    return ElectrifiedGraph(graph, base_size, cone_of)


def load_eg(path) -> ElectrifiedGraph:
    return eg_from_obj(read_json(path))


def cone_visits(walk, eg: ElectrifiedGraph) -> list:
    """Positions k where the walk sits on a cone vertex, as (k, member index)."""
    return [(k, eg.cone_index(v)) for k, v in enumerate(walk) if eg.is_cone(v)]


def is_efficient(walk, eg: ElectrifiedGraph) -> bool:
    """True iff the walk visits each cone vertex at most once and every cone
    visit enters and leaves through the coned member."""
    graph = eg.graph
    if not walk:
        raise ValueError("empty walk")
    for v in walk:
        if check_int("walk vertex", v) < 0 or v >= graph.n:
            raise ValueError(f"walk vertex {v} not in the graph")
    for a, b in zip(walk, walk[1:]):
        if b not in graph.neighbors(a):
            raise ValueError(f"walk step {a}->{b} is not an edge")
    seen_cones = set()
    for k, c in cone_visits(walk, eg):
        if c in seen_cones:
            return False
        seen_cones.add(c)
        member = set(eg.family[c])
        if k > 0 and walk[k - 1] not in member:
            return False
        if k + 1 < len(walk) and walk[k + 1] not in member:
            return False
    return True


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
            if len(cand) - 1 <= L * d_eg + L and is_efficient(cand, eg):
                paths.append(cand)
        # deep crossings: compare entry/exit points across all sampled paths
        by_cone = {}
        for path_ in paths:
            for k, c in cone_visits(path_, eg):
                entry, exit_ = path_[k - 1], path_[k + 1]
                by_cone.setdefault(c, []).append((entry, exit_))
        for c in sorted(by_cone):
            crossings = by_cone[c]
            depth = max(eg.intrinsic_distance(c, a, b) for a, b in crossings)
            if depth < deep_threshold:
                continue
            spread = 0
            for i in range(len(crossings)):
                for j in range(i + 1, len(crossings)):
                    e1, x1 = crossings[i]
                    e2, x2 = crossings[j]
                    spread = max(
                        spread,
                        eg.intrinsic_distance(c, e1, e2),
                        eg.intrinsic_distance(c, x1, x2),
                    )
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
