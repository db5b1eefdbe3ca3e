"""Finite connected graphs with unit-length edges: the metric universe.

Every other module works on top of the distances, canonical geodesics, balls
and induced subgraphs defined here.  Graphs are immutable after construction
and all operations are pure, so concurrent readers are safe.
"""

from __future__ import annotations

import json
import math
import numbers
from functools import reduce
from itertools import chain
from operator import or_

import numpy as np


class SizeLimitError(RuntimeError):
    """An exact computation was refused because the input is too large."""


def check_int(name: str, value, minimum=None) -> int:
    """``value`` as an int; booleans and non-integers are rejected, and so is
    anything below ``minimum`` when one is given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_theta(value) -> float:
    """A threshold theta as a float: a finite real number > 0 (booleans,
    strings, nan and infinities are rejected)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"theta must be a real number, got {value!r:.60}")
    theta = float(value)
    if not math.isfinite(theta) or theta <= 0:
        raise ValueError(f"theta must be a finite positive number, got {value!r}")
    return theta


def check_int_lists(name: str, value) -> list:
    """``value`` as a list of lists of ints: edges, members or blocks read
    from a JSON artifact, rejected with a ValueError when mistyped."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, (list, tuple)) for item in value
    ):
        raise ValueError(f'"{name}" must be a list of integer lists, got {value!r:.60}')
    return [[check_int(f"{name} entry", v) for v in item] for item in value]


def check_int_pairs(name: str, value) -> list:
    """``value`` as a list of integer pairs (cones, tags), rejected with a
    ValueError when mistyped."""
    pairs = check_int_lists(name, value)
    for item in pairs:
        if len(item) != 2:
            raise ValueError(f'"{name}" entries must be integer pairs, got {item!r:.60}')
    return pairs


def _check_vertex(n: int, v) -> int:
    v = check_int("vertex id", v)
    if v < 0 or v >= n:
        raise ValueError(f"unknown vertex id {v} (graph has {n} vertices)")
    return v


def _bfs_levels(adj, seeds, radius=None, within=None):
    """Breadth-first search over the adjacency tuples ``adj``: yields
    (d, vertices at distance d from ``seeds``) level by level, up to
    ``radius`` if given, walking only through ``within`` if given.

    The BFS from one seed set: rows, balls, multi-source distances,
    connectivity, labelled BFS and dilations.  Set diameters, which need many
    single sources, use ``_bit_bfs`` instead.  It trusts its inputs: seeds
    are distinct valid ids, checked once by the caller.  Consumers that stop
    early just stop iterating, and the remaining levels are never expanded.
    """
    seen = set(seeds)
    level = list(seeds)
    d = 0
    while level:
        yield d, level
        if d == radius:
            return
        d += 1
        nxt = []
        for x in level:
            for w in adj[x]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if within is not None:
            # vertices outside are marked seen but never expanded
            nxt = [w for w in nxt if w in within]
        level = nxt


class MetricGraph:
    """Connected unweighted graph on dense vertex ids 0..n-1.

    Edges all have length one.  Self-loops, parallel edges and disconnected
    inputs are rejected.  Distance rows are BFS distances, cached per source,
    so repeated metric queries amortize to O(1).
    """

    __hash__ = None

    def __init__(self, n: int, edges, labels=None):
        n = check_int("vertex count", n, 1)
        adjacency = [[] for _ in range(n)]
        seen = set()
        norm_edges = []
        for e in edges:
            e = tuple(e)
            if len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair (weighted edges are not supported)")
            u = _check_vertex(n, e[0])
            v = _check_vertex(n, e[1])
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"parallel edge {key}")
            seen.add(key)
            norm_edges.append(key)
            adjacency[u].append(v)
            adjacency[v].append(u)
        self._n = n
        self._edges = tuple(sorted(norm_edges))
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        if labels:
            self._labels = {_check_vertex(n, k): str(lab) for k, lab in dict(labels).items()}
        else:
            self._labels = {}
        self._dist_rows: dict[int, np.ndarray] = {}
        self._dist_matrix = None
        self._csr = None
        self._check_connected()

    def _check_connected(self):
        count = sum(len(level) for _, level in _bfs_levels(self._adj, [0]))
        if count != self._n:
            raise ValueError(f"graph is disconnected ({count} of {self._n} vertices reachable)")

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple:
        return self._edges

    @property
    def labels(self) -> dict:
        return dict(self._labels)

    def label(self, v: int):
        return self._labels.get(_check_vertex(self._n, v))

    def neighbors(self, v: int) -> tuple:
        return self._adj[_check_vertex(self._n, v)]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def __eq__(self, other):
        if not isinstance(other, MetricGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._edges == other._edges
            and self._labels == other._labels
        )

    def __repr__(self):
        return f"MetricGraph(n={self._n}, edges={len(self._edges)})"

    # -- metric ------------------------------------------------------------

    def distances_from(self, u: int) -> np.ndarray:
        """BFS distance row from ``u``; read-only, cached per source."""
        u = _check_vertex(self._n, u)
        row = self._dist_rows.get(u)
        if row is None:
            row = multi_source_distances(self, [u])
            row.setflags(write=False)
            self._dist_rows[u] = row
        return row

    def distance_matrix(self) -> np.ndarray:
        """Full all-pairs distance matrix (cached); O(n^2) memory."""
        if self._dist_matrix is None:
            mat = np.vstack([self.distances_from(u) for u in range(self._n)])
            mat.setflags(write=False)
            self._dist_matrix = mat
        return self._dist_matrix

    def shortest_distance(self, u: int, v: int) -> int:
        v = _check_vertex(self._n, v)
        return int(self.distances_from(u)[v])

    def geodesic(self, u: int, v: int) -> list:
        """Canonical shortest path from u to v.

        Ties broken by always stepping to the smallest-id neighbor that is one
        step closer to v, so the result is deterministic and reproducible.
        """
        u = _check_vertex(self._n, u)
        v = _check_vertex(self._n, v)
        to_v = self.distances_from(v)
        walk = [u]
        cur = u
        while cur != v:
            target = to_v[cur] - 1
            for w in self._adj[cur]:
                if to_v[w] == target:
                    cur = w
                    break
            walk.append(cur)
        return walk

    def ball(self, u: int, r: int) -> list:
        """Sorted vertex ids within distance r of u (truncated BFS, uncached)."""
        u = _check_vertex(self._n, u)
        r = check_int("radius", r, 0)
        return sorted(w for _, level in _bfs_levels(self._adj, [u], r) for w in level)

    # -- derived graphs ------------------------------------------------------

    def induced(self, vertices):
        """Induced subgraph on ``vertices`` with dense relabeling.

        Returns (subgraph, old_to_new map).  Raises ValueError if the induced
        subgraph is disconnected or empty.
        """
        vs = sorted({_check_vertex(self._n, v) for v in vertices})
        if not vs:
            raise ValueError("induced subgraph needs at least one vertex")
        old_to_new = {v: i for i, v in enumerate(vs)}
        inside = set(vs)
        sub_edges = [
            (old_to_new[a], old_to_new[b])
            for (a, b) in self._edges
            if a in inside and b in inside
        ]
        labels = {old_to_new[v]: self._labels[v] for v in vs if v in self._labels}
        sub = MetricGraph(len(vs), sub_edges, labels or None)
        return sub, old_to_new

    def is_connected_subset(self, vertices) -> bool:
        vs = {_check_vertex(self._n, v) for v in vertices}
        if not vs:
            return False
        reached = sum(len(level) for _, level in _bfs_levels(self._adj, [min(vs)], within=vs))
        return reached == len(vs)


def bfs_levels(g: MetricGraph, sources, radius=None):
    """(d, vertices at distance d from the set ``sources``), level by level,
    up to ``radius`` if given."""
    seeds = sorted({_check_vertex(g.n, s) for s in sources})
    if not seeds:
        raise ValueError("need at least one source vertex")
    if radius is not None:
        radius = check_int("radius", radius, 0)
    return _bfs_levels(g._adj, seeds, radius)


def multi_source_distances(g: MetricGraph, sources) -> np.ndarray:
    """BFS distance to the nearest of ``sources`` for every vertex."""
    row = np.full(g.n, -1, dtype=np.int32)
    for d, level in bfs_levels(g, sources):
        row[level] = d
    return row


def nearest_points(g: MetricGraph, H):
    """(dist, labels) from one BFS out of H: dist[v] is the distance from v to H,
    and bit i of the int labels[v] is set iff sorted(H)[i] is nearest to v,
    exactly: a vertex's label is the union of its neighbours' one level closer."""
    dist = [g.n] * g.n  # g.n: not reached yet
    labels = [0] * g.n
    for d, level in bfs_levels(g, H):
        for i, w in enumerate(level):  # level 0 is sorted(H)
            dist[w] = d
            labels[w] = 0 if d else 1 << i
            for x in g._adj[w]:
                if dist[x] == d - 1:
                    labels[w] |= labels[x]
    return np.asarray(dist, dtype=np.int32), labels


def nearest_set(hs: list, labels: list, xs) -> tuple:
    """The points of hs = sorted(H) nearest to some vertex of xs, from nearest_points(g, H)."""
    mask = reduce(or_, (labels[x] for x in xs))
    return tuple(h for i, h in enumerate(hs) if mask >> i & 1)


def _csr(g: MetricGraph):
    """(nbrs, starts): ``g._adj`` as one flat neighbour array with each
    vertex's start offset, built once per graph."""
    if g._csr is None:
        starts = np.zeros(g.n, dtype=np.intp)
        np.cumsum([len(nb) for nb in g._adj[:-1]], out=starts[1:])
        nbrs = np.fromiter(chain.from_iterable(g._adj), dtype=np.intp, count=2 * len(g._edges))
        g._csr = (nbrs, starts)
    return g._csr


def _bit_bfs(g: MetricGraph, sources, targets, cap=None) -> np.ndarray:
    """(k, m) distances from k <= 64 distinct ``sources`` to m ``targets``,
    from one bit-parallel BFS (Akiba, Iwata and Yoshida, SIGMOD 2013).

    Every vertex holds a uint64 word whose bit i is set once source i has
    reached it; one level ORs each word with its neighbours' words.  The
    search stops once every target holds every bit, or after level cap + 1,
    and targets still unreached then read cap + 2, a lower bound.  Levels are
    recorded as they come: a target's distance from source i is the number
    of levels at which bit i was missing, kept in bit-sliced counters (word j
    holds bit j of every count), so a pass holds one word per vertex and
    log2(levels + 2) words per target.  It trusts its inputs, as
    ``_bfs_levels`` does.
    """
    nbrs, starts = _csr(g)
    targets = np.asarray(targets, dtype=np.intp)
    k = len(sources)
    reach = np.zeros(g.n, dtype=np.uint64)
    reach[sources] = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
    full = np.bitwise_or.reduce(reach[sources])
    last = g.n if cap is None else cap + 1  # no distance reaches n
    counts = []
    d = 0
    while True:
        carry = full & ~reach[targets]
        if not carry.any():
            break
        for j, word in enumerate(counts):
            counts[j], carry = word ^ carry, word & carry
            if not carry.any():
                break
        else:
            counts.append(carry)
        if d == last:
            break
        reach |= np.bitwise_or.reduceat(reach[nbrs], starts)
        d += 1
    out = np.zeros((k, len(targets)), dtype=np.int32)
    for word in reversed(counts):  # Horner, in place: out = 2 * out + bit
        bits = np.unpackbits(word.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        out <<= 1
        out += bits[:, :k].T
    return out


def set_diameter(g: MetricGraph, vertices, cap=None) -> int:
    """Diameter of a vertex set S in the ambient graph metric.

    Exact when ``cap`` is None or the diameter is at most ``cap``; otherwise
    some value above ``cap`` (a lower bound on the diameter), returned as
    soon as a pass proves it.  When every member's distance row is cached,
    the rows are read directly.  Otherwise each member keeps bounds
    lo <= ecc_S <= hi (Takes and Kosters, "Determining the diameter of small
    world networks", 2011): a source at distances d from S with e = max d
    gives lo >= max(d, e - d) and hi <= e + d.  The sources come 64 at a
    time from ``_bit_bfs``: first 64 members spread evenly over sorted S,
    then 32 open members of largest hi and 32 of smallest lo.  A member
    closes once hi <= best, the largest lower bound so far.  Nothing is
    cached, so callers with many one-off sets (cover blocks) do not fill the
    row cache.
    """
    vs = sorted({_check_vertex(g.n, v) for v in vertices})
    if not vs:
        raise ValueError("diameter of an empty set")
    if cap is not None:
        cap = check_int("diameter cap", cap, 0)
    if len(vs) == 1:
        return 0
    arr = np.asarray(vs)
    rows = [g._dist_rows.get(s) for s in vs]
    if all(row is not None for row in rows):
        return max(int(row[arr].max()) for row in rows)
    m = len(vs)
    lo = np.zeros(m, dtype=np.int64)
    hi = np.full(m, np.iinfo(np.int64).max)
    closed = np.zeros(m, dtype=bool)
    picks = np.linspace(0, m - 1, min(m, 64)).astype(np.intp)
    while True:
        d = _bit_bfs(g, arr[picks], arr, cap)
        e = d.max(axis=1, keepdims=True)
        if cap is not None and e.max() > cap:
            return int(e.max())  # at most the diameter: a distance or cap + 2
        np.maximum(lo, np.maximum(d, e - d).max(axis=0), out=lo)
        np.minimum(hi, (e + d).min(axis=0), out=hi)
        best = int(lo.max())  # lo of a source is its e
        closed[picks] = True
        closed |= hi <= best
        picks = np.flatnonzero(~closed)
        if not picks.size:
            return best
        if picks.size > 64:
            wide = picks[np.argsort(-hi[picks], kind="stable")[:32]]
            rest = np.setdiff1d(picks, wide)
            picks = np.concatenate([wide, rest[np.argsort(lo[rest], kind="stable")[:32]]])


def biconnected_blocks(g: MetricGraph) -> list:
    """Vertex sets of the biconnected blocks of ``g`` (maximal subgraphs
    without a cut vertex; a bridge is a block of two), each sorted, in sorted
    order.  A one-vertex graph has no block.

    Iterative Tarjan: a depth-first walk over ``_adj`` keeps each vertex's
    discovery time and low point, and a child ``v`` of ``u`` with
    low(v) >= disc(u) closes the block made of ``u`` and the vertices stacked
    since ``v``.
    """
    adj = g._adj
    disc = [-1] * g.n
    low = [0] * g.n
    disc[0] = 0
    count = 1
    stack = [0]
    walk = [(0, iter(adj[0]))]
    blocks = []
    while walk:
        v, nbrs = walk[-1]
        for w in nbrs:
            if disc[w] < 0:
                disc[w] = low[w] = count
                count += 1
                stack.append(w)
                walk.append((w, iter(adj[w])))
                break
            low[v] = min(low[v], disc[w])
        else:
            walk.pop()
            if walk:
                u = walk[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    block = [u]
                    while block[-1] != v:
                        block.append(stack.pop())
                    blocks.append(sorted(block))
    return sorted(blocks)


def cartesian_product(gx: MetricGraph, gy: MetricGraph) -> MetricGraph:
    """Cartesian product graph; vertex (x, y) gets id x * gy.n + y."""
    ny = gy.n
    edges = []
    for (a, b) in gx.edges:
        for y in range(ny):
            edges.append((a * ny + y, b * ny + y))
    for x in range(gx.n):
        for (a, b) in gy.edges:
            edges.append((x * ny + a, x * ny + b))
    return MetricGraph(gx.n * ny, edges)


# -- serialization -----------------------------------------------------------

def graph_to_obj(g: MetricGraph) -> dict:
    obj = {"n": g.n, "edges": [[u, v] for (u, v) in g.edges]}
    labels = g.labels
    if labels:
        obj["labels"] = {str(k): v for k, v in sorted(labels.items())}
    return obj


def unwrap_payload(obj):
    """Accept either a bare payload or a {"manifest":..., "data":...} wrapper."""
    if isinstance(obj, dict) and "data" in obj and "manifest" in obj:
        return obj["data"]
    return obj


def graph_from_obj(obj) -> MetricGraph:
    obj = unwrap_payload(obj)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError('graph JSON must be an object with "n" and "edges"')
    if "weights" in obj:
        raise ValueError("weighted graphs are not supported; all edges have length 1")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, dict):
            raise ValueError(f'"labels" must map vertex ids to labels, got {labels!r:.60}')
        labels = {int(k): v for k, v in labels.items()}
    return MetricGraph(obj["n"], check_int_lists("edges", obj["edges"]), labels)


def load_graph(path) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_obj(json.load(fh))


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def graph_to_dot(g: MetricGraph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    labels = g.labels
    for v in range(g.n):
        if v in labels:
            lines.append(f'  {v} [label="{labels[v]}"];')
    for (u, v) in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
