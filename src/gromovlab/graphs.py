"""Finite connected graphs with unit-length edges: the metric universe.

Every other module works on top of the distances, canonical geodesics, balls
and induced subgraphs defined here.  Graphs are immutable after construction
and all operations are pure, so concurrent readers are safe.
"""

from __future__ import annotations

import json
import math
import numbers
from itertools import chain

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


def check_real(name: str, value, minimum=None) -> float:
    """``value`` as a float: a finite real number > 0, and >= ``minimum`` when
    one is given (booleans, strings, nan and infinities are rejected)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r:.60}")
    x = float(value)
    if not math.isfinite(x) or x <= 0 or (minimum is not None and x < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be a finite positive number{bound}, got {value!r}")
    return x


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


def _check_ids(n: int, ids) -> np.ndarray:
    """``ids`` as a 1-D intp array of vertex ids in 0..n-1.  An array must
    have an integer dtype (booleans are refused); any other iterable is
    converted at once when all its items are ints or numpy integers, and
    otherwise checked id by id as ``_check_vertex`` does, which names the
    first mistyped one.  An unknown id is refused."""
    if isinstance(ids, np.ndarray):
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ValueError(f"vertex ids must be a 1-D integer array, got {ids.dtype} {ids.shape}")
    else:
        ids = list(ids)
        if not all(t is not bool and issubclass(t, (int, np.integer)) for t in set(map(type, ids))):
            ids = [check_int("vertex id", v) for v in ids]
        try:
            ids = np.array(ids, dtype=np.intp)
        except OverflowError:  # an int beyond intp is no vertex id either
            bad = next(v for v in ids if not 0 <= v < n)
            raise ValueError(f"unknown vertex id {bad} (graph has {n} vertices)") from None
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        bad = ids[(ids < 0) | (ids >= n)][0]
        raise ValueError(f"unknown vertex id {bad} (graph has {n} vertices)")
    return ids.astype(np.intp, copy=False)


def _bfs_levels(adj, seeds, radius=None, within=None):
    """Breadth-first search over the adjacency tuples ``adj``: yields
    (d, vertices at distance d from ``seeds``) level by level, up to
    ``radius`` if given, walking only through ``within`` if given.

    The BFS from one seed set: single rows, balls, multi-source distances,
    connectivity, labelled BFS and dilations.  Set diameters and batches of
    rows, which need many single sources, use ``_bit_bfs`` instead.  It
    trusts its inputs: seeds are distinct valid ids, checked once by the
    caller.  Consumers that stop early just stop iterating, and the
    remaining levels are never expanded.
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
        # for pair_distances: the arrays that cached rows are views of, and
        # the (array, lane) of each cached source's row there, -1 before
        self._row_store: list[np.ndarray] = []
        self._row_at = np.full((2, n), -1, dtype=np.int32)
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

    def _keep_rows(self, sources, block: np.ndarray) -> None:
        """Cache the rows of the 2-D ``block``, one per source in ``sources``:
        the block is made read-only, each source's row is its lane view
        there, and (block, lane) is recorded for ``pair_distances``.  Every
        row enters the cache here."""
        block.setflags(write=False)
        self._dist_rows.update(zip(sources, block))
        self._row_at[0, sources] = len(self._row_store)
        self._row_at[1, sources] = np.arange(len(sources))
        self._row_store.append(block)

    def distances_from(self, u: int) -> np.ndarray:
        """BFS distance row from ``u``; read-only, cached per source.  A row
        not yet cached comes from one single-source BFS and is kept as a
        block of one row; callers that know many sources up front fill the
        cache with ``prefetch_rows`` first."""
        u = _check_vertex(self._n, u)
        row = self._dist_rows.get(u)
        if row is None:
            self._keep_rows([u], multi_source_distances(self, [u])[None])
            row = self._dist_rows[u]
        return row

    def prefetch_rows(self, sources) -> None:
        """Cache the distance rows of ``sources``.  The rows not yet cached
        come from ``_bit_bfs`` passes of 64 sources each; every pass leaves
        a read-only (k, n) block, and its rows are cached as views of it, so
        nothing is copied.  Ids are all checked before any row is computed."""
        todo = sorted(set(_check_ids(self._n, sources).tolist()) - self._dist_rows.keys())
        for batch, block in _row_blocks(_csr(self), todo):
            self._keep_rows(batch, block)

    def pair_distances(self, us, vs) -> np.ndarray:
        """d(us[i], vs[i]) for every i, as an int32 array: the rows of the
        distinct ``us`` are filled by one ``prefetch_rows``, then the
        distances are gathered block by block from the arrays the cached
        rows are views of, one fancy index per array read, so no (k, n)
        block of rows is ever stacked.  The ids are all checked first, as
        ``_check_vertex`` checks one: integer dtype (booleans refused) and
        in range."""
        us = _check_ids(self._n, us)
        vs = _check_ids(self._n, vs)
        if us.shape != vs.shape:
            raise ValueError(f"pair_distances needs equal id counts, got {len(us)} and {len(vs)}")
        out = np.empty(len(us), dtype=np.int32)
        if not len(us):
            return out
        self.prefetch_rows(np.flatnonzero(np.bincount(us, minlength=self._n)))
        block, lane = self._row_at[:, us]
        order = np.argsort(block)
        for idx in np.split(order, np.flatnonzero(np.diff(block[order])) + 1):
            out[idx] = self._row_store[block[idx[0]]][lane[idx], vs[idx]]
        return out

    def distance_matrix(self) -> np.ndarray:
        """Full all-pairs distance matrix (cached); n^2 int32, held once.
        The rows not yet cached come from passes of 64 sources written
        straight into the matrix, and the rows cached before are copied in.
        The cache then drops its blocks and keeps the matrix, the one block
        that ``pair_distances`` reads."""
        if self._dist_matrix is None:
            mat = np.empty((self._n, self._n), dtype=np.int32)
            todo = sorted(set(range(self._n)) - self._dist_rows.keys())
            for batch, block in _row_blocks(_csr(self), todo):
                mat[batch] = block
            for u, row in self._dist_rows.items():
                mat[u] = row
            self._dist_rows, self._row_store = {}, []
            self._keep_rows(range(self._n), mat)
            for u in range(self._n):  # bench/tracer.py counts row reads here
                self.distances_from(u)
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
        return sorted(dilation(self, [u], r))

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
        sub_edges = [
            (old_to_new[a], old_to_new[b])
            for a in vs
            for b in self._adj[a]
            if a < b and b in old_to_new
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


def _check_sources(g: MetricGraph, sources) -> list:
    """The distinct ids of ``sources``, sorted; an empty set or an unknown or
    mistyped id is refused."""
    seeds = sorted(set(_check_ids(g.n, sources).tolist()))
    if not seeds:
        raise ValueError("need at least one source vertex")
    return seeds


def dilation(g: MetricGraph, sources, radius) -> list:
    """The vertex ids within ``radius`` of the set ``sources``, nearest first
    (one truncated BFS): the ``radius``-neighbourhood of a block."""
    seeds = _check_sources(g, sources)
    radius = check_int("radius", radius, 0)
    return [w for _, level in _bfs_levels(g._adj, seeds, radius) for w in level]


def multi_source_distances(g: MetricGraph, sources) -> np.ndarray:
    """BFS distance to the nearest of ``sources`` for every vertex."""
    row = np.full(g.n, -1, dtype=np.int32)
    for d, level in _bfs_levels(g._adj, _check_sources(g, sources)):
        row[level] = d
    return row


def nearest_points(g: MetricGraph, H):
    """(dist, labels) from one BFS out of H: dist[v] is the distance from v to H,
    and bit i of the int labels[v] is set iff sorted(H)[i] is nearest to v,
    exactly: a vertex's label is the union of its neighbours' one level closer."""
    dist = [g.n] * g.n  # g.n: not reached yet
    labels = [0] * g.n
    for d, level in _bfs_levels(g._adj, _check_sources(g, H)):
        for i, w in enumerate(level):  # level 0 is sorted(H)
            dist[w] = d
            labels[w] = 0 if d else 1 << i
            for x in g._adj[w]:
                if dist[x] == d - 1:
                    labels[w] |= labels[x]
    return np.asarray(dist, dtype=np.int32), labels


def _csr(g: MetricGraph):
    """(nbrs, starts): ``g._adj`` as one flat neighbour array with each
    vertex's start offset, built once per graph."""
    if g._csr is None:
        starts = np.zeros(g.n, dtype=np.intp)
        np.cumsum([len(nb) for nb in g._adj[:-1]], out=starts[1:])
        nbrs = np.fromiter(chain.from_iterable(g._adj), dtype=np.intp, count=2 * len(g._edges))
        g._csr = (nbrs, starts)
    return g._csr


def _row_blocks(csr, sources):
    """(batch, (k, n) block) for the sorted distinct ``sources`` of the
    graph with adjacency ``csr``, one ``_bit_bfs`` pass of up to 64 sources
    per block."""
    every = np.arange(len(csr[1]))
    for a in range(0, len(sources), 64):
        batch = sources[a:a + 64]
        yield batch, _bit_bfs(csr, batch, every)


def _bit_bfs(csr, sources, targets, cap=None, need=None) -> np.ndarray:
    """(k, m) distances from k <= 64 ``sources`` (a vertex may be several) to
    m ``targets``, from one bit-parallel BFS (Akiba, Iwata and Yoshida, SIGMOD 2013).

    Every vertex holds a uint64 word whose bit i is set once source i has
    reached it; one level ORs each word with its neighbours' words.  ``need``
    is one uint64 word per target, the sources that must reach it (all k by
    default).  The search stops once every target holds its ``need`` bits, or
    after level cap + 1, and targets still unreached then read cap + 2, a
    lower bound.  Entries outside a target's ``need`` are never counted and
    read 0, so passes that serve several sets at once look only at each
    set's own sources.  Levels are recorded as they come: a target's distance
    from source i is the number of levels at which bit i was missing, kept in
    bit-sliced counters (word j holds bit j of every count), so a pass holds
    one word per vertex and log2(levels + 2) words per target.  It serves set
    diameters and the row batches of ``MetricGraph.prefetch_rows`` and of
    block matrices.  It runs on an adjacency ``csr`` as ``_csr`` builds it,
    in which every vertex has a neighbour, and trusts its inputs, as
    ``_bfs_levels`` does.
    """
    nbrs, starts = csr
    n = len(starts)
    targets = np.asarray(targets, dtype=np.intp)
    k = len(sources)
    reach = np.zeros(n, dtype=np.uint64)
    lanes = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
    np.bitwise_or.at(reach, sources, lanes)
    if need is None:
        need = np.bitwise_or.reduce(lanes)
    last = n if cap is None else cap + 1  # no distance reaches n
    counts = []
    d = 0
    while True:
        carry = need & ~reach[targets]
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


def max_set_diameter(g: MetricGraph, sets, cap=None) -> int:
    """The largest diameter of the vertex sets in ``sets`` (each nonempty; they
    may overlap), in the ambient graph metric.

    Exact when ``cap`` is None or the result is at most ``cap``; otherwise
    some value above ``cap`` (a lower bound on the largest diameter), returned
    as soon as a pass proves it.  Each member of a set keeps bounds
    lo <= ecc <= hi on its eccentricity within the set (Takes and Kosters,
    "Determining the diameter of small world networks", 2011): a source at
    distances d from its set with e = max d gives lo >= max(d, e - d) and
    hi <= e + d.  The sources come 64 at a time from ``_bit_bfs``: first
    max(1, 64 // s) members spread evenly over each of the s sets of two or
    more members (64 for a single set), then rounds of the 32 open members of
    largest hi and the 32 of smallest lo, over all sets.  best is the largest
    lower bound in any set, at most the answer, so a member closes once
    hi <= best: it cannot raise the maximum.  A pass targets only the sets
    that have a source in it, and each source needs only its own set's
    members; a vertex in several sets (they may overlap) can be the source
    of a lane for each of them in the same pass.  The row cache is neither
    read nor filled, so callers with many one-off sets (cover blocks) leave
    it as it was; the projection table reads its cached rows itself.
    """
    sets = [list(s) for s in sets]
    if not sets:
        raise ValueError("need at least one vertex set")
    size = np.array([len(s) for s in sets], dtype=np.intp)
    ids = _check_ids(g.n, chain.from_iterable(sets))
    if not size.all():
        raise ValueError("diameter of an empty set")
    if cap is not None:
        cap = check_int("diameter cap", cap, 0)
    # members, sorted and distinct within each set, set after set; set s
    # holds members[offs[s]:offs[s + 1]], and owner[i] is the set of member i
    key = np.sort(np.repeat(np.arange(len(sets)), size) * g.n + ids)
    key = key[np.concatenate(([True], key[1:] != key[:-1]))]
    owner, members = np.divmod(key, g.n)
    offs = np.searchsorted(owner, np.arange(len(sets) + 1))
    size = offs[1:] - offs[:-1]
    wide = np.flatnonzero(size > 1)
    if not wide.size:
        return 0
    q = max(1, 64 // wide.size)
    if q == 1:
        queue = offs[wide]  # np.linspace(0, m - 1, 1) is [0]
    else:
        spread = [np.linspace(0, size[s] - 1, min(size[s], q)).astype(np.intp) for s in wide]
        queue = np.concatenate([offs[s] + at for s, at in zip(wide, spread)])
    lo = np.zeros(len(members), dtype=np.int64)
    hi = np.full(len(members), np.iinfo(np.int64).max)
    closed = np.repeat(size < 2, size)
    best = 0
    while True:
        queue = queue[~closed[queue]]
        if queue.size:
            picks, queue = queue[:64], queue[64:]
        else:
            picks = np.flatnonzero(~closed)
            if not picks.size:
                return best
            if picks.size > 64:
                order = np.argsort(-hi[picks], kind="stable")
                far = picks[order[:32]]
                rest = picks[np.sort(order[32:])]
                picks = np.concatenate([far, rest[np.argsort(lo[rest], kind="stable")[:32]]])
        picks = picks[np.argsort(owner[picks], kind="stable")]  # each set's lanes side by side
        lane_set = owner[picks]
        cut = np.flatnonzero(np.concatenate(([True], lane_set[1:] != lane_set[:-1])))
        part, lanes = lane_set[cut], np.append(cut, picks.size)
        cols = np.concatenate(([0], np.cumsum(size[part])))
        targets = np.arange(cols[-1]) + np.repeat(offs[part] - cols[:-1], size[part])
        need = None
        if part.size > 1:
            words = [((1 << int(b - a)) - 1) << int(a) for a, b in zip(lanes, lanes[1:])]
            need = np.repeat(np.array(words, dtype=np.uint64), size[part])
        d = _bit_bfs(_csr(g), members[picks], members[targets], cap, need)
        for j, s in enumerate(part.tolist()):
            a, b = offs[s], offs[s + 1]
            block = d[lanes[j]:lanes[j + 1], cols[j]:cols[j + 1]]
            e = block.max(axis=1, keepdims=True)
            top = int(e.max())
            if cap is not None and top > cap:
                return top  # at most the diameter: a distance or cap + 2
            np.maximum(lo[a:b], np.maximum(block, e - block).max(axis=0), out=lo[a:b])
            np.minimum(hi[a:b], (e + block).min(axis=0), out=hi[a:b])
            best = max(best, top)  # lo of a source is its e
        closed[picks] = True
        closed |= hi <= best


def set_diameter(g: MetricGraph, vertices, cap=None) -> int:
    """Diameter of a vertex set S in the ambient graph metric:
    ``max_set_diameter`` of the one set S, whose first pass takes 64 members
    spread evenly over sorted S.  Exact when ``cap`` is None or the diameter
    is at most ``cap``; otherwise some value above ``cap``."""
    return max_set_diameter(g, [vertices], cap)


def block_tree(g: MetricGraph) -> tuple:
    """The biconnected blocks of ``g`` (maximal subgraphs without a cut
    vertex; a bridge is a block of two) as a tree hanging from vertex 0:
    (blocks, spans, order).  A one-vertex graph has no block.

    ``blocks`` lists them children first, each with its top vertex (the one
    nearest vertex 0: the cut vertex it hangs from, or 0 itself) first.
    ``order`` lists the vertices by discovery time, and for (lo, hi) =
    ``spans[i]`` the vertices below the top of block i, its other vertices
    and all that hangs from them, are ``order[lo:hi]``.

    Iterative Tarjan: a depth-first walk over ``_adj`` keeps each vertex's
    discovery time and low point, and a child ``v`` of ``u`` with
    low(v) >= disc(u) closes the block made of ``u`` and the vertices stacked
    since ``v``.
    """
    adj = g._adj
    disc = [-1] * g.n
    low = [0] * g.n
    disc[0] = 0
    order = [0]
    stack = [0]
    walk = [(0, iter(adj[0]))]
    blocks, spans = [], []
    while walk:
        v, nbrs = walk[-1]
        for w in nbrs:
            if disc[w] < 0:
                disc[w] = low[w] = len(order)
                order.append(w)
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
                    blocks.append(block)
                    spans.append((disc[v], len(order)))
    return blocks, spans, order


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
    n = check_int("vertex count", obj["n"], 1)
    edges = check_int_lists("edges", obj["edges"])
    if len(edges) < n - 1:  # refused before n adjacency lists are allocated
        raise ValueError(f"graph is disconnected ({n} vertices but only {len(edges)} edges)")
    return MetricGraph(n, edges, labels)


def read_json(path):
    """The JSON document in the file ``path``.  Nesting too deep for the
    parser is refused with a ValueError, as any other malformed JSON is."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def load_graph(path) -> MetricGraph:
    return graph_from_obj(read_json(path))


# the one encoding of every JSON artifact and digest
_JSON_OPTIONS = {"sort_keys": True, "indent": 2}


def dump_json(obj) -> str:
    return json.dumps(obj, **_JSON_OPTIONS) + "\n"


def write_json(obj, fh) -> None:
    """Stream ``dump_json(obj)`` to the text file ``fh`` without building
    the whole string."""
    json.dump(obj, fh, **_JSON_OPTIONS)
    fh.write("\n")


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
