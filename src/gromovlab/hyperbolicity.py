"""Hyperbolicity and quasiconvexity measurements.

The headline number is the four-point condition constant: for vertices
w, x, y, z form the three pairwise distance sums

    s1 = d(w,x) + d(y,z),  s2 = d(w,y) + d(x,z),  s3 = d(w,z) + d(x,y);

the defect of the quadruple is (largest sum - middle sum) and the constant is
half the maximal defect.  On unit-edge graphs this is always a half-integer.

Exact mode (within the caps below) rests on four facts:
the constant of a graph is the maximum over its biconnected blocks, each of
which is isometric in it; some quadruple of maximal defect has both pairs
of its largest sum far-apart, so that no neighbour of either end is farther
from the other end (Cohen, Coudert and Lancin); a defect is at most twice
the smallest of the six pairwise distances; and a defect is at most the
diameter.  The blocks are scanned largest first.  Within a block the
far-apart pairs, taken by decreasing distance, are scored against each
other in fixed-size tiles; the scan stops at the first pair too close to
beat the best defect so far, or once that reaches the block's diameter.  A
second scan of the whole graph, over the vertices that can belong to the
first attaining quadruple, then reports the lexicographically smallest
quadruple attaining the maximum.  Sampled mode draws quadruples from a
seeded generator and scores them a chunk at a time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .graphs import (
    MetricGraph,
    SizeLimitError,
    biconnected_blocks,
    check_int,
    multi_source_distances,
)


# exact mode refuses, with a SizeLimitError, a graph over one of these caps,
# each checked before the work it bounds.  At 4096 vertices the int32
# distance matrix takes 64 MiB, and with the scans' temporaries the traced
# peak is about three times that (194 MiB on grid(64, 64)).  The tile scan's
# work grows with the square of a block's far-apart pairs.  The witness scan
# charges each (i, j) it visits _WITNESS_VISIT cells for its fixed cost plus
# the square of its candidate count, a bound on the cells it scores.  On n
# vertices the total is at most sum_j j (_WITNESS_VISIT + (n - 1 - j)^2),
# within the cap for every n <= 300; at about 20 ns a cell, the cap is some
# 20 s of scanning.
_MAX_VERTICES = 4096
_FAR_PAIRS = 1 << 16
_WITNESS_WORK = 1 << 30
_WITNESS_VISIT = 1 << 12

# sampled mode draws its quadruples this many at a time and scores each chunk
# as arrays, so the draws take fixed memory whatever the sample count
_SAMPLE_CHUNK = 1024


@dataclass
class DeltaReport:
    delta: float
    mode: str
    samples: int | None
    seed: int | None
    witness: tuple | None
    n_vertices: int

    def to_obj(self) -> dict:
        obj = asdict(self)
        if obj["witness"] is not None:
            obj["witness"] = list(obj["witness"])
        return obj


def _defect_top_mid(s1, s2, s3):
    mx = np.maximum(s2, s3)
    mn = np.minimum(s2, s3)
    mid = np.maximum(np.minimum(s1, mx), mn)
    return np.maximum(s1, mx) - mid


# one tile of the pair-pair scan: this many earlier pairs are gathered as
# columns once, and later pairs are scored against them this many at a time,
# so the scan's scratch memory is fixed whatever the number of pairs
_TILE_COLS = 1024
_TILE_ROWS = 256
# the witness scan scores at most this many (k, l) cells at a time
_WITNESS_CELLS = 1 << 15


def _far_apart_pairs(D: np.ndarray, nbrs: list) -> tuple:
    """Far-apart pairs x < y of the graph with distance matrix ``D`` and
    adjacency lists ``nbrs``: no neighbour of x is farther from y, and no
    neighbour of y is farther from x.  Returns the arrays of x and of y.
    """
    M = np.array([D[list(nb)].max(axis=0) for nb in nbrs])  # M[x, y]: max over nbrs of x
    return np.nonzero(np.triu((M <= D) & (M.T <= D), 1))


def _max_defect(D: np.ndarray, nbrs: list, best: int) -> int:
    """Largest quadruple defect of the block with distance matrix ``D`` and
    block adjacency lists ``nbrs`` if it exceeds ``best``, else ``best``.
    A block with more than ``_FAR_PAIRS`` far-apart pairs is refused with a
    SizeLimitError before its scan starts.

    Some quadruple of maximal defect has both pairs of its largest sum
    far-apart (Cohen, Coudert and Lancin, "On computing the Gromov
    hyperbolicity", 2015), so only pairs of far-apart pairs are scored, each
    as d_k + d_j minus the larger of its two other sums: the defect when
    d_k + d_j is the largest sum, at most 0 otherwise.  Pairs are taken by
    decreasing distance; a defect is at most twice each pairwise distance,
    so the scan stops at the first pair k with 2 d_k <= ``best``, and it
    stops once ``best`` reaches the diameter.  Earlier pairs are gathered in
    tiles of columns, against which later pairs are scored a chunk of rows
    at a time in preallocated buffers of the narrowest integer type that
    holds every score (int8 up to diameter 63).
    """
    diam = int(D.max())
    if diam <= best:
        return best
    D = D.astype(np.min_scalar_type(-2 * diam - 1))  # holds sums and scores, ±2 diam
    xs, ys = _far_apart_pairs(D, nbrs)
    if len(xs) > _FAR_PAIRS:
        raise SizeLimitError(
            f"exact mode scans at most {_FAR_PAIRS} far-apart pairs per block, a block of "
            f"{len(D)} vertices has {len(xs)}; use sampled mode"
        )
    d = D[xs, ys]
    order = np.argsort(-d, kind="stable")
    xs, ys, d = xs[order], ys[order], d[order]
    live = int(np.count_nonzero(2 * d > best))  # pairs that can still beat best
    bufs = np.empty((3, min(live, _TILE_ROWS) * min(live, _TILE_COLS)), dtype=D.dtype)
    a = 0
    while a < live:
        cols = slice(a, min(a + _TILE_COLS, live))
        # columns of the symmetric D, made contiguous so that rows read whole
        At = np.ascontiguousarray(D[:, xs[cols]])
        Bt = np.ascontiguousarray(D[:, ys[cols]])
        dj = d[cols]
        k = a  # cells with j >= k score real quadruples too, so need no mask
        while k < live:
            rows = slice(k, min(k + _TILE_ROWS, live))
            xk, yk = xs[rows], ys[rows]
            s2, s3, t = (b[: len(xk) * len(dj)].reshape(len(xk), len(dj)) for b in bufs)
            np.add(np.take(At, xk, 0, s2, "clip"), np.take(Bt, yk, 0, t, "clip"), out=s2)
            np.add(np.take(Bt, xk, 0, s3, "clip"), np.take(At, yk, 0, t, "clip"), out=s3)
            np.subtract(dj, np.maximum(s2, s3, out=s2), out=s2)
            m = int(np.add(s2, d[rows, None], out=s2).max())
            if m > best:
                best = m
                if best >= diam:
                    return best
                live = int(np.count_nonzero(2 * d > best))
            k = rows.stop
        a = cols.stop
    return best


def _first_witness(D: np.ndarray, blocks: list, t: int) -> tuple:
    """First quadruple i<j<k<l, in lexicographic order, whose defect is ``t``,
    the maximum.

    Two filters keep every tie.  A quadruple whose four gates (nearest
    vertices) in a block are distinct has the defect of its gates, and one
    with a positive defect has such a block; so the first quadruple uses only
    the smallest vertex of each gate's fiber, in blocks of diameter >= t.
    And only vertices at distance >= t/2 from both i and j can complete it.
    For each (i, j) the (k, l) cells of those vertices are scored in chunks
    of whole rows, at most ``_WITNESS_CELLS`` cells each where a row allows,
    taken in order, so the scan's scratch memory is bounded.  Its work is
    charged against ``_WITNESS_WORK`` before each (i, j), and a graph that
    would exceed it is refused with a SizeLimitError.
    """
    if t == 0:
        return (0, 1, 2, 3)
    keep = np.zeros(D.shape[0], dtype=bool)
    for b in blocks:
        if len(b) >= 4 and D[np.ix_(b, b)].max() >= t:
            gates = D[:, b].argmin(axis=1)
            keep[np.unique(gates, return_index=True)[1]] = True
    ids = np.flatnonzero(keep)
    if len(ids) < D.shape[0]:
        D = D[np.ix_(ids, ids)]
    far = D >= (t + 1) // 2  # 2 d >= t
    work = 0
    for i in range(len(ids) - 3):
        for j in np.flatnonzero(far[i, i + 1:]) + i + 1:
            c = np.flatnonzero(far[i, j + 1:] & far[j, j + 1:]) + j + 1
            work += _WITNESS_VISIT + len(c) * len(c)
            if work > _WITNESS_WORK:
                raise SizeLimitError(
                    f"exact mode's witness scan is capped at {_WITNESS_WORK} cells, and the "
                    f"{len(ids)} candidate vertices of this graph need more; use sampled mode"
                )
            if len(c) < 2:
                continue
            dic, djc = D[i, c], D[j, c]
            step = max(1, _WITNESS_CELLS // len(c))
            for r in range(0, len(c) - 1, step):
                # rows k in c[r:r + step] against the columns l in c[r + 1:]
                rows, cols = slice(r, r + step), slice(r + 1, None)
                s1 = D[np.ix_(c[rows], c[cols])]
                s1 += D[i, j]
                s2 = dic[rows, None] + djc[None, cols]
                s3 = djc[rows, None] + dic[None, cols]
                hit = np.triu(_defect_top_mid(s1, s2, s3) == t)  # l > k
                if hit.any():
                    k, l = divmod(int(np.argmax(hit)), hit.shape[1])
                    return tuple(int(ids[v]) for v in (i, j, c[r + k], c[r + 1 + l]))
    raise AssertionError(f"no quadruple attains the maximum defect {t}")


def four_point_delta(
    g: MetricGraph,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
) -> DeltaReport:
    """Four-point hyperbolicity constant, exact or sampled.

    Exact mode refuses, with a SizeLimitError, a graph over one of the caps
    on its vertices, its far-apart pairs per block and its witness work.  It takes
    the maximum defect over the biconnected blocks, largest first, each
    scanned by ``_max_defect`` over the far-apart pairs of the block's own
    adjacency, in tiles, with its pair and diameter exits.  The witness is
    the lexicographically smallest quadruple of the whole graph attaining
    that maximum, found by a second, bounded scan; it may span several
    blocks, and on a graph with delta 0 it is (0, 1, 2, 3).  Reports are
    therefore reproducible bit for bit.  Sampled mode needs ``samples`` >= 1
    and a seed; its value never exceeds the exact one.  A seed, when given,
    is checked in either mode.
    """
    if seed is not None:
        seed = check_int("seed", seed, 0)
    if mode == "exact":
        if g.n > _MAX_VERTICES:
            raise SizeLimitError(
                f"exact mode takes at most {_MAX_VERTICES} vertices (it holds their "
                f"distance matrix), the graph has {g.n}; use sampled mode"
            )
        if g.n < 4:
            return DeltaReport(0.0, "exact", None, None, None, g.n)
        D = g.distance_matrix()
        blocks = biconnected_blocks(g)
        best = 0
        for b in sorted(blocks, key=len, reverse=True):
            if len(b) < 4:
                break
            index = {v: i for i, v in enumerate(b)}
            nbrs = [[index[w] for w in g.neighbors(v) if w in index] for v in b]
            block = D if len(b) == g.n else D[np.ix_(b, b)]
            best = _max_defect(block, nbrs, best)
        witness = _first_witness(D, blocks, best)
        return DeltaReport(best / 2.0, "exact", None, None, witness, g.n)

    if mode == "sampled":
        samples = check_int("samples", samples, 1)
        if seed is None:
            raise ValueError("sampled mode needs a seed")
        if g.n < 4:
            return DeltaReport(0.0, "sampled", samples, seed, None, g.n)
        rng = np.random.default_rng(seed)
        best = -1
        witness = None
        for start in range(0, samples, _SAMPLE_CHUNK):
            quads = np.empty((min(_SAMPLE_CHUNK, samples - start), 4), dtype=np.intp)
            for q in quads:
                q[:] = rng.choice(g.n, size=4, replace=False)
            # the six distances of every quadruple, rows from w, x and y:
            # d(w,x) d(y,z) | d(w,y) d(x,z) | d(w,z) d(x,y)
            d = g.pair_distances(
                quads[:, [0, 2, 0, 1, 0, 1]].T.ravel(), quads[:, [1, 3, 2, 3, 3, 2]].T.ravel()
            ).reshape(6, -1)
            defect = _defect_top_mid(d[0] + d[1], d[2] + d[3], d[4] + d[5])
            top = int(np.argmax(defect))
            if defect[top] > best:  # an earlier chunk keeps its witness on a tie
                best = int(defect[top])
                witness = tuple(int(v) for v in quads[top])
        return DeltaReport(best / 2.0, "sampled", samples, seed, witness, g.n)

    raise ValueError(f"unknown mode {mode!r} (expected 'exact' or 'sampled')")


def _sample_index_pairs(k: int, budget: int, seed: int | None):
    """All index pairs if they fit the budget, else a seeded sample."""
    seed = None if seed is None else check_int("seed", seed, 0)
    total = k * (k - 1) // 2
    if total <= budget:
        return list(combinations(range(k), 2))
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < budget:
        i = int(rng.integers(k))
        j = int(rng.integers(k))
        if i != j:
            pairs.append((min(i, j), max(i, j)))
    return pairs


def quasiconvexity_constant(g: MetricGraph, H, pair_budget: int, seed: int | None = None) -> int:
    """Max distance from canonical geodesics between members of H back to H.

    0 means every sampled geodesic stays inside H.  H must induce a connected
    subgraph.
    """
    check_int("pair_budget", pair_budget, 1)
    hs = sorted(set(H))
    if not g.is_connected_subset(hs):
        raise ValueError("H does not induce a connected subgraph")
    to_h = multi_source_distances(g, hs)
    worst = 0
    for i, j in _sample_index_pairs(len(hs), pair_budget, seed):
        for z in g.geodesic(hs[i], hs[j]):
            worst = max(worst, int(to_h[z]))
    return worst


def intrinsic_vs_extrinsic(g: MetricGraph, H, pair_budget: int, seed: int | None = None) -> float:
    """Worst sampled ratio of intrinsic subgraph distance to ambient distance.

    1.0 means the subgraph sits in the ambient graph without any shortcut;
    large values flag members whose inclusion badly distorts distances.
    """
    check_int("pair_budget", pair_budget, 1)
    hs = sorted(set(H))
    sub, old_to_new = g.induced(hs)  # raises on disconnected H
    worst = 1.0
    for i, j in _sample_index_pairs(len(hs), pair_budget, seed):
        du = g.shortest_distance(hs[i], hs[j])
        dh = sub.shortest_distance(old_to_new[hs[i]], old_to_new[hs[j]])
        worst = max(worst, dh / du)
    return worst
