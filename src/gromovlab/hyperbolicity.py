"""Hyperbolicity and quasiconvexity measurements.

The headline number is the four-point condition constant: for vertices
w, x, y, z form the three pairwise distance sums

    s1 = d(w,x) + d(y,z),  s2 = d(w,y) + d(x,z),  s3 = d(w,z) + d(x,y);

the defect of the quadruple is (largest sum - middle sum) and the constant is
half the maximal defect.  On unit-edge graphs this is always a half-integer.

Exact mode (within the caps below) rests on six facts:
the constant of a graph is the maximum over its biconnected blocks, each of
which is isometric in it; some quadruple of maximal defect has both pairs
of its largest sum far-apart, so that no neighbour of either end is farther
from the other end (Cohen, Coudert and Lancin); a defect is at most the
smaller distance of the two pairs of its largest sum; a defect is at most
the diameter; a chordal graph has defect at most 2 (Brinkmann, Koolen
and Moulton); and, with u_x = d(i,x) - d(j,x), so that |u_x| <= d(i,j),
the quadruple i, j, k, l has defect t > 0 only if |u_k - u_l| >= t or both
|u_k| and |u_l| are at most d(i,j) - t (the triangle inequality: s2 - s3
is u_k - u_l, and s1 leads either other sum by at most d(i,j) - |u_k| and
by at most d(i,j) - |u_l|).  It works block by block and never holds the
whole graph's distance matrix unless the graph is one block.  Each block
of at least four vertices is labelled by its fiber minima (below), and
each distinct labelled block gets its own distance matrix and one scan,
largest first, against the running maximum: its far-apart pairs, taken by
decreasing distance, are scored against each other in fixed-size tiles,
and the scan stops at the first pair too close to reach that maximum, or
once its own maximum reaches the block's diameter, or 2 on a block that
one maximum cardinality search finds chordal (skipped after a maximum
above 2).  Only the blocks at the maximum are held, and a repeated block,
such as every ring of a ring tree, costs no more.  A second scan then
reports the lexicographically smallest quadruple attaining the maximum:
it is made of the fiber minima (the least vertex of the graph whose
nearest vertex in the block is a given vertex) of four vertices of one
held block, so each is scanned once in its own labels, and the least
quadruple over the blocks is kept.  For each (i, j) that scan scores only
the pairs (k, l) the sixth fact lets reach the maximum.
Sampled mode draws each chunk of quadruples from a seeded generator in one
call, four bounded ranks u_j in [0, n - j) per quadruple, and makes v_j the
u_j-th smallest vertex not among v_0..v_{j-1} (``_ranks_to_vertices``): each
ordered quadruple of distinct vertices is equally likely, and since every
quadruple takes exactly four draws the stream does not depend on the chunk
size.  Each chunk is scored as arrays from cached distance rows, one per
distinct w, x or y source, so at most min(n, 3 * samples) rows are held.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import accumulate, combinations

import numpy as np

from .graphs import (
    MetricGraph,
    SizeLimitError,
    _csr,
    block_tree,
    check_int,
    multi_source_distances,
)


# exact mode refuses, with a SizeLimitError, a graph over one of these caps,
# each checked before the work it bounds.  The matrices of its distinct
# blocks have at most _MAX_VERTICES^2 cells in all, which bounds those held
# at once, so a block has at most _MAX_VERTICES vertices, and a graph of
# many small blocks, such as a ring tree or its electrification, passes.  At
# 4096^2 cells the int32 matrices take 64 MiB, and the scans' narrow copies
# and scratch add about half as much (97.6 MiB traced peak on grid(64, 64)).
# The tile scan's work grows with the square of a block's far-apart pairs.
# The witness scan charges each (i, j) it visits _WITNESS_VISIT cells for its
# fixed cost plus the square of its candidate count, a bound on the cells
# it scores.  On a block of n vertices the total is at most
# sum_j j (_WITNESS_VISIT + (n - 1 - j)^2), and blocks glued at cut vertices
# total at most the bound of one block of all their vertices, which is
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
# the witness scan gathers rows of the matrix about this many cells at a time
_WITNESS_CELLS = 1 << 15
# the far-apart mask gathers about this many cells of neighbour rows at a time
_MASK_CELLS = 1 << 16


def _far_apart_pairs(D: np.ndarray, csr) -> tuple:
    """Far-apart pairs x < y of the graph with distance matrix ``D`` and
    adjacency ``csr``: no neighbour of x is farther from y, and no
    neighbour of y is farther from x.  Returns the arrays of x and of y, or
    refuses with a SizeLimitError more than ``_FAR_PAIRS`` of them.

    The boolean A[x, y] = (no neighbour of x is farther from y) is built
    from bands of rows whose neighbours' rows hold about ``_MASK_CELLS``
    cells, then made A & A.T a band at a time, so that besides A the scratch
    memory is bounded.
    """
    nbrs, starts = csr
    n = len(D)
    A = np.empty((n, n), dtype=bool)
    step = max(1, _MASK_CELLS // len(nbrs))  # rows whose neighbours' rows hold about that many
    for r in range(0, n, step):
        rows = slice(r, r + step)
        lo, hi = starts[r], starts[r + step] if r + step < n else len(nbrs)
        # row x of M: the largest distance from a neighbour of x
        M = np.maximum.reduceat(D[nbrs[lo:hi]], starts[rows] - lo)
        np.less_equal(M, D[rows], out=A[rows])
    for r in range(0, n, step):
        # the band's overlap with its own transpose is copied first by
        # numpy, and a cell already made symmetric stays so
        A[r:r + step] &= A[:, r:r + step].T
    pairs = np.count_nonzero(A) // 2  # the diagonal is all False
    if pairs > _FAR_PAIRS:
        raise SizeLimitError(
            f"exact mode scans at most {_FAR_PAIRS} far-apart pairs per block, a block of "
            f"{n} vertices has {pairs}; use sampled mode"
        )
    xs, ys = np.nonzero(A)
    keep = xs < ys
    return xs[keep], ys[keep]


def _chordal(adj) -> bool:
    """Whether the graph with adjacency lists ``adj`` is chordal, by one
    maximum cardinality search (Tarjan and Yannakakis, SIAM J. Comput.
    1984): each vertex visited next has the most visited neighbours, kept
    in buckets by that count, and the graph is chordal iff, as each vertex
    is visited, its visited neighbours other than the last visited one are
    all adjacent to that one.  O(n + e), and it ends at the first failure.
    """
    n = len(adj)
    nbrs = {}  # the adjacency sets of last visited vertices, made as needed
    visit = [-1] * n  # the step at which each vertex is visited, -1 before
    count = [0] * n  # its visited neighbours while it is not
    buckets = [set(range(n))]  # buckets[c]: the unvisited vertices with count c
    top = 0
    for step in range(n):
        while not buckets[top]:
            top -= 1
        v = buckets[top].pop()
        visit[v] = step
        seen = [u for u in adj[v] if visit[u] >= 0]
        if len(seen) > 1:
            last = max(seen, key=visit.__getitem__)
            if last not in nbrs:
                nbrs[last] = set(adj[last])
            if any(u != last and u not in nbrs[last] for u in seen):
                return False
        for u in adj[v]:
            if visit[u] < 0:
                buckets[count[u]].remove(u)
                count[u] += 1
                if count[u] == len(buckets):
                    buckets.append(set())
                buckets[count[u]].add(u)
        top = min(top + 1, len(buckets) - 1)
    return True


def _max_defect(D: np.ndarray, csr, floor: int, stop: int | None = None) -> tuple:
    """(defect, D): the largest quadruple defect of the block with distance
    matrix ``D`` and block adjacency ``csr`` if it is at least ``floor``,
    else some value below ``floor``, and ``D`` as the scan read it, in the
    narrowest integer type that holds every score (int8 up to diameter 63),
    or as given if the block is skipped, its diameter or ``stop`` (a bound
    on its defect) being below ``floor``.  A block with more than
    ``_FAR_PAIRS`` far-apart pairs is refused with a SizeLimitError before
    its scan starts.

    Some quadruple of maximal defect has both pairs of its largest sum
    far-apart (Cohen, Coudert and Lancin, "On computing the Gromov
    hyperbolicity", 2015), so only pairs of far-apart pairs are scored, each
    as d_k + d_j minus the larger of its two other sums: the defect when
    d_k + d_j is the largest sum, at most 0 otherwise.  Pairs are taken by
    decreasing distance.  The two other sums add up to at least twice each
    of d_k and d_j (triangle inequality), so a defect is at most the smaller
    distance of its largest sum's pairs: from best = ``floor`` - 1, the scan
    stops at the first pair k with d_k <= best, and once best reaches the
    diameter (or ``stop``).  Earlier pairs are gathered in tiles of columns,
    against which later pairs are scored a chunk of rows at a time in
    preallocated buffers of the matrix's narrow type.
    """
    diam = int(D.max())
    stop = diam if stop is None else min(stop, diam)
    best = floor - 1
    if stop <= best:
        return best, D
    xs, ys = _far_apart_pairs(D, csr)
    # holds sums and scores, ±2 diam; narrowed after the far-apart mask, so
    # that the two matrices and the mask are never held at once
    D = D.astype(np.min_scalar_type(-2 * diam - 1), copy=False)
    d = D[xs, ys]
    order = np.argsort(-d, kind="stable")
    xs, ys, d = xs[order], ys[order], d[order]
    live = int(np.count_nonzero(d > best))  # pairs that can still beat best
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
                if best >= stop:
                    return best, D
                live = int(np.count_nonzero(d > best))
            k = rows.stop
        a = cols.stop
    return best, D


def _blocks(g: MetricGraph) -> list:
    """(fmins, edges) for each biconnected block of at least 4 vertices.

    The block's vertices are labelled 0..k-1 by increasing fiber minimum:
    the least vertex of the graph whose gate (nearest vertex) in the block
    is that vertex.  ``fmins`` lists those minima in label order, and
    ``edges`` the block's edges in its labels, as a sorted tuple of pairs
    lo < hi; two blocks with equal labelled edges are isometric, and a
    graph of one block keeps its own ids and edges.

    The fibers come from the block tree of ``block_tree``: each vertex of a
    block other than its top gates itself and all that hangs from it, and
    the top gates all the rest of the graph.  The least vertex hanging from
    each vertex is gathered children first, the least vertex outside a
    block is the smaller of a prefix and a suffix minimum over the
    discovery order, and an edge belongs to the block in which its endpoint
    discovered later is not the top: all in O(n + e), and a sort of each
    block's edges.
    """
    blocks, spans, order = block_tree(g)
    n = g.n
    below = list(range(n))  # least vertex hanging from each vertex, itself included
    for b in blocks:
        below[b[0]] = min(below[b[0]], *(below[w] for w in b[1:]))
    before = list(accumulate(order, min, initial=n))  # before[i] = min(order[:i])
    after = list(accumulate(reversed(order), min, initial=n))[::-1]  # after[i] = min(order[i:])
    disc = [0] * n
    for i, v in enumerate(order):
        disc[v] = i
    own = [-1] * n  # the block of >= 4 vertices in which a vertex is not the top
    label = [0] * n  # its label there
    top_label, fmins, edges = {}, {}, {}
    for i, (b, (lo, hi)) in enumerate(zip(blocks, spans)):
        if len(b) < 4:
            continue
        f = [min(before[lo], after[hi])] + [below[w] for w in b[1:]]
        rank = sorted(range(len(b)), key=f.__getitem__)
        for j, p in enumerate(rank):
            if p:
                own[b[p]], label[b[p]] = i, j
            else:
                top_label[i] = j
        fmins[i] = [f[p] for p in rank]
        edges[i] = []
    for u, i in enumerate(own):
        if i < 0:
            continue
        for v in g._adj[u]:
            if disc[v] < disc[u]:  # each edge once, from its endpoint discovered later
                a, c = label[u], label[v] if own[v] == i else top_label[i]
                edges[i].append((a, c) if a < c else (c, a))
    return [(fmins[i], tuple(sorted(edges[i]))) for i in fmins]


def _block_witness(D: np.ndarray, t: int, work: int) -> tuple:
    """(quadruple, work): the first quadruple i<j<k<l of the block with
    distance matrix ``D`` whose defect is ``t`` > 0, or None, and ``work``
    plus the work of the scan.

    Only vertices at distance >= t/2 from both i and j can complete it,
    read off the rows of i and j as each is reached.  For each (i, j) these
    candidates x are sorted by u_x = d(i,x) - d(j,x), and only the (k, l)
    cells that can reach ``t`` are scored: by the triangle inequality a
    defect is at most |u_k - u_l| unless d(i,j) + d(k,l) is the largest sum,
    and then at most d(i,j) - |u_k| and d(i,j) - |u_l|.  So the centre, the
    candidates with |u| <= d(i,j) - t (none when d(i,j) < t), is scored
    against itself, and each u-class p against the classes >= p + t, past
    the centre if p is in it.  A hit (k, l) is taken as the pair
    (min, max), and the least hit of the first (i, j) that has one is the
    answer.  Each block of cells gathers ``_WITNESS_CELLS // len(D)`` rows
    of ``D`` in its own integer type, so the scan's scratch memory is
    bounded.  Each (i, j) is charged ``_WITNESS_VISIT`` cells for its fixed
    cost plus the square of its candidate count, a bound on the cells it
    scores, before it is scanned, and a scan whose total would exceed
    ``_WITNESS_WORK`` is refused with a SizeLimitError.
    """
    n = len(D)
    h = (t + 1) // 2  # 2 d >= t
    step = max(1, _WITNESS_CELLS // n)
    for i in range(n - 3):
        fi = D[i] >= h
        for j in np.flatnonzero(fi[i + 1:]) + i + 1:
            c = np.flatnonzero(fi[j + 1:] & (D[j, j + 1:] >= h)) + j + 1
            work += _WITNESS_VISIT + len(c) * len(c)
            if work > _WITNESS_WORK:
                raise SizeLimitError(
                    f"exact mode's witness scan is capped at {_WITNESS_WORK} cells, and a "
                    f"block of {n} vertices needs more; use sampled mode"
                )
            if len(c) < 2:
                continue
            dic, djc = D[i, c], D[j, c]
            u = dic - djc
            order = np.argsort(u, kind="stable")
            c, u, dic, djc = c[order], u[order], dic[order], djc[order]
            m, lo, hi, room = len(c), int(u[0]), int(u[-1]), int(D[i, j]) - t
            # the position in c of the first u >= x, for each x in [lo, hi + t + 1]
            first = np.searchsorted(u, np.arange(lo, hi + t + 2)).tolist()

            def at(x):
                return first[min(max(x - lo, 0), hi + t + 1 - lo)]

            # (rows, columns) of c: the centre's upper triangle, then each class v
            # against the classes >= v + t, past the centre for v in it
            ca, cb = at(-room), at(room + 1)
            blocks = [(r, min(r + step, cb), r + 1, cb) for r in range(ca, cb - 1, step)]
            for v in range(lo, hi + 1):
                top = at(max(v + t, room + 1) if abs(v) <= room else v + t)
                span = range(at(v), at(v + 1), step)
                if top < m:
                    blocks += [(r, min(r + step, span.stop), top, m) for r in span]
            best = None
            for r0, r1, a, b in blocks:
                rows, cols = c[r0:r1], c[a:b]
                s1 = D.take(rows, 0).take(cols, 1)
                s1 += D[i, j]
                s2 = dic[r0:r1, None] + djc[None, a:b]
                s3 = djc[r0:r1, None] + dic[None, a:b]
                ks, ls = np.nonzero(_defect_top_mid(s1, s2, s3) == t)
                if len(ks):
                    k, l = rows[ks], cols[ls]
                    key = int((np.minimum(k, l) * n + np.maximum(k, l)).min())
                    best = key if best is None else min(best, key)
            if best is not None:
                return (int(i), int(j), *divmod(best, n)), work
    return None, work


def _first_witness(parts: list, kept: dict, t: int) -> tuple:
    """First quadruple i<j<k<l of the graph, in lexicographic order, whose
    defect is ``t``, the maximum, from the blocks ``parts`` of ``_blocks``.
    ``kept`` maps each distinct labelled block whose own maximum defect is
    ``t`` to the matrix ``_max_defect`` returned for it.

    A quadruple whose four gates in a block are distinct has the defect of
    its gates, and one with a positive defect has such a block, whose own
    maximum is then >= t; so the first quadruple is made of the fiber minima
    of four vertices of one block whose maximum is t.  Each block is
    labelled by fiber minimum, so its first quadruple in labels
    (``_block_witness``) is its least in fiber minima, and the least over
    the blocks is the answer.  The blocks are taken by their four least
    fiber minima, and the scan stops at the first block whose four least
    cannot beat the best quadruple so far.  A block not in ``kept`` is
    skipped, and each kept block is scanned for its quadruple once, a work
    charged against ``_WITNESS_WORK``.
    """
    if t == 0:
        return (0, 1, 2, 3)
    best = None
    work = 0
    quads = {}  # the first labelled quadruple of each kept block
    for fmins, edges in sorted(parts, key=lambda part: part[0][:4]):
        if best is not None and tuple(fmins[:4]) >= best:
            break
        key = len(fmins), edges
        if key not in kept:
            continue
        if key not in quads:
            quads[key], work = _block_witness(kept[key], t, work)
        quad = tuple(fmins[v] for v in quads[key])
        if best is None or quad < best:
            best = quad
    if best is None:
        raise AssertionError(f"no quadruple attains the maximum defect {t}")
    return best


def _ranks_to_vertices(quads: np.ndarray) -> np.ndarray:
    """Map each row of ranks (u0, u1, u2, u3), u_j in [0, n - j), in place
    to the ordered quadruple of distinct vertices (v0, v1, v2, v3) in which
    v_j is the u_j-th smallest vertex not among v_0..v_{j-1}: a bijection
    onto the ordered quadruples of distinct vertices of 0..n-1.  A rank is
    moved past each earlier pick it reaches, taken in increasing order."""
    for j in range(1, 4):
        col = quads[:, j]
        for picked in np.sort(quads[:, :j], axis=1).T:
            col += col >= picked
    return quads


def four_point_delta(
    g: MetricGraph,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
) -> DeltaReport:
    """Four-point hyperbolicity constant, exact or sampled.

    Exact mode refuses, with a SizeLimitError, a graph over one of the caps
    on the cells of its block matrices, its far-apart pairs per block and
    its witness work.  It takes the maximum defect over the distinct
    labelled blocks of ``_blocks``, largest first, each built as a
    ``MetricGraph`` in its labels (a graph of one block is used as it is)
    and scanned once by ``_max_defect`` over the far-apart pairs of its
    adjacency and its ``distance_matrix``, in tiles, from the running
    maximum, with its pair and diameter exits, and for a chordal block
    (``_chordal``) an exit at defect 2; only the blocks at the maximum are
    held.  The witness is the lexicographically smallest quadruple of the
    whole graph attaining that maximum, found by ``_first_witness`` in the
    held blocks; it may span several blocks, and on a graph with delta 0 it
    is (0, 1, 2, 3).  Reports are therefore
    reproducible bit for bit.  Sampled mode needs ``samples`` >= 1 and a
    seed; its value never exceeds the exact one.  A seed or a sample count,
    when given, is checked in either mode.
    """
    if seed is not None:
        seed = check_int("seed", seed, 0)
    if samples is not None or mode == "sampled":
        samples = check_int("samples", samples, 1)
    if mode == "exact":
        if g.n < 4:
            return DeltaReport(0.0, "exact", None, None, None, g.n)
        parts = _blocks(g)
        distinct = dict.fromkeys((len(fmins), edges) for fmins, edges in parts)
        cells = sum(k * k for k, _ in distinct)
        if cells > _MAX_VERTICES ** 2:
            raise SizeLimitError(
                f"exact mode holds a distance matrix per distinct block, at most "
                f"{_MAX_VERTICES} vertices squared in all; the blocks of this graph, the "
                f"largest of {max(k for k, _ in distinct)} vertices, need {cells} cells; "
                "use sampled mode"
            )
        kept = {}  # the narrow matrices of the blocks at the maximum so far
        best = 0
        for k, edges in sorted(distinct, key=lambda key: -key[0]):
            block = g if k == g.n else MetricGraph(k, edges)  # one block keeps its own ids
            # a chordal block has defect at most 2 (Brinkmann, Koolen and
            # Moulton), so its scan ends at the first quadruple of defect 2
            stop = 2 if _chordal(block._adj) else None
            defect, D = _max_defect(block.distance_matrix(), _csr(block), best, stop)
            if defect > best:
                best, kept = defect, {}
            if defect == best:
                kept[k, edges] = D
        witness = _first_witness(parts, kept, best)
        return DeltaReport(best / 2.0, "exact", None, None, witness, g.n)

    if mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode needs a seed")
        if g.n < 4:
            return DeltaReport(0.0, "sampled", samples, seed, None, g.n)
        rng = np.random.default_rng(seed)
        best = -1
        witness = None
        bounds = [g.n, g.n - 1, g.n - 2, g.n - 3]
        for start in range(0, samples, _SAMPLE_CHUNK):
            k = min(_SAMPLE_CHUNK, samples - start)
            quads = _ranks_to_vertices(rng.integers(0, bounds, size=(k, 4)))
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


def quasiconvexity_constant(g: MetricGraph, H) -> int:
    """Max distance back to H from the canonical geodesics between members
    of H, exact over every pair; 0 means every such geodesic stays inside H.
    H must induce a connected subgraph.  The geodesics read at most |H|
    distance rows, those of H, through the graph's row cache.
    """
    hs = sorted(set(H))
    if not g.is_connected_subset(hs):
        raise ValueError("H does not induce a connected subgraph")
    to_h = multi_source_distances(g, hs)
    worst = 0
    for i, j in combinations(hs, 2):
        worst = max(worst, int(to_h[g.geodesic(i, j)].max()))
    return worst
