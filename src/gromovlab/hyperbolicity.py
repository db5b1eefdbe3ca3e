"""Hyperbolicity and quasiconvexity measurements.

The headline number is the four-point condition constant: for vertices
w, x, y, z form the three pairwise distance sums

    s1 = d(w,x) + d(y,z),  s2 = d(w,y) + d(x,z),  s3 = d(w,z) + d(x,y);

the defect of the quadruple is (largest sum - middle sum) and the constant is
half the maximal defect.  On unit-edge graphs this is always a half-integer.
Exact mode enumerates all quadruples (with an O(n^4) size guard); sampled
mode draws quadruples from a seeded generator.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .graphs import MetricGraph, SizeLimitError, check_int, multi_source_distances

EXACT_SIZE_GUARD = 300


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


def _exact_scan(D: np.ndarray, i_range) -> tuple:
    """Max defect and first witness over quadruples i<j<k<l with i in i_range."""
    n = D.shape[0]
    best = -1
    witness = None
    for i in i_range:
        for j in range(i + 1, n - 1):
            lo = j + 1
            sub = D[lo:, lo:]
            s1 = int(D[i, j]) + sub
            s2 = D[i, lo:][:, None] + D[j, lo:][None, :]
            defect = _defect_top_mid(s1, s2, s2.T)
            defect = np.triu(defect, 1)
            m = int(defect.max(initial=0))
            if m > best:
                flat = int(np.argmax(defect))
                width = n - lo
                k = lo + flat // width
                # with every defect 0, argmax lands on the zeroed diagonal
                l = lo + flat % width if m else k + 1
                best = m
                witness = (i, j, k, l)
    return best, witness


def four_point_delta(
    g: MetricGraph,
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
    threads: int = 1,
    size_guard: int = EXACT_SIZE_GUARD,
) -> DeltaReport:
    """Four-point hyperbolicity constant, exact or sampled.

    Exact mode refuses graphs above ``size_guard`` vertices.  Sampled mode
    needs ``samples`` >= 1 and a seed; its value never exceeds the exact one.
    The witness is the first quadruple attaining the maximum in scan order,
    so reports are reproducible bit for bit.
    """
    if mode == "exact":
        if g.n > size_guard:
            raise SizeLimitError(
                f"exact mode needs <= {size_guard} vertices, graph has {g.n}; "
                "use sampled mode"
            )
        if g.n < 4:
            return DeltaReport(0.0, "exact", None, None, None, g.n)
        D = g.distance_matrix()
        if threads and threads > 1:
            chunks = [range(i, g.n - 3, threads) for i in range(min(threads, g.n - 3))]
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                results = list(pool.map(_exact_scan, [D] * len(chunks), chunks))
            # deterministic fold: same winner as the serial scan
            best, witness = -1, None
            for b, w in results:
                if b > best or (b == best and w is not None and (witness is None or w < witness)):
                    best, witness = b, w
        else:
            best, witness = _exact_scan(D, range(g.n - 3))
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
        for _ in range(samples):
            w_, x, y, z = (int(v) for v in rng.choice(g.n, size=4, replace=False))
            dw = g.distances_from(w_)
            dx = g.distances_from(x)
            dy = g.distances_from(y)
            sums = sorted(
                (int(dw[x] + dy[z]), int(dw[y] + dx[z]), int(dw[z] + dx[y]))
            )
            defect = sums[2] - sums[1]
            if defect > best:
                best = defect
                witness = (w_, x, y, z)
        return DeltaReport(best / 2.0, "sampled", samples, seed, witness, g.n)

    raise ValueError(f"unknown mode {mode!r} (expected 'exact' or 'sampled')")


def _sample_index_pairs(k: int, budget: int, seed: int | None):
    """All index pairs if they fit the budget, else a seeded sample."""
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
