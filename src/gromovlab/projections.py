"""Shortest-distance projections onto peripheral members and the three
axioms the projection family has to satisfy.

project() returns the full argmin set (the coarse nearest-point map is only
well defined up to bounded error, so no single point is singled out);
downstream consumers pick the id-minimal element when they need one vertex.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import chain, compress
from operator import or_

import numpy as np

from .electrify import SubgraphFamily
from .graphs import MetricGraph, _check_vertex, check_real, nearest_points, set_diameter


def _projection(g: MetricGraph, hs, sets) -> np.ndarray:
    """Boolean P[d, i]: is hs[i] (sorted, distinct) nearest to some vertex of
    sets[d]?  The labels of one ``nearest_points`` out of H = hs, OR-ed over
    each set and unpacked; an empty set gives an empty row."""
    labels = nearest_points(g, hs)[1]
    size = (len(hs) + 7) // 8
    masks = [reduce(or_, (labels[x] for x in xs), 0).to_bytes(size, "little") for xs in sets]
    bits = np.frombuffer(b"".join(masks), dtype=np.uint8).reshape(len(sets), size)
    return np.unpackbits(bits, axis=1, count=len(hs), bitorder="little").astype(bool)


def project(g: MetricGraph, H, x: int) -> tuple:
    """All vertices of H at minimal distance from x, as a sorted tuple."""
    hs = sorted(set(H))
    if not hs:
        raise ValueError("cannot project onto an empty vertex set")
    if not g.is_connected_subset(hs):
        raise ValueError("projection target does not induce a connected subgraph")
    return tuple(compress(hs, _projection(g, hs, [[_check_vertex(g.n, x)]])[0]))


def proj_set_diameter(g: MetricGraph, H_c, H_d) -> int:
    """Diameter of the projection of H_d onto H_c (every vertex projected)."""
    hc = sorted(set(H_c))
    hd = sorted({_check_vertex(g.n, x) for x in H_d})
    if hc == hd:
        raise ValueError("self-projection diameter is excluded (identical members)")
    if not hc or not hd:
        raise ValueError("family members must be nonempty")
    if not g.is_connected_subset(hc):
        raise ValueError("projection target does not induce a connected subgraph")
    return set_diameter(g, compress(hc, _projection(g, hc, [hd])[0]))


class ProjectionTable:
    """The projections between the members of a family, as arrays, and the
    triple distances read from them one member at a time.  The family is
    validated against ``g`` once, here.

    For member c, U_c holds the sorted points of H_c that some other member
    projects to, and the boolean P_c[d, j] says whether U_c[j] lies in the
    projection of H_d: one ``_projection`` per member, with every member as
    a set and its own row empty.  One ``prefetch_rows`` over the union of all
    U_c then caches exactly the distance rows that ``member`` and
    ``anchors`` read; the table holds no other distances.
    """

    def __init__(self, g: MetricGraph, fam: SubgraphFamily):
        fam.validate_against(g)
        self._g, self._fam = g, fam
        members = fam.members
        self._points = []  # U_c, as vertex ids
        self._proj = []  # P_c, (m, |U_c|) boolean; row c is empty
        for c, hs in enumerate(members):
            P = _projection(g, hs, [() if d == c else hd for d, hd in enumerate(members)])
            used = np.flatnonzero(P.any(axis=0))
            self._points.append(np.asarray(hs)[used])
            self._proj.append(P[:, used])
        self._flat = np.fromiter(chain.from_iterable(members), dtype=np.intp)  # H_0, H_1, ...
        self._starts = np.cumsum([0] + [len(hs) for hs in members[:-1]])
        g.prefetch_rows(chain.from_iterable(self._points))

    def member(self, c: int) -> np.ndarray:
        """(m, m) matrix of d_c(b, d), the diameter of the union of the
        projections of members b and d into member c; its diagonal holds the
        diameters of the single projections.  Row and column c are 0.

        With X[b, d] the largest d(p, q) over p in the projection of b and q
        in that of d (two masked max reductions over the U_c block),
        d_c(b, d) = max(X[b, d], X[b, b], X[d, d]).
        """
        c = self._fam.check_index(c)
        pts, P = self._points[c], self._proj[c]
        m = len(P)
        Y = np.zeros((m, len(pts)), dtype=np.int32)  # Y[b, q]: max d(p, q) over p in pi_c(b)
        for j, p in enumerate(pts):
            np.maximum(Y, np.where(P[:, j, None], self._g.distances_from(p)[pts], 0), out=Y)
        X = np.zeros((m, m), dtype=np.int32)
        for j in range(len(pts)):
            np.maximum(X, np.where(P[:, j], Y[:, j, None], 0), out=X)
        diam = X.diagonal()
        out = np.maximum(X, np.maximum.outer(diam, diam))
        out[c, :] = out[:, c] = 0
        return out

    def anchors(self, c: int) -> np.ndarray:
        """x_{c,d} for every member d: the id-minimal point of the projection
        of H_d into H_c at minimal distance to H_d (entry c is meaningless).
        Needs at least two members."""
        c = self._fam.check_index(c)
        if len(self._fam) < 2:
            raise ValueError("anchors need a family of at least two members")
        pts = self._points[c]
        dist = [self._g.distances_from(p)[self._flat] for p in pts]
        near = np.minimum.reduceat(dist, self._starts, axis=1).T  # near[d, j] = d(H_d, U_c[j])
        return pts[np.where(self._proj[c], near, self._g.n).argmin(axis=1)]


def triple_distance(g: MetricGraph, fam: SubgraphFamily, a: int, b: int, c: int) -> int:
    """Diameter of the union of the projections of members b and c into member
    a; symmetric in (b, c).  The union is one ``_projection`` of H_b + H_c
    onto H_a, and its ``set_diameter`` is the entry
    ``ProjectionTable(g, fam).member(a)[b, c]``.  Only a, b and c are validated."""
    a, b, c = (fam.check_index(x) for x in (a, b, c))
    if len({a, b, c}) != 3:
        raise ValueError("triple distance needs three distinct member indices")
    for x in (a, b, c):
        fam.validate_member(g, x)
    return set_diameter(g, compress(fam[a], _projection(g, fam[a], [fam[b] + fam[c]])[0]))


def auto_theta(R: int) -> float:
    """The heuristic theta = 3R + 3 that ``theta="auto"`` resolves to."""
    return float(3 * R + 3)


@dataclass
class AxiomReport:
    R_measured: int
    theta: float
    theta_mode: str
    triples_checked: int
    axiom2_violations: list
    axiom3_histogram: list
    axiom3_max: int
    note: str = field(
        default="auto theta is the heuristic 3 * (max projection diameter) + 3, a measured quantity"
    )

    def to_obj(self) -> dict:
        return asdict(self)


def axiom_check(g: MetricGraph, fam: SubgraphFamily, theta="auto") -> AxiomReport:
    """Verify the projection axioms on a family, over every pair and triple.

    Axiom 1: every pairwise projection has diameter <= R (R_measured is the
    exact max over all ordered pairs).  Axiom 2: for every triple of members,
    at most one of the three triple distances exceeds theta.  Axiom 3: for
    every member pair (a, b), the number of members c with d_c(a, b) > theta
    (always finite here; entry k of the histogram counts the pairs that
    exactly k members see apart).

    One pass over the members keeps only the d_c(a, b), a < b, above the
    running lower bound on theta (theta itself, or 3R + 3 for R so far; R
    only grows), then filters them at the final theta.  The members of a
    triple that violates axiom 2 are read a second time for its values.
    """
    theta_mode = "auto" if theta == "auto" else "given"
    theta_val = None if theta_mode == "auto" else check_real("theta", theta)
    table = ProjectionTable(g, fam)
    m = len(fam)
    if m < 2:
        raise ValueError("the projection constant R needs at least two family members")

    R_measured = 0
    kept = []  # per member c: the pairs a * m + b, a < b, with d_c(a, b) above the bound
    for c in range(m):
        M = table.member(c)
        R_measured = max(R_measured, int(M.diagonal().max()))
        bound = auto_theta(R_measured) if theta_val is None else theta_val
        pair = np.flatnonzero(np.triu(M, 1) > bound)
        kept.append((pair.astype(np.int32), M.ravel()[pair]))  # and their d_c(a, b)
    if theta_val is None:
        theta_val = auto_theta(R_measured)
    kept = [pair[value > theta_val] for pair, value in kept]
    c = np.repeat(np.arange(m, dtype=np.int32), [len(pair) for pair in kept])
    pair = np.concatenate(kept)
    del kept

    # axiom 3: how many members see each pair (a, b) apart
    seen = np.bincount(pair, minlength=m * m).reshape(m, m)
    histogram = np.bincount(seen[np.triu_indices(m, 1)], minlength=1).tolist()

    # axiom 2: a triple violates it when two of its members see the other
    # two apart, so its key (the sorted triple) is kept twice
    a, b = np.divmod(pair, m)
    lo, hi = np.minimum(a, c), np.maximum(b, c)
    key = np.sort((lo.astype(np.int64) * m + a + b + c - lo - hi) * m + hi)
    twice = key[1:][key[1:] == key[:-1]]
    bad = twice[np.diff(twice, prepend=-1) != 0]  # a key kept three times shows twice
    triples = np.stack((bad // (m * m), bad // m % m, bad % m), axis=1)
    # the values d_a(b, c), d_b(a, c), d_c(a, b) of each violation, read back
    # from its members, since one of them may be at most theta
    values = np.zeros(triples.shape, dtype=np.int32)
    for member in sorted(set(triples.ravel().tolist())):
        M = table.member(member)
        for j, (u, v) in enumerate(((1, 2), (0, 2), (0, 1))):
            at = triples[:, j] == member
            values[at, j] = M[triples[at, u], triples[at, v]]

    return AxiomReport(
        R_measured=R_measured,
        theta=float(theta_val),
        theta_mode=theta_mode,
        triples_checked=m * (m - 1) * (m - 2) // 6,
        axiom2_violations=[
            {"triple": t, "values": v} for t, v in zip(triples.tolist(), values.tolist())
        ],
        axiom3_histogram=histogram,
        axiom3_max=len(histogram) - 1,
    )
