"""Shortest-distance projections onto peripheral members and the three
axioms the projection family has to satisfy.

project() returns the full argmin set (the coarse nearest-point map is only
well defined up to bounded error, so no single point is singled out);
downstream consumers pick the id-minimal element when they need one vertex.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import combinations

import numpy as np

from .electrify import SubgraphFamily
from .graphs import MetricGraph, _check_vertex, check_int, check_theta, set_diameter
from .graphs import multi_source_distances, nearest_points, nearest_set


def project(g: MetricGraph, H, x: int) -> tuple:
    """All vertices of H at minimal distance from x, as a sorted tuple."""
    hs = sorted(set(H))
    if not hs:
        raise ValueError("cannot project onto an empty vertex set")
    if not g.is_connected_subset(hs):
        raise ValueError("projection target does not induce a connected subgraph")
    return nearest_set(hs, nearest_points(g, hs)[1], [_check_vertex(g.n, x)])


def hausdorff_distance(g: MetricGraph, A, B) -> int:
    """Hausdorff distance between two vertex sets in the ambient metric."""
    a, b = sorted(set(A)), sorted(set(B))
    if not a or not b:
        raise ValueError("Hausdorff distance of an empty set")
    return int(max(multi_source_distances(g, b)[a].max(), multi_source_distances(g, a)[b].max()))


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
    return set_diameter(g, nearest_set(hc, nearest_points(g, hc)[1], hd))


class ProjectionTable:
    """Projections between the members of a family, and the triple distances
    read from them; both computed on first use and cached.  The family is
    validated against ``g`` once, here."""

    def __init__(self, g: MetricGraph, fam: SubgraphFamily):
        fam.validate_against(g)
        self._g = g
        self._members = [list(mem) for mem in fam.members]
        self._nearest = {}
        self._proj = {}
        self._triple = {}

    def nearest(self, c: int):
        """``graphs.nearest_points(g, H_c)``: (distances to H_c, labels)."""
        if c not in self._nearest:
            self._nearest[c] = nearest_points(self._g, self._members[c])
        return self._nearest[c]

    def proj(self, c: int, d: int) -> tuple:
        """Projection of member d into member c (every vertex projected)."""
        out = self._proj.get((c, d))
        if out is None:
            hs = self._members[c]
            out = self._proj[c, d] = nearest_set(hs, self.nearest(c)[1], self._members[d])
            for p in out:  # cache the rows that the projection and triple diameters read
                self._g.distances_from(p)
        return out

    def triple(self, a: int, b: int, c: int) -> int:
        """d_a(b, c): diameter of the union of the projections of members b
        and c into member a; symmetric in (b, c)."""
        key = (a, b, c) if b < c else (a, c, b)
        out = self._triple.get(key)
        if out is None:
            union = set(self.proj(a, b)) | set(self.proj(a, c))
            out = self._triple[key] = set_diameter(self._g, union)
        return out


def triple_distance(g: MetricGraph, fam: SubgraphFamily, a: int, b: int, c: int) -> int:
    """Diameter of the union of the projections of members b and c into member
    a; symmetric in (b, c)."""
    if len({a, b, c}) != 3:
        raise ValueError("triple distance needs three distinct member indices")
    return ProjectionTable(g, fam).triple(a, b, c)


def projection_constant(g: MetricGraph, fam: SubgraphFamily, table=None) -> int:
    """R: the largest diameter of the projection of one member onto another,
    exact over every ordered pair (axiom 1), read from ``table`` if given."""
    if table is None:
        table = ProjectionTable(g, fam)
    m = len(fam)
    if m < 2:
        raise ValueError("axiom check needs at least two family members")
    return max(set_diameter(g, table.proj(c, d)) for c in range(m) for d in range(m) if c != d)


def auto_theta(R: int) -> float:
    """The heuristic theta = 3R + 3 that ``theta="auto"`` resolves to."""
    return float(3 * R + 3)


@dataclass
class AxiomReport:
    R_measured: int
    theta: float
    theta_mode: str
    triples_checked: int
    triples_exhaustive: bool
    axiom2_violations: list
    axiom3_pairs: list
    axiom3_counts: list
    axiom3_max: int
    seed: int | None
    note: str = field(
        default="auto theta is the heuristic 3 * (max projection diameter) + 3, a measured quantity"
    )

    def to_obj(self) -> dict:
        return asdict(self)


def axiom_check(
    g: MetricGraph,
    fam: SubgraphFamily,
    theta="auto",
    triple_budget: int = 5000,
    seed: int | None = 0,
    axiom3_budget: int = 200,
) -> AxiomReport:
    """Verify the projection axioms on a family.

    Axiom 1: every pairwise projection has diameter <= R (R_measured is the
    exact max over all ordered pairs).  Axiom 2: for each triple of members,
    at most one of the three triple distances exceeds theta (exhaustive when
    the triple count fits the budget, sampled otherwise).  Axiom 3: for
    sampled member pairs (a, b), the number of members c with d_c(a,b) > theta
    (always finite here; the count distribution is the signal).
    """
    check_int("triple_budget", triple_budget, 1)
    check_int("axiom3_budget", axiom3_budget, 0)
    theta_mode = "auto" if theta == "auto" else "given"
    theta_val = None if theta_mode == "auto" else check_theta(theta)
    table = ProjectionTable(g, fam)
    R_measured = projection_constant(g, fam, table)
    m = len(fam)
    if theta_val is None:
        theta_val = auto_theta(R_measured)

    total_triples = m * (m - 1) * (m - 2) // 6
    exhaustive = total_triples <= triple_budget
    if exhaustive:
        triples = list(combinations(range(m), 3))
    else:
        rng = np.random.default_rng(seed)
        triples = [
            tuple(int(v) for v in sorted(rng.choice(m, size=3, replace=False)))
            for _ in range(triple_budget)
        ]
    violations = []
    for a, b, c in triples:
        nums = (table.triple(a, b, c), table.triple(b, a, c), table.triple(c, a, b))
        if sum(1 for x in nums if x > theta_val) >= 2:
            violations.append({"triple": [a, b, c], "values": list(nums)})

    total_pairs = m * (m - 1) // 2
    if total_pairs <= axiom3_budget:
        pairs = list(combinations(range(m), 2))
    else:
        rng3 = np.random.default_rng(None if seed is None else seed + 1)
        pairs = [
            tuple(int(v) for v in sorted(rng3.choice(m, size=2, replace=False)))
            for _ in range(axiom3_budget)
        ]
    counts = []
    for a, b in pairs:
        counts.append(sum(1 for c in range(m) if c not in (a, b) and table.triple(c, a, b) > theta_val))

    return AxiomReport(
        R_measured=int(R_measured),
        theta=float(theta_val),
        theta_mode=theta_mode,
        triples_checked=len(triples),
        triples_exhaustive=exhaustive,
        axiom2_violations=violations,
        axiom3_pairs=[list(p) for p in pairs],
        axiom3_counts=counts,
        axiom3_max=max(counts) if counts else 0,
        seed=seed,
    )
