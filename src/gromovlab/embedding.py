"""Product embedding of the base graph into (electrified graph) x (quasi-tree),
geodesic enlargements, and empirical quasi-isometry constant fitting.

Each base vertex y is sent to the pair (y, anchor(y)) where anchor(y) is the
exit vertex right after the last cone visit on the canonical electrified-graph
geodesic from a fixed basepoint to y, tagged into the member whose cone was
crossed.  If that geodesic meets no cone, the anchor falls back to the
basepoint's own tag.  The product metric is the sum of the two coordinates'
graph metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .electrify import ElectrifiedGraph, check_walk, cone_visits
from .graphs import MetricGraph, SizeLimitError, check_int
from .hyperbolicity import DeltaReport, four_point_delta
from .quasitree import QuasiTreeSpace

QUASI_TREE_DELTA_CUTOFF = 2.0


def _basepoint_tag(eg: ElectrifiedGraph, basepoint: int) -> tuple:
    for c, member in enumerate(eg.family.members):
        if basepoint in member:
            return (c, basepoint)
    raise ValueError(f"basepoint {basepoint} lies in no family member")


def cone_exit_anchor(eg: ElectrifiedGraph, basepoint: int, target: int) -> tuple:
    """Tagged quasi-tree vertex where the canonical geodesic from the
    basepoint to ``target`` last exits a cone; basepoint's own tag if the
    geodesic crosses no cone."""
    basepoint = check_int("basepoint", basepoint)
    base_tag = _basepoint_tag(eg, basepoint)
    target = check_int("target", target)
    if target < 0 or target >= eg.base_size:
        raise ValueError(f"target {target} is not a base vertex")
    walk = eg.graph.geodesic(basepoint, target)
    visits = cone_visits(walk, eg)
    if not visits:
        return base_tag
    k, c = visits[-1]
    return (c, walk[k + 1])


def _anchor_ids(eg: ElectrifiedGraph, y: QuasiTreeSpace, basepoint: int):
    """Memoized base vertex -> quasi-tree id of its cone-exit anchor."""
    memo = {}

    def anchor_id(v):
        out = memo.get(v)
        if out is None:
            out = memo[v] = y.id_of(cone_exit_anchor(eg, basepoint, v))
        return out

    return anchor_id


def enlargement(eg: ElectrifiedGraph, walk) -> list:
    """Push an electrified-graph geodesic back into the base graph by
    replacing every cone excursion entry -> cone -> exit with an intrinsic
    member geodesic between entry and exit."""
    graph = eg.graph
    check_walk(walk, graph)
    if eg.is_cone(walk[0]) or eg.is_cone(walk[-1]):
        raise ValueError("enlargement endpoints must be base vertices")
    if len(walk) - 1 != graph.shortest_distance(walk[0], walk[-1]):
        raise ValueError("walk is not a geodesic of the electrified graph")
    out = [walk[0]]
    for k in range(1, len(walk)):
        if eg.is_cone(walk[k]):
            c = eg.cone_index(walk[k])
            out.extend(eg.intrinsic_geodesic(c, walk[k - 1], walk[k + 1])[1:])
        elif not eg.is_cone(walk[k - 1]):  # an exit is the member geodesic's end
            out.append(walk[k])
    return out


@dataclass
class EmbeddingReport:
    basepoint: int
    theta: float
    L_fit: float
    C_fit: float
    n_pairs: int
    seed: int
    violation_count: int
    records: list  # per sampled pair: [base distance, product distance]
    eg_delta: float
    eg_delta_mode: str
    peripheral_delta_max: float
    peripheral_delta_mode: str  # "sampled" if any member was sampled: the max is then a lower bound
    quasi_tree_flags: dict

    def to_obj(self) -> dict:
        # shallow: the records are plain int lists, so nothing needs a copy
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _delta_diagnostic(g: MetricGraph, seed: int) -> DeltaReport:
    """δ of a side graph: exact where exact mode accepts it, sampled (4000
    quadruples from ``seed``) where it refuses.  Exact mode's caps apply per
    biconnected block, so a tree of small pieces, such as an electrified
    ring tree, is exact at any size."""
    try:
        return four_point_delta(g)
    except SizeLimitError:
        return four_point_delta(g, mode="sampled", samples=4000, seed=seed)


def _min_L_for_pair(d_g: int, d_p: int) -> float:
    # upper bound d_p <= L*d_g + L and lower bound d_p >= d_g/L - L
    need_upper = d_p / (d_g + 1)
    need_lower = (-d_p + (d_p * d_p + 4 * d_g) ** 0.5) / 2
    return max(1.0, need_upper, need_lower)


def qi_fit(
    eg: ElectrifiedGraph,
    y: QuasiTreeSpace,
    basepoint: int,
    pair_budget: int = 2000,
    seed: int = 11,
) -> EmbeddingReport:
    """Fit the minimal L >= 1 with d_G/L - L <= d_product <= L*d_G + L over
    base-vertex pairs drawn from ``seed``, an integer >= 0; the additive
    constant is reported equal to L.

    Also measures hyperbolicity of the electrified graph and of every member
    (flagging which parts look quasi-tree-like at desk scale), since the
    embedding is only informative when those parts are tree-like.
    """
    check_int("pair_budget", pair_budget, 1)
    seed = check_int("seed", seed, 0)
    base = eg.base_graph()
    rng = np.random.default_rng(seed)
    anchor_id = _anchor_ids(eg, y, basepoint)
    pairs = rng.integers(base.n, size=(pair_budget, 2))
    us, vs = pairs[pairs[:, 0] != pairs[:, 1]].T
    # the electrified rows of u and v are also the anchors' geodesic targets
    eg.graph.prefetch_rows(np.concatenate([us, vs]))
    d_g = base.pair_distances(us, vs)
    au = np.array([anchor_id(u) for u in us.tolist()], dtype=np.intp)
    av = np.array([anchor_id(v) for v in vs.tolist()], dtype=np.intp)
    d_p = eg.graph.pair_distances(us, vs) + y.graph.pair_distances(au, av)
    records = np.stack([d_g, d_p], axis=1).tolist()
    L_fit = max((_min_L_for_pair(*pair) for pair in set(map(tuple, records))), default=1.0)

    C_fit = L_fit
    eps = 1e-9
    violations = sum(
        1
        for d_g, d_p in records
        if not (d_g / L_fit - C_fit - eps <= d_p <= L_fit * d_g + C_fit + eps)
    )

    eg_report = _delta_diagnostic(eg.graph, seed)
    peripheral = {}  # one diagnostic per distinct member graph
    for c in range(len(eg.family)):
        sub = eg.intrinsic(c)[0]
        if (sub.n, sub.edges) not in peripheral:
            peripheral[sub.n, sub.edges] = _delta_diagnostic(sub, seed)
    peripheral = list(peripheral.values())
    pmax = max((rep.delta for rep in peripheral), default=0.0)
    pmode = "sampled" if any(rep.mode == "sampled" for rep in peripheral) else "exact"
    flags = {
        "delta_cutoff": QUASI_TREE_DELTA_CUTOFF,
        "electrified_graph": eg_report.delta <= QUASI_TREE_DELTA_CUTOFF,
        "all_peripherals": pmax <= QUASI_TREE_DELTA_CUTOFF,
    }
    return EmbeddingReport(
        basepoint=basepoint,
        theta=y.theta,
        L_fit=L_fit,
        C_fit=C_fit,
        n_pairs=len(records),
        seed=seed,
        violation_count=violations,
        records=records,
        eg_delta=eg_report.delta,
        eg_delta_mode=eg_report.mode,
        peripheral_delta_max=pmax,
        peripheral_delta_mode=pmode,
        quasi_tree_flags=flags,
    )


def edge_lipschitz(eg: ElectrifiedGraph, y: QuasiTreeSpace, basepoint: int) -> int:
    """Exhaustive max, over all base edges (u, v), of the product distance of
    their images; finite and instance-reported (the embedding moves adjacent
    vertices a bounded amount)."""
    base = eg.base_graph()
    anchor_id = _anchor_ids(eg, y, basepoint)
    worst = 0
    for (u, v) in base.edges:
        # base edges survive electrification, so the first coordinate is 1
        d_p = 1 + int(y.graph.shortest_distance(anchor_id(u), anchor_id(v)))
        worst = max(worst, d_p)
    return worst
