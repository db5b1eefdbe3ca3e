"""Assembly of the quasi-tree of metric spaces from a peripheral family.

Vertices are tagged copies (c, v) of the member vertices (disjoint union even
when members overlap in the ambient graph); each member contributes its own
intrinsic edges, and cross-edges join designated projection points of member
pairs.  Two cross-edge rules are implemented:

* projection rule: connect the pair (c, d) unless some third member a sees
  them far apart, i.e. has triple distance d_a(c, d) >= 2 * theta;
* wide-point rule: connect (c, d) iff some electrified-graph geodesic between
  the two projection points crosses no cone widely (entry/exit intrinsic
  distance >= theta).

Both rules are kept because they are used interchangeably at the source; the
builder can diff the two edge sets instead of silently reconciling them.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .electrify import ElectrifiedGraph, SubgraphFamily, cone_visits, electrify, is_efficient
from .graphs import (
    MetricGraph,
    check_int_pairs,
    check_theta,
    graph_from_obj,
    graph_to_obj,
    unwrap_payload,
)
from .projections import ProjectionTable, auto_theta, projection_constant

RULES = ("projection", "widepoint")


@dataclass
class QuasiTreeSpace:
    graph: MetricGraph
    tags: list  # Y id -> (member index, ambient vertex id)
    theta: float
    rule: str
    cross_edges: list  # records {"c","d","x_cd","x_dc"} in ambient ids
    diff: dict | None = None
    tag_to_id: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.tag_to_id:
            self.tag_to_id = {tag: i for i, tag in enumerate(self.tags)}

    def id_of(self, tag) -> int:
        tag = (int(tag[0]), int(tag[1]))
        if tag not in self.tag_to_id:
            raise ValueError(f"unknown tagged vertex {tag}")
        return self.tag_to_id[tag]


def y_distance(y: QuasiTreeSpace, p, q) -> int:
    """Graph metric of the quasi-tree; accepts tags (c, v) or raw Y ids."""
    pid = y.id_of(p) if isinstance(p, tuple) else int(p)
    qid = y.id_of(q) if isinstance(q, tuple) else int(q)
    return y.graph.shortest_distance(pid, qid)


def wide_points(eg: ElectrifiedGraph, walk, theta: float) -> list:
    """Cone visits of an efficient walk whose entry/exit points are at
    intrinsic member distance >= theta, as (position, member index)."""
    if not is_efficient(walk, eg):
        raise ValueError("wide points are only defined for efficient walks")
    out = []
    for k, c in cone_visits(walk, eg):
        if k == 0 or k == len(walk) - 1:
            continue  # endpoint visits have no entry/exit pair
        if eg.intrinsic_distance(c, walk[k - 1], walk[k + 1]) >= theta:
            out.append((k, c))
    return out


def _exists_narrow_geodesic(eg: ElectrifiedGraph, u: int, w: int, theta: float) -> bool:
    """Is there a geodesic in the electrified graph from u to w none of whose
    cone visits is wide?  Decided exactly over the geodesic DAG with
    (previous, current) states, since wideness depends on both neighbors."""
    if u == w:
        return True
    graph = eg.graph
    du = graph.distances_from(u)
    dw = graph.distances_from(w)
    total = du[w]
    on_geo = (du + dw == total).tolist()

    def steps(a):
        da = du[a]
        for b in graph.neighbors(a):
            if on_geo[b] and du[b] == da + 1:
                yield b

    seen = set()
    queue = deque((u, b) for b in steps(u))
    while queue:
        a, b = queue.popleft()
        if b == w:
            return True
        if (a, b) in seen:
            continue
        seen.add((a, b))
        for c in steps(b):
            if eg.is_cone(b):
                idx = eg.cone_index(b)
                if eg.intrinsic_distance(idx, a, c) >= theta:
                    continue
            queue.append((b, c))
    return False


def build_quasitree(
    g: MetricGraph,
    fam: SubgraphFamily,
    theta,
    rule: str = "projection",
    with_diff: bool = True,
) -> QuasiTreeSpace:
    """Build the quasi-tree for the family at threshold theta; ``"auto"``
    resolves to ``auto_theta`` of the measured projection constant R.

    The cross-edge endpoints x_{c,d} are the id-minimal vertices of the
    projection of H_d into H_c at minimal ambient distance to H_d.  When
    ``with_diff`` is set, both rules are evaluated and their edge sets are
    diffed into the report; construction itself uses ``rule``.
    """
    if len(fam) == 0:
        raise ValueError("cannot build a quasi-tree from an empty family")
    if theta != "auto":
        theta = check_theta(theta)
    if rule not in RULES:
        raise ValueError(f"unknown cross-edge rule {rule!r}")
    table = ProjectionTable(g, fam)
    if theta == "auto":
        theta = auto_theta(projection_constant(g, fam, table))

    members = [list(m) for m in fam.members]
    m = len(members)
    tags = [(c, v) for c in range(m) for v in members[c]]
    tag_to_id = {tag: i for i, tag in enumerate(tags)}

    edges = []
    for c, member in enumerate(members):
        inside = set(member)
        for a in member:
            for b in g.neighbors(a):
                if a < b and b in inside:
                    edges.append((tag_to_id[(c, a)], tag_to_id[(c, b)]))

    # projection anchor points: id-minimal at minimal distance to the partner
    anchor = {}
    for c in range(m):
        for d in range(m):
            if c != d:
                anchor[c, d] = min(table.proj(c, d), key=lambda s: (int(table.nearest(d)[0][s]), s))

    def projection_pairs():
        out = set()
        for c in range(m):
            for d in range(c + 1, m):
                if not any(table.triple(a, c, d) >= 2 * theta for a in range(m) if a not in (c, d)):
                    out.add((c, d))
        return out

    need_wide = rule == "widepoint" or with_diff
    eg = electrify(g, fam) if need_wide else None

    def widepoint_pairs():
        out = set()
        for c in range(m):
            for d in range(c + 1, m):
                if _exists_narrow_geodesic(eg, anchor[c, d], anchor[d, c], theta):
                    out.add((c, d))
        return out

    proj_pairs = projection_pairs() if (rule == "projection" or with_diff) else None
    wide_pairs = widepoint_pairs() if need_wide else None
    chosen = proj_pairs if rule == "projection" else wide_pairs

    cross = []
    for (c, d) in sorted(chosen):
        x_cd = anchor[c, d]
        x_dc = anchor[d, c]
        edges.append((tag_to_id[(c, x_cd)], tag_to_id[(d, x_dc)]))
        cross.append({"c": c, "d": d, "x_cd": x_cd, "x_dc": x_dc})

    diff = None
    if with_diff and proj_pairs is not None and wide_pairs is not None:
        diff = {
            "projection_only": sorted(list(p) for p in proj_pairs - wide_pairs),
            "widepoint_only": sorted(list(p) for p in wide_pairs - proj_pairs),
            "common": len(proj_pairs & wide_pairs),
        }

    labels = {tag_to_id[(c, v)]: f"{c}:{v}" for (c, v) in tags}
    try:
        graph = MetricGraph(len(tags), edges, labels)
    except ValueError as exc:
        raise ValueError(f"quasi-tree is not connected at theta={theta}: {exc}") from exc
    return QuasiTreeSpace(
        graph=graph,
        tags=tags,
        theta=theta,
        rule=rule,
        cross_edges=cross,
        diff=diff,
        tag_to_id=tag_to_id,
    )


def y_to_obj(y: QuasiTreeSpace) -> dict:
    return {
        "graph": graph_to_obj(y.graph),
        "tags": [[c, v] for (c, v) in y.tags],
        "theta": y.theta,
        "rule": y.rule,
        "cross_edges": y.cross_edges,
        "diff": y.diff,
    }


def y_from_obj(obj) -> QuasiTreeSpace:
    obj = unwrap_payload(obj)
    if not isinstance(obj, dict):
        raise ValueError(f"quasi-tree JSON must be an object, got {obj!r:.60}")
    for key in ("graph", "tags", "theta", "rule"):
        if key not in obj:
            raise ValueError(f'quasi-tree JSON is missing "{key}"')
    graph = graph_from_obj(obj["graph"])
    tags = [tuple(tag) for tag in check_int_pairs("tags", obj["tags"])]
    if len(tags) != graph.n:
        raise ValueError(f"quasi-tree has {graph.n} vertices but {len(tags)} tags")
    if len(set(tags)) != len(tags):
        raise ValueError("quasi-tree tags must be distinct")
    if obj["rule"] not in RULES:
        raise ValueError(f"unknown cross-edge rule {obj['rule']!r:.60}")
    return QuasiTreeSpace(
        graph=graph,
        tags=tags,
        theta=check_theta(obj["theta"]),
        rule=obj["rule"],
        cross_edges=obj.get("cross_edges", []),
        diff=obj.get("diff"),
    )


def load_quasitree(path) -> QuasiTreeSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return y_from_obj(json.load(fh))
