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

from dataclasses import dataclass, field

import numpy as np

from .electrify import ElectrifiedGraph, SubgraphFamily, cone_visits, electrify, is_efficient
from .graphs import (
    MetricGraph,
    check_int,
    check_int_pairs,
    check_real,
    graph_from_obj,
    graph_to_obj,
    read_json,
    unwrap_payload,
)
from .projections import ProjectionTable, auto_theta

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
        if not isinstance(tag, tuple) or len(tag) != 2:
            raise ValueError(f"tag must be a pair (member index, vertex id), got {tag!r:.60}")
        tag = (check_int("member index", tag[0]), check_int("vertex id", tag[1]))
        if tag not in self.tag_to_id:
            raise ValueError(f"unknown tagged vertex {tag}")
        return self.tag_to_id[tag]


def y_distance(y: QuasiTreeSpace, p, q) -> int:
    """Graph metric of the quasi-tree; accepts tags (c, v) or integer Y ids."""
    pid = y.id_of(p) if isinstance(p, tuple) else p
    qid = y.id_of(q) if isinstance(q, tuple) else q
    return y.graph.shortest_distance(pid, qid)


def wide_points(eg: ElectrifiedGraph, walk, theta: float) -> list:
    """Cone visits of an efficient walk whose entry/exit points are at
    intrinsic member distance >= theta, as (position, member index)."""
    theta = check_real("theta", theta)
    if not is_efficient(walk, eg):
        raise ValueError("wide points are only defined for efficient walks")
    out = []
    for k, c in cone_visits(walk, eg):
        if k == 0 or k == len(walk) - 1:
            continue  # endpoint visits have no entry/exit pair
        if eg.intrinsic_distance(c, walk[k - 1], walk[k + 1]) >= theta:
            out.append((k, c))
    return out


def _narrow_reach(eg: ElectrifiedGraph, u: int, theta: float) -> set:
    """Every vertex that some geodesic of the electrified graph from base
    vertex u reaches while crossing no cone widely.  One sweep over d(u, .),
    level by level, on (previous, current) states: every prefix of a geodesic
    is a geodesic, and wideness at a cone reads only its two neighbours on the
    walk, so each vertex of a level keeps the vertices before it, which only
    a cone reads."""
    adj, base_n = eg.graph._adj, eg.base_size
    du = eg.graph.distances_from(u).tolist()
    reach, level, k = {u}, {u: []}, 0
    while level:
        k += 1
        step = {}
        for b, entries in level.items():
            if b >= base_n:  # a cone: an exit must be near one of its entries
                sub, ids = eg.intrinsic(b - base_n)
                rows = [sub.distances_from(ids[a]) for a in entries]
            for c in adj[b]:
                if du[c] == k and (b < base_n or any(row[ids[c]] < theta for row in rows)):
                    step.setdefault(c, []).append(b)
        reach.update(step)
        level = step
    return reach


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
        theta = check_real("theta", theta)
    if rule not in RULES:
        raise ValueError(f"unknown cross-edge rule {rule!r}")
    table = ProjectionTable(g, fam)
    m = len(fam)
    if theta == "auto" and m < 2:
        raise ValueError("the projection constant R needs at least two family members")
    # one pass over the members: the largest d_a(c, d) over third members a
    # (member(a) is 0 in row and column a); its diagonal holds the largest
    # projection diameters, so R is its diagonal maximum
    far = np.zeros((m, m), dtype=np.int32)
    for a in range(m):
        np.maximum(far, table.member(a), out=far)
    if theta == "auto":
        theta = auto_theta(int(far.diagonal().max()))

    tags = [(c, v) for c in range(m) for v in fam[c]]
    tag_to_id = {tag: i for i, tag in enumerate(tags)}

    edges = []
    for c, member in enumerate(fam.members):
        for a in member:
            for b in g.neighbors(a):
                if a < b and (c, b) in tag_to_id:
                    edges.append((tag_to_id[(c, a)], tag_to_id[(c, b)]))

    # projection anchor points: id-minimal at minimal distance to the partner
    anchor = [table.anchors(c).tolist() for c in range(m)] if m > 1 else []

    # (c, d) is kept unless some third member a has d_a(c, d) >= 2 * theta
    rows, cols = np.triu_indices(m, 1)
    keep = far[rows, cols] < 2 * theta
    pairs = {"projection": set(zip(rows[keep].tolist(), cols[keep].tolist()))}
    if rule == "widepoint" or with_diff:
        eg = electrify(g, fam)
        upper = list(zip(rows.tolist(), cols.tolist()))
        # one sweep per distinct anchor x_cd decides every pair it starts
        reach = {u: _narrow_reach(eg, u, theta) for u in {anchor[c][d] for c, d in upper}}
        pairs["widepoint"] = {(c, d) for c, d in upper if anchor[d][c] in reach[anchor[c][d]]}

    cross = []
    for (c, d) in sorted(pairs[rule]):
        x_cd = anchor[c][d]
        x_dc = anchor[d][c]
        edges.append((tag_to_id[(c, x_cd)], tag_to_id[(d, x_dc)]))
        cross.append({"c": c, "d": d, "x_cd": x_cd, "x_dc": x_dc})

    diff = None
    if with_diff:
        proj, wide = pairs["projection"], pairs["widepoint"]
        diff = {
            "projection_only": sorted(list(p) for p in proj - wide),
            "widepoint_only": sorted(list(p) for p in wide - proj),
            "common": len(proj & wide),
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
        theta=check_real("theta", obj["theta"]),
        rule=obj["rule"],
        cross_edges=obj.get("cross_edges", []),
        diff=obj.get("diff"),
    )


def load_quasitree(path) -> QuasiTreeSpace:
    return y_from_obj(read_json(path))
