"""Deterministic graph generators for the test corpus.

Calibration graphs (paths, cycles, grids, trees), the tree-of-rings family of
relatively hyperbolic models, hierarchy towers built by repeated ring
subdivision, and finite Farey-graph balls.  Same parameters always produce the
identical graph, byte for byte after serialization.
"""

from __future__ import annotations

from .electrify import SubgraphFamily
from .graphs import MetricGraph, check_int


def path(n: int) -> MetricGraph:
    """Path graph P_n on vertices 0..n-1."""
    check_int("n", n, 1)
    return MetricGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> MetricGraph:
    """Cycle graph C_n."""
    check_int("n", n, 3)
    return MetricGraph(n, [(i, (i + 1) % n) for i in range(n)])


def grid(w: int, h: int) -> MetricGraph:
    """w x h grid; vertex (x, y) has id y*w + x and label "x,y"."""
    check_int("w", w, 1)
    check_int("h", h, 1)
    edges = []
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                edges.append((v, v + 1))
            if y + 1 < h:
                edges.append((v, v + w))
    labels = {y * w + x: f"{x},{y}" for y in range(h) for x in range(w)}
    return MetricGraph(w * h, edges, labels)


def tree(depth: int, valence: int) -> MetricGraph:
    """Rooted tree in the degree convention, ids in BFS order.

    The root has ``valence`` children and every other internal vertex has
    valence - 1 children, so no vertex exceeds degree ``valence``.
    tree(2, 3) has 1 + 3 + 6 = 10 vertices.
    """
    check_int("depth", depth, 0)
    check_int("valence", valence, 2)
    return _rooted_tree(depth, valence, valence - 1)


def _rooted_tree(depth: int, root_kids: int, kids: int) -> MetricGraph:
    """Rooted tree of the given depth, ids in BFS order: the root has
    ``root_kids`` children and every other vertex above the leaf level has
    ``kids``."""
    edges = []
    frontier = [0]
    next_id = 1
    for level in range(depth):
        new_frontier = []
        for parent in frontier:
            for _ in range(root_kids if level == 0 else kids):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return MetricGraph(next_id, edges)


def ring_subdivide(g: MetricGraph, ring_len: int):
    """Replace every edge of ``g`` by a cycle of length ``ring_len`` attached
    at (near-)antipodal positions at the edge's endpoints.

    Base vertices keep their ids; each ring's interior vertices are appended
    in edge order.  Returns (graph, SubgraphFamily of the rings).
    """
    check_int("ring_len", ring_len, 3)
    half = ring_len // 2
    edges = []
    members = []
    next_id = g.n
    for (u, v) in g.edges:
        # one arc of length `half`, the complementary arc of length ring_len - half
        arc1 = range(next_id, next_id + half - 1)
        arc2 = range(arc1.stop, next_id + ring_len - 2)
        next_id = arc2.stop
        ring = [u, *arc1, v, *arc2]
        edges += zip(ring, ring[1:] + ring[:1])
        members.append(sorted(ring))
    labels = g.labels or None
    return MetricGraph(next_id, edges, labels), SubgraphFamily(members)


def tree_of_rings(depth: int, valence: int, ring_len: int):
    """Tree skeleton whose every edge runs through a ring.

    The skeleton is a rooted tree in the children convention (every internal
    vertex has ``valence`` children), and each skeleton edge is replaced by a
    cycle C_ring_len attached at two antipodal vertices.  Returns the graph
    together with the family of rings; neighbouring rings overlap in exactly
    one skeleton vertex.
    """
    check_int("depth", depth, 1)
    check_int("valence", valence, 1)
    skeleton = _rooted_tree(depth, valence, valence)
    return ring_subdivide(skeleton, ring_len)


def hierarchy_tower(levels: int, valence: int, ring_len: int, depth: int = 2):
    """Chain of graphs where each level ring-subdivides the previous one.

    Level 1 is a plain tree with an empty family; level 2 equals
    tree_of_rings(depth, valence, ring_len); level i+1 replaces every edge of
    level i by a ring, so each ring of level i becomes a gadget of ring_len
    rings one level down.  Returns a list of (graph, family) pairs.
    """
    check_int("levels", levels, 1)
    check_int("depth", depth, 1)
    check_int("valence", valence, 1)
    check_int("ring_len", ring_len, 3)
    base = _rooted_tree(depth, valence, valence)
    out = [(base, SubgraphFamily([]))]
    cur = base
    for _ in range(levels - 1):
        cur, fam = ring_subdivide(cur, ring_len)
        out.append((cur, fam))
    return out


def tower_audit(tower) -> dict:
    """Structural audit of a hierarchy tower.

    For every level past the first, each ring must attach at exactly two
    vertices of the previous level, and the set of attachment pairs must be
    exactly the previous level's edge set.
    """
    ok = True
    per_level = []
    for i in range(1, len(tower)):
        prev_g, _ = tower[i - 1]
        _, fam = tower[i]
        pairs = set()
        good = True
        for member in fam.members:
            attach = tuple(sorted(v for v in member if v < prev_g.n))
            if len(attach) != 2:
                good = False
                break
            pairs.add(attach)
        good = good and pairs == set(prev_g.edges) and len(fam.members) == len(prev_g.edges)
        per_level.append(good)
        ok = ok and good
    return {"ok": ok, "levels_checked": len(per_level), "per_level": per_level}


# -- Farey ball ---------------------------------------------------------------


def _farey_graph(rounds: int):
    """(vertices, edges) of ``rounds`` rounds of mediant insertion from the
    base triangle; vertices are (p, q) pairs, edges pairs of them."""
    # only edges created in the previous round spawn new mediants, so the
    # vertex count grows like 4 * 2^rounds
    verts = [(0, 1), (1, 1), (1, 0)]
    have = set(verts)
    edges = [((0, 1), (1, 1)), ((1, 1), (1, 0)), ((0, 1), (1, 0))]
    frontier = list(edges)
    for _ in range(rounds):
        new_frontier = []
        for (a, b) in frontier:
            m = (a[0] + b[0], a[1] + b[1])
            if m in have:
                continue
            have.add(m)
            verts.append(m)
            new_frontier.append((a, m))
            new_frontier.append((b, m))
        edges.extend(new_frontier)
        frontier = new_frontier
    return verts, edges


def farey_ball(radius: int) -> MetricGraph:
    """Finite piece of the Farey graph around 0/1.

    Vertices are reduced fractions p/q (with 1/0 for infinity) produced by
    ``radius`` rounds of mediant insertion from the base triangle
    {0/1, 1/1, 1/0}; edges join every pair with |ps - qr| = 1, which are the
    triangle and the two edges from each mediant to its parents; the result
    is then restricted to the radius-``radius`` metric ball around 0/1.  The
    true ball is infinite (0/1 has infinitely many neighbors), so the mediant
    closure acts as the finite horizon.  Labels carry the fractions.
    """
    check_int("radius", radius, 1)
    verts, pairs = _farey_graph(radius)
    verts.sort(key=lambda f: (f[1], f[0]))
    index = {f: i for i, f in enumerate(verts)}
    edges = [(index[a], index[b]) for a, b in pairs]
    full = MetricGraph(len(verts), edges, {i: f"{p}/{q}" for i, (p, q) in enumerate(verts)})
    keep = full.ball(index[(0, 1)], radius)
    sub, _ = full.induced(keep)
    return sub
