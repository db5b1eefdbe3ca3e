"""Independent reference implementations used to cross-check the library.

Deliberately written against networkx and plain python so that a bug in the
package cannot hide inside its own oracle.  Oracles take a precomputed
distance matrix where possible; build it with distance_matrix() below, which
never touches the package's BFS code.
"""

import heapq
import itertools

import networkx as nx
import numpy as np


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def distance_matrix(g):
    """Dense all-pairs distances via networkx BFS."""
    h = to_networkx(g)
    D = np.full((g.n, g.n), -1, dtype=np.int64)
    for src, row in nx.all_pairs_shortest_path_length(h):
        for dst, d in row.items():
            D[src, dst] = d
    assert (D >= 0).all(), "oracle graph is disconnected"
    return D


def delta_bruteforce(D):
    """Four-point delta by plain enumeration; fine up to ~40 vertices."""
    n = D.shape[0]
    best = 0
    for a, b, c, d in itertools.combinations(range(n), 4):
        s = sorted((D[a][b] + D[c][d], D[a][c] + D[b][d], D[a][d] + D[b][c]))
        best = max(best, int(s[2] - s[1]))
    return best / 2


def delta_vectorized(D):
    """Four-point delta for medium graphs.

    Loops over the first pair and broadcasts over every unordered second
    pair.  Second pairs overlapping the first contribute defect 0 (two of the
    three sums coincide or are dominated), so no masking is needed.
    """
    n = D.shape[0]
    iu, ju = np.triu_indices(n, 1)
    dkl = D[iu, ju]
    best = 0
    for a in range(n):
        row_a = D[a]
        for b in range(a + 1, n):
            row_b = D[b]
            s1 = D[a, b] + dkl
            s2 = row_a[iu] + row_b[ju]
            s3 = row_a[ju] + row_b[iu]
            stacked = np.sort(np.stack((s1, s2, s3)), axis=0)
            best = max(best, int((stacked[2] - stacked[1]).max()))
    return best / 2


def delta_oracle(D):
    return delta_bruteforce(D) if D.shape[0] <= 40 else delta_vectorized(D)


def quadruple_defect(D, quad):
    """Twice the delta contributed by one vertex quadruple."""
    a, b, c, d = quad
    s = sorted((D[a][b] + D[c][d], D[a][c] + D[b][d], D[a][d] + D[b][c]))
    return int(s[2] - s[1])


def sampled_delta_loop(D, samples, seed):
    """Sampled four-point delta one quadruple at a time, as (delta, witness):
    the draws of the package's sampled mode, four bounded ranks per
    quadruple, each rank u_j made the u_j-th smallest vertex not picked
    before it, and the first quadruple of the largest defect as witness."""
    n = D.shape[0]
    if n < 4:
        return 0.0, None
    rng = np.random.default_rng(seed)
    best, witness = -1, None
    for _ in range(samples):
        quad = []
        for u in rng.integers(0, [n, n - 1, n - 2, n - 3]).tolist():
            for picked in sorted(quad):
                if u >= picked:
                    u += 1
            quad.append(u)
        quad = tuple(quad)
        defect = quadruple_defect(D, quad)
        if defect > best:
            best, witness = defect, quad
    return best / 2, witness


def projection_oracle(D, member, x):
    ds = [int(D[x][h]) for h in member]
    m = min(ds)
    return tuple(sorted(h for h, d in zip(member, ds) if d == m))


def set_diameter_oracle(D, vertices):
    vs = sorted(set(vertices))
    return max(int(D[a][b]) for a in vs for b in vs)


def multiplicity_oracle(D, blocks, R):
    """Max number of blocks meeting one R-ball, and the first vertex whose
    ball meets that many."""
    counts = [
        sum(1 for b in blocks if any(D[v][u] <= R for u in b)) for v in range(D.shape[0])
    ]
    best = max(counts)
    return best, counts.index(best)


def net_voronoi_blocks_oracle(D, R):
    """Blocks of the net-Voronoi cover at scale R, with the diameter of every
    candidate union computed outright: the greedy 2R-net in id order, each
    vertex in the cell of its least-id nearest net point, then each cell in
    net order joins the earliest block within 2R of it whose union with the
    cell has diameter <= 8R, or starts a block of its own."""
    n = D.shape[0]
    net = []
    for v in range(n):
        if all(D[v][s] > 2 * R for s in net):
            net.append(v)
    cells = {s: [] for s in net}
    for v in range(n):
        cells[min(net, key=lambda s: (D[v][s], s))].append(v)
    blocks = []
    for s in net:
        cell = cells[s]
        for block in blocks:
            near = any(D[u][v] <= 2 * R for u in block for v in cell)
            if near and set_diameter_oracle(D, block + cell) <= 8 * R:
                block += cell
                break
        else:
            blocks.append(cell)
    return [tuple(sorted(b)) for b in blocks]


def triple_oracle(D, members, a, b, c):
    """Diameter of the union of projections of members b and c into member a."""
    ha = list(members[a])
    pts = set()
    for x in list(members[b]) + list(members[c]):
        pts.update(projection_oracle(D, ha, x))
    return set_diameter_oracle(D, pts)


def _dijkstra_path(graph, weights: dict, source: int, target: int) -> list:
    """Least-weight walk by plain Dijkstra, with weights keyed by edge."""
    dist = {source: 0.0}
    prev = {}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        if u == target:
            break
        done.add(u)
        for w in graph._adj[u]:
            key = (u, w) if u < w else (w, u)
            nd = d + weights[key]
            if nd < dist.get(w, float("inf")):
                dist[w] = nd
                prev[w] = u
                heapq.heappush(heap, (nd, w))
    walk = [target]
    while walk[-1] != source:
        walk.append(prev[walk[-1]])
    walk.reverse()
    return walk


def narrow_geodesic_oracle(eg, u, w, theta):
    """Does some geodesic of the electrified graph from u to w cross no cone
    widely?  networkx enumerates every geodesic, and a cone visit is wide when
    its entry and exit sit >= theta apart in the member's induced subgraph,
    measured by networkx as well."""
    h = to_networkx(eg.graph)
    base = h.subgraph(range(eg.base_size))
    for walk in nx.all_shortest_paths(h, u, w):
        cones = [k for k in range(1, len(walk) - 1) if walk[k] >= eg.base_size]
        if all(
            nx.shortest_path_length(
                base.subgraph(eg.family[walk[k] - eg.base_size]), walk[k - 1], walk[k + 1]
            ) < theta
            for k in cones
        ):
            return True
    return False


def axiom_oracle(D, members, theta="auto"):
    """The projection-axiom audit by brute force over every pair and triple,
    from ``triple_oracle``: R, theta (3R + 3 for "auto"), the axiom-2
    violations, the axiom-3 histogram and the number of triples."""
    m = len(members)
    d = {
        (c, a, b): triple_oracle(D, members, c, a, b)
        for c, a, b in itertools.product(range(m), repeat=3)
        if c not in (a, b)
    }
    R = max(d[c, a, a] for c in range(m) for a in range(m) if a != c)
    theta = float(3 * R + 3) if theta == "auto" else float(theta)
    violations = []
    for a, b, c in itertools.combinations(range(m), 3):
        values = [d[a, b, c], d[b, a, c], d[c, a, b]]
        if sum(v > theta for v in values) >= 2:
            violations.append({"triple": [a, b, c], "values": values})
    counts = [
        sum(d[c, a, b] > theta for c in range(m) if c not in (a, b))
        for a, b in itertools.combinations(range(m), 2)
    ]
    histogram = [counts.count(k) for k in range(max(counts) + 1)]
    return R, theta, violations, histogram, len(list(itertools.combinations(range(m), 3)))
