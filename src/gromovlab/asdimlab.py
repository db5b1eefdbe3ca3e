"""Scale-by-scale dimension probes via bounded covers, plus the closed-form
genus-indexed bound calculators.

A Cover is a list of vertex blocks at scale R; its two quality numbers, the
max block diameter D and the R-multiplicity (max number of blocks meeting a
radius-R ball), are always recomputed from the blocks, never trusted from a
producer or a file.  Finite graphs trivially have dimension 0 asymptotically,
so every profile carries a caveat: only the scale-window behavior (with D/R
bounded) is a meaningful signal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .graphs import (
    MetricGraph,
    _bit_bfs,
    _csr,
    check_int,
    check_int_lists,
    dilation,
    max_set_diameter,
    nearest_points,
    read_json,
    set_diameter,
    unwrap_payload,
)

SCALE_NOTE = (
    "multiplicity - 1 achieved at tested scales with D/R ratio <= 8; "
    "not the true asymptotic invariant (finite graphs all have dimension 0 in the limit)"
)


@dataclass
class Cover:
    R: int
    blocks: tuple
    D: int
    multiplicity: int
    witness: int
    strategy: str
    meta: dict = field(default_factory=dict)
    note: str = SCALE_NOTE

    @classmethod
    def from_blocks(cls, g: MetricGraph, blocks, R: int, strategy: str, meta=None) -> "Cover":
        """The cover of ``g`` by ``blocks`` at scale R, with D and the
        multiplicity recomputed from the blocks.  D is ``max_set_diameter``
        of all blocks at once, so the blocks share their bit-BFS passes and
        a block closes once it cannot beat the largest eccentricity found in
        any block."""
        norm = tuple(tuple(sorted(set(b))) for b in blocks)
        if not norm:
            raise ValueError("a cover needs at least one block")
        empty = [i for i, b in enumerate(norm) if not b]
        if empty:
            raise ValueError(f"cover block {empty[0]} is empty (of {len(norm)} blocks)")
        mult, witness = multiplicity_check(g, norm, R)
        return cls(
            R=int(R),
            blocks=norm,
            D=max_set_diameter(g, norm),
            multiplicity=mult,
            witness=witness,
            strategy=strategy,
            meta=dict(meta or {}),
        )

    def to_obj(self) -> dict:
        obj = asdict(self)
        obj["blocks"] = [list(b) for b in self.blocks]
        return obj


def cover_from_obj(g: MetricGraph, obj) -> Cover:
    obj = unwrap_payload(obj)
    if not isinstance(obj, dict) or "R" not in obj or "blocks" not in obj:
        raise ValueError('cover JSON must contain "R" and "blocks"')
    # D and multiplicity are deliberately recomputed, never read back
    blocks = check_int_lists("blocks", obj["blocks"])
    return Cover.from_blocks(g, blocks, obj["R"], obj.get("strategy", "loaded"))


def load_cover(g: MetricGraph, path) -> Cover:
    return cover_from_obj(g, read_json(path))


def multiplicity_check(g: MetricGraph, blocks, R: int) -> tuple:
    """Exhaustive verifier: the R-multiplicity of the blocks, by dilation.

    A block meets the R-ball of v exactly when v lies in the block's
    R-neighbourhood, so one truncated BFS per block, adding 1 to every vertex
    it reaches, counts the blocks meeting every R-ball at once.  Returns
    (max multiplicity, first vertex attaining it).  Raises if the blocks do
    not cover the graph.
    """
    R = check_int("scale R", R, 0)
    count = np.zeros(g.n, dtype=np.int64)
    covered = np.zeros(g.n, dtype=bool)
    for block in blocks:
        if len(block):  # an empty block meets no ball
            count[dilation(g, block, R)] += 1  # ids checked here
            covered[list(block)] = True
    uncovered = np.flatnonzero(~covered)
    if uncovered.size:
        head = ", ".join(str(v) for v in uncovered[:10])
        raise ValueError(f"blocks do not cover the graph; {uncovered.size} uncovered (e.g. {head})")
    witness = int(count.argmax())
    return int(count[witness]), witness


def _coords(g: MetricGraph, width) -> list:
    if width is not None:
        return [(v % width, v // width) for v in range(g.n)]
    labels = g.labels
    coords = []
    for v in range(g.n):
        lab = labels.get(v, "")
        parts = lab.split(",")
        if len(parts) != 2:
            raise ValueError(
                "brick strategy needs grid coordinates: 'x,y' vertex labels or params={'width': w}"
            )
        coords.append((int(parts[0]), int(parts[1])))
    return coords


def cover_at_scale(g: MetricGraph, R: int, strategy: str, params=None) -> Cover:
    """Produce a verified cover at scale R.

    * interval: distance bands of width 2R measured from vertex 0 (the 1-D
      calibration partition; multiplicity <= 2 on any graph).
    * brick: staggered 2R x 4R bricks from grid coordinates (strips of
      height 2R, brick seam offset by 2R on odd strips; multiplicity <= 3).
    * net_voronoi: greedy 2R-net in id order, nearest-net cells with min-id
      tie-break, then a merge pass (each cell, in net order, joins the
      earliest block within 2R whose union stays within diameter 8R) and a
      greedy coloring of the block-adjacency-within-2R graph as the
      multiplicity certificate.  The merge decides most unions from the
      cell's net-point row (the block's farthest vertex from it, plus the
      cell's radius) and asks a capped ``set_diameter`` only when that bound
      cannot decide.
    """
    R = check_int("scale R", R, 1)
    params = params or {}
    # checked for every strategy, though only brick reads it
    width = check_int("width", params["width"], 1) if "width" in params else None

    if strategy == "interval":
        row = g.distances_from(0)
        bands = {}
        for v in range(g.n):
            bands.setdefault(int(row[v]) // (2 * R), []).append(v)
        blocks = [bands[k] for k in sorted(bands)]
        return Cover.from_blocks(g, blocks, R, "interval")

    if strategy == "brick":
        coords = _coords(g, width)
        bricks = {}
        for v, (x, y) in enumerate(coords):
            strip = y // (2 * R)
            offset = 2 * R if strip % 2 else 0
            bricks.setdefault((strip, (x + offset) // (4 * R)), []).append(v)
        blocks = [bricks[k] for k in sorted(bricks)]
        return Cover.from_blocks(g, blocks, R, "brick")

    if strategy == "net_voronoi":
        covered = np.zeros(g.n, dtype=bool)  # within 2R of the net so far
        net = []
        for v in range(g.n):
            if not covered[v]:
                net.append(v)
                covered[dilation(g, [v], 2 * R)] = True
        # v's cell is its least-id nearest net point: net is sorted, so that
        # is the lowest set bit of v's nearest_points label
        dist, labels = nearest_points(g, net)
        cells = [[] for _ in net]
        for v, mask in enumerate(labels):
            cells[(mask & -mask).bit_length() - 1].append(v)
        del labels  # up to |net| bits per vertex, not held through the merge
        # merge pass: Voronoi fragments (cells in net order) join the earliest
        # block within 2R whose union still fits the 8R diameter cap; this
        # heals the fragmentation around high-valence junctions.  Every block
        # fits the cap, and so does a cell (it lies within r <= 2R of its net
        # point p), so a union fits iff each cell vertex is within the cap of
        # each block vertex.  With e the block's largest distance from p, read
        # from p's capped row, e > cap rejects and e + r <= cap accepts; only
        # the rest ask set_diameter.  The rows come from one _bit_bfs pass
        # per 64 net points, computed when a cell of the batch first meets a
        # block and dropped with the batch.
        cap = 8 * R
        where = np.full(g.n, -1, dtype=np.intp)  # vertex -> block, -1 unplaced
        blocks = []
        rows = None
        for i, cell in enumerate(cells):
            if i % 64 == 0:
                rows = None
            near = sorted(set(where[dilation(g, cell, 2 * R)].tolist()) - {-1})
            if near and rows is None:
                a = i - i % 64
                rows = _bit_bfs(_csr(g), net[a:a + 64], np.arange(g.n), cap)
            r = int(dist[cell].max())
            for bi in near:
                e = int(rows[i % 64, blocks[bi]].max())
                if e <= cap and (e + r <= cap or set_diameter(g, blocks[bi] + cell, cap) <= cap):
                    blocks[bi] += cell
                    break
            else:
                bi = len(blocks)
                blocks.append(cell)
            where[cell] = bi
        # greedy coloring of the block-adjacency-within-2R graph: same-colored
        # blocks are > 2R apart, so an R-ball meets at most num_colors blocks
        colors = []
        for bi, bv in enumerate(blocks):
            near = set(where[dilation(g, bv, 2 * R)].tolist())
            used = {colors[bj] for bj in near if bj < bi}
            color = 0
            while color in used:
                color += 1
            colors.append(color)
        meta = {
            "net": net,
            "num_colors": max(colors) + 1,
            "certificate": (
                "blocks sharing a color are pairwise > 2R apart, so an R-ball "
                "meets at most num_colors blocks"
            ),
        }
        return Cover.from_blocks(g, blocks, R, "net_voronoi", meta)

    raise ValueError(f"unknown cover strategy {strategy!r}")


def product_cover(gx: MetricGraph, gy: MetricGraph, cover_x: Cover, cover_y: Cover):
    """Block-product cover of the cartesian product graph.

    Multiplicity is at most mult(X) * mult(Y) (each coordinate ball meets its
    own blocks independently) and is rechecked exhaustively.  Returns the
    product graph together with its Cover.
    """
    if cover_x.R != cover_y.R:
        raise ValueError(f"scale mismatch: {cover_x.R} vs {cover_y.R}")
    from .graphs import cartesian_product

    prod = cartesian_product(gx, gy)
    ny = gy.n
    blocks = []
    for bx in cover_x.blocks:
        for by in cover_y.blocks:
            blocks.append([x * ny + y for x in bx for y in by])
    cover = Cover.from_blocks(prod, blocks, cover_x.R, "product",
                              {"guarantee": cover_x.multiplicity * cover_y.multiplicity})
    return prod, cover


@dataclass
class DimProfile:
    graph_id: str
    strategy: str
    rows: list  # dicts with R, D, multiplicity, strategy
    note: str = SCALE_NOTE

    def to_obj(self) -> dict:
        return asdict(self)

    def to_csv(self) -> str:
        lines = ["R,D,multiplicity,strategy"]
        for row in self.rows:
            lines.append(f"{row['R']},{row['D']},{row['multiplicity']},{row['strategy']}")
        return "\n".join(lines) + "\n"


def dim_profile(g: MetricGraph, scales, strategy: str, params=None, graph_id: str | None = None) -> DimProfile:
    """One verified cover per scale; rows sorted by R."""
    scales = list(scales)
    if not scales:
        raise ValueError("need at least one scale")
    if any(b <= a for a, b in zip(scales, scales[1:])):
        raise ValueError("scales must be strictly increasing")
    rows = []
    for R in scales:
        cov = cover_at_scale(g, R, strategy, params)
        rows.append(
            {"R": cov.R, "D": cov.D, "multiplicity": cov.multiplicity, "strategy": strategy}
        )
    if graph_id is None:
        graph_id = f"graph-v{g.n}-e{len(g.edges)}"
    return DimProfile(graph_id=graph_id, strategy=strategy, rows=rows)


def hierarchy_bound(base_asdim: int, peripheral_dims) -> int:
    """Fold the one-level estimate  total <= base + (n + 1)  once per level."""
    total = check_int("base dimension", base_asdim, 0)
    for n in peripheral_dims:
        total += check_int("peripheral dimension", n, 0) + 1
    return total


@dataclass
class BoundsRecord:
    genus: int
    punctures: int
    chi: int
    bound_curvegraph: int
    bound_ibundle_pieces: int
    bound_electrified_diskgraph: int
    peripheral_bound: int
    bound_diskgraph: int
    hierarchy_total: int

    def to_obj(self) -> dict:
        return asdict(self)


def genus_bounds(g: int, p: int = 0) -> BoundsRecord:
    """Closed-form dimension bounds for the genus-g, p-puncture surface data.

    chi = 2 - 2g - p; curve-graph level 2|chi|; interval-bundle piece level
    |chi| + 2; electrified disk graph |chi| + 3; each hierarchy peripheral
    2g + 1; disk graph (3g-3)(2g+2), which the hierarchy fold reproduces.
    """
    g = check_int("genus", g, 2)
    p = check_int("punctures", p, 0)
    chi = 2 - 2 * g - p
    peripheral = 2 * g + 1
    levels = 3 * g - 3
    return BoundsRecord(
        genus=g,
        punctures=p,
        chi=chi,
        bound_curvegraph=2 * abs(chi),
        bound_ibundle_pieces=abs(chi) + 2,
        bound_electrified_diskgraph=abs(chi) + 3,
        peripheral_bound=peripheral,
        bound_diskgraph=levels * (2 * g + 2),
        hierarchy_total=hierarchy_bound(0, [peripheral] * levels),
    )
