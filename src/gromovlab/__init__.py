"""Desk-scale toolkit for coarse geometry experiments on finite unit-edge graphs.

Provides metric graphs, hyperbolicity measurement, electrification of
peripheral subgraph families, shortest-distance projections and their axioms,
the quasi-tree assembled from a peripheral family, product embeddings with
fitted quasi-isometry constants, scale-by-scale dimension covers, and
closed-form genus-indexed bounds, plus deterministic graph generators and a
CLI wiring it all together.
"""

__version__ = "0.1.0"

from .graphs import MetricGraph, SizeLimitError, cartesian_product
from .generators import (
    cycle,
    farey_ball,
    grid,
    hierarchy_tower,
    path,
    tree,
    tree_of_rings,
)
from .hyperbolicity import DeltaReport, four_point_delta, quasiconvexity_constant
from .electrify import (
    ElectrifiedGraph,
    PenetrationReport,
    SubgraphFamily,
    de_electrify,
    electrify,
    is_efficient,
    penetration_profile,
)
from .projections import (
    AxiomReport,
    axiom_check,
    proj_set_diameter,
    project,
    triple_distance,
)
from .quasitree import QuasiTreeSpace, build_quasitree, wide_points, y_distance
from .embedding import (
    EmbeddingReport,
    cone_exit_anchor,
    edge_lipschitz,
    enlargement,
    qi_fit,
)
from .asdimlab import (
    BoundsRecord,
    Cover,
    DimProfile,
    cover_at_scale,
    dim_profile,
    genus_bounds,
    hierarchy_bound,
    multiplicity_check,
    product_cover,
)

__all__ = [
    "MetricGraph",
    "SizeLimitError",
    "cartesian_product",
    "path",
    "cycle",
    "grid",
    "tree",
    "tree_of_rings",
    "hierarchy_tower",
    "farey_ball",
    "DeltaReport",
    "four_point_delta",
    "quasiconvexity_constant",
    "SubgraphFamily",
    "ElectrifiedGraph",
    "PenetrationReport",
    "electrify",
    "de_electrify",
    "is_efficient",
    "penetration_profile",
    "AxiomReport",
    "project",
    "proj_set_diameter",
    "triple_distance",
    "axiom_check",
    "QuasiTreeSpace",
    "build_quasitree",
    "y_distance",
    "wide_points",
    "EmbeddingReport",
    "cone_exit_anchor",
    "enlargement",
    "qi_fit",
    "edge_lipschitz",
    "Cover",
    "DimProfile",
    "BoundsRecord",
    "cover_at_scale",
    "multiplicity_check",
    "product_cover",
    "dim_profile",
    "hierarchy_bound",
    "genus_bounds",
]
