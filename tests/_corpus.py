"""Shared deterministic test instances, built once and cached.

Everything registered in SMALL_NAMES stays under 300 vertices so the exact
oracles in _oracles.py stay affordable.
"""

import functools

from hypothesis import strategies as st

from gromovlab.electrify import electrify
from gromovlab.generators import (
    cycle,
    farey_ball,
    grid,
    hierarchy_tower,
    path,
    tree,
    tree_of_rings,
)
from gromovlab.graphs import MetricGraph
from gromovlab.projections import axiom_check
from gromovlab.quasitree import build_quasitree

SMALL_NAMES = [
    "path-50",
    "cycle-8",
    "cycle-12",
    "grid-4-4",
    "grid-8-8",
    "tree-2-3",
    "tree-3-3",
    "tree-6-2",
    "farey-4",
    "farey-5",
    "farey-6",
    "rings-1-1-12",
    "rings-2-3-12",
]

# instances that come with a peripheral family
FAMILY_NAMES = ["rings-1-1-12", "rings-2-3-12", "rings-3-3-12"]


@st.composite
def connected_graphs(draw):
    """Random connected graphs on 2-12 vertices for hypothesis tests."""
    n = draw(st.integers(min_value=2, max_value=12))
    # random spanning tree first, then optional extra edges
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return MetricGraph(n, sorted(edges))


@functools.lru_cache(maxsize=None)
def ring_instance(depth, valence, ring_len):
    return tree_of_rings(depth, valence, ring_len)


@functools.lru_cache(maxsize=None)
def small(name):
    kind, *ps = name.split("-")
    ps = [int(x) for x in ps]
    if kind == "path":
        return path(ps[0])
    if kind == "cycle":
        return cycle(ps[0])
    if kind == "grid":
        return grid(ps[0], ps[1])
    if kind == "tree":
        return tree(ps[0], ps[1])
    if kind == "farey":
        return farey_ball(ps[0])
    if kind == "rings":
        return ring_instance(ps[0], ps[1], ps[2])[0]
    raise KeyError(name)


def family_instance(name):
    kind, *ps = name.split("-")
    assert kind == "rings"
    return ring_instance(*[int(x) for x in ps])


@functools.lru_cache(maxsize=None)
def electrified(depth, valence, ring_len):
    g, fam = ring_instance(depth, valence, ring_len)
    return electrify(g, fam)


@functools.lru_cache(maxsize=None)
def quasitree_setup(depth, valence, ring_len):
    """(graph, family, electrified graph, theta, quasi-tree), memoized."""
    g, fam = ring_instance(depth, valence, ring_len)
    eg = electrified(depth, valence, ring_len)
    theta = axiom_check(g, fam).theta
    y = build_quasitree(g, fam, theta)
    return g, fam, eg, theta, y


@functools.lru_cache(maxsize=None)
def tower(levels, valence, ring_len):
    return tuple(hierarchy_tower(levels, valence, ring_len))
