"""Parking-function recognition, enumeration, and maximality.

A configuration assigns chips to the non-sink vertices (ascending vertex
order, sink omitted). Recognition is Dhar's burning test, edge by edge; the
subset-quantified definition and the dominance definition of maximality
live only in the test suite, as its slow oracles.
"""

from __future__ import annotations

from itertools import product

from .graphs import Multigraph

ChipConfig = tuple[int, ...]


def _validated(G: Multigraph, config) -> ChipConfig:
    config = tuple(config)
    if len(config) != G.n - 1:
        raise ValueError(f"expected {G.n - 1} chip counts, got {len(config)}")
    for c in config:
        if not isinstance(c, int) or c < 0:
            raise ValueError(f"chip counts must be non-negative integers, got {c!r}")
    return config


def is_parking_function(G: Multigraph, config) -> bool:
    """Burning test: start a fire at the sink; a vertex burns when its edges
    into the fire outnumber its chips. Parking functions are exactly the
    configurations that burn completely.

    The fire spreads edge by edge (Dhar's burning algorithm): when a vertex
    burns, each unburnt neighbour loses one chip per edge joining them, and
    a vertex whose count falls below zero burns. Burning only grows, so the
    order in which burning vertices are taken does not change the result,
    and each edge is crossed at most twice."""
    config = _validated(G, config)
    chips = dict(zip(G.nonsink_vertices, config))
    ends = G.incident_endpoints
    burnt = 1 << G.sink
    fire = [G.sink]
    while fire:
        for v in ends[fire.pop()]:
            if not (burnt >> v) & 1:
                chips[v] -= 1
                if chips[v] < 0:
                    burnt |= 1 << v
                    fire.append(v)
    return burnt == G.full_mask


def _degree_box(G: Multigraph):
    return product(*(range(G.degrees[v]) for v in G.nonsink_vertices))


def enumerate_parking_functions(G: Multigraph) -> frozenset[ChipConfig]:
    """All parking functions for the fixed sink, searched in the box c_v < deg(v)
    that {v} forces, among the configurations of degree at most g = |E| - |V| + 1
    (see ``maximal_parking_functions``)."""
    g = len(G.edges) - G.n + 1
    return frozenset(c for c in _degree_box(G) if sum(c) <= g and is_parking_function(G, c))


def maximal_parking_functions(G: Multigraph) -> frozenset[ChipConfig]:
    """The parking functions of degree g = |E| - |V| + 1, which are exactly the
    maximal ones under coordinatewise dominance. Each maximal one is indeg_O - 1
    for an acyclic orientation O whose only source is the sink (Benson-Chakrabarty-
    Tetali, Discrete Math. 2010), so has degree g; every parking function lies
    below a maximal one, so has degree at most g, and equals it at degree g."""
    g = len(G.edges) - G.n + 1
    return frozenset(c for c in _degree_box(G) if sum(c) == g and is_parking_function(G, c))


def mpf_count(G: Multigraph) -> int:
    """Number of maximal parking functions; independent of the sink choice
    (verified, not assumed, by the verification suite)."""
    return len(maximal_parking_functions(G))
