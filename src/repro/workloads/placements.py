"""Pluggable terminal-placement strategies.

A placement turns a graph plus ``(k, component_size)`` into a seeded
:class:`~repro.model.instance.SteinerForestInstance`. Where the graph
family fixes the topology regime, the placement fixes the *demand*
regime — the paper's bounds react to terminal clustering (how fast
moats merge) and terminal spread (how far moats must grow) at least as
strongly as to density, so families and placements compose as
independent axes in :data:`TERMINAL_PLACEMENTS` and the engine's
scenario grids.

Every strategy validates the request through
:func:`~repro.workloads.generators.check_placement_request` and is
exactly reproducible from its ``random.Random``; ties in distance or
degree break deterministically on node ``repr``, matching the library's
ordering convention.
"""

import random
from typing import Callable, List, Mapping, NamedTuple

from repro.model.graph import Node, WeightedGraph
from repro.model.instance import (
    SteinerForestInstance,
    instance_from_components,
)
from repro.workloads.generators import (
    check_placement_request,
    terminals_on_graph,
)


class TerminalPlacement(NamedTuple):
    """A named placement: ``place(graph, k, component_size, rng)``."""

    name: str
    place: Callable[
        [WeightedGraph, int, int, random.Random], SteinerForestInstance
    ]
    description: str = ""


def _nearest(
    dist: Mapping[Node, int], candidates: List[Node], count: int
) -> List[Node]:
    """The ``count`` candidates closest under ``dist`` (repr tie-break)."""
    if count <= 0:
        return []
    return sorted(candidates, key=lambda v: (dist[v], repr(v)))[:count]


def place_uniform(
    graph: WeightedGraph, k: int, component_size: int, rng: random.Random
) -> SteinerForestInstance:
    """Disjoint components drawn uniformly at random (the classic mix)."""
    return terminals_on_graph(graph, k, component_size, rng)


def place_clustered(
    graph: WeightedGraph, k: int, component_size: int, rng: random.Random
) -> SteinerForestInstance:
    """Each component huddles around a random seed node.

    Members are the seed plus its nearest unused nodes by weighted
    distance — terminals of one demand sit close together, so moats
    merge almost immediately (small-moat regime; fast k-driven bounds).
    """
    check_placement_request(graph, k, component_size)
    unused = list(graph.nodes)
    components = []
    for _ in range(k):
        seed = unused.pop(rng.randrange(len(unused)))
        members = [seed]
        dist = graph.all_pairs_distances([seed])[seed]
        for v in _nearest(dist, unused, component_size - 1):
            unused.remove(v)
            members.append(v)
        components.append(members)
    return instance_from_components(graph, components)


def place_far_pairs(
    graph: WeightedGraph, k: int, component_size: int, rng: random.Random
) -> SteinerForestInstance:
    """Each component anchors on a maximally distant node pair.

    A random anchor is paired with its weighted-distance-farthest
    unused node; extra members (sizes > 2) pad near the anchor. Moats
    must grow across the whole weighted diameter before merging — the
    worst case for growth-phase counts and WD-driven terms.
    """
    check_placement_request(graph, k, component_size)
    unused = list(graph.nodes)
    components = []
    for _ in range(k):
        anchor = unused.pop(rng.randrange(len(unused)))
        members = [anchor]
        dist = graph.all_pairs_distances([anchor])[anchor]
        if component_size >= 2:
            partner = max(unused, key=lambda v: (dist[v], repr(v)))
            unused.remove(partner)
            members.append(partner)
        for v in _nearest(dist, unused, component_size - len(members)):
            unused.remove(v)
            members.append(v)
        components.append(members)
    return instance_from_components(graph, components)


def place_hub_spoke(
    graph: WeightedGraph, k: int, component_size: int, rng: random.Random
) -> SteinerForestInstance:
    """Every component owns one node near the highest-degree hub.

    The k nearest nodes to the hub (the hub itself first) seed one
    component each; remaining members are uniform random spokes. All
    demands funnel through one neighborhood, concentrating congestion
    on the hub's edges — the regime the lower-bound gadgets bottleneck
    on a cut.
    """
    check_placement_request(graph, k, component_size)
    hub = max(graph.nodes, key=lambda v: (graph.degree(v), repr(v)))
    dist = graph.all_pairs_distances([hub])[hub]
    cores = _nearest(dist, list(graph.nodes), k)
    spokes = [v for v in graph.nodes if v not in set(cores)]
    rng.shuffle(spokes)
    components, index = [], 0
    for core in cores:
        members = [core] + spokes[index: index + component_size - 1]
        index += component_size - 1
        components.append(members)
    return instance_from_components(graph, components)


#: The default placement — the engine omits it from job identities so
#: pre-placement cache keys stay valid.
DEFAULT_PLACEMENT = "uniform"

TERMINAL_PLACEMENTS: Mapping[str, TerminalPlacement] = {
    placement.name: placement
    for placement in (
        TerminalPlacement(
            "uniform", place_uniform, "disjoint components, uniform at random"
        ),
        TerminalPlacement(
            "clustered", place_clustered, "components huddle around seed nodes"
        ),
        TerminalPlacement(
            "far_pairs", place_far_pairs, "components anchor on distant pairs"
        ),
        TerminalPlacement(
            "hub_spoke", place_hub_spoke, "every component touches the hub"
        ),
    )
}


def place_terminals(
    placement: str,
    graph: WeightedGraph,
    k: int,
    component_size: int,
    rng: random.Random,
) -> SteinerForestInstance:
    """Dispatch to a registered placement strategy by name."""
    try:
        strategy = TERMINAL_PLACEMENTS[placement]
    except KeyError:
        raise ValueError(
            f"unknown terminal placement {placement!r}; "
            f"choose from {sorted(TERMINAL_PLACEMENTS)}"
        ) from None
    return strategy.place(graph, k, component_size, rng)
