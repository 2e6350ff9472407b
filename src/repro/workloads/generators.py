"""Deterministic (seeded) workload generators.

Each generator takes a ``random.Random`` so experiment rows are exactly
reproducible. Graph families cover the regimes the paper's bounds
distinguish: dense random graphs (small s, small D), grids (s ≈ √n),
geometric graphs (locality), and ring-of-blobs constructions whose
shortest-path diameter s is directly controllable.
"""

import random
from typing import List, Tuple

import networkx as nx

from repro.model.graph import WeightedGraph
from repro.model.instance import SteinerForestInstance, instance_from_components


def ensure_connected(graph: "nx.Graph") -> "nx.Graph":
    """Connectivity fallback shared by the random generators: overlay a
    Hamiltonian path over the integer node labels when the sampled graph
    is disconnected.

    The composed graph keeps every sampled edge and node attribute; the
    caller assigns weights *after* the fallback, so path edges always
    receive weights through the same code path as sampled edges.

    The overlay only connects graphs whose nodes are labeled 0..n-1 (as
    every networkx sampler used here produces); anything else would gain
    fresh phantom nodes instead of connecting the existing ones, so that
    case raises rather than returning a corrupted graph.
    """
    if not nx.is_connected(graph):
        n = graph.number_of_nodes()
        if set(graph) != set(range(n)):
            raise ValueError(
                "ensure_connected requires integer node labels 0..n-1 "
                "(relabel with nx.convert_node_labels_to_integers first)"
            )
        graph = nx.compose(graph, nx.path_graph(n))
    return graph


#: Coin flips drawn per ``getrandbits`` call in :func:`_gnp` (two MT
#: words each, so one chunk is a 128 KiB integer). 2^16 was as fast at
#: n = 2048 but raised the peak RSS of building the graph by 1 MB.
_GNP_CHUNK = 1 << 14

#: Fewest coin flips (at least 1) that :func:`_gnp` draws in bulk. The
#: bulk draw's fixed numpy cost, about 30 µs, outweighs its saving of
#: about 0.07 µs per coin up to n ≈ 32 (CPython 3.11, 2-core x86 VM).
_GNP_BULK_MIN_PAIRS = 1 << 9


def _gnp(n: int, p: float, seed: int) -> "nx.Graph":
    """Exactly ``nx.gnp_random_graph(n, p, seed=seed)``, drawn in bulk.

    networkx flips one ``random()`` coin per pair of
    ``combinations(range(n), 2)``. CPython's ``random()`` is a fixed
    function of the next two MT19937 words ``a, b``:
    ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, and ``getrandbits(64 * m)``
    returns the next ``2 * m`` words, first word least significant. So
    the same words are drawn in chunks, turned into the same doubles in
    numpy, and the pairs whose coin is below ``p`` are added in pair
    order: the nodes, edges and per-node adjacency order all match.
    Below :data:`_GNP_BULK_MIN_PAIRS` coins, and without numpy, this is
    networkx's own generator.
    """
    total = n * (n - 1) // 2
    if total < _GNP_BULK_MIN_PAIRS:
        return nx.gnp_random_graph(n, p, seed=seed)
    try:
        import numpy as np
    except ImportError:
        return nx.gnp_random_graph(n, p, seed=seed)
    rng = random.Random(seed)
    rows = np.arange(n, dtype=np.int64)
    # Flat index of pair (u, u + 1) in combinations order.
    row_start = rows * (n - 1) - rows * (rows - 1) // 2
    graph = nx.empty_graph(n)
    # Endpoints are the graph's own node objects: fresh ints from
    # tolist() would each live on as a dict key here and in WeightedGraph.
    node = list(graph).__getitem__
    for lo in range(0, total, _GNP_CHUNK):
        m = min(_GNP_CHUNK, total - lo)
        words = np.frombuffer(
            rng.getrandbits(64 * m).to_bytes(8 * m, "little"), "<u4"
        )
        coins = (
            (words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)
        ) / 9007199254740992.0
        flat = np.flatnonzero(coins < p) + lo
        us = np.searchsorted(row_start, flat, side="right") - 1
        vs = flat - row_start[us] + us + 1
        graph.add_edges_from(
            zip(map(node, us.tolist()), map(node, vs.tolist()))
        )
    return graph


def random_connected_graph(
    n: int,
    p: float,
    rng: random.Random,
    max_weight: int = 20,
) -> WeightedGraph:
    """G(n, p) with a Hamiltonian-path fallback for connectivity and
    uniform random integer weights in [1, max_weight]."""
    graph = ensure_connected(_gnp(n, p, rng.randrange(1 << 30)))
    # Same edge order as graph.edges, without two view lookups per edge.
    for _, _, data in graph.edges(data=True):
        data["weight"] = rng.randint(1, max_weight)
    return WeightedGraph.from_networkx(graph)


def random_geometric_graph(
    n: int,
    radius: float,
    rng: random.Random,
    weight_scale: int = 100,
) -> WeightedGraph:
    """Random geometric graph; weights ≈ Euclidean distance (scaled ints)."""
    graph = ensure_connected(
        nx.random_geometric_graph(n, radius, seed=rng.randrange(1 << 30))
    )
    pos = nx.get_node_attributes(graph, "pos")
    for u, v in graph.edges:
        if u in pos and v in pos:
            dist = (
                (pos[u][0] - pos[v][0]) ** 2 + (pos[u][1] - pos[v][1]) ** 2
            ) ** 0.5
            graph[u][v]["weight"] = max(1, int(dist * weight_scale))
        else:
            graph[u][v]["weight"] = rng.randint(1, weight_scale)
    return WeightedGraph.from_networkx(graph)


def grid_graph(
    rows: int, cols: int, rng: random.Random, max_weight: int = 10
) -> WeightedGraph:
    """rows × cols grid with random integer weights."""
    graph = nx.convert_node_labels_to_integers(nx.grid_2d_graph(rows, cols))
    for u, v in graph.edges:
        graph[u][v]["weight"] = rng.randint(1, max_weight)
    return WeightedGraph.from_networkx(graph)


def ring_of_blobs(
    num_blobs: int,
    blob_size: int,
    rng: random.Random,
    path_weight: int = 1,
    blob_weight: int = 3,
) -> WeightedGraph:
    """A cycle of cliques: the shortest-path diameter s grows with the ring
    length while the clique structure keeps density up. Useful for sweeping
    s independently of n."""
    edges: List[Tuple[int, int, int]] = []
    nodes: List[int] = []

    def blob_node(b: int, i: int) -> int:
        return b * blob_size + i

    for b in range(num_blobs):
        members = [blob_node(b, i) for i in range(blob_size)]
        nodes.extend(members)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                edges.append((u, v, blob_weight + rng.randint(0, 2)))
        nxt = (b + 1) % num_blobs
        edges.append((blob_node(b, 0), blob_node(nxt, 0), path_weight))
    return WeightedGraph(nodes, edges)


def powerlaw_graph(
    n: int,
    m_attach: int,
    rng: random.Random,
    max_weight: int = 20,
) -> WeightedGraph:
    """Barabási–Albert preferential-attachment graph (power-law degrees).

    Regime probed: hub-dominated topologies with tiny unweighted
    diameter D and skewed congestion — most least-weight paths cross a
    few hubs, stressing the CONGEST bandwidth accounting and the
    O(ks + t) term rather than the √n term. Connected by construction
    for ``m_attach >= 1``; uniform random integer weights.
    """
    graph = nx.barabasi_albert_graph(
        n, m_attach, seed=rng.randrange(1 << 30)
    )
    for u, v in graph.edges:
        graph[u][v]["weight"] = rng.randint(1, max_weight)
    return WeightedGraph.from_networkx(graph)


def smallworld_graph(
    n: int,
    k_nearest: int,
    rewire_p: float,
    rng: random.Random,
    max_weight: int = 20,
) -> WeightedGraph:
    """Watts–Strogatz small-world ring (local clustering + shortcuts).

    Regime probed: high clustering with a few long-range shortcuts —
    the weighted diameter WD stays ring-like while the hop diameter D
    collapses, separating the D-dependent pipelining terms from the
    shortest-path-diameter s the moat emulation pays for.
    """
    graph = ensure_connected(
        nx.watts_strogatz_graph(
            n, k_nearest, rewire_p, seed=rng.randrange(1 << 30)
        )
    )
    for u, v in graph.edges:
        graph[u][v]["weight"] = rng.randint(1, max_weight)
    return WeightedGraph.from_networkx(graph)


def random_regular_graph(
    n: int,
    degree: int,
    rng: random.Random,
    max_weight: int = 20,
) -> WeightedGraph:
    """Random ``degree``-regular graph (an expander w.h.p. for degree ≥ 3).

    Regime probed: expanders have logarithmic diameter, no hubs, and no
    exploitable locality — the adversarial middle ground between dense
    G(n,p) and grids, where the Õ(sk + √min{st, n}) bound's √n term
    dominates. ``n * degree`` must be even (networkx requirement).
    """
    graph = ensure_connected(
        nx.random_regular_graph(degree, n, seed=rng.randrange(1 << 30))
    )
    for u, v in graph.edges:
        graph[u][v]["weight"] = rng.randint(1, max_weight)
    return WeightedGraph.from_networkx(graph)


def torus_graph(
    rows: int, cols: int, rng: random.Random, max_weight: int = 10
) -> WeightedGraph:
    """rows × cols torus (grid with periodic boundary, no border effects).

    Regime probed: like the grid, s ≈ √n, but vertex-transitive — every
    terminal placement sees the same local geometry, isolating
    placement effects from the grid's corner/edge artifacts.
    """
    graph = nx.convert_node_labels_to_integers(
        nx.grid_2d_graph(rows, cols, periodic=True)
    )
    for u, v in graph.edges:
        graph[u][v]["weight"] = rng.randint(1, max_weight)
    return WeightedGraph.from_networkx(graph)


def caterpillar_graph(
    spine: int,
    legs: int,
    rng: random.Random,
    max_weight: int = 10,
) -> WeightedGraph:
    """Caterpillar tree: a ``spine``-node path with ``legs`` leaves each.

    Regime probed: trees are the sparsest connected inputs — s equals
    the (hop) diameter and grows linearly in the spine, the worst case
    for the O(ks + t) deterministic bound, while the unique-path
    structure makes every algorithm's output cost coincide with OPT.
    """
    edges: List[Tuple[int, int, int]] = []
    next_leaf = spine
    for i in range(spine):
        if i + 1 < spine:
            edges.append((i, i + 1, rng.randint(1, max_weight)))
        for _ in range(legs):
            edges.append((i, next_leaf, rng.randint(1, max_weight)))
            next_leaf += 1
    nodes = list(range(next_leaf))
    return WeightedGraph(nodes, edges)


def broom_graph(
    handle: int,
    bristles: int,
    rng: random.Random,
    max_weight: int = 10,
) -> WeightedGraph:
    """Broom tree: a ``handle``-node path ending in a ``bristles``-leaf star.

    Regime probed: the extreme terminal-clustering tree — a long handle
    (large s) funnelling into one high-degree node where all demands
    meet, the single-bottleneck counterpart of the caterpillar's evenly
    spread legs.
    """
    edges: List[Tuple[int, int, int]] = [
        (i, i + 1, rng.randint(1, max_weight)) for i in range(handle - 1)
    ]
    for leaf in range(handle, handle + bristles):
        edges.append((handle - 1, leaf, rng.randint(1, max_weight)))
    nodes = list(range(handle + bristles))
    return WeightedGraph(nodes, edges)


def clustered_geometric_graph(
    n: int,
    clusters: int,
    rng: random.Random,
    spread: float = 0.08,
    radius: float = 0.22,
    weight_scale: int = 100,
) -> WeightedGraph:
    """Gaussian clusters of points in the unit square, radius-connected.

    Regime probed: strong terminal locality — intra-cluster distances
    are tiny against inter-cluster ones, so moats merge within clusters
    almost immediately and the cost concentrates on a few long
    cluster-bridging paths (the regime where clustered placement and
    the randomized embedding shine). Weights ≈ Euclidean distance,
    including on any connectivity-fallback edges.
    """
    centers = [
        (rng.random(), rng.random()) for _ in range(clusters)
    ]
    pos = {}
    for v in range(n):
        cx, cy = centers[v % clusters]
        pos[v] = (
            min(1.0, max(0.0, rng.gauss(cx, spread))),
            min(1.0, max(0.0, rng.gauss(cy, spread))),
        )

    def dist(u: int, v: int) -> float:
        return (
            (pos[u][0] - pos[v][0]) ** 2 + (pos[u][1] - pos[v][1]) ** 2
        ) ** 0.5

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if dist(u, v) <= radius:
                graph.add_edge(u, v)
    graph = ensure_connected(graph)
    for u, v in graph.edges:
        graph[u][v]["weight"] = max(1, int(dist(u, v) * weight_scale))
    return WeightedGraph.from_networkx(graph)


def check_placement_request(
    graph: WeightedGraph, k: int, component_size: int
) -> None:
    """Validate a terminal-placement request against the graph.

    Components are node-disjoint, so ``k`` components of
    ``component_size`` terminals need ``k * component_size`` distinct
    nodes. Degenerate requests (``k < 1``, ``component_size < 1``) and
    requests for more distinct terminals than the graph has nodes raise
    a clear ``ValueError`` here — every placement strategy funnels
    through this check, so none can silently drop components, duplicate
    a node across components, or loop forever hunting for free nodes.
    """
    if k < 1:
        raise ValueError(f"need at least one input component, got k={k}")
    if component_size < 1:
        raise ValueError(
            f"components need at least one terminal, got "
            f"component_size={component_size}"
        )
    needed = k * component_size
    if needed > graph.num_nodes:
        raise ValueError(
            f"need {needed} distinct terminals for {k} disjoint "
            f"components of size {component_size} but the graph has only "
            f"{graph.num_nodes} nodes"
        )


def terminals_on_graph(
    graph: WeightedGraph,
    k: int,
    component_size: int,
    rng: random.Random,
) -> SteinerForestInstance:
    """Place k disjoint input components of the given size uniformly."""
    check_placement_request(graph, k, component_size)
    nodes = list(graph.nodes)
    rng.shuffle(nodes)
    components = [
        nodes[i * component_size: (i + 1) * component_size]
        for i in range(k)
    ]
    return instance_from_components(graph, components)


def random_instance(
    n: int,
    k: int,
    rng: random.Random,
    p: float = 0.35,
    component_size: int = 2,
    max_weight: int = 20,
) -> SteinerForestInstance:
    """A random connected graph with k random components (convenience)."""
    graph = random_connected_graph(n, p, rng, max_weight=max_weight)
    return terminals_on_graph(graph, k, component_size, rng)


def grid_instance(
    rows: int,
    cols: int,
    k: int,
    rng: random.Random,
    component_size: int = 2,
) -> SteinerForestInstance:
    """A random-weight grid with k random components (convenience)."""
    graph = grid_graph(rows, cols, rng)
    return terminals_on_graph(graph, k, component_size, rng)
