"""Deterministic (seeded) workload generators.

Each generator takes a ``random.Random`` so experiment rows are exactly
reproducible. Graph families cover the regimes the paper's bounds
distinguish: dense random graphs (small s, small D), grids (s ≈ √n),
geometric graphs (locality), and ring-of-blobs constructions whose
shortest-path diameter s is directly controllable.
"""

import math
import random
import sys
import threading
from array import array
from itertools import combinations
from types import ModuleType
from typing import Collection, Iterable, List, Optional, Tuple

import networkx as nx

from repro.model.graph import WeightedGraph
from repro.model.instance import SteinerForestInstance, instance_from_components


def ensure_connected(graph: "nx.Graph") -> "nx.Graph":
    """Connectivity fallback of the networkx-sampled generators: overlay
    a Hamiltonian path over the integer node labels when the sampled
    graph is disconnected.

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


def _numpy() -> Optional[ModuleType]:
    """The numpy module, or None where the optional extra is missing."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


#: Coin flips drawn per ``random_raw`` call in :func:`_gnp_numpy` (two
#: MT words each). 2^16 was as fast at n = 2048 but raised the peak RSS
#: of building the graph by 1 MB.
_GNP_CHUNK = 1 << 14

#: Fewest coin flips (at least 1) that :func:`_gnp` draws with numpy.
#: The numpy draw's fixed cost, about 0.15 ms (most of it loading the
#: MT19937 state), outweighs its saving per coin up to about 2 000 coins
#: at p <= 0.1 (n ≈ 64) and 4 000 at p = 0.3 (n ≈ 90); at n = 48 the
#: Python loop takes 0.09-0.11 ms against 0.17-0.18 ms (CPython 3.11,
#: numpy 2.4, 2-core x86 VM).
_GNP_BULK_MIN_PAIRS = 1 << 11

#: Per-thread MT19937 that :func:`_gnp_numpy` loads coin states into.
#: Building one per graph costs about 0.17 ms even when seeded (its
#: SeedSequence hashes the seed into 624 words; unseeded, 0.19 ms), more
#: than the 0.12 ms state load and the whole Python coin loop at n = 48.
_coin_words = threading.local()


def _gnp(n: int, p: float, seed: int) -> List[Tuple[int, int]]:
    """The edges of ``nx.gnp_random_graph(n, p, seed=seed)``, in order.

    networkx flips one ``random()`` coin of ``Random(seed)`` per pair of
    ``combinations(range(n), 2)`` and keeps the pairs whose coin is
    below ``p``, so its ``edges`` list them in pair order. Below
    :data:`_GNP_BULK_MIN_PAIRS` coins, and without numpy, this is that
    same loop; above it, :func:`_gnp_numpy` draws the same coins in
    bulk. Either way no networkx graph is built.
    """
    total = n * (n - 1) // 2
    np = _numpy() if total >= _GNP_BULK_MIN_PAIRS else None
    if np is not None:
        return _gnp_numpy(np, n, p, seed)
    coin = random.Random(seed).random
    return [pair for pair in combinations(range(n), 2) if coin() < p]


def _gnp_numpy(
    np: ModuleType, n: int, p: float, seed: int
) -> List[Tuple[int, int]]:
    """:func:`_gnp`'s pairs, with the coins drawn in numpy.

    CPython's ``random()`` is a fixed function of the next two MT19937
    words ``a, b``: ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``. The coin
    generator ``Random(seed)`` is private to this call, so its state is
    loaded into a numpy ``MT19937``, whose ``random_raw`` yields the same
    words, chunk by chunk. A coin is at least ``(a >> 5) / 2**27``, so
    only pairs with ``a >> 5 < p * 2**27``, that is ``a < 32 *
    ceil(p * 2**27)``, can pass; numpy turns just those into the same
    doubles and maps the indices of the coins below ``p`` back to pairs.
    """
    generator = getattr(_coin_words, "generator", None)
    if generator is None:
        generator = _coin_words.generator = np.random.MT19937()
    state = random.Random(seed).getstate()[1]
    generator.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(state[:-1], np.uint32), "pos": state[-1]},
    }
    total = n * (n - 1) // 2
    rows = np.arange(n, dtype=np.int64)
    # Flat index of pair (u, u + 1) in combinations order.
    row_start = rows * (n - 1) - rows * (rows - 1) // 2
    # Every pair shares its endpoints' int objects: fresh ones from
    # tolist() would each live on as a key of WeightedGraph's adjacency.
    node = list(range(n)).__getitem__
    if 0 < p < 1:
        limit = 32 * math.ceil(p * 134217728)
    else:  # every coin is below p >= 1, and none below p <= 0 (or NaN)
        limit = 1 << 32 if p >= 1 else 0
    pairs: List[Tuple[int, int]] = []
    for lo in range(0, total, _GNP_CHUNK):
        words = generator.random_raw(2 * min(_GNP_CHUNK, total - lo))
        maybe = np.flatnonzero(words[0::2] < limit)
        coins = (
            (words[2 * maybe] >> 5) * 67108864.0
            + (words[2 * maybe + 1] >> 6)
        ) / 9007199254740992.0
        flat = maybe[coins < p] + lo
        us = np.searchsorted(row_start, flat, side="right") - 1
        vs = flat - row_start[us] + us + 1
        pairs += zip(map(node, us.tolist()), map(node, vs.tolist()))
    return pairs


def _spans(n: int, pairs: List[Tuple[int, int]]) -> bool:
    """Whether ``pairs`` connect all of the nodes 0..n-1 (union-find
    with path halving, stopping at the join that leaves one component)."""
    parent = list(range(n))
    components = n
    for u, v in pairs:
        if components <= 1:
            break
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            components -= 1
    return components <= 1


def _with_path(
    n: int, pairs: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """``pairs`` (in pair order) plus the path 0-1-…-(n-1), listed as
    ``nx.compose(sample, nx.path_graph(n)).edges`` lists them: per node
    ``u``, its sampled ``(u, v > u)`` ascending, then ``(u, u + 1)``
    unless that was sampled (it would lead the row)."""
    edges: List[Tuple[int, int]] = []
    end = 0
    for u in range(n - 1):
        start = end
        while end < len(pairs) and pairs[end][0] == u:
            end += 1
        edges += pairs[start:end]
        if start == end or pairs[start][1] != u + 1:
            edges.append((u, u + 1))
    return edges


def _uniform_weights(
    rng: random.Random, count: int, max_weight: int
) -> List[int]:
    """``[rng.randint(1, max_weight) for _ in range(count)]``, in bulk.

    For a width ``max_weight`` of ``k <= 32`` bits, CPython's ``randint``
    takes one MT19937 word per try, keeps its top ``k`` bits and tries
    again while they are not below the width. ``getrandbits(32 * R)``
    returns the next ``R`` words, first word least significant, so the
    ``R`` weights still missing are drawn at once and the accepted words
    kept in order, until none is missing. That consumes exactly the
    words the one-by-one loop would: the weights and the rng's state
    afterwards are the same. Wider (or non-int) widths take the loop.
    """
    if not isinstance(max_weight, int) or not 0 < max_weight < 1 << 32:
        return [rng.randint(1, max_weight) for _ in range(count)]
    shift = 32 - max_weight.bit_length()
    # A word's top bits are below the width exactly when the word is
    # below the width shifted up.
    bound = max_weight << shift
    weights: List[int] = []
    while len(weights) < count:
        missing = count - len(weights)
        words = array(
            "I", rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        )
        if sys.byteorder == "big":
            words.byteswap()
        weights += [(w >> shift) + 1 for w in words if w < bound]
    return weights


def _weighted_graph(
    nodes: Iterable[int],
    pairs: Collection[Tuple[int, int]],
    rng: random.Random,
    max_weight: int,
) -> WeightedGraph:
    """The graph on ``nodes`` whose edges are ``pairs`` in order, with
    ``randint(1, max_weight)`` weights drawn in that order."""
    weights = _uniform_weights(rng, len(pairs), max_weight)
    return WeightedGraph(
        nodes, ((u, v, w) for (u, v), w in zip(pairs, weights))
    )


def random_connected_graph(
    n: int,
    p: float,
    rng: random.Random,
    max_weight: int = 20,
) -> WeightedGraph:
    """G(n, p) with a Hamiltonian-path fallback for connectivity and
    uniform random integer weights in [1, max_weight].

    The graph equals ``ensure_connected(nx.gnp_random_graph(n, p,
    seed))`` weighted by one ``rng.randint(1, max_weight)`` per edge in
    ``edges`` order, node for node, edge for edge and in each node's
    adjacency order, and leaves ``rng`` in the same state; it is built
    from :func:`_gnp`'s pairs, a union-find connectivity check, the
    compose-order fallback of :func:`_with_path` and the bulk weights of
    :func:`_uniform_weights`, with no networkx graph in between.
    """
    pairs = _gnp(n, p, rng.randrange(1 << 30))
    if not _spans(n, pairs):
        pairs = _with_path(n, pairs)
    return _weighted_graph(range(n), pairs, rng, max_weight)


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
    return _weighted_graph(graph.nodes, graph.edges, rng, max_weight)


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
    return _weighted_graph(graph.nodes, graph.edges, rng, max_weight)


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
    return _weighted_graph(graph.nodes, graph.edges, rng, max_weight)


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
    return _weighted_graph(graph.nodes, graph.edges, rng, max_weight)


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
    return _weighted_graph(graph.nodes, graph.edges, rng, max_weight)


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
