"""The ledger-level fast path: the flatarray engine for the paper pipeline.

PR 3's flat-array backend made *message-level* NodeProgram executions
fast; the paper's actual Steiner-forest pipeline (moat growing, pruning,
the sublinear composition) is **ledger-level** — the solvers drive the
communication primitives (:mod:`repro.congest.bfs`,
:mod:`repro.congest.bellman_ford`, :mod:`repro.congest.broadcast`,
:mod:`repro.congest.pipeline`) directly against a
:class:`~repro.congest.run.CongestRun`. Profiling (``repro profile``,
``bench_e18_profile.py``) shows their wall time goes to three places:

* per-message ledger validation (``has_edge`` + ``repr``-based
  ``canonical_edge``) on every ``tick(traffic)``,
* per-call ``graph.neighbors`` re-sorting and ``repr`` key computation
  inside the primitives' round loops,
* full re-sorts of monotonically growing buffers (the Kruskal filter of
  the pipelined upcast re-sorted every node's buffer every round).

This module compiles all of that away once per execution:

* :class:`CompiledTopology` precomputes per-node neighbor tuples, node
  ``repr`` keys, per-node canonical-edge Counters, and the full-graph
  broadcast Counter;
* :class:`FastCongestRun` is a drop-in :class:`CongestRun` carrying the
  compiled topology; its ``tick`` validates via one dict lookup per
  message, and :meth:`CongestRun.charge_counter` applies whole-round
  traffic in one C-speed Counter update;
* the communication primitives detect ``run.compiled`` and switch to
  integer-light branches that produce the **identical** execution —
  same rounds, messages, per-edge traffic, phases, and solver output.

Like the message-level engines, the fast path is conformance-pinned:
``tests/test_perf.py`` runs the distributed and sublinear solvers under
both ledgers across the graph-family matrix and asserts equality field
by field. The ``reference`` path (a plain ``CongestRun``) stays the
simple, obviously-correct baseline and is never modified by backend
selection.
"""

from collections import Counter
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.congest.run import (
    CongestRun,
    non_edge_violation,
    per_direction_violation,
)
from repro.model.graph import Edge, Node, WeightedGraph
from repro.simbackend import (
    AUTO_THRESHOLD_NODES,
    NUMPY_THRESHOLD_NODES,
    choose_engine_name,
    normalize_backend,
)


class CompiledTopology:
    """One-time compilation of a graph for the ledger fast path.

    Attributes:
        graph: the compiled :class:`~repro.model.graph.WeightedGraph`.
        repr_of: node → ``repr(node)`` (the sort key every primitive's
            deterministic tie-breaking is defined in terms of).
        neighbors: node → the graph's deterministic neighbor tuple,
            cached (``WeightedGraph.neighbors`` re-sorts per call).
        canon: directed pair ``(u, v)`` → canonical edge, both
            directions of every edge (non-edges are absent, which is
            what the fast ``tick`` validation relies on).
        out_counter: node → Counter of the canonical edges to all its
            neighbors (the per-node full-broadcast charge).
        degree: node → its degree (``sum(out_counter.values())``).
        full_counter: Counter of every canonical edge with multiplicity
            2 — the all-nodes-to-all-neighbors broadcast round the
            solvers' owner-exchange steps charge.
        num_directed: total directed edge count (2m).
    """

    __slots__ = (
        "graph",
        "repr_of",
        "neighbors",
        "canon",
        "out_counter",
        "degree",
        "full_counter",
        "num_directed",
        "_tag_repr",
    )

    def __init__(self, graph: WeightedGraph) -> None:
        self.graph = graph
        nodes = graph.nodes
        repr_of = {v: repr(v) for v in nodes}
        self.repr_of = repr_of
        self.neighbors: Dict[Node, Tuple[Node, ...]] = {
            v: graph.neighbors(v) for v in nodes
        }
        canon: Dict[Tuple[Node, Node], Edge] = {}
        out_counter: Dict[Node, Counter] = {}
        degree: Dict[Node, int] = {}
        full: Counter = Counter()
        for v in nodes:
            nbrs = self.neighbors[v]
            degree[v] = len(nbrs)
            rv = repr_of[v]
            edges = []
            for u in nbrs:
                edge = (v, u) if rv <= repr_of[u] else (u, v)
                canon[(v, u)] = edge
                edges.append(edge)
            counter = Counter(edges)
            out_counter[v] = counter
            full.update(counter)
        self.canon = canon
        self.out_counter = out_counter
        self.degree = degree
        self.full_counter = full
        self.num_directed = sum(degree.values())
        # repr memo for arbitrary hashable tags (Bellman–Ford regions).
        # Keyed by (type, value): hash-equal values of different types
        # (True vs 1) must not share a cached repr.
        self._tag_repr: Dict[Tuple[type, Any], str] = {}

    def tag_repr(self, tag: Any) -> str:
        """``repr(tag)``, memoized (tags repeat across relaxation rounds)."""
        key = (type(tag), tag)
        cached = self._tag_repr.get(key)
        if cached is None:
            cached = self._tag_repr[key] = repr(tag)
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledTopology(n={len(self.degree)}, "
            f"directed_edges={self.num_directed})"
        )


class FastCongestRun(CongestRun):
    """A :class:`CongestRun` with a compiled topology (the flatarray
    ledger).

    Drop-in compatible: the primitives detect the ``compiled`` attribute
    and take their fast branches; code that never looks for it behaves
    exactly as with a plain run. ``tick`` keeps the full CONGEST
    validation contract (same error types and messages) but resolves
    edge membership and canonical form with one dict lookup per message.

    Args:
        graph: the network the algorithm runs on.
        bandwidth_bits: see :class:`CongestRun`.
        max_rounds: see :class:`CongestRun`.
        compiled: reuse an existing compilation of ``graph`` (e.g. when
            several runs share one instance); compiled on demand when
            omitted.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        bandwidth_bits: Optional[int] = None,
        max_rounds: int = 10_000_000,
        compiled: Optional[CompiledTopology] = None,
    ) -> None:
        super().__init__(
            graph, bandwidth_bits=bandwidth_bits, max_rounds=max_rounds
        )
        if compiled is not None and compiled.graph is not graph:
            raise ValueError("compiled topology belongs to a different graph")
        self.compiled = compiled if compiled is not None else CompiledTopology(graph)

    def tick(self, traffic: Optional[Mapping[Tuple[Node, Node], int]] = None) -> None:
        """Advance one round; charge ``traffic`` via the compiled edge map.

        Identical contract and end state to :meth:`CongestRun.tick` —
        the round preamble and the violation errors are literally shared
        (:meth:`CongestRun._advance_round`, :func:`non_edge_violation`,
        :func:`per_direction_violation`), only edge resolution differs
        (one dict lookup instead of ``has_edge`` + ``canonical_edge``).
        """
        self._advance_round()
        if traffic:
            canon = self.compiled.canon
            edge_messages = self.edge_messages
            charged = 0
            for pair, count in traffic.items():
                if count == 0:
                    continue
                edge = canon.get(pair)
                if edge is None:
                    raise non_edge_violation(*pair)
                if count > 1:
                    raise per_direction_violation(count, *pair)
                edge_messages[edge] += 1
                charged += 1
            self.messages += charged
            if self.profiler is not None and charged:
                self.profiler.add_messages(charged)


def make_ledger_run(
    backend: Any,
    graph: WeightedGraph,
    bandwidth_bits: Optional[int] = None,
    max_rounds: int = 10_000_000,
) -> CongestRun:
    """Build the ledger a solver should charge, per backend spec.

    The ledger-level counterpart of :func:`repro.simbackend.
    build_backend`, used by the experiment runner and the CLI to thread
    the ``--backend`` axis into the paper's solvers:

    * ``reference`` (and ``sharded``, which has no ledger-level analogue
      — its win is multiprocess NodeProgram dispatch) → a plain
      :class:`CongestRun`;
    * ``flatarray`` → a :class:`FastCongestRun`;
    * ``numpy`` → a :class:`repro.perf.npkernels.NumpyCongestRun` (only
      reachable when the optional numpy extra registered the tier —
      otherwise the shared validation rejects the name);
    * ``auto`` → the size heuristic shared with
      :class:`~repro.simbackend.AutoBackend` (``threshold`` and
      ``numpy_threshold`` params honored), so ``backend="auto"`` picks
      consistently across message-level and ledger-level executions.

    Raises:
        ValueError: on unknown backend names or parameters — validated
            through the same :func:`~repro.simbackend.build_backend`
            path as the simulator facade, so one ``--backend`` spec is
            either valid at both levels or rejected at both.
    """
    from repro.simbackend import build_backend

    spec = normalize_backend(backend)
    build_backend(spec)  # uniform name/parameter validation
    name = spec["name"]
    if name == "auto":
        threshold = int(spec["params"].get("threshold", AUTO_THRESHOLD_NODES))
        numpy_threshold = int(
            spec["params"].get("numpy_threshold", NUMPY_THRESHOLD_NODES)
        )
        name = choose_engine_name(graph.num_nodes, threshold, numpy_threshold)
    if name == "numpy":
        # Import deferred (and guaranteed to succeed): the spec passed
        # validation, so the numpy tier is registered ⇒ numpy imports.
        from repro.perf.npkernels import NumpyCongestRun

        try:
            return NumpyCongestRun(
                graph, bandwidth_bits=bandwidth_bits, max_rounds=max_rounds
            )
        except OverflowError:
            # Edge weights outside the int64 grid: an explicit numpy
            # request fails loudly, but auto degrades to flatarray.
            if spec["name"] != "auto":
                raise
            name = "flatarray"
    if name == "flatarray":
        return FastCongestRun(
            graph, bandwidth_bits=bandwidth_bits, max_rounds=max_rounds
        )
    return CongestRun(graph, bandwidth_bits=bandwidth_bits, max_rounds=max_rounds)
