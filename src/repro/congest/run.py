"""The round/message ledger for CONGEST executions.

Every communication primitive charges rounds and per-edge messages against a
:class:`CongestRun`. A message models one O(log n)-bit CONGEST message; the
ledger enforces that no primitive sends more than one message per edge
direction per round (raising :class:`CongestViolationError` otherwise) and
keeps per-edge traffic counters so experiments can meter the traffic across a
graph cut (the Alice–Bob cut of the Section 3 lower-bound gadgets).
"""

import math
from collections import Counter
from typing import Any, Collection, Dict, Iterable, Mapping, Optional, Tuple

from repro.exceptions import CongestViolationError, SimulationError
from repro.model.graph import Edge, Node, WeightedGraph, canonical_edge

#: A directed message count: (sender, receiver) -> number of messages.
DirectedTraffic = Mapping[Tuple[Node, Node], int]


class CongestRun:
    """Accumulates rounds, messages and per-edge traffic for one execution.

    Args:
        graph: the network the algorithm runs on.
        bandwidth_bits: message size B in bits; defaults to ⌈log₂ n⌉ · 4,
            a concrete stand-in for the model's c·log n bound (identifiers,
            weights, and labels each fit in O(log n) bits).
        max_rounds: safety limit; exceeding it raises SimulationError,
            which usually indicates a non-terminating algorithm.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        bandwidth_bits: Optional[int] = None,
        max_rounds: int = 10_000_000,
    ) -> None:
        self.graph = graph
        if bandwidth_bits is None:
            bandwidth_bits = 4 * max(1, math.ceil(math.log2(max(2, graph.num_nodes))))
        self.bandwidth_bits = bandwidth_bits
        self.max_rounds = max_rounds
        self.rounds = 0
        self.messages = 0
        self.edge_messages: Counter = Counter()
        self.phase_rounds: Dict[str, int] = {}
        self._phase: Optional[str] = None
        #: Optional :class:`repro.perf.PhaseProfiler` observing this run
        #: (attach via ``profiler.attach(run)``). When None — the default
        #: — charging pays exactly one attribute check and nothing else,
        #: so profiling-off executions are byte-identical to pre-profiler
        #: ones (pinned by tests/test_perf.py).
        self.profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    # Phases (for per-step round breakdowns in experiments)
    # ------------------------------------------------------------------

    def set_phase(self, name: Optional[str]) -> None:
        """Attribute subsequently charged rounds to ``name``."""
        self._phase = name
        if self.profiler is not None:
            self.profiler.switch_phase(name)

    def _attribute(self, rounds: int) -> None:
        if self._phase is not None:
            self.phase_rounds[self._phase] = (
                self.phase_rounds.get(self._phase, 0) + rounds
            )
        if self.profiler is not None:
            self.profiler.add_rounds(rounds)

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------

    def _advance_round(self) -> None:
        """Count the round, attribute it (phase + profiler), and enforce
        ``max_rounds``."""
        self.rounds += 1
        self._attribute(1)
        if self.rounds > self.max_rounds:
            raise SimulationError(
                f"exceeded max_rounds={self.max_rounds}; "
                "the algorithm appears not to terminate"
            )

    def tick(self, traffic: Optional[DirectedTraffic] = None) -> None:
        """Advance one synchronous round, delivering ``traffic`` messages.

        ``traffic`` maps directed node pairs (sender, receiver) to message
        counts; each count must be ≤ 1 per the CONGEST model, and the pair
        must be an edge of the graph (one lookup in the graph's cached
        :meth:`~repro.model.graph.WeightedGraph.canonical_pairs`).
        """
        self._advance_round()
        if traffic:
            canon = self.graph.canonical_pairs()
            edge_messages = self.edge_messages
            charged = 0
            for pair, count in traffic.items():
                if count == 0:
                    continue
                edge = canon.get(pair)
                if edge is None:
                    raise CongestViolationError(
                        "message over non-edge ({!r}, {!r})".format(*pair)
                    )
                if count > 1:
                    raise CongestViolationError(
                        "{} messages from {!r} to {!r} in one round "
                        "(CONGEST allows 1)".format(count, *pair)
                    )
                edge_messages[edge] += 1
                charged += 1
            self.messages += charged
            if self.profiler is not None and charged:
                self.profiler.add_messages(charged)

    def tick_neighbors(
        self, graph: WeightedGraph, senders: Optional[Iterable[Node]] = None
    ) -> None:
        """Advance one round in which every node of ``senders`` (default:
        all of ``graph``'s nodes) sends one message to each of its
        neighbors in ``graph``.

        One message per edge direction holds by construction. On the
        ledger's own graph the charge skips validation: each sender's
        cached canonical out-edges go to :meth:`tick_edges` in one list.
        A primitive running on another graph (a subgraph, such as the
        F-subgraph of Lemma G.12) has every pair validated against the
        ledger's graph, exactly as :meth:`tick` would.
        """
        if senders is None:
            senders = graph.nodes
        if graph is not self.graph:
            self.tick({(u, v): 1 for u in senders for v in graph.neighbors(u)})
            return
        out_edges = graph.out_edges
        self.tick_edges([edge for u in senders for edge in out_edges(u)])

    def tick_edges(self, canonical_edges: Collection[Edge]) -> None:
        """Advance one round delivering one message over each entry of
        ``canonical_edges``, pre-validated as :meth:`charge_messages`
        requires (a tree primitive resolves each child→parent edge once
        and charges every round of its convergecast through here)."""
        self._advance_round()
        self.charge_messages(canonical_edges)

    def charge_messages(self, canonical_edges: Collection[Edge]) -> None:
        """Batch-charge pre-validated traffic for the current round.

        One message per entry; each entry must already be a canonical
        edge of the graph with at most one occurrence per direction this
        round (the caller — e.g. :meth:`tick_edges` over a graph's
        cached out-edges — guarantees this structurally, so re-validating
        per message would only re-pay the cost :meth:`tick` exists to
        amortize). Keeps the
        charging rules (message count + per-edge counters) owned by the
        ledger, with the same end state as ``tick(traffic)``. The
        argument must be sized (a list, a tuple): anything else raises
        :class:`TypeError` before the ledger changes.
        """
        count = len(canonical_edges)
        self.edge_messages.update(canonical_edges)
        self.messages += count
        if self.profiler is not None and count:
            self.profiler.add_messages(count)

    def charge_rounds(self, rounds: int, reason: str = "") -> None:
        """Analytically charge ``rounds`` rounds without per-edge traffic.

        Used for steps whose congestion-freeness the paper proves but whose
        message-level simulation would be redundant (e.g. time-multiplexing
        O(log n) independent executions: we simulate each execution and
        multiply the rounds here). The ``reason`` documents the charge.
        """
        if rounds < 0:
            raise ValueError("cannot charge negative rounds")
        self.rounds += rounds
        self._attribute(rounds)
        if self.rounds > self.max_rounds:
            raise SimulationError(
                f"exceeded max_rounds={self.max_rounds} while charging "
                f"{rounds} rounds ({reason})"
            )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def bits(self) -> int:
        """Total bits sent, counting each message at the full budget B."""
        return self.messages * self.bandwidth_bits

    def cut_messages(self, cut_edges: Iterable[Edge]) -> int:
        """Messages that crossed the given edge cut."""
        return sum(
            self.edge_messages[canonical_edge(u, v)] for u, v in cut_edges
        )

    def cut_bits(self, cut_edges: Iterable[Edge]) -> int:
        """Bits that crossed the given edge cut (messages × B)."""
        return self.cut_messages(cut_edges) * self.bandwidth_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CongestRun(rounds={self.rounds}, messages={self.messages}, "
            f"B={self.bandwidth_bits})"
        )
