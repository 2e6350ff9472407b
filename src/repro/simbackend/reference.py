"""The reference execution engine: the original per-node-object loop.

This is the simulator round loop as it existed before backends were
introduced, moved behind the :class:`SimulationBackend` interface
unchanged: dict outboxes keyed by (sender, receiver) node pairs, one
:class:`Context` per node object, canonical flush order via
``node_sort_key``, delivery through ``network.schedule``. It is the
regression-pinned semantic baseline every other backend must match
event-for-event (see ``tests/test_simbackend_conformance.py``).
"""

from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import CongestViolationError, SimulationError
from repro.model.graph import Node, WeightedGraph
from repro.netmodel import (
    NetworkModel,
    TraceRecorder,
    node_sort_key,
    payload_bits,
)
from repro.simbackend.base import Context, SimulationBackend, register_backend


@register_backend
class ReferenceBackend(SimulationBackend):
    """Synchronous per-node-object executor (the pinned baseline)."""

    name = "reference"

    def bind(
        self,
        graph: WeightedGraph,
        programs: Dict[Node, Any],
        run: Any,
        network: NetworkModel,
        trace: Optional[TraceRecorder],
    ) -> None:
        """Attach to one execution and build the per-node Contexts."""
        super().bind(graph, programs, run, network, trace)
        self.contexts = {v: Context(self, v) for v in graph.nodes}
        self._outbox: Dict[Tuple[Node, Node], Any] = {}
        #: Scheduled messages by absolute delivery round; entries keep
        #: their flush order, so delivery stays deterministic.
        self._in_flight: Dict[int, List[Tuple[Node, Node, Any]]] = {}
        self._halted: set = set()

    # -- internal hooks used by Context --------------------------------

    def _queue_message(self, sender: Node, receiver: Node, payload: Any) -> None:
        # The CONGEST send contract: edges only, one message per neighbor
        # per round. The flatarray engine enforces the same checks with
        # the same error strings on its integer-indexed path.
        if not self.graph.has_edge(sender, receiver):
            raise CongestViolationError(
                f"{sender!r} cannot reach non-neighbor {receiver!r}"
            )
        key = (sender, receiver)
        if key in self._outbox:
            raise CongestViolationError(
                f"{sender!r} already sent to {receiver!r} this round"
            )
        self._outbox[key] = payload

    def _halt(self, node: Node) -> None:
        self._halted.add(node)

    # -- execution -------------------------------------------------------

    @property
    def all_halted(self) -> bool:
        """Every node has halted or been removed by the network model
        (crashed nodes count as terminated)."""
        if len(self._halted) == len(self.graph.nodes):
            return True
        if not self.network.removes_nodes:
            return False
        return all(
            v in self._halted or not self.network.alive(v)
            for v in self.graph.nodes
        )

    @property
    def has_pending(self) -> bool:
        """Messages queued or in flight."""
        return bool(self._outbox) or bool(self._in_flight)

    def start(self) -> None:
        """Run every program's on_start (round 0, local only)."""
        for v in self.graph.nodes:
            self.programs[v].on_start(self.contexts[v])

    def _flush_outbox(self) -> Dict[Tuple[Node, Node], int]:
        """Hand queued messages to the network model; returns the ledger
        traffic for this round (canonical flush order, payload-blind)."""
        traffic: Dict[Tuple[Node, Node], int] = {}
        # Canonical flush order depends on the (sender, receiver) key only,
        # never on the payload, and on a type-stable total order, never on
        # ``repr`` (under which ``repr(9) > repr(10)``).
        sent = sorted(
            self._outbox.items(),
            key=lambda item: (
                node_sort_key(item[0][0]), node_sort_key(item[0][1])
            ),
        )
        self._outbox = {}
        removes_nodes = self.network.removes_nodes
        for (sender, receiver), payload in sent:
            if removes_nodes and not self.network.alive(sender):
                # The sender crashed before its queued send hit the wire.
                self.network.stats["lost_sender_crashed"] += 1
                if self.trace is not None:
                    self.trace.record_lost(
                        self.round, sender, receiver, "sender_crashed"
                    )
                continue
            traffic[(sender, receiver)] = 1
            delivery_rounds = self.network.schedule(
                sender, receiver, payload, self.round
            )
            for when in delivery_rounds:
                if when < self.round:
                    raise SimulationError(
                        f"network model {self.network.name!r} scheduled a "
                        f"delivery in the past (round {when} < {self.round})"
                    )
                self._in_flight.setdefault(when, []).append(
                    (sender, receiver, payload)
                )
            if self.trace is not None:
                self.trace.record_send(
                    self.round, sender, receiver, payload, delivery_rounds
                )
        return traffic

    def step(self) -> bool:
        """Execute one synchronous round; returns False when quiescent
        (no messages queued or in flight, and/or all nodes halted)."""
        if not self.has_pending or self.all_halted:
            return False
        self.round += 1
        self.network.begin_round(self.round)
        traffic = self._flush_outbox()
        self.run.tick(traffic)
        due = self._in_flight.pop(self.round, [])
        inboxes: Dict[Node, List[Tuple[Node, Any]]] = {}
        delivered = dropped = bits = 0
        removes_nodes = self.network.removes_nodes
        for sender, receiver, payload in due:
            if removes_nodes and not self.network.alive(receiver):
                dropped += 1
                self.network.stats["lost_receiver_crashed"] += 1
                if self.trace is not None:
                    self.trace.record_lost(
                        self.round, sender, receiver, "receiver_crashed"
                    )
                continue
            inboxes.setdefault(receiver, []).append((sender, payload))
            delivered += 1
            bits += payload_bits(payload)
        for v in self.graph.nodes:
            if v in self._halted or (
                removes_nodes and not self.network.alive(v)
            ):
                continue
            ctx = self.contexts[v]
            ctx.round = self.round
            self.programs[v].on_round(ctx, inboxes.get(v, []))
        if self.trace is not None:
            self.trace.record_round(
                self.round, len(traffic), delivered, dropped, bits
            )
        return True
