"""Generic event-driven CONGEST simulator (node programs).

The primitives in this package simulate specific protocols; this module
provides the general substrate: every node runs a :class:`NodeProgram`,
rounds proceed synchronously, and per edge and direction at most one
B-bit message is delivered per round (Section 2's model). It is used for
self-contained protocols (leader election, echo) and by downstream users
who want to prototype their own CONGEST algorithms against the same
ledger/accounting as the paper's algorithms.

Example::

    class Flood(NodeProgram):
        def on_start(self, ctx):
            self.best = ctx.node_id
            for v in ctx.neighbors:
                ctx.send(v, self.best)

        def on_round(self, ctx, inbox):
            improved = False
            for _, value in inbox:
                if value > self.best:
                    self.best = value
                    improved = True
            if improved:
                for v in ctx.neighbors:
                    ctx.send(v, self.best)
            else:
                ctx.halt()

The :class:`Simulator` owns its one round loop: dict outboxes keyed by
(sender, receiver) node pairs, one :class:`Context` per node, canonical
flush order via ``node_sort_key``, delivery through
``network.schedule``. ``tests/fixtures/simulator_golden.json`` pins its
executions.
"""

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.run import CongestRun
from repro.exceptions import CongestViolationError, SimulationError
from repro.model.graph import Node, WeightedGraph
from repro.netmodel import (
    NetworkModel,
    TraceRecorder,
    build_network_model,
    node_sort_key,
    payload_bits,
)

__all__ = [
    "Context",
    "NodeProgram",
    "Simulator",
    "FloodMaxLeaderElection",
    "EchoBroadcast",
]


class Context:
    """Per-node view handed to a NodeProgram each round."""

    def __init__(self, simulator: "Simulator", node: Node) -> None:
        """Bind the view to one node of the simulator's graph."""
        self._simulator = simulator
        self.node_id = node
        self.neighbors = simulator.graph.neighbors(node)
        self.round = 0

    def edge_weight(self, neighbor: Node) -> int:
        """Weight of the incident edge to ``neighbor``."""
        return self._simulator.graph.weight(self.node_id, neighbor)

    def send(self, neighbor: Node, payload: Any) -> None:
        """Queue one message for delivery next round (≤ 1 per neighbor)."""
        self._simulator._queue_message(self.node_id, neighbor, payload)

    def halt(self) -> None:
        """Mark this node as explicitly terminated (Section 2's notion of
        termination; a halted node no longer receives on_round calls)."""
        self._simulator._halted.add(self.node_id)


class NodeProgram:
    """Base class for per-node protocol logic. Subclasses override
    :meth:`on_start` and :meth:`on_round`."""

    def on_start(self, ctx: Context) -> None:
        """Round-0 initialization; may send messages."""

    def on_round(self, ctx: Context, inbox: List[Tuple[Node, Any]]) -> None:
        """Process the messages received this round ((sender, payload)
        pairs, deterministic order) and optionally send new ones."""
        raise NotImplementedError


class Simulator:
    """Synchronous executor for a NodeProgram per node.

    The simulator shares its :class:`CongestRun` ledger with the rest of
    the library, so node-program executions and primitive executions
    compose into one round count.

    Message delivery is owned by a :class:`~repro.netmodel.NetworkModel`:
    every queued message passes through ``network.schedule`` at the start
    of the round that would normally deliver it, and the model decides the
    delivery round(s) — or drops the message. The default ``reliable``
    model reproduces the clean synchronous channel exactly. An optional
    :class:`~repro.netmodel.TraceRecorder` captures per-message and
    per-round traffic events.

    Args:
        graph: the network topology.
        programs: one :class:`NodeProgram` per node.
        run: shared ledger (a fresh one is created when omitted).
        network: a network condition — a model instance, a canonical spec
            dict, a registered model name, or None for ``reliable``.
        trace: recorder for message/volume trace events.
        net_seed: seed for the network model's RNG (loss/delay draws).
    """

    def __init__(
        self,
        graph: WeightedGraph,
        programs: Dict[Node, NodeProgram],
        run: Optional[CongestRun] = None,
        network: Any = None,
        trace: Optional[TraceRecorder] = None,
        net_seed: int = 0,
    ) -> None:
        if set(programs) != set(graph.nodes):
            raise SimulationError("every node needs exactly one program")
        self.graph = graph
        self.programs = programs
        self.run = run if run is not None else CongestRun(graph)
        self.network: NetworkModel = build_network_model(network)
        self.network.bind(graph, random.Random(net_seed))
        self.trace = trace
        #: The current round index (0 before the first step).
        self.round = 0
        self.contexts = {v: Context(self, v) for v in graph.nodes}
        self._outbox: Dict[Tuple[Node, Node], Any] = {}
        #: Scheduled messages by absolute delivery round; entries keep
        #: their flush order, so delivery stays deterministic.
        self._in_flight: Dict[int, List[Tuple[Node, Node, Any]]] = {}
        self._halted: set = set()

    def _queue_message(self, sender: Node, receiver: Node, payload: Any) -> None:
        # The CONGEST send contract: edges only, one message per neighbor
        # per round.
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

    def run_to_completion(self, max_rounds: int = 100_000) -> int:
        """start() + step() until quiescence; returns rounds executed.

        ``max_rounds`` is inclusive: quiescing in exactly ``max_rounds``
        rounds succeeds, and :class:`SimulationError` is raised as soon as
        the limit is reached with work still pending (never executing a
        ``max_rounds + 1``-th round). The trace is closed when the
        execution ends, completed or dying, so a streaming JSONL file is
        never left on an open handle.
        """
        self.start()
        rounds = 0
        try:
            while self.has_pending and not self.all_halted:
                if rounds >= max_rounds:
                    raise SimulationError(
                        f"node programs did not quiesce in {max_rounds} rounds"
                    )
                self.step()
                rounds += 1
        except BaseException:
            # Best-effort cleanup; the original error is what matters.
            try:
                self.close()
            except Exception:
                pass
            raise
        self.close()
        return rounds

    def close(self) -> None:
        """Release any streaming trace handle (idempotent;
        run_to_completion closes automatically)."""
        if self.trace is not None:
            self.trace.close()


class FloodMaxLeaderElection(NodeProgram):
    """Classic flooding leader election: everyone learns the max ID.

    A node re-floods only on improvement; the execution quiesces (no
    messages in flight) within eccentricity-many rounds, which ends the
    run — nodes never halt explicitly, since a halted node would miss a
    late-arriving wave. The winner is stored in ``leader``.
    """

    def __init__(self) -> None:
        self.leader: Optional[Node] = None

    def on_start(self, ctx: Context) -> None:
        self.leader = ctx.node_id
        for v in ctx.neighbors:
            ctx.send(v, self.leader)

    def on_round(self, ctx: Context, inbox: List[Tuple[Node, Any]]) -> None:
        improved = False
        for _, candidate in inbox:
            # A type-stable total order on IDs: integers compare
            # numerically (repr would elect 9 over 10).
            if node_sort_key(candidate) > node_sort_key(self.leader):
                self.leader = candidate
                improved = True
        if improved:
            for v in ctx.neighbors:
                ctx.send(v, self.leader)


class EchoBroadcast(NodeProgram):
    """Broadcast-with-acknowledgement (PIF) from a designated root."""

    def __init__(self, root: Node) -> None:
        self.root = root
        self.parent: Optional[Node] = None
        self.informed = False
        self.done = False
        self._pending: set = set()

    def on_start(self, ctx: Context) -> None:
        if ctx.node_id == self.root:
            self.informed = True
            self._pending = set(ctx.neighbors)
            for v in ctx.neighbors:
                ctx.send(v, "wave")
            if not self._pending:
                # Isolated root: the broadcast is complete immediately.
                self.done = True
                ctx.halt()

    def on_round(self, ctx: Context, inbox: List[Tuple[Node, Any]]) -> None:
        for sender, payload in inbox:
            if payload == "wave" and not self.informed:
                self.informed = True
                self.parent = sender
                self._pending = {
                    v for v in ctx.neighbors if v != sender
                }
                for v in self._pending:
                    ctx.send(v, "wave")
            elif payload in ("wave", "echo"):
                self._pending.discard(sender)
        if self.informed and not self._pending and not self.done:
            self.done = True
            if self.parent is not None:
                ctx.send(self.parent, "echo")
            ctx.halt()
