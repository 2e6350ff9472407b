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

The :class:`Simulator` itself is a facade: the round loop is owned by a
pluggable :class:`~repro.simbackend.SimulationBackend` (see
:mod:`repro.simbackend`) — the default ``reference`` engine reproduces
the original per-node-object loop exactly, and ``flatarray`` runs the
same execution on a compiled integer-indexed topology.
"""

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.run import CongestRun
from repro.exceptions import SimulationError
from repro.model.graph import Node, WeightedGraph
from repro.netmodel import (
    NetworkModel,
    TraceRecorder,
    build_network_model,
    node_sort_key,
)
from repro.simbackend import Context, SimulationBackend, build_backend

__all__ = [
    "Context",
    "NodeProgram",
    "Simulator",
    "FloodMaxLeaderElection",
    "EchoBroadcast",
]


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

    Execution is delegated to a :class:`~repro.simbackend.
    SimulationBackend`: the default ``reference`` engine is the original
    loop, and every other engine is conformance-pinned to produce the
    identical execution (see :mod:`repro.simbackend`).

    Args:
        graph: the network topology.
        programs: one :class:`NodeProgram` per node.
        run: shared ledger (a fresh one is created when omitted).
        network: a network condition — a model instance, a canonical spec
            dict, a registered model name, or None for ``reliable``.
        trace: recorder for message/volume trace events.
        net_seed: seed for the network model's RNG (loss/delay draws).
        backend: the execution engine — a backend instance, a canonical
            spec dict, a registered backend name, or None for
            ``reference``.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        programs: Dict[Node, NodeProgram],
        run: Optional[CongestRun] = None,
        network: Any = None,
        trace: Optional[TraceRecorder] = None,
        net_seed: int = 0,
        backend: Any = None,
    ) -> None:
        if set(programs) != set(graph.nodes):
            raise SimulationError("every node needs exactly one program")
        self.graph = graph
        self.programs = programs
        self.run = run if run is not None else CongestRun(graph)
        self.network: NetworkModel = build_network_model(network)
        self.network.bind(graph, random.Random(net_seed))
        self.trace = trace
        self.backend: SimulationBackend = build_backend(backend)
        self.backend.bind(graph, programs, self.run, self.network, trace)

    # -- delegation to the execution engine ------------------------------

    @property
    def contexts(self) -> Dict[Node, Context]:
        """The per-node Context objects."""
        return self.backend.contexts

    @property
    def round(self) -> int:
        """The current round index (0 before the first step)."""
        return self.backend.round

    @property
    def all_halted(self) -> bool:
        """Every node has halted or been removed by the network model
        (crashed nodes count as terminated)."""
        return self.backend.all_halted

    @property
    def has_pending(self) -> bool:
        """Messages queued or in flight."""
        return self.backend.has_pending

    def start(self) -> None:
        """Run every program's on_start (round 0, local only)."""
        self.backend.start()

    def step(self) -> bool:
        """Execute one synchronous round; returns False when quiescent
        (no messages queued or in flight, and/or all nodes halted)."""
        return self.backend.step()

    def run_to_completion(self, max_rounds: int = 100_000) -> int:
        """start() + step() until quiescence; returns rounds executed.

        ``max_rounds`` is inclusive: quiescing in exactly ``max_rounds``
        rounds succeeds, and :class:`SimulationError` is raised as soon as
        the limit is reached with work still pending (never executing a
        ``max_rounds + 1``-th round).
        """
        return self.backend.run_to_completion(max_rounds=max_rounds)

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
