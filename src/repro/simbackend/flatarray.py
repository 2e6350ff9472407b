"""The flat-array execution engine: a batched, integer-indexed fast path.

The reference engine pays for generality on every message: tuple dict
keys, a payload-blind sort that calls ``node_sort_key`` twice per entry,
``has_edge`` lookups, per-message ledger validation with ``repr``-based
canonical edges, and JSON-encoding payload sizes even when nobody reads
them. This engine compiles all of that away at bind time:

* the topology becomes CSR-style integer indices — every directed edge
  gets an id assigned in canonical ``(node_sort_key(sender),
  node_sort_key(receiver))`` order, so *sorting plain ints* reproduces
  the reference flush order exactly;
* the outbox is one preallocated payload slot per directed edge plus a
  list of touched edge ids (duplicate sends and non-edges are caught in
  O(1) at ``send`` time);
* ledger traffic updates use precomputed canonical edges (no ``repr``
  per message), and payload bit-sizes are only computed when a trace
  recorder is attached (the only consumer);
* the clean ``reliable`` channel skips the per-message ``schedule``
  call entirely — delivery lands in the current round by definition.

The observable execution — rounds, ledger state, network stats, trace
events, inbox order, final program states — is identical to the
reference engine for every network model; the conformance suite pins
this across the full NodeProgram × graph family × network model matrix.
"""

from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import CongestViolationError, SimulationError
from repro.model.graph import Node, WeightedGraph
from repro.netmodel import (
    NetworkModel,
    ReliableSynchronous,
    TraceRecorder,
    node_sort_key,
    payload_bits,
)
from repro.simbackend.base import Context, SimulationBackend, register_backend

#: Sentinel marking an empty outbox slot (payloads may legally be None).
_UNSET = object()


class _FlatContext(Context):
    """Context with O(1) integer-indexed send/halt paths."""

    def __init__(
        self,
        backend: "FlatArrayBackend",
        node: Node,
        idx: int,
        eids: Dict[Node, int],
    ) -> None:
        super().__init__(backend, node)
        self._idx = idx
        self._eids = eids

    def send(self, neighbor: Node, payload: Any) -> None:
        """Queue one message for delivery next round (≤ 1 per neighbor)."""
        eid = self._eids.get(neighbor)
        if eid is None:
            raise CongestViolationError(
                f"{self.node_id!r} cannot reach non-neighbor {neighbor!r}"
            )
        outbox = self._simulator._outbox_payload
        if outbox[eid] is not _UNSET:
            raise CongestViolationError(
                f"{self.node_id!r} already sent to {neighbor!r} this round"
            )
        outbox[eid] = payload
        self._simulator._sent.append(eid)

    def halt(self) -> None:
        """Mark this node as explicitly terminated."""
        self._simulator._halt_idx(self._idx)


@register_backend
class FlatArrayBackend(SimulationBackend):
    """Batched executor over a compiled integer-indexed topology."""

    name = "flatarray"

    def bind(
        self,
        graph: WeightedGraph,
        programs: Dict[Node, Any],
        run: Any,
        network: NetworkModel,
        trace: Optional[TraceRecorder],
    ) -> None:
        """Compile the topology to integer-indexed arrays and attach."""
        super().bind(graph, programs, run, network, trace)
        nodes = graph.nodes
        n = len(nodes)
        self._nodes = nodes
        index = {v: i for i, v in enumerate(nodes)}
        # Per-node key/repr caches: the compile below touches every
        # directed edge, so sort keys and canonical-edge reprs are
        # computed once per node, not once per edge.
        sort_keys = {v: node_sort_key(v) for v in nodes}
        reprs = {v: repr(v) for v in nodes}
        # Directed-edge ids in canonical flush order: ascending eid ==
        # ascending (node_sort_key(sender), node_sort_key(receiver)), so
        # an integer sort of touched eids replays the reference order.
        by_key = sorted(range(n), key=lambda i: sort_keys[nodes[i]])
        eid_sender: List[Node] = []
        eid_receiver: List[Node] = []
        eid_receiver_idx: List[int] = []
        eid_canon: List[Tuple[Node, Node]] = []
        eids_of: Dict[Node, Dict[Node, int]] = {v: {} for v in nodes}
        for si in by_key:
            sender = nodes[si]
            sender_repr = reprs[sender]
            for receiver in sorted(
                graph.neighbors(sender), key=sort_keys.__getitem__
            ):
                eids_of[sender][receiver] = len(eid_sender)
                eid_sender.append(sender)
                eid_receiver.append(receiver)
                eid_receiver_idx.append(index[receiver])
                # canonical_edge(sender, receiver) with cached reprs.
                eid_canon.append(
                    (sender, receiver)
                    if sender_repr <= reprs[receiver]
                    else (receiver, sender)
                )
        self._eid_sender = eid_sender
        self._eid_receiver = eid_receiver
        self._eid_receiver_idx = eid_receiver_idx
        self._eid_canon = eid_canon
        self._outbox_payload: List[Any] = [_UNSET] * len(eid_sender)
        self._sent: List[int] = []
        #: Scheduled messages by absolute delivery round, in flush order:
        #: (sender node, receiver index, payload).
        self._in_flight: Dict[int, List[Tuple[Node, int, Any]]] = {}
        self._halted = bytearray(n)
        self._halted_count = 0
        self._program_list = [programs[v] for v in nodes]
        self.contexts = {
            v: _FlatContext(self, v, i, eids_of[v]) for i, v in enumerate(nodes)
        }
        self._context_list = [self.contexts[v] for v in nodes]
        # The clean channel's schedule() is the identity — skip the call.
        self._reliable_fast = type(network) is ReliableSynchronous

    # -- internal hooks --------------------------------------------------

    def _queue_message(self, sender: Node, receiver: Node, payload: Any) -> None:
        # Generic path (only hit if someone bypasses _FlatContext).
        self.contexts[sender].send(receiver, payload)

    def _halt(self, node: Node) -> None:
        self._halt_idx(self.contexts[node]._idx)

    def _halt_idx(self, idx: int) -> None:
        if not self._halted[idx]:
            self._halted[idx] = 1
            self._halted_count += 1

    # -- execution -------------------------------------------------------

    @property
    def all_halted(self) -> bool:
        """Every node has halted or been removed by the network model."""
        if self._halted_count == len(self._nodes):
            return True
        if not self.network.removes_nodes:
            return False
        halted, alive = self._halted, self.network.alive
        return all(
            halted[i] or not alive(v) for i, v in enumerate(self._nodes)
        )

    @property
    def has_pending(self) -> bool:
        """Messages queued (touched edge ids) or in flight."""
        return bool(self._sent) or bool(self._in_flight)

    def start(self) -> None:
        """Run every program's on_start (round 0, local only)."""
        for program, ctx in zip(self._program_list, self._context_list):
            program.on_start(ctx)

    def step(self) -> bool:
        """Execute one synchronous round; returns False when quiescent."""
        if not self.has_pending or self.all_halted:
            return False
        self.round = r = self.round + 1
        network = self.network
        network.begin_round(r)
        run = self.run
        trace = self.trace
        removes_nodes = network.removes_nodes
        # Ascending edge id is the canonical flush order: ascending
        # (sender key, receiver key) by construction.
        sent = self._sent
        sent.sort()
        self._sent = []
        outbox = self._outbox_payload
        senders = self._eid_sender
        receivers = self._eid_receiver
        ridxs = self._eid_receiver_idx
        canon = self._eid_canon
        # Messages delayed from earlier rounds arrive before this round's
        # flush, exactly as in the reference in-flight ordering.
        due = self._in_flight.pop(r, [])
        #: eids whose message actually hit the wire (ledger traffic).
        charged: List[int]
        if self._reliable_fast and not removes_nodes and trace is None:
            # Hottest path: clean channel, nobody watching per-message.
            for eid in sent:
                payload = outbox[eid]
                outbox[eid] = _UNSET
                due.append((senders[eid], ridxs[eid], payload))
            charged = sent
        else:
            charged = []
            for eid in sent:
                payload = outbox[eid]
                outbox[eid] = _UNSET
                sender = senders[eid]
                receiver = receivers[eid]
                if removes_nodes and not network.alive(sender):
                    network.stats["lost_sender_crashed"] += 1
                    if trace is not None:
                        trace.record_lost(r, sender, receiver, "sender_crashed")
                    continue
                if self._reliable_fast:
                    delivery_rounds: Any = (r,)
                else:
                    delivery_rounds = network.schedule(sender, receiver, payload, r)
                charged.append(eid)
                for when in delivery_rounds:
                    if when < r:
                        raise SimulationError(
                            f"network model {network.name!r} scheduled a "
                            f"delivery in the past (round {when} < {r})"
                        )
                    if when == r:
                        due.append((sender, ridxs[eid], payload))
                    else:
                        self._in_flight.setdefault(when, []).append(
                            (sender, ridxs[eid], payload)
                        )
                if trace is not None:
                    trace.record_send(r, sender, receiver, payload, delivery_rounds)
        # Charge the ledger only after the whole flush succeeded —
        # reference calls run.tick(traffic) after _flush_outbox, so a
        # network model raising mid-flush (e.g. strict BandwidthCap)
        # must leave the ledger untouched here too. tick_edges advances
        # the round and applies the precomputed canonical edges — the
        # same end state as tick(traffic).
        sent_count = len(charged)
        run.tick_edges([canon[eid] for eid in charged])
        # Delivery: group due messages into per-receiver inboxes.
        nodes = self._nodes
        inboxes: Dict[int, List[Tuple[Node, Any]]] = {}
        delivered = dropped = bits = 0
        for sender, ridx, payload in due:
            if removes_nodes and not network.alive(nodes[ridx]):
                dropped += 1
                network.stats["lost_receiver_crashed"] += 1
                if trace is not None:
                    trace.record_lost(r, sender, nodes[ridx], "receiver_crashed")
                continue
            bucket = inboxes.get(ridx)
            if bucket is None:
                inboxes[ridx] = [(sender, payload)]
            else:
                bucket.append((sender, payload))
            delivered += 1
            if trace is not None:
                bits += payload_bits(payload)
        # Dispatch in node order (same as the reference engine).
        halted = self._halted
        contexts = self._context_list
        program_list = self._program_list
        get_inbox = inboxes.get
        if removes_nodes:
            alive = network.alive
            for i, program in enumerate(program_list):
                if halted[i] or not alive(nodes[i]):
                    continue
                ctx = contexts[i]
                ctx.round = r
                program.on_round(ctx, get_inbox(i) or [])
        else:
            for i, program in enumerate(program_list):
                if halted[i]:
                    continue
                ctx = contexts[i]
                ctx.round = r
                program.on_round(ctx, get_inbox(i) or [])
        if trace is not None:
            trace.record_round(r, sent_count, delivered, dropped, bits)
        return True
