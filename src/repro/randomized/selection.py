"""First-stage edge selection over the virtual tree (Section 5, Steps 1–4).

Per level i, every *carrier* node v (initially the terminals, each carrying
its own label) sends a message (λ, w) towards its routing target
w = A_i(v) — or its closest S node when the ancestor chain is truncated —
along the least-weight path fixed by the tree construction. Messages are
filtered en route: each node forwards at most one message per (label,
destination) pair, so per destination only O(s + k) message-steps occur, and
since each node lies on only O(log n) distinct embedding paths w.h.p.,
round-robin time-multiplexing over destinations yields Õ(s + k) rounds per
level (the paper's key pipelining insight). Every edge a message traverses
enters the output F; at each destination one carrier per label survives
(Step 3d), which consolidates labels up the tree.

The module simulates the routing message-by-message with per-destination
queues, measures the parallel round count R and the realized multiplexing
factor (max destinations served by one node), and charges R × multiplex
rounds — set ``naive=True`` to instead force one message per node per round
(the Õ(sk) behaviour of [14] that experiment E11 contrasts).
"""

from collections import deque
from typing import Deque, Dict, FrozenSet, Hashable, List, Set, Tuple

from repro.congest.bfs import build_bfs_tree
from repro.congest.run import CongestRun
from repro.model.graph import Edge, Node, canonical_edge
from repro.model.instance import SteinerForestInstance
from repro.randomized.embedding import VirtualTreeEmbedding

Label = Hashable


class FirstStageResult:
    """Outcome of the first stage.

    Attributes:
        edges: the selected edge set F.
        carriers: label → set of carrier nodes still holding the label
            after the last level (singletons for resolved labels).
        resolved: labels whose terminals are all connected by F.
        routing_rounds: Σ over levels of the parallel routing rounds R_i.
        multiplex_factor: max number of distinct destinations any node
            served in one level (the paper's O(log n) quantity).
    """

    def __init__(
        self,
        edges: FrozenSet[Edge],
        carriers: Dict[Label, Set[Node]],
        resolved: Set[Label],
        routing_rounds: int,
        multiplex_factor: int,
    ) -> None:
        self.edges = edges
        self.carriers = carriers
        self.resolved = resolved
        self.routing_rounds = routing_rounds
        self.multiplex_factor = multiplex_factor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FirstStageResult(|F|={len(self.edges)}, "
            f"resolved={len(self.resolved)}, mux={self.multiplex_factor})"
        )


class _Message:
    __slots__ = ("label", "dest", "origin", "path", "pos")

    def __init__(
        self, label: Label, dest: Node, origin: Node, path: List[Node]
    ) -> None:
        self.label = label
        self.dest = dest
        self.origin = origin
        self.path = path
        self.pos = 0  # index into path of the current holder


def _route_level(
    graph,
    sends: List[Tuple[Node, Label, Node]],
    edges: Set[Edge],
    naive: bool,
) -> Tuple[Dict[Node, Dict[Label, Node]], Dict[Node, List[Node]], int, int]:
    """Simulate Step 3c's filtered routing for one level.

    Args:
        sends: (carrier, label, destination) triples.
        edges: the global F under construction (traversed edges are added).
        naive: one message per node per round (no per-destination
            multiplexing) when True.

    Returns (delivered, backtrace_path, rounds, multiplex):
        delivered: destination → {label → first-delivering origin}.
        backtrace_path: destination → path of the first delivered message.
        rounds: parallel rounds until quiescence.
        multiplex: max distinct destinations one node forwarded for.
    """
    # Per-node, per-destination FIFO queues.
    queues: Dict[Node, Dict[Node, Deque[_Message]]] = {}
    forwarded: Dict[Node, Set[Tuple[Label, Node]]] = {}
    served: Dict[Node, Set[Node]] = {}
    delivered: Dict[Node, Dict[Label, Node]] = {}
    backtrace: Dict[Node, List[Node]] = {}

    def enqueue(msg: _Message) -> None:
        holder = msg.path[msg.pos]
        if holder == msg.dest:
            dest_map = delivered.setdefault(msg.dest, {})
            if msg.label not in dest_map:
                dest_map[msg.label] = msg.origin
                backtrace.setdefault(msg.dest, msg.path)
            return
        key = (msg.label, msg.dest)
        if key in forwarded.setdefault(holder, set()):
            return  # filtered: an identical (λ, w) already went through
        forwarded[holder].add(key)
        queues.setdefault(holder, {}).setdefault(
            msg.dest, deque()
        ).append(msg)

    # Paths towards a common destination w follow w's shortest-path
    # in-tree ("the messages induce a tree rooted at w in G"), so the
    # per-(λ, w) filtering can never strand a label: each filtering point
    # lies on the path of an earlier message that is strictly closer to w.
    for carrier, label, dest in sorted(sends, key=repr):
        if carrier == dest:
            dest_map = delivered.setdefault(dest, {})
            dest_map.setdefault(label, carrier)
            backtrace.setdefault(dest, [carrier])
            continue
        path = graph.shortest_path(dest, carrier)[::-1]
        enqueue(_Message(label, dest, carrier, path))

    rounds = 0
    while any(q for per_dest in queues.values() for q in per_dest.values()):
        rounds += 1
        moves: List[_Message] = []
        for holder in sorted(queues, key=repr):
            per_dest = queues[holder]
            dests = [w for w in sorted(per_dest, key=repr) if per_dest[w]]
            if not dests:
                continue
            if naive:
                dests = dests[:1]  # one message per node per round, total
            for w in dests:
                served.setdefault(holder, set()).add(w)
                moves.append(per_dest[w].popleft())
        for msg in moves:
            a, b = msg.path[msg.pos], msg.path[msg.pos + 1]
            edges.add(canonical_edge(a, b))
            msg.pos += 1
            enqueue(msg)
    multiplex = max((len(ws) for ws in served.values()), default=1)
    return delivered, backtrace, rounds, multiplex


def first_stage_selection(
    instance: SteinerForestInstance,
    embedding: VirtualTreeEmbedding,
    run: CongestRun,
    naive: bool = False,
) -> FirstStageResult:
    """Run the first stage, charging measured rounds to ``run``.

    Returns the selected edge set F with carrier bookkeeping. With
    ``naive=True`` the per-destination pipelining is disabled, reproducing
    the Õ(sk) routing of [14] for the ablation experiment.
    """
    graph = instance.graph
    tree = build_bfs_tree(graph, run)
    carriers: Dict[Node, Set[Label]] = {}
    for v in sorted(instance.terminals, key=repr):
        carriers[v] = {instance.label(v)}

    all_labels = set(instance.labels.values())
    resolved: Set[Label] = set()
    edges: Set[Edge] = set()
    total_routing = 0
    max_multiplex = 1

    for level in range(embedding.levels):
        # Step 3a: detect single-carrier labels over the BFS tree — at most
        # two witness messages per label (Lemma G.3), O(D + k) rounds.
        run.charge_rounds(
            2 * tree.depth + 2 * max(1, len(all_labels)),
            "single-carrier detection (Lemma G.3)",
        )
        counts: Dict[Label, int] = {}
        for held in carriers.values():
            for label in held:
                counts[label] = counts.get(label, 0) + 1
        for v in list(carriers):
            kept = {
                label for label in carriers[v] if counts.get(label, 0) >= 2
            }
            for label in carriers[v] - kept:
                resolved.add(label)
            carriers[v] = kept

        # Step 3b/3c: route (λ, target) messages with filtering.
        sends: List[Tuple[Node, Label, Node]] = []
        for v, held in carriers.items():
            if not held:
                continue
            target, _ = embedding.ancestor_at(v, level)
            for label in sorted(held, key=repr):
                sends.append((v, label, target))
        if not sends:
            break
        delivered, backtrace, rounds, multiplex = _route_level(
            graph, sends, edges, naive
        )
        total_routing += rounds
        max_multiplex = max(max_multiplex, multiplex)
        run.charge_rounds(
            max(1, rounds) * (1 if naive else max(1, multiplex)),
            "filtered routing to level targets (Step 3c)",
        )

        # Step 3d: each destination hands its accumulated labels to one
        # carrier (the first arrival), by backtracing the recorded path.
        new_carriers: Dict[Node, Set[Label]] = {}
        backtrace_cost = 0
        for dest in sorted(delivered, key=repr):
            labels_here = delivered[dest]
            chosen = min(labels_here.values(), key=repr)
            new_carriers.setdefault(chosen, set()).update(labels_here)
            backtrace_cost = max(
                backtrace_cost,
                len(backtrace.get(dest, [])) + len(labels_here),
            )
        run.charge_rounds(
            max(1, backtrace_cost) * max(1, max_multiplex if not naive else 1),
            "carrier hand-off by backtracing (Step 3d)",
        )
        carriers = new_carriers

    final: Dict[Label, Set[Node]] = {label: set() for label in all_labels}
    for v, held in carriers.items():
        for label in held:
            final[label].add(v)
    for label, holders in final.items():
        if len(holders) <= 1:
            resolved.add(label)
    return FirstStageResult(
        frozenset(edges), final, resolved, total_routing, max_multiplex
    )
