"""Pipelined, filtered upcast of candidate merges (Lemma 4.14 machinery).

The deterministic algorithm repeatedly collects, at a BFS root, the ascending
sequence of *candidate merges* while discarding those that close cycles in
the candidate multigraph — exactly the MST edge-elimination procedure of
Garay–Kutten–Peleg [11, 16] that the paper re-uses:

1. each node scans its buffer in ascending order and deletes merges closing
   a cycle with the union of the already fixed forest F'_c and the smaller
   merges it currently believes in;
2. it announces the least-weight unannounced surviving merge to its parent;
3. buffers accumulate received merges.

Pipelining guarantees that after ``depth + i`` rounds the ``i`` smallest
surviving merges have reached the root, giving O(D + |result|) rounds overall
(Corollary 4.16 additionally stops early at a phase boundary, which the
``stop_predicate`` hook implements).
"""

from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.congest.bfs import BFSTree, TreeUpEdges
from repro.congest.run import CongestRun
from repro.model.graph import Edge, Node
from repro.perf.profiler import maybe_span


class MergeItem:
    """A candidate merge flowing through the filtered upcast.

    Attributes:
        key: any totally ordered, hashable value; equal keys are one
            merge to the order. The distributed solver passes one int
            per candidate, its Lemma 4.13 order
            (:class:`repro.core.distributed.CandidateOrder`).
        a, b: the two entities (terminals / moat leaders) the merge joins;
            used for cycle filtering.
        payload: opaque data carried along (e.g. the inducing edge and path
            information); not part of the order.
    """

    __slots__ = ("key", "a", "b", "payload")

    def __init__(
        self, key: Any, a: Hashable, b: Hashable, payload: object = None
    ) -> None:
        self.key = key
        self.a = a
        self.b = b
        self.payload = payload

    def __lt__(self, other: "MergeItem") -> bool:
        return self.key < other.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MergeItem) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MergeItem(key={self.key!r}, {self.a!r}–{self.b!r})"


def pipelined_filtered_upcast(
    tree: BFSTree,
    local_items: Dict[Node, List[MergeItem]],
    base_component: Mapping[Hashable, Hashable],
    run: CongestRun,
    stop_predicate: Optional[Callable[[List[MergeItem]], bool]] = None,
) -> List[MergeItem]:
    """Collect the ascending cycle-free merge sequence at the root.

    Args:
        tree: BFS tree used for the convergecast.
        local_items: candidate merges initially known per node (Ec(u)).
        base_component: entity → component under the fixed forest F'_c;
            merges internal to one component are filtered immediately.
        run: ledger to charge rounds against.
        stop_predicate: called on each *finalized* ascending prefix of
            accepted merges; once it returns True the collection stops and
            exactly that prefix is returned (Corollary 4.16's early stop at
            the end of a merge phase). Prefixes are finalized using the
            pipelining invariant: after depth + i rounds the i smallest
            surviving merges are at the root, so each prefix is offered
            once, in increasing length, each extending the last by one
            merge. Callers may rely on this: the distributed solver's
            predicate applies only the newest merge of each prefix.

    Returns the accepted merges in ascending order.

    Keys are compared as they are: equal keys are one entry of a
    node's state, which keeps the first item to arrive for each key
    (both directions of an edge may carry the same key), its surviving
    keys in ascending order, and the unannounced ones among them. Each
    arrival filters the node's survivors and the fresh keys Kruskal
    style over integer component ids: keys above every survivor extend
    the node's forest, other arrivals rebuild it, and the filter stops
    once every component is joined. A round visits only the nodes with
    something to announce, and charges the senders' tree edges,
    resolved once, through
    :meth:`~repro.congest.run.CongestRun.tick_edges`. All ledgers take
    this one path.

    The cost is per pooled item, so a caller that knows a node's entry
    filter discards an item should not pass it: the distributed solver
    hands over only each node's least candidate per other moat
    component (:mod:`repro.core.distributed`, step (b)).
    """
    profiler = getattr(run, "profiler", None)
    with maybe_span(profiler, "pipelined-upcast"):
        return _pipelined_filtered_upcast(
            tree, local_items, base_component, run, stop_predicate
        )


def _pipelined_filtered_upcast(
    tree: BFSTree,
    local_items: Dict[Node, List[MergeItem]],
    base_component: Mapping[Hashable, Hashable],
    run: CongestRun,
    stop_predicate: Optional[Callable[[List[MergeItem]], bool]],
) -> List[MergeItem]:
    pooled = list(chain.from_iterable(local_items.values()))
    ent_a = list(map(attrgetter("a"), pooled))
    ent_b = list(map(attrgetter("b"), pooled))
    entity_id = dict.fromkeys(chain(ent_a, ent_b))
    component_id: Dict[Hashable, int] = {}
    for e in entity_id:
        entity_id[e] = component_id.setdefault(
            base_component.get(e, e), len(component_id)
        )
    to_id = entity_id.__getitem__
    tails, heads = list(map(to_id, ent_a)), list(map(to_id, ent_b))
    joins_needed = len(component_id) - 1
    singletons = list(range(len(component_id)))

    def kruskal(buffer: _Buffer, fresh: List[Any]) -> None:
        """Filter the node's merges after the ``fresh`` keys (sorted)
        reached it."""
        first, kept = buffer.first, buffer.kept
        if not kept or fresh[0] > kept[-1]:
            joins = joins_needed - len(kept)
            if not joins:
                return  # every component is joined: the rest close cycles
            parent, ordered, grown = buffer.forest, fresh, []
        else:
            joins = joins_needed
            parent, ordered, grown = singletons.copy(), sorted(kept + fresh), []
        for key in ordered:
            i = first[key]
            x, y = tails[i], heads[i]
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[x] = y
                grown.append(key)
                joins -= 1
                if not joins:
                    break  # every component is joined: the rest close cycles
        if ordered is fresh:  # none announced, all above the kept ones
            kept += grown
            grown.reverse()
            buffer.todo[:0] = grown
        else:
            # A discarded merge never returns, so the announced keys
            # among ``grown`` are the kept ones no longer to do.
            done = set(kept).difference(buffer.todo)
            buffer.kept, buffer.forest = grown, parent
            buffer.todo = [key for key in reversed(grown) if key not in done]

    # Per-node state, only for the nodes that hold or receive items.
    buffers: Dict[Node, _Buffer] = {}
    start = 0
    for v, items in local_items.items():
        buffer = buffers[v] = _Buffer(singletons)
        first = buffer.first
        for item in items:
            first.setdefault(item.key, start)
            start += 1
        if first:
            kruskal(buffer, sorted(first))
    root = buffers.setdefault(tree.root, _Buffer(singletons))
    # pending: tree positions of the nodes with something to announce;
    # senders go in tree order.
    nodes = list(tree.parent)
    position = {v: i for i, v in enumerate(nodes)}
    pending = {
        position[v]
        for v, buffer in buffers.items()
        if buffer.todo and v != tree.root
    }
    parent_of = tree.parent
    up_edges = TreeUpEdges(tree, run)

    checked = 0

    def stop_at(kept: List[Any], finalized: int) -> Optional[List[MergeItem]]:
        # Offer each newly finalized prefix to the predicate once.
        nonlocal checked
        if stop_predicate is None or finalized <= checked:
            return None
        prefix = [pooled[root.first[key]] for key in kept[:finalized]]
        for cut in range(checked + 1, finalized + 1):
            if stop_predicate(prefix[:cut]):
                return prefix[:cut]
        checked = finalized
        return None

    rounds_in_primitive = 0
    while True:
        # Root-side early stop on the finalized prefix.
        stopped = stop_at(
            root.kept,
            min(max(0, rounds_in_primitive - tree.depth), len(root.kept)),
        )
        if stopped is not None:
            run.charge_rounds(
                tree.depth, "phase-end stop broadcast (Cor. 4.16)"
            )
            return stopped

        if not pending:
            # Sends depend only on the kept lists and what is announced,
            # and kept lists change only through sends — one quiet round
            # means the system is quiescent. Charge O(depth) for the
            # convergecast that detects this (Lemma 4.14's termination
            # detection).
            run.charge_rounds(
                tree.depth, "termination detection (Lemma 4.14)"
            )
            stopped = stop_at(root.kept, len(root.kept))
            if stopped is not None:
                return stopped
            return [pooled[root.first[key]] for key in root.kept]

        # Every pending node sends its least unannounced kept key; tree
        # order decides which of two equal keys reaching one parent in
        # the same round arrives first.
        sent: List[Edge] = []
        arrivals: List[Tuple[Node, Any, int]] = []
        for at_position in sorted(pending):
            v = nodes[at_position]
            buffer = buffers[v]
            todo = buffer.todo
            key = todo.pop()
            if not todo:
                pending.discard(at_position)
            sent.append(up_edges[v])
            arrivals.append((parent_of[v], key, buffer.first[key]))
        rounds_in_primitive += 1
        run.tick_edges(sent)

        fresh: Dict[Node, List[Any]] = {}
        for v, key, index in arrivals:
            buffer = buffers.get(v)
            if buffer is None:
                buffer = buffers[v] = _Buffer(singletons)
            first = buffer.first
            if key not in first:
                first[key] = index
                held = fresh.get(v)
                if held is None:
                    fresh[v] = [key]
                else:
                    held.append(key)
        # A filter that changes a node's kept keys keeps a fresh one, so
        # it never empties a pending node's todo.
        for v, held in fresh.items():
            buffer = buffers[v]
            held.sort()
            kruskal(buffer, held)
            if buffer.todo and v != tree.root:
                pending.add(position[v])


class _Buffer:
    """One node's state in the filtered upcast.

    Attributes:
        first: key → pooled index of the first item of that key to
            reach the node.
        kept: the keys of the cycle-free merges among all the node has
            seen, ascending. Adding merges never revives a discarded one
            (the discarded merge still closes its cycle), so arrivals
            are filtered together with ``kept`` alone.
        forest: union-find parents over the component ids, joined by
            the merges of ``kept``.
        todo: the keys of ``kept`` not yet announced to the parent,
            descending.
    """

    __slots__ = ("first", "kept", "forest", "todo")

    def __init__(self, singletons: List[int]) -> None:
        self.first: Dict[Any, int] = {}
        self.kept: List[Any] = []
        self.forest = singletons.copy()
        self.todo: List[Any] = []
