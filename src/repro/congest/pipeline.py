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

from typing import Callable, Dict, Hashable, List, Mapping, Optional, Set, Tuple

from repro.congest.bfs import BFSTree
from repro.congest.run import CongestRun
from repro.model.graph import Node
from repro.perf.profiler import maybe_span


class MergeItem:
    """A candidate merge flowing through the filtered upcast.

    Attributes:
        key: a totally ordered tuple — for the paper's order this is
            (phase index, reduced weight, tie-break identifiers), cf.
            Lemma 4.13.
        a, b: the two entities (terminals / moat leaders) the merge joins;
            used for cycle filtering.
        payload: opaque data carried along (e.g. the inducing edge and path
            information); not part of the order.
    """

    __slots__ = ("key", "a", "b", "payload")

    def __init__(
        self, key: tuple, a: Hashable, b: Hashable, payload: object = None
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
            once, in increasing length.

    Returns the accepted merges in ascending order.

    Every key is ranked once on entry (one sort of the pooled items;
    equal keys share a rank), so the per-node state is integers only: a
    node keeps the first item to arrive for each rank (both directions
    of an edge may carry the same key) and its surviving ranks in
    ascending order, and the Kruskal filter runs over integer component
    ids and stops once every component is joined. All ledgers take this
    one path.
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
    pooled = [item for items in local_items.values() for item in items]
    keys = [item.key for item in pooled]
    rank = [0] * len(pooled)
    current, previous = -1, None
    for index in sorted(range(len(keys)), key=keys.__getitem__):
        if current < 0 or keys[index] != previous:
            current, previous = current + 1, keys[index]
        rank[index] = current
    entity_id = dict.fromkeys(e for item in pooled for e in (item.a, item.b))
    component_id: Dict[Hashable, int] = {}
    for e in entity_id:
        entity_id[e] = component_id.setdefault(
            base_component.get(e, e), len(component_id)
        )
    ends = [(entity_id[item.a], entity_id[item.b]) for item in pooled]
    joins_needed = len(component_id) - 1

    # seen[v]: rank → pooled index of the first item of that key to reach v.
    seen: Dict[Node, Dict[int, int]] = {v: {} for v in tree.parent}
    index = 0
    for v, items in local_items.items():
        for _ in items:
            seen[v].setdefault(rank[index], index)
            index += 1

    def kruskal(v: Node, ranks: List[int]) -> List[int]:
        """The ranks (ascending) that keep v's merges cycle-free."""
        first = seen[v]
        parent: Dict[int, int] = {}  # component roots are absent
        kept: List[int] = []
        for r in ranks:
            if len(kept) == joins_needed:
                break  # every component is joined: the rest close cycles
            x, y = ends[first[r]]
            while x in parent:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            while y in parent:
                parent[y] = parent.get(parent[y], parent[y])
                y = parent[y]
            if x != y:
                parent[x] = y
                kept.append(r)
        return kept

    # alive[v]: the cycle-free merges among all v has seen. Adding merges
    # never revives a discarded one (the discarded merge still closes its
    # cycle), so arrivals are filtered together with alive[v] alone.
    alive = {v: kruskal(v, sorted(first)) for v, first in seen.items()}
    # scan_from[v] skips the announced prefix of an unchanged alive[v];
    # pending holds the nodes that may still have something to announce.
    announced: Dict[Node, Set[int]] = {v: set() for v in tree.parent}
    scan_from = dict.fromkeys(tree.parent, 0)
    position = {v: i for i, v in enumerate(tree.parent)}
    pending = {v for v, kept in alive.items() if kept and v != tree.root}

    root_seen = seen[tree.root]
    checked = 0

    def stop_at(kept: List[int], finalized: int) -> Optional[List[MergeItem]]:
        # Offer each newly finalized prefix to the predicate once.
        nonlocal checked
        if stop_predicate is None or finalized <= checked:
            return None
        prefix = [pooled[root_seen[r]] for r in kept[:finalized]]
        for cut in range(checked + 1, finalized + 1):
            if stop_predicate(prefix[:cut]):
                return prefix[:cut]
        checked = finalized
        return None

    rounds_in_primitive = 0
    while True:
        # Root-side early stop on the finalized prefix.
        root_alive = alive[tree.root]
        stopped = stop_at(
            root_alive,
            min(max(0, rounds_in_primitive - tree.depth), len(root_alive)),
        )
        if stopped is not None:
            run.charge_rounds(
                tree.depth, "phase-end stop broadcast (Cor. 4.16)"
            )
            return stopped

        # Senders go in tree order: it decides which of two equal keys
        # reaching one parent in the same round arrives first.
        arrivals: List[Tuple[Node, Node, int, int]] = []
        for v in sorted(pending, key=position.__getitem__):
            kept, done = alive[v], announced[v]
            at = scan_from[v]
            while at < len(kept) and kept[at] in done:
                at += 1
            scan_from[v] = at
            if at == len(kept):
                pending.discard(v)
                continue
            r = kept[at]
            done.add(r)
            arrivals.append((v, tree.parent[v], r, seen[v][r]))

        if not arrivals:
            # Sends depend only on the alive lists and the announced sets,
            # and alive lists change only through sends — one quiet round
            # means the system is quiescent. Charge O(depth) for the
            # convergecast that detects this (Lemma 4.14's termination
            # detection).
            run.charge_rounds(
                tree.depth, "termination detection (Lemma 4.14)"
            )
            final = alive[tree.root]
            stopped = stop_at(final, len(final))
            if stopped is not None:
                return stopped
            return [pooled[root_seen[r]] for r in final]

        rounds_in_primitive += 1
        run.tick({(v, p): 1 for v, p, _, _ in arrivals})
        fresh: Dict[Node, List[int]] = {}
        for _, parent, r, index in arrivals:
            first = seen[parent]
            if r not in first:
                first[r] = index
                fresh.setdefault(parent, []).append(r)
        for v, ranks in fresh.items():
            alive[v] = kruskal(v, sorted(alive[v] + ranks))
            scan_from[v] = 0
            if v != tree.root:
                pending.add(v)
