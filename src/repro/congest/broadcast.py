"""Tree communication primitives: broadcast, convergecast, pipelined upcast.

These are the workhorses behind the paper's O(D + k) / O(D + t) style steps:
moving ``m`` distinct O(log n)-bit items between the root and all nodes over
a BFS tree takes depth + m rounds with pipelining (one item per tree edge per
round). All three primitives simulate the communication round-by-round and
charge the enclosing :class:`~repro.congest.run.CongestRun`.
"""

from bisect import insort
from collections import deque
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple, TypeVar

from repro.congest.bfs import BFSTree
from repro.congest.run import CongestRun
from repro.model.graph import Node

Item = TypeVar("Item")


def broadcast_items(
    tree: BFSTree,
    items: Iterable[Item],
    run: CongestRun,
) -> List[Item]:
    """Pipelined broadcast of a sequence of items from the root to all nodes.

    Completes in depth + |items| rounds: the root injects one item per round
    and every internal node forwards one item per round to each child (the
    same item to all children — one message per edge, respecting CONGEST).

    Returns the broadcast items as a list (what every node now knows).
    """
    items = list(items)
    if not items or tree.depth == 0:
        # Nothing to send or a single-node tree: knowledge is already local.
        return items
    if getattr(run, "npc", None) is not None:
        from repro.perf.npkernels import broadcast_items_numpy

        return broadcast_items_numpy(tree, items, run)
    top_down = tree.nodes_top_down()
    queue: Dict[Node, deque] = {v: deque() for v in tree.parent}
    queue[tree.root].extend(items)
    while True:
        traffic: Dict[Tuple[Node, Node], int] = {}
        deliveries: List[Tuple[Node, Item]] = []
        for v in top_down:
            if queue[v] and tree.children[v]:
                item = queue[v].popleft()
                for child in tree.children[v]:
                    traffic[(v, child)] = 1
                    deliveries.append((child, item))
            elif queue[v] and not tree.children[v]:
                queue[v].popleft()  # leaf consumes the item locally
        if not traffic and not any(queue[v] for v in queue):
            break
        run.tick(traffic)
        for child, item in deliveries:
            queue[child].append(item)
    return items


def convergecast_aggregate(
    tree: BFSTree,
    values: Dict[Node, Item],
    combine: Callable[[Item, Item], Item],
    run: CongestRun,
) -> Item:
    """Aggregate one value per node up to the root in depth rounds.

    ``combine`` must be associative and commutative, and the combined value
    must still fit in one message (e.g. min, max, sum of O(log n)-bit
    numbers). Returns the aggregate of all values.

    A :class:`~repro.perf.npkernels.NumpyCongestRun` replaces the
    per-round bottom-up re-sort with a precomputed subtree-height
    schedule; the combine order, rounds, and ledger end state are
    identical (tests/test_npkernels.py).
    """
    if getattr(run, "npc", None) is not None:
        from repro.perf.npkernels import convergecast_aggregate_numpy

        return convergecast_aggregate_numpy(tree, values, combine, run)
    acc: Dict[Node, Item] = dict(values)
    waiting: Dict[Node, int] = {
        v: len(tree.children[v]) for v in tree.parent
    }
    sent: Set[Node] = set()
    while True:
        traffic: Dict[Tuple[Node, Node], int] = {}
        arrivals: List[Tuple[Node, Item]] = []
        for v in tree.nodes_bottom_up():
            if v == tree.root or v in sent or waiting[v] > 0:
                continue
            parent = tree.parent[v]
            assert parent is not None
            traffic[(v, parent)] = 1
            arrivals.append((parent, acc[v]))
            sent.add(v)
        if not traffic:
            break
        run.tick(traffic)
        for parent, value in arrivals:
            acc[parent] = combine(acc[parent], value)
            waiting[parent] -= 1
    return acc[tree.root]


def upcast_items(
    tree: BFSTree,
    local_items: Dict[Node, Iterable[Item]],
    run: CongestRun,
    key: Optional[Callable[[Item], Hashable]] = None,
) -> List[Item]:
    """Pipelined collection of all distinct items at the root.

    Every node holds a buffer of items (its own plus everything received
    from children) and forwards one not-yet-forwarded item per round to its
    parent, skipping duplicates (two items are duplicates when ``key`` maps
    them to the same value; by default the items themselves are compared).
    With ``m`` distinct items the collection finishes in O(depth + m) rounds
    — the pipelining argument of Lemma 4.14 / the MST filtering of [11, 16].

    Returns the distinct items known to the root, in sorted order.

    Buffers are kept sorted incrementally: entries are ``(repr(item),
    sequence, item)`` triples placed by ``insort``, ``repr`` computed
    once per item, and the global arrival sequence breaks ``repr`` ties
    the way a stable per-round ``sorted(buffer, key=repr)`` would.
    """
    if key is None:
        key = lambda item: item  # noqa: E731 - identity key
    buffers: Dict[Node, List[Tuple[str, int, Item]]] = {
        v: [] for v in tree.parent
    }
    seen: Dict[Node, Set[Hashable]] = {v: set() for v in tree.parent}
    forwarded: Dict[Node, Set[Hashable]] = {v: set() for v in tree.parent}
    sequence = 0
    for v, items in local_items.items():
        for item in items:
            k = key(item)
            if k not in seen[v]:
                seen[v].add(k)
                insort(buffers[v], (repr(item), sequence, item))
                sequence += 1
    while True:
        traffic: Dict[Tuple[Node, Node], int] = {}
        arrivals: List[Tuple[Node, str, Item]] = []
        for v in tree.parent:
            if v == tree.root:
                continue
            for item_repr, _, item in buffers[v]:
                if key(item) not in forwarded[v]:
                    break
            else:
                continue
            parent = tree.parent[v]
            assert parent is not None
            forwarded[v].add(key(item))
            traffic[(v, parent)] = 1
            arrivals.append((parent, item_repr, item))
        if not traffic:
            break
        run.tick(traffic)
        for parent, item_repr, item in arrivals:
            k = key(item)
            if k not in seen[parent]:
                seen[parent].add(k)
                insort(buffers[parent], (item_repr, sequence, item))
                sequence += 1
    return [item for _, _, item in buffers[tree.root]]
