"""Least-element (LE) lists — the substrate of the [14] tree embedding.

Given a random rank order on the nodes, the LE list of a node ``v`` is

    LE(v) = { (wd(v, u), u) :  rank(u) > rank(w)
              for every w with wd(v, w) < wd(v, u) }

— the sequence of "record-rank" nodes by increasing distance. The level-i
ancestor of the tree embedding is exactly the highest-rank node within
distance β·2^i, which is an LE-list entry; Khan et al. compute the lists
distributively in O(s·log n) rounds w.h.p. and show |LE(v)| ∈ O(log n)
w.h.p., which is also why only O(log n) embedding paths cross any node.

This module computes LE lists both centrally, from one distance row
(the lists :mod:`repro.randomized.embedding` reads its ancestors off),
and via a round-counted distributed emulation (Bellman–Ford-style
relaxations where a node forwards only entries that survive its own
list — the standard algorithm). Both read a list off one walk of the
row's nodes in decreasing rank: u is in LE(v) exactly when wd(v, u) is
strictly below the distance of every higher-ranked node, so a running
minimum finds the entries and no row is sorted by distance. The
embedding walks its rank permutation backwards over rank-indexed rows;
the distributed pruning sorts a partial row's own keys by rank.
"""

import math
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.congest.run import CongestRun
from repro.model.graph import Node, WeightedGraph


def le_list_of_row(
    row: Union[Mapping[Node, int], Sequence[int]], descending: Iterable[Node]
) -> List[Tuple[int, Node]]:
    """The LE list of the node whose distance row is ``row``: its
    record-rank nodes in (distance, −rank) order.

    ``descending`` walks the keys of ``row`` in decreasing rank (nodes
    for a dict row, positions for a rank-indexed one). A node is
    a record exactly when its distance is strictly below that of every
    higher-ranked node, so one pass keeps a running minimum and needs no
    sort; it stops at the first distance-0 node, below which nothing can
    be closer.
    """
    result: List[Tuple[int, Node]] = []
    best = math.inf
    for u in descending:
        d = row[u]
        if d < best:
            best = d
            result.append((d, u))
            if not d:
                break
    result.reverse()
    return result


def _by_rank_descending(
    nodes: Iterable[Node], rank: Dict[Node, int]
) -> List[Node]:
    """``nodes`` in decreasing rank, the walk :func:`le_list_of_row` takes."""
    return sorted(nodes, key=rank.__getitem__, reverse=True)


def le_list_reference(
    graph: WeightedGraph, rank: Dict[Node, int], v: Node
) -> List[Tuple[int, Node]]:
    """LE(v) read off v's whole distance row (the lists the distributed
    emulation must reproduce)."""
    row = graph.all_pairs_distances([v])[v]
    return le_list_of_row(row, _by_rank_descending(row, rank))


def distributed_le_lists(
    graph: WeightedGraph,
    rank: Dict[Node, int],
    run: CongestRun,
) -> Dict[Node, List[Tuple[int, Node]]]:
    """Compute all LE lists with round-counted relaxations.

    Per round, every node whose list changed announces the changed entries
    to its neighbors; a received entry (d, u) survives at ``w`` iff no
    known node at distance < d + W(edge) has larger rank. Each announced
    entry is one O(log n)-bit message; per round a node sends the entries
    one by one (the O(log n) expected list length bounds the per-round
    congestion, matching the paper's O(s log n) bound w.h.p.).
    """
    lists: Dict[Node, Dict[Node, int]] = {
        v: {v: 0} for v in graph.nodes
    }

    def prune(v: Node) -> None:
        row = lists[v]
        lists[v] = {
            u: d
            for d, u in le_list_of_row(row, _by_rank_descending(row, rank))
        }

    changed = {v: dict(lists[v]) for v in graph.nodes}
    while any(changed.values()):
        # Entries travel one hop per round; multiple entries from the same
        # node are serialized (we charge one round per batch slot).
        max_batch = max(
            (len(entries) for entries in changed.values()), default=0
        )
        traffic = {}
        for v, entries in changed.items():
            if not entries:
                continue
            for u in graph.neighbors(v):
                traffic[(v, u)] = 1
        # One round per batch slot; every slot may carry one entry per edge.
        for _slot in range(max(1, max_batch)):
            run.tick(traffic)
        next_changed: Dict[Node, Dict[Node, int]] = {
            v: {} for v in graph.nodes
        }
        for v, entries in changed.items():
            for u in graph.neighbors(v):
                w_edge = graph.weight(v, u)
                for cand, d in entries.items():
                    nd = d + w_edge
                    if cand in lists[u] and lists[u][cand] <= nd:
                        continue
                    # Survives only if it would enter u's pruned list.
                    dominated = any(
                        dist < nd and rank[other] >= rank[cand]
                        for other, dist in lists[u].items()
                    )
                    if dominated:
                        continue
                    lists[u][cand] = nd
                    next_changed[u][cand] = nd
        for v in graph.nodes:
            prune(v)
            next_changed[v] = {
                u: d
                for u, d in next_changed[v].items()
                if lists[v].get(u) == d
            }
        changed = next_changed

    return {
        v: sorted(
            ((d, u) for u, d in lists[v].items()),
            key=lambda du: (du[0], repr(du[1])),
        )
        for v in graph.nodes
    }


def ancestor_from_le_list(
    le_list: List[Tuple[int, Node]], radius
) -> Optional[Node]:
    """The highest-rank node within ``radius``: the LAST list entry with
    distance ≤ radius (entries are rank-increasing in distance)."""
    best = None
    for d, u in le_list:
        if d <= radius:
            best = u
    return best
