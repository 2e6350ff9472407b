"""Centralized moat growing — Algorithm 1 of the paper (Appendix C).

All terminals grow *moats* (weighted balls) around themselves at unit rate.
When two moats touch, growth pauses, the edges of a least-weight path
connecting two terminals of the touching moats are emitted (cycle-closing
edges dropped), and the moats merge. A merged moat stays *active* while some
input component is split between it and the rest of the graph; once a moat
contains all terminals of every label it touches, it goes inactive and stops
growing. The minimal feasible subforest of the emitted edges is a
2-approximation (Theorem 4.1).

The implementation works directly with terminal-to-terminal distances: moats
of active terminals ``v, w`` in different moats touch after additional growth

    µ = (wd(v, w) − rad(v) − rad(w)) / 2          (both active)
    µ =  wd(v, w) − rad(v) − rad(w)               (exactly one active)

so each iteration picks the globally minimal event (ties broken by terminal
identifiers, the paper's lexicographic convention).

Every radius is a half-sum of integer weights (and, in Algorithm 2, of the
checkpoint thresholds µ̂), so radii are kept as Python ints on one grid
1/scale (initially 1), and each event µ is compared as the int key
µ·2·scale: wd·scale − rad(v) − rad(w) when both moats are active, twice
that when one is. A step off the grid multiplies ``scale`` by exactly the
missing denominator — 2 for an odd active–active key — and every radius
with it. Ties compare the two terminals' repr ranks
(:attr:`MoatPartition.rank`), which order exactly as their reprs do. Only
what results expose is a :class:`~fractions.Fraction`: each
:attr:`MergeEvent.mu`, the final radii and the dual bound.
``tests/test_solver_references.py`` checks the events against an
all-pairs search in Fraction arithmetic, and ``tests/test_properties.py``
the whole run against a copy of the Fraction event loop.

Besides the forest the run records a *dual lower bound* Σᵢ actᵢ·µᵢ which, by
Lemma C.4, is a certified lower bound on the optimum — the test-suite and
benchmarks use it to verify the 2-approximation without exact solvers.
"""

from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.model.graph import Edge, Node, canonical_edge
from repro.model.instance import SteinerForestInstance
from repro.model.solution import ForestSolution
from repro.perf.profiler import maybe_span
from repro.util import UnionFind


class MergeEvent:
    """One merge step of Algorithm 1/2.

    Attributes:
        index: 1-based merge index ``i``.
        mu: the growth increment µᵢ of this step.
        v, w: the terminals whose moats merged (None for Algorithm 2's
            growth-phase checkpoints, which merge nothing).
        path: node sequence of the selected least-weight path (empty for
            checkpoints).
        added_edges: path edges actually added (cycle-closers dropped).
        active_moats: number of active moats *during* the step (actᵢ).
        phase_boundary: True when some terminal's activity status changed
            at the end of this step — the merge-phase boundaries of
            Definition 4.3.
    """

    __slots__ = (
        "index",
        "mu",
        "v",
        "w",
        "path",
        "added_edges",
        "active_moats",
        "phase_boundary",
    )

    def __init__(
        self,
        index: int,
        mu: Fraction,
        v: Optional[Node],
        w: Optional[Node],
        path: Sequence[Node],
        added_edges: FrozenSet[Edge],
        active_moats: int,
        phase_boundary: bool,
    ) -> None:
        self.index = index
        self.mu = mu
        self.v = v
        self.w = w
        self.path = list(path)
        self.added_edges = added_edges
        self.active_moats = active_moats
        self.phase_boundary = phase_boundary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MergeEvent(i={self.index}, mu={self.mu}, "
            f"{self.v!r}~{self.w!r}, act={self.active_moats})"
        )


class MoatGrowingResult:
    """Outcome of a (centralized) moat-growing run.

    Attributes:
        forest: all edges emitted during merging (the set F of Algorithm 1).
        solution: the minimal feasible subforest (the returned output).
        events: the full merge history.
        radii: final rad(v) per terminal.
        dual_lower_bound: Σᵢ actᵢ µᵢ (Lemma C.4 / Corollary D.1); for
            Algorithm 1 this lower-bounds OPT directly, for Algorithm 2
            OPT ≥ dual_lower_bound / (1 + ε/2).
        num_merge_phases: number of maximal merge subsequences with
            constant activity pattern (Definition 4.3; at most 2k by
            Lemma 4.4).
    """

    def __init__(
        self,
        instance: SteinerForestInstance,
        forest_edges: FrozenSet[Edge],
        events: List[MergeEvent],
        radii: Dict[Node, Fraction],
    ) -> None:
        self.instance = instance
        self.forest = ForestSolution(instance.graph, forest_edges)
        self.solution = self.forest.minimal_subforest(instance)
        self.events = events
        self.radii = radii

    @property
    def dual_lower_bound(self) -> Fraction:
        return sum(
            (e.active_moats * e.mu for e in self.events), Fraction(0)
        )

    @property
    def num_merge_phases(self) -> int:
        if not self.events:
            return 0  # nothing active: no merge, no merge phase
        return 1 + sum(1 for e in self.events[:-1] if e.phase_boundary)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MoatGrowingResult(W={self.solution.weight}, "
            f"merges={len(self.events)}, LB={self.dual_lower_bound})"
        )


class MoatPartition:
    """The moat partition of the terminals, with labels and activity.

    One union-find over the terminals (sorted by ``repr``), and per moat
    (keyed by its representative) the label it carries and its activity
    flag. A moat is active iff another moat carries its label
    (Algorithm 1 lines 20–33); a singleton input component is satisfied
    from the start. Algorithms 1 and 2 and the Section 4.1 emulation,
    which replicates this state at every node, all use this class.

    ``rank`` maps each terminal to the rank of its repr among the
    terminals' distinct reprs (equal reprs share a rank), so ranks order
    as the reprs of the paper's lexicographic tie-break do.
    """

    def __init__(self, instance: SteinerForestInstance) -> None:
        self.terminals: Tuple[Node, ...] = tuple(
            sorted(instance.terminals, key=repr)
        )
        reprs = [repr(v) for v in self.terminals]  # sorted
        ranks = {r: i for i, r in enumerate(dict.fromkeys(reprs))}
        self.rank: Dict[Node, int] = {
            v: ranks[r] for v, r in zip(self.terminals, reprs)
        }
        self.moats = UnionFind(self.terminals)
        self.label: Dict[Node, Hashable] = {}
        self.active: Dict[Node, bool] = {}
        components = instance.components
        for v in self.terminals:
            self.label[v] = instance.label(v)
            self.active[v] = len(components[instance.label(v)]) >= 2

    def copy(self) -> "MoatPartition":
        """An independent copy: later merges on either side leave the
        other unchanged."""
        other = object.__new__(MoatPartition)
        other.terminals = self.terminals
        other.rank = self.rank
        other.moats = UnionFind(self.terminals)
        for v in self.terminals:
            other.moats.union(v, self.moats.find(v))
        # The fresh union-find may elect other representatives, so give
        # every terminal its moat's label and activity.
        other.label = {v: self.label[self.rep(v)] for v in self.terminals}
        other.active = {v: self.active[self.rep(v)] for v in self.terminals}
        return other

    # -- state queries --------------------------------------------------

    def rep(self, v: Node) -> Node:
        return self.moats.find(v)

    def is_active(self, v: Node) -> bool:
        return self.active[self.rep(v)]

    def active_moat_count(self) -> int:
        reps = {self.rep(v) for v in self.terminals}
        return sum(1 for r in reps if self.active[r])

    def has_active(self) -> bool:
        return any(self.active[self.rep(v)] for v in self.terminals)

    def component_map(self) -> Dict[Node, Node]:
        """terminal → moat representative."""
        return {v: self.rep(v) for v in self.terminals}

    # -- transitions -----------------------------------------------------

    def _activity_rule(self) -> Dict[Node, bool]:
        """moat representative → whether another moat carries its label."""
        reps = {self.rep(t) for t in self.terminals}
        carriers = Counter(self.label[r] for r in reps)
        return {r: carriers[self.label[r]] >= 2 for r in reps}

    def merge(self, v: Node, w: Node, keep_active: bool = False) -> bool:
        """Merge the moats of v and w (pseudocode lines 20–33).

        With ``keep_active`` (Algorithm 2) the merged moat stays active
        until the next :meth:`recompute_activity`; otherwise (Algorithm 1)
        its activity follows the rule at once. Returns whether some
        terminal's activity changed: the merge-phase boundary of
        Definition 4.3. Only the merged moat's flag is written, so only
        its terminals can flip.
        """
        rv, rw = self.rep(v), self.rep(w)
        assert rv != rw, "a merge joins two distinct moats"
        label_v, label_w = self.label[rv], self.label[rw]
        was = (self.active[rv], self.active[rw])
        self.moats.union(rv, rw)
        new_rep = self.rep(v)
        # Relabel: every moat carrying label_w now carries label_v.
        if label_v != label_w:
            for t in self.terminals:
                r = self.rep(t)
                if self.label[r] == label_w:
                    self.label[r] = label_v
        self.label[new_rep] = label_v
        now = keep_active or self._activity_rule()[new_rep]
        self.active[new_rep] = now
        return was != (now, now)

    def recompute_activity(self) -> bool:
        """Apply the activity rule to every moat (Algorithm 2's growth-phase
        checkpoint, lines 20–25); returns whether some terminal's activity
        changed."""
        rule = self._activity_rule()
        changed = any(self.active[r] != now for r, now in rule.items())
        self.active.update(rule)
        return changed


class _MoatSystem(MoatPartition):
    """Shared mutable state of Algorithms 1 and 2.

    The moat partition plus per-terminal radii, the terminal pairs with
    their distances and the emitted forest. Exposes the event
    computation, the growth step and the path emission of the pseudocode.
    Radii are ints on the grid 1/``scale`` (see the module docstring);
    :attr:`rad` reads them as Fractions.
    """

    def __init__(self, instance: SteinerForestInstance) -> None:
        super().__init__(instance)
        self.graph = instance.graph
        self.scale = 1
        #: rad(v)·scale, by v's position in ``terminals``.
        self._radius = [0] * len(self.terminals)
        self._position = {v: i for i, v in enumerate(self.terminals)}
        self.forest_uf = UnionFind(self.graph.nodes)
        self.forest_edges: Set[Edge] = set()
        # next_event reads terminal pairs only: |T| rows, not n. Each pair
        # (i, j, wd, rank i, rank j) is listed once, i < j in repr order.
        dist = self.graph.all_pairs_distances(self.terminals)
        rank = self.rank
        self._pairs = [
            (i, j, dist[v][w], rank[v], rank[w])
            for i, v in enumerate(self.terminals)
            for j, w in enumerate(self.terminals[i + 1:], i + 1)
        ]

    @property
    def rad(self) -> Dict[Node, Fraction]:
        """terminal → its radius rad(v), a fresh dict of Fractions."""
        return {
            v: Fraction(r, self.scale)
            for v, r in zip(self.terminals, self._radius)
        }

    # -- event computation (pseudocode lines 10–14) ----------------------

    def next_event(self) -> Optional[Tuple[Fraction, Node, Node]]:
        """The minimal growth µ at which two distinct moats touch.

        Returns (µ, v, w) with v's moat active, or None when no event can
        ever occur (all moats inactive or only one moat left). Pairs are
        compared by the int key µ·2·scale, then the repr ranks of the
        active terminal and the other, as (µ, repr(v), repr(w)) orders.
        """
        position, active = self._position, self.active
        moat = [position[r] for r in map(self.moats.find, self.terminals)]
        live = [active[self.terminals[m]] for m in moat]
        radius, scale = self._radius, self.scale
        best_key: Optional[int] = None
        best = (0, 0, 0, 0)  # rank a, rank b, a, b of the best pair so far
        for i, j, wd, rank_i, rank_j in self._pairs:
            if moat[i] == moat[j]:
                continue
            if live[i]:
                key = wd * scale - radius[i] - radius[j]
                if not live[j]:
                    key *= 2
                flip = False
            elif live[j]:
                key = 2 * (wd * scale - radius[i] - radius[j])
                flip = True  # orient so the first terminal is active
            else:
                continue
            assert key >= 0, "moats may not overlap before merging"
            if best_key is not None and key > best_key:
                continue
            pair = (rank_j, rank_i, j, i) if flip else (rank_i, rank_j, i, j)
            if best_key is None or key < best_key or pair[:2] < best[:2]:
                best_key, best = key, pair
        if best_key is None:
            return None
        terminals = self.terminals
        return Fraction(best_key, 2 * scale), terminals[best[2]], terminals[best[3]]

    # -- transitions -----------------------------------------------------

    def refine(self, factor: int) -> None:
        """Refine the grid to 1/(scale·factor), rescaling every radius."""
        if factor > 1:
            self.scale *= factor
            self._radius = [r * factor for r in self._radius]

    def on_grid(self, mu: Fraction) -> int:
        """µ·scale, first refining the grid by µ's missing denominator."""
        self.refine(mu.denominator // gcd(mu.denominator, self.scale))
        return mu.numerator * (self.scale // mu.denominator)

    def grow(self, step: int) -> None:
        """Grow all active moats by step/scale (pseudocode lines 15–16 /
        40–41)."""
        radius, active, find = self._radius, self.active, self.moats.find
        for i, v in enumerate(self.terminals):
            if active[find(v)]:
                radius[i] += step

    def emit_path(self, v: Node, w: Node) -> Tuple[List[Node], FrozenSet[Edge]]:
        """Add a least-weight v–w path to the forest, dropping cycle edges."""
        path = self.graph.shortest_path(v, w)
        added: Set[Edge] = set()
        for a, b in zip(path, path[1:]):
            if self.forest_uf.union(a, b):
                edge = canonical_edge(a, b)
                added.add(edge)
                self.forest_edges.add(edge)
        return path, frozenset(added)


def moat_growing(
    instance: SteinerForestInstance, profiler: Optional[Any] = None
) -> MoatGrowingResult:
    """Run Algorithm 1 and return the 2-approximate Steiner forest.

    Args:
        instance: the DSF-IC instance.
        profiler: optional :class:`repro.perf.PhaseProfiler`; the
            centralized algorithm has no CONGEST ledger, so its phases
            are wall-time spans — the terminal distance rows, the
            grow/merge event loop, and the minimal-subforest extraction.
    """
    with maybe_span(profiler, "moat/terminal-rows"):
        system = _MoatSystem(instance)
    events: List[MergeEvent] = []
    index = 0
    with maybe_span(profiler, "moat/event-loop"):
        while system.has_active():
            event = system.next_event()
            assert event is not None, (
                "an active moat exists, so its label occurs in another moat "
                "and a future merge event must exist"
            )
            mu, v, w = event
            index += 1
            active_count = system.active_moat_count()
            system.grow(system.on_grid(mu))
            path, added = system.emit_path(v, w)
            boundary = system.merge(v, w)
            events.append(
                MergeEvent(
                    index=index,
                    mu=mu,
                    v=v,
                    w=w,
                    path=path,
                    added_edges=added,
                    active_moats=active_count,
                    phase_boundary=boundary,
                )
            )
    with maybe_span(profiler, "moat/minimal-subforest"):
        return MoatGrowingResult(
            instance, frozenset(system.forest_edges), events, system.rad
        )
