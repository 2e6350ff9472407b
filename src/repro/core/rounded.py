"""Algorithm 2 — moat growing with rounded radii (Appendix D).

Identical to Algorithm 1 except that moats change their activity status only
at *growth-phase checkpoints*: growth is clamped at thresholds µ̂ that grow by
a factor (1 + ε/2) per checkpoint, and between checkpoints merged moats
always remain active. Merges may therefore occur at only O(log_{1+ε/2} WD)
⊆ O(log n / ε) distinct radii, which the distributed Section 4.2 algorithm
exploits; the price is an approximation factor of 2 + ε (Theorem 4.2).

The dual bound recorded in the result satisfies
OPT ≥ dual_lower_bound / (1 + ε/2) (Corollary D.1).
"""

from fractions import Fraction
from math import gcd
from typing import Any, List, Optional, Union

from repro.core.moat import MergeEvent, MoatGrowingResult, _MoatSystem
from repro.model.instance import SteinerForestInstance
from repro.perf.profiler import maybe_span


def _as_fraction(value: Union[int, float, str, Fraction]) -> Fraction:
    """Convert ε to an exact Fraction (via str for floats, so 0.1 → 1/10;
    strings like "1/10" come from JSON job records)."""
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


class _CheckpointedMoats(_MoatSystem):
    """Algorithm 2's state: the moat system plus the growth so far
    (``cumulative``) and the next checkpoint µ̂ (``mu_hat``), both ints
    on the radii's grid 1/scale, so the checkpoint test is an int compare.
    """

    def __init__(
        self, instance: SteinerForestInstance, growth_factor: Fraction
    ) -> None:
        super().__init__(instance)
        self.cumulative = 0
        self.mu_hat = self.scale  # µ̂ = 1
        self._growth = growth_factor

    def refine(self, factor: int) -> None:
        super().refine(factor)
        self.cumulative *= factor
        self.mu_hat *= factor

    def grow(self, step: int) -> None:
        super().grow(step)
        self.cumulative += step

    def raise_threshold(self) -> None:
        """µ̂ ← µ̂·(1 + ε/2), first refining the grid by the missing
        denominator of the new µ̂."""
        num, den = self._growth.numerator, self._growth.denominator
        self.refine(den // gcd(self.mu_hat * num, den))
        self.mu_hat = self.mu_hat * num // den


def rounded_moat_growing(
    instance: SteinerForestInstance,
    epsilon: Union[int, float, str, Fraction] = Fraction(1, 2),
    profiler: Optional[Any] = None,
) -> MoatGrowingResult:
    """Run Algorithm 2 and return the (2+ε)-approximate Steiner forest.

    Args:
        instance: the DSF-IC instance.
        epsilon: the rounding parameter ε > 0 (growth phases multiply the
            radius threshold by 1 + ε/2).
        profiler: optional :class:`repro.perf.PhaseProfiler`; like
            Algorithm 1, the phases are wall-time spans (the terminal
            distance rows, the checkpointed event loop, the
            minimal-subforest extraction).

    Returns a :class:`~repro.core.moat.MoatGrowingResult`; checkpoint steps
    appear in ``events`` with ``v = w = None``. The number of growth phases
    equals the number of checkpoint events and is O(log WD / ε)
    (Lemma F.1).

    The radii, the growth so far and the threshold µ̂ are ints on one grid
    1/scale (see :mod:`repro.core.moat`), so the checkpoint test
    ``cumulative + µ ≥ µ̂`` compares ints. Raising µ̂ by 1 + ε/2 refines
    the grid by the missing denominator of the new µ̂, so every clamp
    µ̂ − cumulative is on it. Events carry Fractions as in Algorithm 1;
    ``tests/test_solver_references.py`` (ε ∈ {"1/10", 0.1, 1/3, 2},
    weights up to 2^20) and ``tests/test_properties.py`` check the runs
    against Fraction arithmetic.

    Raises:
        ValueError: when ``epsilon`` is not positive.
    """
    eps = _as_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")

    with maybe_span(profiler, "rounded/terminal-rows"):
        system = _CheckpointedMoats(instance, 1 + eps / 2)
    events: List[MergeEvent] = []
    index = 0
    with maybe_span(profiler, "rounded/event-loop"):
        while system.has_active():
            event = system.next_event()
            # Unlike Algorithm 1, a moat may be flagged active here although its
            # label class is already united (activity is only re-evaluated at
            # checkpoints), so a merge event need not exist — e.g. when a single
            # moat remains. The pseudocode's min over an empty set is +∞ and the
            # µ̂ test then forces a checkpoint.
            if event is not None:
                mu, v, w = event
                step = system.on_grid(mu)
            index += 1
            active_count = system.active_moat_count()
            if event is None or system.cumulative + step >= system.mu_hat:
                # Growth-phase checkpoint (pseudocode lines 16–26): clamp the
                # growth at µ̂, merge nothing, re-evaluate every moat's activity.
                clamped = system.mu_hat - system.cumulative
                system.grow(clamped)
                boundary = system.recompute_activity()
                events.append(
                    MergeEvent(
                        index=index,
                        mu=Fraction(clamped, system.scale),
                        v=None,
                        w=None,
                        path=[],
                        added_edges=frozenset(),
                        active_moats=active_count,
                        phase_boundary=boundary,
                    )
                )
                system.raise_threshold()
                continue
            # Regular merge (pseudocode lines 28–39); the merged moat stays
            # active until the next checkpoint.
            system.grow(step)
            path, added = system.emit_path(v, w)
            boundary = system.merge(v, w, keep_active=True)
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
    with maybe_span(profiler, "rounded/minimal-subforest"):
        return MoatGrowingResult(
            instance, frozenset(system.forest_edges), events, system.rad
        )


def num_growth_phases(result: MoatGrowingResult) -> int:
    """Number of growth-phase checkpoints executed in an Algorithm 2 run."""
    return sum(1 for e in result.events if e.v is None)
