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

    Raises:
        ValueError: when ``epsilon`` is not positive.
    """
    eps = _as_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    growth_factor = 1 + eps / 2

    with maybe_span(profiler, "rounded/terminal-rows"):
        system = _MoatSystem(instance)
    events: List[MergeEvent] = []
    index = 0
    cumulative = Fraction(0)
    mu_hat = Fraction(1)
    with maybe_span(profiler, "rounded/event-loop"):
        while system.has_active():
            event = system.next_event()
            # Unlike Algorithm 1, a moat may be flagged active here although its
            # label class is already united (activity is only re-evaluated at
            # checkpoints), so a merge event need not exist — e.g. when a single
            # moat remains. The pseudocode's min over an empty set is +∞ and the
            # µ̂ test then forces a checkpoint.
            if event is None:
                mu, v, w = mu_hat - cumulative, None, None
            else:
                mu, v, w = event
            index += 1
            active_count = system.active_moat_count()
            if event is None or cumulative + mu >= mu_hat:
                # Growth-phase checkpoint (pseudocode lines 16–26): clamp the
                # growth at µ̂, merge nothing, re-evaluate every moat's activity.
                clamped = mu_hat - cumulative
                system.grow(clamped)
                cumulative += clamped
                boundary = system.recompute_activity()
                mu_hat *= growth_factor
                events.append(
                    MergeEvent(
                        index=index,
                        mu=clamped,
                        v=None,
                        w=None,
                        path=[],
                        added_edges=frozenset(),
                        active_moats=active_count,
                        phase_boundary=boundary,
                    )
                )
                continue
            # Regular merge (pseudocode lines 28–39); the merged moat stays
            # active until the next checkpoint.
            system.grow(mu)
            cumulative += mu
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
            instance, frozenset(system.forest_edges), events, dict(system.rad)
        )


def num_growth_phases(result: MoatGrowingResult) -> int:
    """Number of growth-phase checkpoints executed in an Algorithm 2 run."""
    return sum(1 for e in result.events if e.v is None)
