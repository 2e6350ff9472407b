"""Flame-style text rendering of phase profiles (``repro profile``).

The input is profiled job records as produced by
:func:`repro.engine.runner.execute_job` with ``profile=True`` — each
carries a ``profile`` field with per-phase rounds / messages / wall-time
rows (:meth:`repro.perf.PhaseProfiler.to_dict`). Records are grouped by
(scenario, algorithm, backend) and phase counters are averaged across
the group's jobs, so a profile over several seeds/grid points reads as
one representative breakdown per pipeline.
"""

from collections import Counter
from typing import Any, Dict, List, Mapping, Tuple

#: Width of the wall-time bar column (characters at 100%).
BAR_WIDTH = 28


def _indent(name: str) -> str:
    """Nested span names ("phase/span") indent one level per component."""
    depth = name.count("/")
    leaf = name.rsplit("/", 1)[-1]
    return "  " * depth + leaf


def _merge_profiles(profiles: List[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Average per-phase counters across several job profiles.

    Phases keep first-seen order (executions of one pipeline narrate
    their phases in the same order; stragglers appear where first seen).
    Sums divide by the *group* size, not by how many jobs reached the
    phase — a phase only the largest grid point executes contributes its
    per-group mean, so "mean per job" holds for every row and the group
    totals equal the mean per-job totals.
    """
    jobs = max(1, len(profiles))
    order: List[str] = []
    acc: Dict[str, Dict[str, float]] = {}
    for profile in profiles:
        for row in profile.get("phases", []):
            name = row["phase"]
            sums = acc.get(name)
            if sums is None:
                sums = acc[name] = {"rounds": 0.0, "messages": 0.0, "wall_time": 0.0}
                order.append(name)
            sums["rounds"] += row.get("rounds", 0)
            sums["messages"] += row.get("messages", 0)
            sums["wall_time"] += row.get("wall_time", 0.0)
    return [
        {
            "phase": name,
            "rounds": acc[name]["rounds"] / jobs,
            "messages": acc[name]["messages"] / jobs,
            "wall_time": acc[name]["wall_time"] / jobs,
        }
        for name in order
    ]


def _gc_line(group: List[Mapping[str, Any]]) -> List[str]:
    """The group's mean collections and pause seconds per generation.

    The mean is over the records whose profile carries ``gc`` (profiles
    stored before it was recorded lack it); none of them gives no line.
    A group that never collected still gets its line of zeros.
    """
    pauses = [r["profile"]["gc"] for r in group if "gc" in r["profile"]]
    if not pauses:
        return []
    jobs = len(pauses)
    cells = []
    for generation in range(3):
        collections = sum(p["collections"][generation] for p in pauses) / jobs
        seconds = sum(p["seconds"][generation] for p in pauses) / jobs
        cells.append(f"gen{generation} {collections:.1f} in {seconds:.4f} s")
    return ["gc pauses (mean per job): " + ", ".join(cells)]


def render_profile_report(records: List[Mapping[str, Any]]) -> str:
    """Render profiled records as per-pipeline flame-style breakdowns.

    Each (scenario, algorithm, backend) group gets one section: a row
    per phase (nested spans indented under their parent phase) with
    mean rounds, messages, wall seconds, the wall share, and a bar
    proportional to it, then the mean garbage-collector pauses per job
    (when the records carry them, see :func:`_gc_line`) and one line per
    numpy-kernel decline reason with its count summed over the group.
    Records without a ``profile`` field are ignored; an all-unprofiled
    input renders a hint instead of nothing.
    """
    groups: Dict[Tuple[str, str, str], List[Mapping[str, Any]]] = {}
    for record in records:
        if not record.get("profile"):
            continue
        group = (
            str(record.get("scenario", "?")),
            str(record.get("algorithm", "?")),
            str(record.get("backend_name", "reference")),
        )
        groups.setdefault(group, []).append(record)
    if not groups:
        return "no profiled records (run with profiling enabled)"

    sections = []
    for (scenario, algorithm, backend), group in sorted(groups.items()):
        rows = _merge_profiles([r["profile"] for r in group])
        total_wall = sum(row["wall_time"] for row in rows) or 1.0
        total_rounds = sum(row["rounds"] for row in rows)
        total_messages = sum(row["messages"] for row in rows)
        name_width = max(
            [len(_indent(row["phase"])) for row in rows] + [len("phase")]
        )
        lines = [
            f"== profile: {scenario} · {algorithm} · backend={backend} "
            f"({len(group)} job{'s' if len(group) != 1 else ''}, "
            f"mean per job) ==",
            f"{'phase'.ljust(name_width)} {'rounds':>9s} {'messages':>10s} "
            f"{'wall s':>9s} {'share':>6s}",
        ]
        for row in rows:
            share = row["wall_time"] / total_wall
            bar = "█" * max(
                int(round(share * BAR_WIDTH)), 1 if row["wall_time"] > 0 else 0
            )
            lines.append(
                f"{_indent(row['phase']).ljust(name_width)} "
                f"{row['rounds']:9.1f} {row['messages']:10.1f} "
                f"{row['wall_time']:9.4f} {share:6.1%} {bar}"
            )
        lines.append(
            f"{'total'.ljust(name_width)} {total_rounds:9.1f} "
            f"{total_messages:10.1f} {total_wall:9.4f} {1:6.1%}"
        )
        lines.extend(_gc_line(group))
        declines: Counter = Counter()
        for record in group:
            declines.update(record["profile"].get("declines", {}))
        for reason, count in sorted(declines.items()):
            lines.append(f"numpy kernel declined ({reason}): {count}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)
