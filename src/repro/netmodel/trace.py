"""Per-round message tracing for simulator executions.

A :class:`TraceRecorder` attached to a :class:`~repro.congest.simulator.
Simulator` captures one event per message transmission (send round, fate,
delivery round) plus one summary event per round (sent/delivered/dropped
counts and payload volume). Events are plain JSON-able dicts so traces
dump to JSONL for offline congestion profiling and load back for replay
assertions — the same append-only format as the engine's result store
and the telemetry bus.

Resource discipline: the recorder is a context manager, and the
simulator closes it when an execution completes or dies
(:meth:`repro.congest.simulator.Simulator.run_to_completion`), so
a streaming trace file is never left on an open handle. Closing is
idempotent and does not end the recorder's life — a later event reopens
the stream in append mode, continuing the same file.

Identity: a recorder created with ``run_id`` (or wired to a
:class:`~repro.telemetry.Telemetry` bus, which supplies its manifest's
id) stamps that id on every event, so message traces from many runs
interleave attributably with the rest of the run's telemetry.
"""

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.netmodel.base import payload_bits


def _describe(payload: Any) -> str:
    """A short, JSON-safe rendering of a payload for trace events."""
    text = repr(payload)
    return text if len(text) <= 80 else text[:77] + "..."


def _encode(event: Dict[str, Any]) -> str:
    """The one JSONL encoding for trace events — shared by streaming
    and :meth:`TraceRecorder.dump` so the two paths cannot drift."""
    return json.dumps(event, sort_keys=True)


class TraceRecorder:
    """Accumulates message/round events; optionally streams to JSONL.

    Args:
        path: stream events to this JSONL file as they are recorded
            (flushed per event; None keeps events in memory only).
        run_id: stamped on every event when given.
        telemetry: a :class:`~repro.telemetry.Telemetry` bus to forward
            events onto (as ``trace.send`` / ``trace.lost`` /
            ``trace.round`` bus events); also supplies ``run_id`` when
            none was given.
    """

    def __init__(
        self,
        path: Optional[os.PathLike] = None,
        run_id: Optional[str] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.events: List[Dict[str, Any]] = []
        self.path = Path(path) if path is not None else None
        self.telemetry = telemetry
        if run_id is None and telemetry is not None:
            run_id = telemetry.run_id
        self.run_id = run_id
        self._handle = None
        self._created = False

    # -- resource handling ----------------------------------------------

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Release the streaming handle (idempotent). The recorder stays
        usable: a later event reopens the stream appending."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- recording (called by the simulator) -----------------------------

    def _emit(self, event: Dict[str, Any]) -> None:
        if self.run_id is not None:
            event["run_id"] = self.run_id
        self.events.append(event)
        if self.path is not None:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                # First open truncates (a fresh stream); reopening after
                # a close appends, so one recorder = one coherent file.
                self._handle = self.path.open(
                    "a" if self._created else "w", encoding="utf-8"
                )
                self._created = True
            self._handle.write(_encode(event) + "\n")
            # Streaming mode promises a live file: flush per event so a
            # concurrent reader (or a dying run) sees every record.
            self._handle.flush()
        if self.telemetry is not None:
            kind = f"trace.{event['event']}"
            self.telemetry.emit(
                kind, **{k: v for k, v in event.items() if k != "event"}
            )

    def record_send(
        self,
        round_index: int,
        sender: Any,
        receiver: Any,
        payload: Any,
        delivery_rounds: Iterable[int],
    ) -> None:
        """One transmission: empty ``delivery_rounds`` means dropped."""
        rounds = sorted(delivery_rounds)
        self._emit(
            {
                "event": "send",
                "round": round_index,
                "sender": _describe(sender),
                "receiver": _describe(receiver),
                "payload": _describe(payload),
                "bits": payload_bits(payload),
                "delivery_rounds": rounds,
                "dropped": not rounds,
            }
        )

    def record_lost(
        self, round_index: int, sender: Any, receiver: Any, reason: str
    ) -> None:
        """A message lost outside ``schedule`` (e.g. receiver crashed)."""
        self._emit(
            {
                "event": "lost",
                "round": round_index,
                "sender": _describe(sender),
                "receiver": _describe(receiver),
                "reason": reason,
            }
        )

    def record_round(
        self, round_index: int, sent: int, delivered: int, dropped: int, bits: int
    ) -> None:
        """Per-round traffic summary (the congestion-profile row)."""
        self._emit(
            {
                "event": "round",
                "round": round_index,
                "sent": sent,
                "delivered": delivered,
                "dropped": dropped,
                "bits": bits,
            }
        )

    # -- inspection ------------------------------------------------------

    def sends(self) -> Iterator[Dict[str, Any]]:
        return (e for e in self.events if e["event"] == "send")

    def rounds(self) -> Iterator[Dict[str, Any]]:
        return (e for e in self.events if e["event"] == "round")

    def volume_by_round(self) -> Dict[int, int]:
        """Bits put on the wire per round (the congestion profile)."""
        return {e["round"]: e["bits"] for e in self.rounds()}

    def total_dropped(self) -> int:
        drops = sum(1 for e in self.sends() if e["dropped"])
        return drops + sum(1 for e in self.events if e["event"] == "lost")

    def __len__(self) -> int:
        return len(self.events)

    # -- persistence -----------------------------------------------------

    def dump(self, path: os.PathLike) -> int:
        """Write every event to ``path`` as JSONL; returns event count."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(_encode(event) + "\n")
        return len(self.events)

    @classmethod
    def load(cls, path: os.PathLike) -> "TraceRecorder":
        """Read a dumped trace back for replay/profiling assertions."""
        recorder = cls()
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    recorder.events.append(json.loads(line))
        return recorder
