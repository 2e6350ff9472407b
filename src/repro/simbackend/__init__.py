"""Simulation backends: pluggable execution engines for the simulator.

The :class:`~repro.congest.simulator.Simulator` front-end stays stable
while the engine that turns the crank is swappable:

* :mod:`repro.simbackend.base` — the :class:`SimulationBackend`
  interface (message queues, network-model routing, quiescence/halt
  detection), canonical spec normalization, and the shared
  :class:`Context` node view.
* :mod:`repro.simbackend.reference` — the original per-node-object
  loop, byte-identical and regression-pinned.
* :mod:`repro.simbackend.flatarray` — a batched fast path over a
  compiled CSR-style integer-indexed topology (no per-round dict churn
  or node-object hashing on the hot path).
* :mod:`repro.simbackend.npbackend` — the optional ``numpy`` tier's
  message-level engine: the flat-array engine under the ``numpy`` name
  (node programs are arbitrary Python, so there is nothing to
  vectorize); registered only when numpy imports, so the reference path
  stays dependency-free. The tier's array kernels live at the ledger
  level, in :class:`repro.perf.npkernels.NumpyCongestRun`.
* :mod:`repro.simbackend.auto` — resolves to ``reference``,
  ``flatarray``, or ``numpy`` at bind time from the instance size (the
  measured crossovers), sharing its heuristic with the ledger-level
  fast path in :mod:`repro.perf`.

**Invariant: reference is the byte-identical ground truth.** Every
other engine — and the ledger-level fast path the backend axis selects
for the paper's solvers — must reproduce the reference execution
exactly (rounds, ledger traffic, network statistics, trace events,
final program states); the conformance suites pin this and the
reference loop itself is never optimized.

The experiment engine threads canonical backend specs through scenario
definitions and job identities exactly like network conditions: the
default ``reference`` backend is omitted from cache keys (existing
stores keep absorbing re-runs), and every other engine hashes to its
own key.
"""

from repro.simbackend.auto import (
    AUTO_THRESHOLD_NODES,
    NUMPY_THRESHOLD_NODES,
    AutoBackend,
    choose_engine_name,
    numpy_tier_available,
)
from repro.simbackend.base import (
    BACKENDS,
    DEFAULT_BACKEND,
    Context,
    SimulationBackend,
    build_backend,
    is_default_backend,
    normalize_backend,
    register_backend,
)
from repro.simbackend.flatarray import FlatArrayBackend
from repro.simbackend.reference import ReferenceBackend

try:  # The numpy tier is an optional extra: absence is not an error.
    from repro.simbackend.npbackend import NumpyBackend
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    NumpyBackend = None  # type: ignore[assignment,misc]

__all__ = [
    "AUTO_THRESHOLD_NODES",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "NUMPY_THRESHOLD_NODES",
    "AutoBackend",
    "choose_engine_name",
    "numpy_tier_available",
    "Context",
    "NumpyBackend",
    "SimulationBackend",
    "build_backend",
    "is_default_backend",
    "normalize_backend",
    "register_backend",
    "FlatArrayBackend",
    "ReferenceBackend",
]
