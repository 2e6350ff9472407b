"""Performance subsystem: profiling, ledger selection and the numpy tier.

The ROADMAP's north star is a system that "runs as fast as the hardware
allows"; this package is where the repo measures and then removes the
cost of the paper's Steiner-forest pipeline:

* :mod:`repro.perf.profiler` — :class:`PhaseProfiler`, the phase-level
  rounds / messages / bytes / wall-time instrumentation attached to a
  :class:`~repro.congest.run.CongestRun` (zero effect when detached —
  results, round counts, and cache keys are pinned byte-identical),
  and :func:`gc_pauses`, which counts the cyclic garbage collector's
  collections and pauses per generation over a profiled job.
* :mod:`repro.perf.fastpath` — :func:`make_ledger_run`, which threads
  the experiment engine's ``--backend`` axis (including ``auto``) into
  the ledger-level solvers, and :class:`FastCongestRun`, the type the
  ``flatarray`` tier builds. Every primitive has one Python path over
  the topology :class:`~repro.model.graph.WeightedGraph` caches, so the
  ``reference`` and ``flatarray`` tiers run the same code.
* :mod:`repro.perf.npkernels` — the optional vectorized ``numpy`` tier:
  :class:`NumpyCongestRun` (array-charged, carrying a CSR
  :class:`NumpyTopology`) plus exact integer-dtype kernels for the
  regular primitives (BFS, Bellman–Ford, broadcast, convergecast, moat
  radius growth) on the ledger's own graph. Imported
  lazily/conditionally — with numpy absent the package still imports
  and the Python path is unaffected.
* :mod:`repro.perf.report` — the flame-style text report behind the
  ``repro profile`` subcommand.

The measured numbers live in ``BENCH_profile.json``
(``benchmarks/bench_e18_profile.py``: every tier byte-identical on the
full distributed pipeline) and ``BENCH_numpy.json``
(``benchmarks/bench_e22_numpy.py``: the numpy kernels against the
Python path on the regular primitives).
"""

from repro.perf.fastpath import FastCongestRun, make_ledger_run
from repro.perf.profiler import PhaseProfiler, PhaseStats, gc_pauses, maybe_span
from repro.perf.report import render_profile_report

try:  # The numpy tier is an optional extra: absence is not an error.
    from repro.perf.npkernels import NumpyCongestRun, NumpyTopology
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    NumpyCongestRun = None  # type: ignore[assignment,misc]
    NumpyTopology = None  # type: ignore[assignment,misc]

__all__ = [
    "FastCongestRun",
    "NumpyCongestRun",
    "NumpyTopology",
    "make_ledger_run",
    "PhaseProfiler",
    "PhaseStats",
    "gc_pauses",
    "maybe_span",
    "render_profile_report",
]
