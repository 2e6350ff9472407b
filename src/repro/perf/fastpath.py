"""Ledger selection: the ``--backend`` axis for the paper's solvers.

The paper's Steiner-forest pipeline (moat growing, pruning, the
sublinear composition) is **ledger-level**: the solvers drive the
communication primitives (:mod:`repro.congest.bfs`,
:mod:`repro.congest.bellman_ford`, :mod:`repro.congest.broadcast`,
:mod:`repro.congest.pipeline`) directly against a
:class:`~repro.congest.run.CongestRun`. Each primitive has one Python
path, which walks the topology its graph argument caches (sorted
neighbor tuples, node reprs, canonical edges; see
:class:`~repro.model.graph.WeightedGraph`). Ledgers differ only in how
they charge traffic:

* ``reference`` and ``flatarray`` build ledgers that run identical
  code: a :class:`CongestRun`, the latter as :class:`FastCongestRun`,
  the same ledger under its own type;
* ``numpy`` builds a :class:`repro.perf.npkernels.NumpyCongestRun`,
  which keeps per-edge traffic in an array and runs the regular
  primitives as array kernels when they run on the ledger's own graph.

The tiers are conformance-pinned against executions recorded on the
reference ledger (``tests/fixtures/ledger_golden.json``).
"""

from typing import Any, Optional

from repro.congest.run import CongestRun
from repro.model.graph import WeightedGraph
from repro.simbackend import (
    AUTO_THRESHOLD_NODES,
    NUMPY_THRESHOLD_NODES,
    choose_engine_name,
    validate_backend,
)


class FastCongestRun(CongestRun):
    """The ledger the ``flatarray`` backend builds: a plain
    :class:`~repro.congest.run.CongestRun`, under its own type.

    The communication primitives have one path, and every ledger runs
    it on the topology its graph caches, so this class adds nothing.
    It stays as a type for callers that tell the ledger tiers apart by
    ``isinstance`` — the end-to-end benchmark's tier guard under
    ``perfbench/`` among them — and :func:`make_ledger_run` stays in
    this module because that benchmark patches it here by module path.
    """


def make_ledger_run(
    backend: Any,
    graph: WeightedGraph,
    bandwidth_bits: Optional[int] = None,
    max_rounds: int = 10_000_000,
) -> CongestRun:
    """Build the ledger a solver should charge, per backend spec.

    Used by the experiment runner and the CLI to thread the
    ``--backend`` axis into the paper's solvers:

    * ``reference`` → a plain :class:`CongestRun`;
    * ``flatarray`` → a :class:`FastCongestRun`;
    * ``numpy`` → a :class:`repro.perf.npkernels.NumpyCongestRun` (a
      valid name only when numpy imports);
    * ``auto`` → the tier :func:`~repro.simbackend.choose_engine_name`
      picks for the graph's node count (``threshold`` and
      ``numpy_threshold`` params honored).

    Raises:
        ValueError: on unknown backend names or parameters
            (:func:`~repro.simbackend.validate_backend`).
    """
    spec = validate_backend(backend)
    name = spec["name"]
    if name == "auto":
        name = choose_engine_name(
            graph.num_nodes,
            spec["params"].get("threshold", AUTO_THRESHOLD_NODES),
            spec["params"].get("numpy_threshold", NUMPY_THRESHOLD_NODES),
        )
    if name == "numpy":
        # Import deferred (and guaranteed to succeed): the spec passed
        # validation, so numpy imports.
        from repro.perf.npkernels import NumpyCongestRun

        try:
            return NumpyCongestRun(
                graph, bandwidth_bits=bandwidth_bits, max_rounds=max_rounds
            )
        except OverflowError:
            # Edge weights outside the int64 grid: an explicit numpy
            # request fails loudly, but auto degrades to flatarray.
            if spec["name"] != "auto":
                raise
            name = "flatarray"
    if name == "flatarray":
        return FastCongestRun(
            graph, bandwidth_bits=bandwidth_bits, max_rounds=max_rounds
        )
    return CongestRun(graph, bandwidth_bits=bandwidth_bits, max_rounds=max_rounds)
