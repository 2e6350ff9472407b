"""The auto backend: pick the execution engine from the instance.

``backend="auto"`` resolves to a concrete engine at :meth:`bind` time
using the measured crossover from ``BENCH_backends.json`` /
``BENCH_profile.json``:

* below :data:`AUTO_THRESHOLD_NODES` nodes the ``reference`` engine
  wins — the flat-array topology compile is pure overhead on graphs
  that finish in microseconds, and the per-node-object loop is the
  regression-pinned baseline anyway;
* from the threshold up, ``flatarray`` wins and keeps winning (the
  benchmarks show 3–4× on message-level programs and ≥ 2× on the paper
  pipeline at n = 256);
* from :data:`NUMPY_THRESHOLD_NODES` up, the vectorized ``numpy`` tier
  wins when the optional extra is installed.

The same heuristic drives the ledger-level fast path for the paper's
solvers (see :func:`repro.perf.make_ledger_run`), so ``--backend auto``
means one thing across the whole stack. Because auto only ever
delegates to conformance-pinned engines, it is byte-identical to
``reference`` across the conformance matrix by construction — and the
matrix re-verifies it anyway (``tests/test_simbackend_conformance.py``).
"""

from typing import Any, Dict, Optional

from repro.model.graph import Node, WeightedGraph
from repro.netmodel import NetworkModel, TraceRecorder
from repro.simbackend.base import (
    SimulationBackend,
    build_backend,
    register_backend,
)

#: Node count from which ``flatarray`` beats ``reference`` end-to-end
#: (including its bind-time topology compile); measured in
#: ``benchmarks/bench_e16_backends.py`` and ``bench_e18_profile.py``.
AUTO_THRESHOLD_NODES = 64

#: Node count from which the vectorized ``numpy`` tier beats
#: ``flatarray`` end-to-end (its array compilation and per-round kernel
#: launch overheads amortize; measured in
#: ``benchmarks/bench_e22_numpy.py``). Only reachable when the optional
#: numpy extra is installed — otherwise the heuristic stays two-tier.
NUMPY_THRESHOLD_NODES = 1024


def numpy_tier_available() -> bool:
    """Whether the optional ``numpy`` engine registered (numpy installed).

    Checked lazily at choice time: the registry is populated by the
    package import, which tolerates a missing numpy by simply not
    registering the tier.
    """
    from repro.simbackend.base import BACKENDS

    return "numpy" in BACKENDS


def choose_engine_name(
    num_nodes: int,
    threshold: int = AUTO_THRESHOLD_NODES,
    numpy_threshold: int = NUMPY_THRESHOLD_NODES,
) -> str:
    """The engine the auto heuristic picks for an ``num_nodes``-node graph.

    Three tiers: ``reference`` below ``threshold``, ``flatarray`` in the
    mid-range, and ``numpy`` from ``numpy_threshold`` up when the
    optional extra is installed (without numpy the top tier cleanly
    degrades to ``flatarray``). Shared by :class:`AutoBackend`
    (message-level executions) and :func:`repro.perf.make_ledger_run`
    (ledger-level solvers) so the two halves of ``backend="auto"``
    cannot drift apart.
    """
    if num_nodes < threshold:
        return "reference"
    if num_nodes >= numpy_threshold and numpy_tier_available():
        return "numpy"
    return "flatarray"


@register_backend
class AutoBackend(SimulationBackend):
    """Size-heuristic engine selection behind the standard backend spec.

    Args:
        threshold: node count at which the choice flips from
            ``reference`` to ``flatarray``. The default is the measured
            crossover; a non-default value hashes into the backend spec
            (and therefore into result-store cache keys).
        numpy_threshold: node count at which the choice flips from
            ``flatarray`` to the vectorized ``numpy`` tier (when the
            optional extra is installed). Same identity semantics: only
            non-default values hash into the spec.
    """

    name = "auto"

    def __init__(
        self,
        threshold: int = AUTO_THRESHOLD_NODES,
        numpy_threshold: int = NUMPY_THRESHOLD_NODES,
    ) -> None:
        """See the class docstring for the threshold semantics."""
        # Before the base constructor: its ``self.round = 0`` goes
        # through the delegating property setter below, which needs
        # ``_engine`` to exist (still None pre-bind).
        self._engine: Optional[SimulationBackend] = None
        super().__init__()
        self.threshold = int(threshold)
        self.numpy_threshold = int(numpy_threshold)

    # -- identity --------------------------------------------------------

    def params(self) -> Dict[str, Any]:
        """Spec parameters: empty at the default thresholds, so plain
        ``"auto"`` round-trips through :func:`normalize_backend`."""
        params: Dict[str, Any] = {}
        if self.threshold != AUTO_THRESHOLD_NODES:
            params["threshold"] = self.threshold
        if self.numpy_threshold != NUMPY_THRESHOLD_NODES:
            params["numpy_threshold"] = self.numpy_threshold
        return params

    # -- delegation ------------------------------------------------------

    @property
    def engine(self) -> SimulationBackend:
        """The concrete engine chosen at bind time.

        Raises:
            RuntimeError: before :meth:`bind` resolved the choice.
        """
        if self._engine is None:
            raise RuntimeError("AutoBackend is unbound; call bind() first")
        return self._engine

    def bind(
        self,
        graph: WeightedGraph,
        programs: Dict[Node, Any],
        run: Any,
        network: NetworkModel,
        trace: Optional[TraceRecorder],
    ) -> None:
        """Resolve the engine for ``graph`` and bind it to the execution."""
        super().bind(graph, programs, run, network, trace)
        self._engine = build_backend(
            choose_engine_name(
                graph.num_nodes, self.threshold, self.numpy_threshold
            )
        )
        self._engine.bind(graph, programs, run, network, trace)

    # -- execution contract (pure delegation) ----------------------------

    @property
    def contexts(self) -> Dict[Node, Any]:
        """The delegate engine's per-node Context objects."""
        return self.engine.contexts

    @property
    def round(self) -> int:  # type: ignore[override]
        """The delegate engine's round counter (0 before bind)."""
        return self._engine.round if self._engine is not None else 0

    @round.setter
    def round(self, value: int) -> None:
        # The base-class constructor assigns round = 0 before any engine
        # exists; after bind the delegate owns the counter.
        if self._engine is not None:
            self._engine.round = value

    @property
    def all_halted(self) -> bool:
        """Delegates to the bound engine."""
        return self.engine.all_halted

    @property
    def has_pending(self) -> bool:
        """Delegates to the bound engine."""
        return self.engine.has_pending

    def start(self) -> None:
        """Run every program's on_start on the delegate engine."""
        self.engine.start()

    def step(self) -> bool:
        """Execute one round on the delegate engine."""
        return self.engine.step()
