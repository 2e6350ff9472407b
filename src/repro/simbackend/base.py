"""The simulation-backend interface: who owns the round loop.

The CONGEST :class:`~repro.congest.simulator.Simulator` is a thin facade;
the actual execution engine — message queues, network-model routing,
quiescence and halt detection — is a :class:`SimulationBackend`. Backends
are swappable implementations of one contract: given a graph, one
:class:`~repro.congest.simulator.NodeProgram` per node, a shared
:class:`~repro.congest.run.CongestRun` ledger, a bound
:class:`~repro.netmodel.NetworkModel`, and an optional
:class:`~repro.netmodel.TraceRecorder`, produce the *same* execution —
identical rounds, ledger traffic, trace events, and final program states —
while being free to choose the data layout that computes it.

Like network conditions, backends are hashable experiment input: a
backend is identified by a canonical ``{"name", "params"}`` spec dict
(:func:`normalize_backend`), and the engine omits the default
``reference`` backend from job identities so existing result-store cache
keys are unchanged.

The network-model delivery hooks (``begin_round`` / ``schedule`` /
``alive``) are backend-agnostic by construction: every backend calls them
through the same :class:`~repro.netmodel.NetworkModel` interface, in the
same canonical message order, so one model implementation serves every
execution engine.
"""

from typing import Any, Dict, Mapping, Optional, Union

from repro.exceptions import SimulationError
from repro.model.graph import Node, WeightedGraph
from repro.netmodel import NetworkModel, TraceRecorder

# NOTE: this package must not import repro.congest at module scope —
# repro.congest.simulator imports the backends, and the ledger type
# (CongestRun) is only passed through, so ``Any``-typed hooks suffice.

#: The canonical spec of the default execution engine.
DEFAULT_BACKEND: Dict[str, Any] = {"name": "reference", "params": {}}

#: Anything :func:`normalize_backend` accepts.
BackendLike = Union[None, str, Mapping[str, Any], "SimulationBackend"]


class Context:
    """Per-node view handed to a NodeProgram each round.

    ``_simulator`` is the owning :class:`SimulationBackend` (historically
    the simulator itself); backends may subclass Context to specialize the
    send/halt hot path, but the NodeProgram-facing surface is fixed.
    """

    def __init__(self, simulator: "SimulationBackend", node: Node) -> None:
        """Bind the view to one node of the engine's graph."""
        self._simulator = simulator
        self.node_id = node
        self.neighbors = simulator.graph.neighbors(node)
        self.round = 0

    def edge_weight(self, neighbor: Node) -> int:
        """Weight of the incident edge to ``neighbor``."""
        return self._simulator.graph.weight(self.node_id, neighbor)

    def send(self, neighbor: Node, payload: Any) -> None:
        """Queue one message for delivery next round (≤ 1 per neighbor)."""
        self._simulator._queue_message(self.node_id, neighbor, payload)

    def halt(self) -> None:
        """Mark this node as explicitly terminated (Section 2's notion of
        termination; a halted node no longer receives on_round calls)."""
        self._simulator._halt(self.node_id)


class SimulationBackend:
    """Base class for execution engines behind the simulator facade.

    Lifecycle: construct (with engine parameters only), then
    :meth:`bind` once per execution, then :meth:`start` / :meth:`step`
    or :meth:`run_to_completion`, which also closes a streaming trace.
    """

    name = "abstract"

    def __init__(self) -> None:
        """Engines construct unbound; :meth:`bind` attaches an execution."""
        self.graph: Optional[WeightedGraph] = None
        self.programs: Dict[Node, Any] = {}
        self.run: Any = None
        self.network: Optional[NetworkModel] = None
        self.trace: Optional[TraceRecorder] = None
        self.round = 0

    # -- identity --------------------------------------------------------

    def params(self) -> Dict[str, Any]:
        """JSON-serializable engine configuration (empty when
        parameter-free)."""
        return {}

    def spec(self) -> Dict[str, Any]:
        """The canonical spec dict identifying this backend + parameters."""
        return {"name": self.name, "params": self.params()}

    # -- lifecycle -------------------------------------------------------

    def bind(
        self,
        graph: WeightedGraph,
        programs: Dict[Node, Any],
        run: Any,
        network: NetworkModel,
        trace: Optional[TraceRecorder],
    ) -> None:
        """Attach to one execution (called by the Simulator facade)."""
        self.graph = graph
        self.programs = programs
        self.run = run
        self.network = network
        self.trace = trace
        self.round = 0

    # -- execution contract ----------------------------------------------

    @property
    def all_halted(self) -> bool:
        """Every node has halted (or been removed by the network model)."""
        raise NotImplementedError

    @property
    def has_pending(self) -> bool:
        """Messages queued or in flight."""
        raise NotImplementedError

    def start(self) -> None:
        """Run every program's on_start (round 0, local only)."""
        raise NotImplementedError

    def step(self) -> bool:
        """Execute one synchronous round; returns False when quiescent."""
        raise NotImplementedError

    def run_to_completion(self, max_rounds: int = 100_000) -> int:
        """start() + step() until quiescence; returns rounds executed.

        ``max_rounds`` is inclusive: quiescing in exactly ``max_rounds``
        rounds succeeds, and :class:`SimulationError` is raised as soon as
        the limit is reached with work still pending (never executing a
        ``max_rounds + 1``-th round).
        """
        self.start()
        rounds = 0
        try:
            while self.has_pending and not self.all_halted:
                if rounds >= max_rounds:
                    raise SimulationError(
                        f"node programs did not quiesce in {max_rounds} rounds"
                    )
                self.step()
                rounds += 1
        except BaseException:
            # Best-effort cleanup; the original error is what matters.
            self._close_trace(swallow=True)
            raise
        self._close_trace(swallow=False)
        return rounds

    def _close_trace(self, swallow: bool) -> None:
        """Release a streaming trace's file handle when the execution
        ends — completed or dying, the JSONL stream must not be left on
        an open handle. Closing is idempotent and the recorder stays
        usable (re-streaming appends), so eager closing is safe even
        when the caller keeps the recorder around."""
        if self.trace is None:
            return
        try:
            self.trace.close()
        except Exception:
            if not swallow:
                raise

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params().items()))
        return f"{type(self).__name__}({params})"


#: Registered backend classes by canonical name (populated on import of
#: the implementation modules; see :func:`register_backend`).
BACKENDS: Dict[str, type] = {}


def register_backend(cls: type) -> type:
    """Class decorator adding a backend to the :data:`BACKENDS` registry."""
    BACKENDS[cls.name] = cls
    return cls


def normalize_backend(backend: BackendLike) -> Dict[str, Any]:
    """Turn user shorthand into one canonical ``{"name", "params"}`` dict.

    Accepts ``None`` (the default reference engine), a backend name
    string, a mapping with ``name`` and optional ``params`` keys, or a
    constructed :class:`SimulationBackend`. The result is
    JSON-round-trippable with deterministic content, so it is safe to
    hash into job identities.
    """
    if backend is None:
        return dict(DEFAULT_BACKEND, params={})
    if isinstance(backend, SimulationBackend):
        return backend.spec()
    if isinstance(backend, str):
        return {"name": backend, "params": {}}
    if isinstance(backend, Mapping):
        unknown = set(backend) - {"name", "params"}
        if unknown:
            raise ValueError(
                f"unexpected backend spec keys {sorted(unknown)}; "
                'expected {"name": name, "params": {...}}'
            )
        params = backend.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError(
                f"backend spec 'params' must be an object, got {params!r}"
            )
        return {
            "name": str(backend.get("name", DEFAULT_BACKEND["name"])),
            "params": dict(params),
        }
    raise TypeError(f"cannot interpret backend spec {backend!r}")


def is_default_backend(backend: BackendLike) -> bool:
    """Whether ``backend`` denotes the default reference engine."""
    spec = normalize_backend(backend)
    return spec["name"] == DEFAULT_BACKEND["name"] and not spec["params"]


def build_backend(backend: BackendLike = None) -> "SimulationBackend":
    """Instantiate a backend from anything :func:`normalize_backend`
    accepts.

    A constructed :class:`SimulationBackend` passes through unchanged, so
    callers can hand the simulator a pre-configured engine.
    """
    if isinstance(backend, SimulationBackend):
        return backend
    import repro.simbackend  # noqa: F401 — populate the registry

    spec = normalize_backend(backend)
    try:
        cls = BACKENDS[spec["name"]]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {spec['name']!r}; "
            f"choose from {sorted(BACKENDS)}"
        ) from None
    try:
        return cls(**spec["params"])
    except TypeError as exc:
        raise ValueError(
            f"bad parameters for simulation backend {spec['name']!r}: {exc}"
        ) from None
