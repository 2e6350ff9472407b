"""Per-layer tracing from outside the program.

:func:`install` wraps the public functions each layer exports and
returns a :class:`Tracer` that keeps one span per call in memory:
``[name, start, end, parent, job]``. Functions are patched in every
``repro`` module that holds them under any name (callers import
primitives by name, e.g. ``core/distributed.py`` binds
``bellman_ford``); the numpy kernels are patched in
``repro.perf.npkernels``, where callers look them up at call time;
methods of ``WeightedGraph`` and ``ResultStore`` are patched on the
class, so internal ``self.dijkstra`` calls are caught too.
:meth:`Tracer.uninstall` puts every original back.

Span names are ``<layer>.<function>``; the layer is the module family
(``model``, ``congest``, ``perf``, ``core``, ``randomized``,
``baselines``, ``workloads``, ``engine``, ``engine.store``). A span's
self time is its duration minus that of its traced children.
"""

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, function, span name) for module-level functions.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.engine.runner", "build_instance", "workloads.build_instance"),
    ("repro.engine.runner", "execute_job", "engine.execute_job"),
    ("repro.engine.runner", "run_spec", "engine.run_spec"),
    ("repro.engine.jobs", "expand_jobs", "engine.expand_jobs"),
    ("repro.perf.fastpath", "make_ledger_run", "perf.make_ledger_run"),
    ("repro.congest.bfs", "build_bfs_tree", "congest.build_bfs_tree"),
    ("repro.congest.bellman_ford", "bellman_ford", "congest.bellman_ford"),
    ("repro.congest.broadcast", "broadcast_items", "congest.broadcast_items"),
    ("repro.congest.broadcast", "upcast_items", "congest.upcast_items"),
    (
        "repro.congest.broadcast", "convergecast_aggregate",
        "congest.convergecast_aggregate",
    ),
    (
        "repro.congest.pipeline", "pipelined_filtered_upcast",
        "congest.pipelined_filtered_upcast",
    ),
    ("repro.core.rounded", "rounded_moat_growing", "core.rounded_moat_growing"),
    ("repro.core.pruning", "fast_pruning", "core.fast_pruning"),
    ("repro.randomized.embedding", "build_embedding", "randomized.build_embedding"),
    (
        "repro.randomized.selection", "first_stage_selection",
        "randomized.first_stage_selection",
    ),
    (
        "repro.randomized.reduced", "build_reduced_instance",
        "randomized.build_reduced_instance",
    ),
    ("repro.baselines.spanner", "greedy_spanner", "baselines.greedy_spanner"),
)

#: The numpy-tier kernels (module ``repro.perf.npkernels``).
NP_KERNELS = (
    "build_bfs_tree_numpy",
    "bellman_ford_numpy",
    "broadcast_items_numpy",
    "convergecast_aggregate_numpy",
)

#: Graph-oracle methods patched on ``WeightedGraph``. The two diameters
#: are traced so their time counts as oracle time; they get no metric.
ORACLE_METHODS = (
    "dijkstra",
    "all_pairs_distances",
    "shortest_path",
    "shortest_path_diameter",
    "min_hop_shortest_path_hops",
    "ball",
    "unweighted_diameter",
    "weighted_diameter",
)

STORE_METHODS = ("keys", "select", "append", "refresh")

#: Layer groups for the share metrics (span-name prefixes).
SHARE_LAYERS = {
    "workloads": ("workloads.",),
    "model": ("model.",),
    "congest": ("congest.",),
    "perf": ("perf.",),
    "solver": ("core.", "randomized.", "baselines."),
    "engine": ("engine.",),
}


def ledger_tier(run: Any) -> str:
    """The tier name of a ledger built by ``make_ledger_run``."""
    from repro.perf import FastCongestRun, NumpyCongestRun

    if NumpyCongestRun is not None and isinstance(run, NumpyCongestRun):
        return "numpy"
    if isinstance(run, FastCongestRun):
        return "flatarray"
    return "reference"


class Tracer:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.job: Any = None
        self.counts: Counter = Counter()
        self.sssp: set = set()
        self._graphs: List[Any] = []
        self._undo: List[Callable[[], None]] = []

    def start_job(self, job: Any) -> None:
        """Tag the following spans with ``job`` (an index or a phase)."""
        self.job = job
        self._graphs = []  # keeps ids in ``sssp`` unique within a job

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``observe(args, result)``
        runs after the span closes."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def _patch_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, original)
                    )

    def _patch_method(self, cls: type, method: str, wrapper: Callable) -> None:
        original = cls.__dict__[method]
        setattr(cls, method, wrapper)
        self._undo.append(lambda: setattr(cls, method, original))

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._undo:
            self._undo.pop()()

    # -- observers --------------------------------------------------------

    def _on_dijkstra(self, args: tuple, result: Any) -> None:
        graph, source = args[0], args[1]
        self._graphs.append(graph)
        self.sssp.add((self.job, id(graph), source))

    def _on_ledger(self, args: tuple, result: Any) -> None:
        tier = ledger_tier(result)
        self.counts[f"perf.ledger.{tier}.runs"] += 1
        self.counts[f"tier.{result.graph.num_nodes}.{tier}"] += 1

    def _on_bellman_ford_numpy(self, args: tuple, result: Any) -> None:
        if result is None:
            self.counts["perf.npkernels.bellman_ford_numpy.declines"] += 1

    def _on_select(self, args: tuple, result: Any) -> None:
        self.counts["engine.store.select.rows"] += len(result)

    def _on_append(self, args: tuple, result: Any) -> None:
        self.counts["engine.store.append.rows"] += result

    def _on_run_spec(self, args: tuple, result: Any) -> None:
        self.counts["engine.cache.hits"] += result.cached
        self.counts["engine.cache.jobs"] += result.total


def install() -> Tracer:
    """Patch every traced name; returns the live tracer."""
    import importlib

    from repro.engine import algorithms
    from repro.engine.store import ResultStore
    from repro.model.graph import WeightedGraph

    tracer = Tracer()
    observers = {
        "perf.make_ledger_run": tracer._on_ledger,
        "engine.run_spec": tracer._on_run_spec,
    }
    for module_name, function, name in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), function)
        tracer._patch_everywhere(
            original, tracer.wrap(name, original, observers.get(name))
        )
    npkernels = importlib.import_module("repro.perf.npkernels")
    for kernel in NP_KERNELS:
        original = getattr(npkernels, kernel)
        observe = (
            tracer._on_bellman_ford_numpy
            if kernel == "bellman_ford_numpy" else None
        )
        tracer._patch_everywhere(
            original, tracer.wrap(f"perf.npkernels.{kernel}", original, observe)
        )
    for method in ORACLE_METHODS:
        original = WeightedGraph.__dict__[method]
        observe = tracer._on_dijkstra if method == "dijkstra" else None
        tracer._patch_method(
            WeightedGraph, method,
            tracer.wrap(f"model.{method}", original, observe),
        )
    store_observers = {"select": tracer._on_select, "append": tracer._on_append}
    for method in STORE_METHODS:
        original = ResultStore.__dict__[method]
        tracer._patch_method(
            ResultStore, method,
            tracer.wrap(
                f"engine.store.{method}", original, store_observers.get(method)
            ),
        )
    registry = algorithms.ALGORITHMS
    for alg, spec in list(registry.items()):
        registry[alg] = spec._replace(run=tracer.wrap(f"core.{alg}", spec.run))
        tracer._undo.append(lambda a=alg, s=spec: registry.__setitem__(a, s))
    return tracer


# -- reduction ----------------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def span_table(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` (outermost spans only,
    so recursion is not counted twice) and ``self_s``."""
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
        row = table[name]
        row["calls"] += 1
        row["self_s"] += own
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["s"] += end - start
    return table


def root_time(spans: List[list]) -> float:
    """Seconds covered by top-level spans."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def self_time_by_prefix(
    spans: List[list], prefixes: Tuple[str, ...], job: Any = None
) -> float:
    """Total self seconds of spans whose name starts with a prefix
    (and whose job tag is ``job``, if given)."""
    return sum(
        own
        for span, own in zip(spans, self_times(spans))
        if span[0].startswith(prefixes) and (job is None or span[4] == job)
    )


def write_spans(spans: List[list], path: Path) -> None:
    """One JSON array per line: name, start, end, parent index, job."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
