"""Spec expansion: parameter grids → content-hashed, seeded job records.

A :class:`Job` is the unit of work the runner executes and the store caches.
Its identity — and therefore its cache key — is the canonical JSON of its
full configuration, so re-running an unchanged spec re-derives the same keys
and skips every already-computed row.

Seeding discipline: each job derives independent ``random.Random`` streams
from SHA-256 of its identity, namespaced per use ("instance" vs
"algorithm"). The instance stream deliberately excludes the algorithm and
its parameters, so every algorithm in a scenario sees the *same* graph and
terminal placement for a given grid point and seed index — cross-algorithm
comparisons compare like with like, as the CLI's ``compare`` does.
"""

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterator, List, Mapping, Tuple

from repro.engine.registry import PLACEMENT_KEYS, ScenarioSpec
from repro.netmodel import is_default_network, normalize_network
from repro.simbackend import is_default_backend, normalize_backend
from repro.workloads import DEFAULT_PLACEMENT, TERMINAL_PLACEMENTS


def canonical_json(value: Any) -> str:
    """Deterministic JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_hash(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def derive_seed(value: Any, namespace: str) -> int:
    """A 63-bit seed from the canonical JSON of ``value``, per namespace."""
    digest = hashlib.sha256(
        f"{namespace}|{canonical_json(value)}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def expand_grid(grid: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Cartesian product of a grid: list/tuple values sweep, scalars fix.

    ``{"n": [8, 12], "p": 0.3}`` → ``[{"n": 8, "p": 0.3}, {"n": 12, "p": 0.3}]``.
    Keys expand in sorted order so the product order is deterministic.
    """
    if not grid:
        return [{}]
    keys = sorted(grid)
    axes = [
        list(grid[k]) if isinstance(grid[k], (list, tuple)) else [grid[k]]
        for k in keys
    ]
    return [dict(zip(keys, combo)) for combo in itertools.product(*axes)]


@dataclass(frozen=True)
class Job:
    """One fully resolved experiment row.

    Attributes:
        scenario: owning scenario name (stamped on records).
        family: graph family key.
        family_params: resolved builder parameters (scalars only).
        k / component_size: terminal placement.
        placement: terminal-placement strategy (a
            :data:`repro.workloads.TERMINAL_PLACEMENTS` key). The
            default ``uniform`` strategy is *omitted* from
            :meth:`identity` and the placement seed, so
            pre-placement-axis stores keep their cache keys and every
            uniform-placement job re-derives the exact instances of
            earlier schema versions; each other strategy hashes to its
            own key.
        algorithm: registered algorithm name.
        algo_params: resolved solver keyword arguments.
        network: canonical network-condition spec (see
            :func:`repro.netmodel.normalize_network`). The clean default
            is *omitted* from :meth:`identity`, so default-network jobs
            keep the exact cache keys and derived seeds of schema-v1
            stores; every non-default condition hashes to its own key.
        backend: canonical simulation-backend spec (see
            :func:`repro.simbackend.normalize_backend`). Mirrors the
            network axis: the default ``reference`` engine is *omitted*
            from :meth:`identity` (schema-v2 cache keys unchanged), and
            every non-default engine hashes to its own key.
        seed_index: repetition index within the spec.
        exact: whether to compute the exact optimum and ratio.
        profile: collect a phase-level profile (rounds / messages /
            wall-time per phase; see :mod:`repro.perf`) on the record.
            ``False`` — the default — is *omitted* from :meth:`identity`,
            so unprofiled jobs keep the exact cache keys of schema v1–v4
            stores; a profiled job hashes to its own key (its record
            carries the extra ``profile`` payload). Profiling never
            changes the computation: the algorithm seed ignores the
            flag, and the test suite pins result equality.
    """

    scenario: str
    family: str
    family_params: Mapping[str, Any]
    k: int
    component_size: int
    algorithm: str
    placement: str = DEFAULT_PLACEMENT
    algo_params: Mapping[str, Any] = field(default_factory=dict)
    network: Mapping[str, Any] = field(
        default_factory=lambda: normalize_network(None)
    )
    backend: Mapping[str, Any] = field(
        default_factory=lambda: normalize_backend(None)
    )
    seed_index: int = 0
    exact: bool = False
    profile: bool = False

    def __post_init__(self) -> None:
        if self.placement not in TERMINAL_PLACEMENTS:
            raise ValueError(
                f"unknown terminal placement {self.placement!r}; "
                f"choose from {sorted(TERMINAL_PLACEMENTS)}"
            )
        object.__setattr__(self, "network", normalize_network(self.network))
        object.__setattr__(self, "backend", normalize_backend(self.backend))

    def identity(self) -> Dict[str, Any]:
        """The full configuration that defines this job's cache key."""
        ident = {
            "scenario": self.scenario,
            "family": self.family,
            "family_params": dict(self.family_params),
            "k": self.k,
            "component_size": self.component_size,
            "algorithm": self.algorithm,
            "algo_params": dict(self.algo_params),
            "seed_index": self.seed_index,
            "exact": self.exact,
        }
        if self.profile:
            ident["profile"] = True
        if self.placement != DEFAULT_PLACEMENT:
            ident["placement"] = self.placement
        if not is_default_network(self.network):
            ident["network"] = {
                "model": self.network["model"],
                "params": dict(self.network["params"]),
            }
        if not is_default_backend(self.backend):
            ident["backend"] = {
                "name": self.backend["name"],
                "params": dict(self.backend["params"]),
            }
        return ident

    def instance_identity(self) -> Dict[str, Any]:
        """The sub-configuration that defines the instance (graph +
        placement) — algorithm-independent by design (see module docstring).
        The graph additionally ignores placement, so sweeps over ``k`` or
        ``component_size`` re-place terminals on the *same* graph."""
        return {
            "family": self.family,
            "family_params": dict(self.family_params),
            "seed_index": self.seed_index,
        }

    @cached_property
    def key(self) -> str:
        """Content-hash cache key for the result store.

        Hashed once per instance: a ``Job`` is frozen, so its identity
        cannot change after construction (``dataclasses.replace`` builds
        a new instance with its own key).
        """
        return content_hash(self.identity())

    def graph_seed(self) -> int:
        """RNG seed for the graph builder (algorithm-independent)."""
        return derive_seed(self.instance_identity(), "graph")

    def placement_seed(self) -> int:
        """RNG seed for terminal placement (algorithm-independent)."""
        placement = dict(
            self.instance_identity(),
            k=self.k,
            component_size=self.component_size,
        )
        # The default strategy is omitted so uniform-placement jobs
        # re-derive the exact terminal sets of pre-placement-axis runs.
        if self.placement != DEFAULT_PLACEMENT:
            placement["placement"] = self.placement
        return derive_seed(placement, "placement")

    def algorithm_seed(self) -> int:
        """RNG seed for the solver's coin flips."""
        # Deliberately network-, backend- and profile-independent:
        # neither the channel, the execution engine, nor observation may
        # change the algorithm's coin flips, so cross-axis comparisons
        # of a randomized algorithm compare identical executions.
        ident = self.identity()
        ident.pop("network", None)
        ident.pop("backend", None)
        ident.pop("profile", None)
        return derive_seed(ident, "algorithm")

    def to_dict(self) -> Dict[str, Any]:
        """The JSON payload sent to pool workers (the identity dict)."""
        return self.identity()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Job":
        """Rebuild a job from a stored identity dict (defaults filled)."""
        return cls(
            scenario=data["scenario"],
            family=data["family"],
            family_params=dict(data["family_params"]),
            k=int(data["k"]),
            component_size=int(data["component_size"]),
            algorithm=data["algorithm"],
            placement=data.get("placement", DEFAULT_PLACEMENT),
            algo_params=dict(data.get("algo_params", {})),
            network=normalize_network(data.get("network")),
            backend=normalize_backend(data.get("backend")),
            seed_index=int(data.get("seed_index", 0)),
            exact=bool(data.get("exact", False)),
            profile=bool(data.get("profile", False)),
        )


def _split_placement(
    params: Mapping[str, Any]
) -> Tuple[Dict[str, Any], int, int, str]:
    family_params = {
        name: value for name, value in params.items()
        if name not in PLACEMENT_KEYS
    }
    return (
        family_params,
        int(params.get("k", 2)),
        int(params.get("component_size", 2)),
        str(params.get("placement", DEFAULT_PLACEMENT)),
    )


def iter_jobs(spec: ScenarioSpec) -> Iterator[Job]:
    """Expand a spec into jobs: grid × network × backend × algo_grid ×
    algorithms × seeds."""
    for params in expand_grid(spec.grid):
        family_params, k, component_size, placement = _split_placement(params)
        for network in spec.network:
            for backend in spec.backend:
                for algo_params in expand_grid(spec.algo_grid):
                    for algorithm in spec.algorithms:
                        for seed_index in range(spec.seeds):
                            yield Job(
                                scenario=spec.name,
                                family=spec.family,
                                family_params=family_params,
                                k=k,
                                component_size=component_size,
                                algorithm=algorithm,
                                placement=placement,
                                algo_params=algo_params,
                                network=network,
                                backend=backend,
                                seed_index=seed_index,
                                exact=spec.exact,
                                profile=spec.profile,
                            )


def expand_jobs(spec: ScenarioSpec) -> List[Job]:
    """Materialized :func:`iter_jobs` (deterministic order)."""
    return list(iter_jobs(spec))
