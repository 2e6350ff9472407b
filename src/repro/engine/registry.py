"""Graph families and the named scenario registry.

A :class:`ScenarioSpec` declaratively combines a graph family from
:mod:`repro.workloads.generators`, terminal placement, a set of registered
algorithms, and a parameter grid. Specs are pure data (JSON round-trippable)
so they can live in files for the ``batch`` subcommand and hash stably for
the result store's cache keys.
"""

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Tuple

from repro.engine.algorithms import ALGORITHMS
from repro.model.graph import WeightedGraph
from repro.netmodel import NETWORK_MODELS, build_network_model, normalize_network
from repro.simbackend import BACKENDS, normalize_backend, validate_backend
from repro.workloads import (
    TERMINAL_PLACEMENTS,
    broom_graph,
    caterpillar_graph,
    clustered_geometric_graph,
    grid_graph,
    powerlaw_graph,
    random_connected_graph,
    random_geometric_graph,
    random_regular_graph,
    ring_of_blobs,
    smallworld_graph,
    torus_graph,
)


class GraphFamily(NamedTuple):
    """A named graph generator: ``build(rng, **params) -> WeightedGraph``."""

    name: str
    build: Callable[..., WeightedGraph]
    description: str = ""


def _build_gnp(
    rng: random.Random, n: int = 16, p: float = 0.35, max_weight: int = 20
) -> WeightedGraph:
    return random_connected_graph(n, p, rng, max_weight=max_weight)


def _build_geometric(
    rng: random.Random, n: int = 16, radius: float = 0.4, weight_scale: int = 100
) -> WeightedGraph:
    return random_geometric_graph(n, radius, rng, weight_scale=weight_scale)


def _build_grid(
    rng: random.Random, rows: int = 4, cols: int = 4, max_weight: int = 10
) -> WeightedGraph:
    return grid_graph(rows, cols, rng, max_weight=max_weight)


def _build_ring(
    rng: random.Random,
    num_blobs: int = 3,
    blob_size: int = 3,
    path_weight: int = 1,
    blob_weight: int = 3,
) -> WeightedGraph:
    return ring_of_blobs(
        num_blobs, blob_size, rng,
        path_weight=path_weight, blob_weight=blob_weight,
    )


def _build_powerlaw(
    rng: random.Random, n: int = 16, m_attach: int = 2, max_weight: int = 20
) -> WeightedGraph:
    return powerlaw_graph(n, m_attach, rng, max_weight=max_weight)


def _build_smallworld(
    rng: random.Random,
    n: int = 16,
    k_nearest: int = 4,
    rewire_p: float = 0.2,
    max_weight: int = 20,
) -> WeightedGraph:
    return smallworld_graph(
        n, k_nearest, rewire_p, rng, max_weight=max_weight
    )


def _build_regular(
    rng: random.Random, n: int = 16, degree: int = 3, max_weight: int = 20
) -> WeightedGraph:
    return random_regular_graph(n, degree, rng, max_weight=max_weight)


def _build_torus(
    rng: random.Random, rows: int = 4, cols: int = 4, max_weight: int = 10
) -> WeightedGraph:
    return torus_graph(rows, cols, rng, max_weight=max_weight)


def _build_caterpillar(
    rng: random.Random, spine: int = 5, legs: int = 2, max_weight: int = 10
) -> WeightedGraph:
    return caterpillar_graph(spine, legs, rng, max_weight=max_weight)


def _build_broom(
    rng: random.Random, handle: int = 6, bristles: int = 4, max_weight: int = 10
) -> WeightedGraph:
    return broom_graph(handle, bristles, rng, max_weight=max_weight)


def _build_cluster_geo(
    rng: random.Random,
    n: int = 16,
    clusters: int = 3,
    spread: float = 0.08,
    radius: float = 0.22,
    weight_scale: int = 100,
) -> WeightedGraph:
    return clustered_geometric_graph(
        n, clusters, rng,
        spread=spread, radius=radius, weight_scale=weight_scale,
    )


GRAPH_FAMILIES: Mapping[str, GraphFamily] = {
    fam.name: fam
    for fam in (
        GraphFamily("gnp", _build_gnp, "G(n,p) with connectivity fallback"),
        GraphFamily("geometric", _build_geometric, "random geometric graph"),
        GraphFamily("grid", _build_grid, "rows × cols grid"),
        GraphFamily("ring", _build_ring, "ring of cliques (controllable s)"),
        GraphFamily(
            "powerlaw", _build_powerlaw,
            "Barabási–Albert power-law (hub congestion)",
        ),
        GraphFamily(
            "smallworld", _build_smallworld,
            "Watts–Strogatz small-world (shortcuts vs locality)",
        ),
        GraphFamily(
            "regular", _build_regular,
            "random-regular expander (no hubs, no locality)",
        ),
        GraphFamily(
            "torus", _build_torus,
            "periodic grid (s ≈ √n, vertex-transitive)",
        ),
        GraphFamily(
            "caterpillar", _build_caterpillar,
            "caterpillar tree (s linear in spine)",
        ),
        GraphFamily(
            "broom", _build_broom,
            "broom tree (long handle into one star)",
        ),
        GraphFamily(
            "cluster_geo", _build_cluster_geo,
            "clustered geometric (strong locality)",
        ),
    )
}

#: Grid keys routed to terminal placement rather than the graph builder.
#: ``placement`` selects a :data:`repro.workloads.TERMINAL_PLACEMENTS`
#: strategy and — like any grid key — sweeps when given as a list.
PLACEMENT_KEYS = ("k", "component_size", "placement")


def normalize_networks(network: Any) -> Tuple[Dict[str, Any], ...]:
    """Normalize a spec's network axis to a tuple of canonical spec dicts.

    Accepts one network shorthand or a list/tuple of them (the sweep
    axis); validates model names against the netmodel registry so bad
    specs fail at construction time, not mid-sweep.
    """
    entries = network if isinstance(network, (list, tuple)) else [network]
    if not entries:
        entries = [None]
    specs = [normalize_network(entry) for entry in entries]
    unknown = [s["model"] for s in specs if s["model"] not in NETWORK_MODELS]
    if unknown:
        raise ValueError(
            f"unknown network models {unknown}; "
            f"choose from {sorted(NETWORK_MODELS)}"
        )
    for spec in specs:
        # Instantiate once so bad parameters surface here (ValueError),
        # not as a crashed worker halfway through a sweep.
        build_network_model(spec)
    return tuple(specs)


def check_backend_names(names: Iterable[str], context: str = "") -> None:
    """Raise ValueError, prefixed by ``context``, when a name in ``names``
    is not a ledger tier name."""
    unknown = [name for name in names if name not in BACKENDS]
    if unknown:
        raise ValueError(
            f"{context}unknown simulation backends {unknown}; "
            f"choose from {sorted(BACKENDS)}"
        )


def normalize_backends(backend: Any) -> Tuple[Dict[str, Any], ...]:
    """Normalize a spec's backend axis to a tuple of canonical spec dicts.

    Accepts one backend shorthand or a list/tuple of them (the sweep
    axis); validates tier names and parameters so bad specs fail at
    construction time, not mid-sweep.
    """
    entries = backend if isinstance(backend, (list, tuple)) else [backend]
    if not entries:
        entries = [None]
    specs = [normalize_backend(entry) for entry in entries]
    check_backend_names([s["name"] for s in specs])
    for spec in specs:
        validate_backend(spec)
    return tuple(specs)


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative experiment scenario.

    Attributes:
        name: registry key; also stamped on every result record.
        family: a :data:`GRAPH_FAMILIES` key.
        algorithms: registered algorithm names to run on each instance.
        grid: parameter grid. List/tuple values are swept (cartesian
            product), scalars are fixed. The reserved keys ``k`` and
            ``component_size`` control terminal placement; all others are
            passed to the family's graph builder.
        algo_grid: per-algorithm keyword grid (e.g. ``{"eps": ["1/10",
            "1/2"]}``), swept the same way.
        network: network condition(s) to cross the scenario with — a
            model name, a ``{"model", "params"}`` spec, or a list of
            either to sweep. Normalized to a tuple of canonical spec
            dicts; defaults to the clean ``reliable`` channel.
        backend: ledger backend(s) to cross the scenario with — a
            tier name, a ``{"name", "params"}`` spec, or a list of
            either to sweep. Normalized like the network axis; defaults
            to the ``reference`` ledger.
        seeds: number of independent repetitions per grid point.
        exact: whether to also compute the exact optimum (exponential
            time — keep instances small) and record the ratio.
        profile: collect phase-level profiles (see :mod:`repro.perf`)
            on every job record; the ``repro profile`` subcommand sets
            this on a copy of a registered scenario. Profiled jobs hash
            to their own cache keys (the default False is omitted from
            job identities, so existing stores are untouched).
        description: one-line summary for ``--list`` output.
    """

    name: str
    family: str
    algorithms: Tuple[str, ...]
    grid: Mapping[str, Any] = field(default_factory=dict)
    algo_grid: Mapping[str, Any] = field(default_factory=dict)
    network: Any = "reliable"
    backend: Any = "reference"
    seeds: int = 3
    exact: bool = False
    profile: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.family not in GRAPH_FAMILIES:
            raise ValueError(
                f"unknown graph family {self.family!r}; "
                f"choose from {sorted(GRAPH_FAMILIES)}"
            )
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(
                f"unknown algorithms {unknown}; "
                f"choose from {sorted(ALGORITHMS)}"
            )
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        placements = self.grid.get("placement", ())
        if not isinstance(placements, (list, tuple)):
            placements = (placements,)
        unknown = [p for p in placements if p not in TERMINAL_PLACEMENTS]
        if unknown:
            raise ValueError(
                f"unknown terminal placements {unknown}; "
                f"choose from {sorted(TERMINAL_PLACEMENTS)}"
            )
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "grid", dict(self.grid))
        object.__setattr__(self, "algo_grid", dict(self.algo_grid))
        object.__setattr__(
            self, "network", normalize_networks(self.network)
        )
        object.__setattr__(
            self, "backend", normalize_backends(self.backend)
        )

    @property
    def network_names(self) -> Tuple[str, ...]:
        """The model names of the scenario's network axis (for ``--list``)."""
        return tuple(spec["model"] for spec in self.network)

    @property
    def backend_names(self) -> Tuple[str, ...]:
        """The engine names of the scenario's backend axis (for ``--list``)."""
        return tuple(spec["name"] for spec in self.backend)

    # -- (de)serialization for spec files and hashing --------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able spec (the ``batch`` file format; fully round-trips)."""
        return {
            "name": self.name,
            "family": self.family,
            "algorithms": list(self.algorithms),
            "grid": dict(self.grid),
            "algo_grid": dict(self.algo_grid),
            "network": [
                {"model": spec["model"], "params": dict(spec["params"])}
                for spec in self.network
            ],
            "backend": [
                {"name": spec["name"], "params": dict(spec["params"])}
                for spec in self.backend
            ],
            "seeds": self.seeds,
            "exact": self.exact,
            "profile": self.profile,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a spec from a ``batch``-file dict (missing keys default).

        Raises:
            ValueError: unknown family/algorithm/placement/network/backend.
        """
        return cls(
            name=data["name"],
            family=data["family"],
            algorithms=tuple(data["algorithms"]),
            grid=dict(data.get("grid", {})),
            algo_grid=dict(data.get("algo_grid", {})),
            network=data.get("network", "reliable"),
            backend=data.get("backend", "reference"),
            seeds=int(data.get("seeds", 3)),
            exact=bool(data.get("exact", False)),
            profile=bool(data.get("profile", False)),
            description=str(data.get("description", "")),
        )


class ScenarioRegistry:
    """Named scenario specs; the ``sweep`` subcommand runs these."""

    def __init__(self) -> None:
        """An empty registry; populate with :meth:`register`."""
        self._specs: Dict[str, ScenarioSpec] = {}

    def register(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Add a spec under its name; raises ValueError on duplicates."""
        if spec.name in self._specs:
            raise ValueError(f"scenario {spec.name!r} already registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ScenarioSpec:
        """The spec registered under ``name``; KeyError names the choices."""
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; choose from {sorted(self._specs)}"
            ) from None

    def names(self) -> List[str]:
        """All registered scenario names, sorted."""
        return sorted(self._specs)

    def specs(self, names: Iterable[str] = ()) -> List[ScenarioSpec]:
        """The named specs, or every registered spec when none are named."""
        wanted = list(names)
        if not wanted:
            return [self._specs[n] for n in self.names()]
        return [self.get(n) for n in wanted]

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)


#: The built-in scenarios. Kept small enough that the full default sweep
#: finishes in seconds; they cover three graph families and six algorithms,
#: so one `repro sweep` exercises every regime the paper distinguishes.
REGISTRY = ScenarioRegistry()

REGISTRY.register(
    ScenarioSpec(
        name="gnp-core",
        family="gnp",
        algorithms=("moat", "rounded", "distributed", "spanner"),
        grid={"n": [12, 16], "p": 0.3, "k": 2, "component_size": 2},
        seeds=2,
        description="dense random graphs: the paper's main algorithms vs baselines",
    )
)

REGISTRY.register(
    ScenarioSpec(
        name="grid-rounds",
        family="grid",
        algorithms=("distributed", "sublinear"),
        grid={"rows": [3, 4], "cols": 3, "k": 2, "component_size": 2},
        seeds=2,
        description="grids (s ≈ √n): Section 4.1 vs Section 4.2 round counts",
    )
)

REGISTRY.register(
    ScenarioSpec(
        name="ring-diameter",
        family="ring",
        algorithms=("distributed", "randomized"),
        grid={"num_blobs": [3, 4], "blob_size": 3, "k": 2, "component_size": 2},
        seeds=2,
        description="ring-of-blobs: sweeping shortest-path diameter s",
    )
)

REGISTRY.register(
    ScenarioSpec(
        name="powerlaw-hubs",
        family="powerlaw",
        algorithms=("distributed", "sublinear"),
        grid={
            "n": [16, 24], "m_attach": 2,
            "k": 2, "component_size": 2, "placement": "hub_spoke",
        },
        seeds=2,
        description="power-law hubs: skewed degrees, demands through one hub",
    )
)

REGISTRY.register(
    ScenarioSpec(
        name="smallworld-far",
        family="smallworld",
        algorithms=("distributed", "randomized"),
        grid={
            "n": [16, 24], "k_nearest": 4, "rewire_p": 0.2,
            "k": 2, "component_size": 2, "placement": "far_pairs",
        },
        seeds=2,
        description="small-world shortcuts vs maximally distant demands",
    )
)

REGISTRY.register(
    ScenarioSpec(
        name="torus-local",
        family="torus",
        algorithms=("distributed", "sublinear"),
        grid={
            "rows": [3, 4], "cols": 4,
            "k": 2, "component_size": 2, "placement": "clustered",
        },
        seeds=2,
        description="torus (s ≈ √n) with clustered demands: small-moat regime",
    )
)

REGISTRY.register(
    ScenarioSpec(
        name="trees-sparse",
        family="caterpillar",
        algorithms=("moat", "distributed"),
        grid={"spine": [4, 6], "legs": 2, "k": 2, "component_size": 2},
        seeds=2,
        description="caterpillar trees: s linear in spine, unique paths",
    )
)

REGISTRY.register(
    ScenarioSpec(
        name="expander-placements",
        family="regular",
        algorithms=("distributed", "spanner"),
        grid={
            "n": [12, 16], "degree": 3, "k": 2, "component_size": 2,
            "placement": ["uniform", "far_pairs"],
        },
        seeds=2,
        description="random-regular expander crossed with two placements",
    )
)

REGISTRY.register(
    ScenarioSpec(
        name="cluster-geo",
        family="cluster_geo",
        algorithms=("moat", "distributed"),
        grid={
            "n": [16], "clusters": 3,
            "k": 2, "component_size": 2, "placement": "clustered",
        },
        seeds=2,
        description="clustered geometric: intra-cluster merges, long bridges",
    )
)

REGISTRY.register(
    ScenarioSpec(
        name="gnp-adversity",
        family="gnp",
        algorithms=("distributed",),
        grid={"n": [12, 16], "p": 0.3, "k": 2, "component_size": 2},
        network=[
            "reliable",
            {"model": "delay", "params": {"max_delay": 3}},
            {"model": "lossy", "params": {"drop_p": 0.1, "retransmit": 2}},
        ],
        seeds=2,
        description="one scenario × three network conditions (netmodel sweep)",
    )
)
