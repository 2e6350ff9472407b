"""Ledger specs: the names the ``--backend`` axis accepts.

A backend spec names the CONGEST ledger a solver charges
(:func:`repro.perf.make_ledger_run`); the message-level
:class:`~repro.congest.simulator.Simulator` has one round loop and takes
no backend. The tiers:

* ``reference`` and ``flatarray`` build ledgers that run identical
  code: a :class:`~repro.congest.run.CongestRun`, the latter under its
  own type (:class:`repro.perf.FastCongestRun`). ``flatarray`` stays a
  name because stored results hash it into their cache keys and the
  end-to-end benchmark's tier guard tells the two apart;
* ``numpy`` builds a :class:`repro.perf.npkernels.NumpyCongestRun`,
  whose array kernels change wall time and nothing observable. It is a
  valid name only when ``import numpy`` succeeds, so the reference path
  stays dependency-free;
* ``auto`` picks one of the three from the graph's node count
  (:func:`choose_engine_name`).

Like network conditions, backend specs are hashable experiment input:
a spec is one canonical ``{"name", "params"}`` dict
(:func:`normalize_backend`), and the engine omits the default
``reference`` spec from job identities, so every non-default spec
hashes to its own cache key and existing stores keep their keys.
"""

from typing import Any, Dict, Mapping, Union

#: The canonical spec of the default ledger.
DEFAULT_BACKEND: Dict[str, Any] = {"name": "reference", "params": {}}

#: Anything :func:`normalize_backend` accepts.
BackendLike = Union[None, str, Mapping[str, Any]]

#: Node count from which ``auto`` picks ``flatarray`` over
#: ``reference``. Both build the same ledger, so the value only decides
#: which name a large ``auto`` run is profiled under; it stays fixed
#: because non-default values hash into cache keys.
AUTO_THRESHOLD_NODES = 64

#: Node count from which ``auto`` picks the vectorized ``numpy`` tier
#: (its array compilation and per-round kernel launches amortize;
#: measured in ``benchmarks/bench_e22_numpy.py``). Only reachable when
#: numpy imports; otherwise ``auto`` stays on ``flatarray``.
NUMPY_THRESHOLD_NODES = 1024

#: The parameters ``auto`` takes; no other tier takes any.
_AUTO_PARAMS = ("threshold", "numpy_threshold")


def _numpy_imports() -> bool:
    # Import rather than find_spec: a present-but-broken numpy that
    # cannot be imported counts as absent.
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


#: The valid ledger tier names; ``numpy`` only when numpy imports.
BACKENDS = ("reference", "flatarray", "auto") + (
    ("numpy",) if _numpy_imports() else ()
)


def numpy_tier_available() -> bool:
    """Whether the optional ``numpy`` tier is a valid backend name."""
    return "numpy" in BACKENDS


def choose_engine_name(
    num_nodes: int,
    threshold: int = AUTO_THRESHOLD_NODES,
    numpy_threshold: int = NUMPY_THRESHOLD_NODES,
) -> str:
    """The tier the ``auto`` spec picks for an ``num_nodes``-node graph.

    ``reference`` below ``threshold``, ``flatarray`` in the mid-range,
    and ``numpy`` from ``numpy_threshold`` up when numpy imports
    (without it the top tier degrades to ``flatarray``).
    """
    if num_nodes < threshold:
        return "reference"
    if num_nodes >= numpy_threshold and numpy_tier_available():
        return "numpy"
    return "flatarray"


def normalize_backend(backend: BackendLike) -> Dict[str, Any]:
    """Turn user shorthand into one canonical ``{"name", "params"}`` dict.

    Accepts ``None`` (the default reference ledger), a tier name string,
    or a mapping with ``name`` and optional ``params`` keys. The result
    is JSON-round-trippable with deterministic content, so it is safe to
    hash into job identities.
    """
    if backend is None:
        return dict(DEFAULT_BACKEND, params={})
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
    """Whether ``backend`` denotes the default reference ledger."""
    spec = normalize_backend(backend)
    return spec["name"] == DEFAULT_BACKEND["name"] and not spec["params"]


def validate_backend(backend: BackendLike) -> Dict[str, Any]:
    """Normalize ``backend`` and check it names a tier with valid params.

    Only ``auto`` takes parameters, and only the int thresholds named in
    its docs. Returns the canonical spec.

    Raises:
        ValueError: on an unknown tier name or bad parameters.
    """
    spec = normalize_backend(backend)
    name, params = spec["name"], spec["params"]
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"choose from {sorted(BACKENDS)}"
        )
    allowed = _AUTO_PARAMS if name == "auto" else ()
    for key, value in params.items():
        if key not in allowed:
            raise ValueError(
                f"bad parameters for simulation backend {name!r}: "
                f"unexpected parameter {key!r}"
            )
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"bad parameters for simulation backend {name!r}: "
                f"{key} must be an int, got {value!r}"
            )
    return spec
