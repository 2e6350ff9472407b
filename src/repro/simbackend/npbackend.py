"""The message-level face of the numpy tier.

NodeProgram callbacks are arbitrary Python — there is nothing legal to
vectorize inside ``on_round`` — so the numpy *message-level* engine is
the flat-array engine under the ``numpy`` name. The tier's
vectorization lives at the *ledger* level
(:mod:`repro.perf.npkernels`), which :func:`repro.perf.make_ledger_run`
selects for the same ``numpy`` backend spec — registering the name here
keeps one ``--backend numpy`` valid across the whole stack, with its
own spec and cache key, exactly like ``flatarray``.

This module imports numpy at module scope on purpose: with numpy absent
the import fails and :mod:`repro.simbackend` simply does not register
the tier, so ``numpy`` never appears in the registry and every spec
naming it is rejected with the standard unknown-backend error.

Conformance: the engine is the flatarray execution verbatim, so the
full cross-backend matrix (tests/test_simbackend_conformance.py) pins
it byte-identical to reference like every other engine.
"""

import numpy  # noqa: F401  (the tier registers only when numpy imports)

from repro.simbackend.base import register_backend
from repro.simbackend.flatarray import FlatArrayBackend


@register_backend
class NumpyBackend(FlatArrayBackend):
    """Flat-array execution, registered under the numpy tier's name."""

    name = "numpy"
