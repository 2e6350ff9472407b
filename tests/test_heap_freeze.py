"""The engine's once-per-process heap freeze (``execute_job``).

The first job of each process runs ``gc.collect()`` then ``gc.freeze()``;
later jobs touch the collector not at all. A fresh interpreter is the
only place the "first job" is observable, so the contract runs in a
subprocess; a forked child of it must freeze its own heap again.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SCRIPT = textwrap.dedent(
    """
    import gc
    import os
    import weakref

    from repro.engine.jobs import Job
    from repro.engine.runner import execute_job

    def job(seed):
        return Job(
            scenario="heap-freeze", family="gnp",
            family_params={"n": 10, "p": 0.4}, k=2, component_size=2,
            algorithm="distributed", seed_index=seed,
        ).to_dict()

    def spied(seed):
        # Calls to gc.collect / gc.freeze made while job `seed` runs.
        calls = {"collect": 0, "freeze": 0}
        collect, freeze = gc.collect, gc.freeze

        def spy_collect(*args):
            calls["collect"] += 1
            return collect(*args)

        def spy_freeze():
            calls["freeze"] += 1
            return freeze()

        gc.collect, gc.freeze = spy_collect, spy_freeze
        try:
            execute_job(job(seed))
        finally:
            gc.collect, gc.freeze = collect, freeze
        return calls

    enabled, threshold = gc.isenabled(), gc.get_threshold()
    assert gc.get_freeze_count() == 0, gc.get_freeze_count()
    first = spied(0)
    assert first == {"collect": 1, "freeze": 1}, first
    frozen = gc.get_freeze_count()
    assert frozen > 0
    assert gc.isenabled() == enabled
    assert gc.get_threshold() == threshold

    second = spied(1)
    assert second == {"collect": 0, "freeze": 0}, second
    assert gc.get_freeze_count() == frozen, (frozen, gc.get_freeze_count())

    class Node:
        pass

    node = Node()
    node.self = node
    alive = weakref.ref(node)
    del node
    gc.collect()
    assert alive() is None, "cyclic garbage made after the freeze leaked"

    child = os.fork()
    if child == 0:
        status = 1
        try:
            calls = spied(2)
            if calls == {"collect": 1, "freeze": 1}:
                status = 0
        finally:
            os._exit(status)
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0, "child did not freeze"
    print("ok")
    """
)


def test_first_job_of_each_process_freezes_the_heap_once():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([src, path]) if path else src,
        ),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
