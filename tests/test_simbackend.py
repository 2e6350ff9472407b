"""Tests for the ledger-spec vocabulary (repro.simbackend)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.registry import normalize_backends
from repro.perf import FastCongestRun, make_ledger_run
from repro.simbackend import (
    BACKENDS,
    is_default_backend,
    normalize_backend,
    numpy_tier_available,
    validate_backend,
)
from repro.workloads import random_connected_graph


def _numpy_imports():
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


class TestSpecNormalization:
    def test_none_and_name_and_dict(self):
        assert normalize_backend(None) == {"name": "reference", "params": {}}
        assert normalize_backend("flatarray") == {
            "name": "flatarray", "params": {},
        }
        spec = normalize_backend(
            {"name": "auto", "params": {"threshold": 2}}
        )
        assert spec == {"name": "auto", "params": {"threshold": 2}}

    def test_default_detection(self):
        assert is_default_backend(None)
        assert is_default_backend("reference")
        assert not is_default_backend("flatarray")
        assert not is_default_backend(
            {"name": "reference", "params": {"x": 1}}
        )

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="unexpected backend spec keys"):
            normalize_backend({"name": "flatarray", "oops": 1})
        with pytest.raises(ValueError, match="unknown simulation backend"):
            validate_backend("quantum")
        with pytest.raises(TypeError):
            normalize_backend(42)

    @pytest.mark.parametrize(
        "spec",
        [
            {"name": "auto", "params": {"nope": 1}},
            {"name": "auto", "params": {"threshold": "many"}},
            {"name": "auto", "params": {"threshold": "5"}},
            {"name": "auto", "params": {"numpy_threshold": 2.5}},
            {"name": "auto", "params": {"threshold": True}},
            {"name": "reference", "params": {"x": 1}},
            {"name": "flatarray", "params": {"threshold": 2}},
        ],
    )
    def test_bad_params_rejected(self, spec):
        with pytest.raises(ValueError, match="bad parameters"):
            validate_backend(spec)

    def test_valid_specs_come_back_canonical(self):
        for name in BACKENDS:
            assert validate_backend(name) == {"name": name, "params": {}}
        spec = {"name": "auto", "params": {"threshold": 2, "numpy_threshold": 9}}
        assert validate_backend(spec) == spec

    def test_tier_names(self):
        # numpy is a tier exactly when it imports (find_spec would call a
        # present-but-broken numpy "available").
        expected = {"reference", "flatarray", "auto"}
        if _numpy_imports():
            expected.add("numpy")
        assert set(BACKENDS) == expected
        assert numpy_tier_available() == _numpy_imports()


@pytest.mark.skipif(_numpy_imports(), reason="runs only without numpy")
class TestWithoutNumpy:
    """The dependency-free install: ``numpy`` names no tier, and ``auto``
    stays on the Python ledgers at every size."""

    def test_numpy_spec_rejected_everywhere(self, tmp_path):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            normalize_backends("numpy")
        graph = random_connected_graph(8, 0.4, random.Random(0))
        with pytest.raises(ValueError, match="unknown simulation backend"):
            make_ledger_run("numpy", graph)
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--scenario",
             "grid-rounds", "--serial", "--no-store", "--quiet",
             "--backend", "numpy"],
            cwd=tmp_path,
            env=dict(
                os.environ,
                PYTHONPATH=os.pathsep.join([src, path]) if path else src,
            ),
            capture_output=True,
            text=True,
        )
        assert done.returncode != 0
        assert "unknown simulation backend" in done.stderr

    def test_auto_at_numpy_threshold_builds_the_python_ledger(self):
        graph = random_connected_graph(1024, 4 / 1024, random.Random(0))
        assert type(make_ledger_run("auto", graph)) is FastCongestRun
