"""Setup shim for environments without the wheel package (offline editable installs)."""
from setuptools import find_packages, setup

setup(
    name="repro-steiner-forest",
    version="0.1.0",
    description=(
        "Reproduction of Lenzen & Patt-Shamir, 'Distributed Steiner "
        "Forest' (PODC 2014): moat-growing approximation algorithms, "
        "CONGEST simulation, lower-bound gadgets, and an experiment engine"
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["networkx"],
    extras_require={
        # The vectorized execution tier (repro.perf.npkernels and the
        # "numpy" backend), and the graph oracle's Floyd–Warshall pass
        # at 32 <= n <= 768 (WeightedGraph._key_matrix), which s, WD,
        # rank-indexed distance rows and paths are read off — the
        # reference path never needs it.
        "numpy": ["numpy"],
        "test": ["pytest", "pytest-benchmark"],
    },
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
