"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
writes its formatted output both to stdout (run pytest with ``-s`` to see
it live) and to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can be
refreshed from the artifacts.

Datasets are memoized per session; factorization runs inside benchmarks
use fixed seeds so artifacts are reproducible.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

import pytest

from repro.datasets import load_dataset

RESULTS_DIR = Path(__file__).parent / "results"

#: The paper's evaluation order (Table I).
DATASET_NAMES = ("reddit", "nell", "amazon", "patents")

#: Fixed seed for all benchmark factorizations.
BENCH_SEED = 20170814  # ICPP 2017 conference date


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def small_datasets():
    """The four corpora at the 'small' preset, keyed by name."""
    return {name: load_dataset(name, "small", seed=BENCH_SEED)[0]
            for name in DATASET_NAMES}


def save_artifact(results_dir: Path, name: str, text: str) -> None:
    """Print and persist one experiment's formatted output."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]", file=sys.stderr)


def save_bench_json(results_dir: Path, name: str, payload: dict) -> Path:
    """Persist ``results/BENCH_<name>.json`` with a host header.

    The header records what a wall-clock row depends on: core count,
    Python and NumPy versions, and the SIMD extensions NumPy dispatches
    to.
    """
    features = np._core._multiarray_umath.__cpu_features__
    header = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_features": sorted(k for k, on in features.items() if on),
    }
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps({"benchmark": name, "host": header,
                                **payload}, indent=2) + "\n")
    return path
