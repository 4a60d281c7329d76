"""Shared fixtures for the test suite.

RNG policy (audited 2026-08): no test may draw from an *unseeded* source.
Everything goes through the seeded ``rng`` / ``make_rng`` fixtures, an
explicit ``np.random.default_rng(<constant>)``, or the spec-replayable
generators in :mod:`repro.testing.strategies`.  The audit found no
module-level ``np.random.*`` calls left; the ``pytest_runtest_setup``
hook below keeps it that way by pinning numpy's legacy global RNG to a
per-test deterministic seed, so any future slip produces the same values
on every run (and under ``-p no:randomly``-style reordering) instead of
process-global nondeterminism.  A hook rather than an autouse fixture so
hypothesis's function-scoped-fixture health check stays quiet.
"""

from __future__ import annotations

import importlib
import os
import shutil
import tempfile
import zlib

import numpy as np
import pytest

from repro.tensor import COOTensor, random_coo
from repro.tensor.random import random_factors

#: Per-session ``XDG_CACHE_HOME`` directories: the compiled MTTKRP
#: kernel is built there (once per session), not into the user's cache.
_SESSION_CACHES: list[str] = []


def pytest_configure(config) -> None:
    path = tempfile.mkdtemp(prefix="repro-test-cache-")
    _SESSION_CACHES.append(path)
    os.environ["XDG_CACHE_HOME"] = path


def pytest_unconfigure(config) -> None:
    while _SESSION_CACHES:
        shutil.rmtree(_SESSION_CACHES.pop(), ignore_errors=True)


def pytest_runtest_setup(item) -> None:
    np.random.seed(zlib.crc32(item.nodeid.encode()))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for the whole suite."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def make_rng():
    """Factory for independent deterministic generators.

    Use when one test needs several uncorrelated streams:
    ``gen = make_rng(1)`` — same seed root, separated substreams.
    """
    def factory(stream: int = 0) -> np.random.Generator:
        return np.random.default_rng([0xC0FFEE, stream])

    return factory


@pytest.fixture
def small_tensor() -> COOTensor:
    """A 3-mode random tensor used across kernel/solver tests."""
    return random_coo((12, 9, 15), 140, seed=7)


@pytest.fixture
def four_mode_tensor() -> COOTensor:
    """A 4-mode tensor exercising the general CSF paths."""
    return random_coo((6, 5, 7, 4), 120, seed=11)


@pytest.fixture
def small_factors(small_tensor) -> list[np.ndarray]:
    """Dense signed factors matching ``small_tensor``."""
    gen = np.random.default_rng(23)
    return [gen.standard_normal((s, 5)) for s in small_tensor.shape]


@pytest.fixture
def nonneg_factors(small_tensor) -> list[np.ndarray]:
    """Non-negative factors matching ``small_tensor``."""
    return random_factors(small_tensor.shape, 5, seed=29, nonneg=True)


@pytest.fixture
def no_native(monkeypatch):
    """A process without the compiled root kernel: the NumPy sweeps and
    the SciPy sparse path serve every MTTKRP."""
    monkeypatch.setattr(importlib.import_module("repro.kernels.dispatch"),
                        "root_kernel", lambda: None)
