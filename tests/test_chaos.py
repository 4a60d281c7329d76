"""Chaos: SIGTERM a real fit mid-run, restart it, compare bits.

The in-process preemption tests (``tests/test_robustness.py``) prove the
flag-and-checkpoint mechanics; this module proves the whole journey —
a *separate interpreter* running a fit under
:func:`~repro.robustness.preempt_on_signals` receives a real
``SIGTERM``, exits through the graceful-preemption path, and a fresh
process resuming from its checkpoints reproduces the uninterrupted run
bit-for-bit, for both the serial and the thread executor.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import AOADMMOptions, fit_aoadmm
from repro.tensor import noisy_lowrank_coo

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Runs in a child interpreter: a fit that SIGTERMs *itself* after
#: outer iteration 3 (deterministic, no timing window), then reports
#: how it stopped.  Exit code 3 = preempted (the CLI contract).
_CHILD_SCRIPT = """
import os, signal, sys
from repro import AOADMMOptions, fit_aoadmm
from repro.robustness import preempt_on_signals
from repro.tensor import noisy_lowrank_coo

executor, ck_path = sys.argv[1], sys.argv[2]
tensor, _ = noisy_lowrank_coo((30, 25, 20), rank=4, nnz=2000, seed=0)
with preempt_on_signals() as preempt_flag:
    options = AOADMMOptions(
        rank=4, constraints="nonneg", seed=0,
        max_outer_iterations=8, outer_tolerance=0.0,
        executor=executor, threads=2, slab_nnz_target=256,
        checkpoint_every=1, checkpoint_keep_last=3, checkpoint_path=ck_path,
        preempt_flag=preempt_flag,
        callback=lambda r: (r.iteration == 3
                            and os.kill(os.getpid(), signal.SIGTERM))
        and False)
    result = fit_aoadmm(tensor, options)
print("STOP", result.stop_reason, len(result.trace), flush=True)
sys.exit(3 if result.stop_reason == "preempted" else 0)
"""


@pytest.fixture(scope="module")
def tensor():
    t, _ = noisy_lowrank_coo((30, 25, 20), rank=4, nnz=2000, seed=0)
    return t


@pytest.fixture(scope="module")
def reference(tensor):
    return fit_aoadmm(tensor, AOADMMOptions(
        rank=4, constraints="nonneg", seed=0,
        max_outer_iterations=8, outer_tolerance=0.0))


@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_sigterm_then_restart_is_bit_identical(executor, tensor, reference,
                                               tmp_path):
    ck_path = str(tmp_path / "chaos.npz")
    env = {**os.environ,
           "PYTHONPATH": str(REPO_ROOT / "src"),
           # The child must not inherit an executor override: the test
           # pins the executor explicitly per parametrization.
           "REPRO_EXECUTOR": executor}
    child = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, executor, ck_path],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        timeout=300)
    assert child.returncode == 3, \
        f"child did not preempt: rc={child.returncode}\n" \
        f"stdout={child.stdout}\nstderr={child.stderr}"
    assert "STOP preempted 3" in child.stdout

    # A fresh process (this one) resumes from the child's checkpoints
    # and must land exactly where the uninterrupted run does.
    options = AOADMMOptions(
        rank=4, constraints="nonneg", seed=0,
        max_outer_iterations=8, outer_tolerance=0.0,
        executor=executor, threads=2, slab_nnz_target=256)
    resumed = fit_aoadmm(tensor, options, resume_from=ck_path)
    assert resumed.stop_reason == "max_iterations"
    for m, (a, b) in enumerate(zip(reference.model.factors,
                                   resumed.model.factors)):
        np.testing.assert_array_equal(a, b, err_msg=f"mode {m}")
    np.testing.assert_array_equal(reference.trace.errors(),
                                  resumed.trace.errors())
