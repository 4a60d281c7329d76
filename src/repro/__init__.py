"""repro — Constrained sparse tensor factorization with accelerated AO-ADMM.

A from-scratch Python reproduction of Smith, Beri & Karypis,
*"Constrained Tensor Factorization with Accelerated AO-ADMM"* (ICPP 2017):

* sparse tensor substrate (COO + compressed sparse fiber),
* MTTKRP kernels, including sparse-factor (CSR / hybrid) variants,
* an ADMM inner solver with a library of proximity operators,
* the paper's blockwise ADMM reformulation,
* the AO-ADMM outer driver plus ALS / MU / PGD baselines, and
* a simulated shared-memory machine for the scalability studies.

Quickstart
----------
>>> import repro
>>> from repro.tensor import noisy_lowrank_coo
>>> tensor, truth = noisy_lowrank_coo((60, 50, 40), rank=5, nnz=5000, seed=0)
>>> result = repro.fit(tensor, rank=5, constraints="nonneg", seed=0,
...                    max_outer_iterations=20)
>>> all((f >= 0).all() for f in result.factors)
True
>>> bool(result.trace.errors()[-1] <= result.trace.errors()[0])
True

Real tensors load with :func:`load_tns`; metrics for a run come back on
the result (``repro.fit(..., observe=True)`` -> ``result.metrics``) or
process-wide via :class:`Observability` / ``REPRO_OBSERVE=1``.
"""

from .api import METHODS, FitResult, fit
from .config import DEFAULTS, Defaults
from .constraints import (
    Box,
    Constraint,
    ElasticNet,
    L1,
    L2Squared,
    NonNegative,
    NonNegativeL1,
    RowNormBall,
    RowSimplex,
    Unconstrained,
    available_constraints,
    make_constraint,
)
from .core import (
    AOADMMOptions,
    CPModel,
    FactorizationResult,
    FactorizationTrace,
    factor_match_score,
    fit_als,
    fit_aoadmm,
    init_factors,
    load_model,
    penalized_objective,
    save_model,
)
from .core.options import LEGACY_KWARGS, options_from_kwargs
from .integrity import (
    VERIFY_ENV_VAR,
    ChecksumManifest,
    IntegrityError,
    checksum_file,
    verify_reads_enabled,
)
from .observability import Observability, configure, get_observability
from .robustness import (
    Checkpoint,
    CheckpointStore,
    FaultInjector,
    FaultSpec,
    GuardEvent,
    HealthMonitor,
    NumericalFaultError,
    load_checkpoint,
    resolve_resume,
    save_checkpoint,
    verify_checkpoint,
)
from .tensor import (
    COOTensor,
    CSFTensor,
    ShardedTensorStore,
    load_tns,
    open_tensor,
    save_tns,
)
from .types import TensorSource

__version__ = "1.0.0"

__all__ = [
    "fit",
    "FitResult",
    "METHODS",
    "Observability",
    "configure",
    "get_observability",
    "LEGACY_KWARGS",
    "options_from_kwargs",
    "DEFAULTS",
    "Defaults",
    "Constraint",
    "Unconstrained",
    "NonNegative",
    "L1",
    "NonNegativeL1",
    "L2Squared",
    "ElasticNet",
    "Box",
    "RowSimplex",
    "RowNormBall",
    "make_constraint",
    "available_constraints",
    "AOADMMOptions",
    "CPModel",
    "FactorizationResult",
    "FactorizationTrace",
    "factor_match_score",
    "fit_als",
    "fit_aoadmm",
    "init_factors",
    "save_model",
    "load_model",
    "penalized_objective",
    "ChecksumManifest",
    "IntegrityError",
    "VERIFY_ENV_VAR",
    "checksum_file",
    "verify_reads_enabled",
    "Checkpoint",
    "CheckpointStore",
    "FaultInjector",
    "FaultSpec",
    "GuardEvent",
    "HealthMonitor",
    "NumericalFaultError",
    "load_checkpoint",
    "resolve_resume",
    "save_checkpoint",
    "verify_checkpoint",
    "COOTensor",
    "CSFTensor",
    "ShardedTensorStore",
    "TensorSource",
    "open_tensor",
    "load_tns",
    "save_tns",
    "__version__",
]
