"""Global defaults shared across the library.

Values follow the paper's experimental methodology (Section V-A):

* outer convergence when the relative error improves by less than ``1e-6``,
* at most ``200`` outer iterations,
* ADMM inner tolerance ``1e-2`` on both the primal and dual residuals (the
  standard AO-ADMM choice from Huang et al.),
* row blocks of ``50`` rows for the blocked reformulation (Section IV-B:
  "we empirically found that blocks of 50 rows offered a good trade-off"),
* factors treated as sparse when density drops below ``20%`` (Section V-E).
"""

from __future__ import annotations

from dataclasses import dataclass


#: Outer-loop convergence tolerance on relative-error improvement.
OUTER_TOLERANCE = 1e-6

#: Maximum number of outer AO iterations.
MAX_OUTER_ITERATIONS = 200

#: Inner ADMM tolerance on the relative primal and dual residuals.
ADMM_TOLERANCE = 1e-2

#: Maximum number of inner ADMM iterations per mode update.
MAX_ADMM_ITERATIONS = 50

#: Default number of rows per block in blocked ADMM.
DEFAULT_BLOCK_SIZE = 50

#: Density below which a factor is gainfully treated as sparse (Section V-E).
SPARSITY_THRESHOLD = 0.20

#: Default non-zeros per MTTKRP slab (Section IV-A slice parallelism,
#: generalized to nnz-balanced contiguous slice groups).  ~64k non-zeros
#: keep a slab's values + leaf ids around one megabyte — large enough to
#: amortize per-slab dispatch, small enough to load-balance skewed tensors.
DEFAULT_SLAB_NNZ = 65536

#: Slab-nnz targets the MTTKRP backend autotuner prices against each
#: other (:mod:`repro.kernels.autotune`).  The ladder spans roughly a
#: cache-resident slab (8k nnz) to a dispatch-amortizing one (256k nnz);
#: :data:`DEFAULT_SLAB_NNZ` is always included as a candidate.
AUTOTUNE_SLAB_LADDER = (8192, 65536, 262144)


@dataclass(frozen=True)
class Defaults:
    """Immutable bundle of the library-wide defaults.

    Useful for passing a consistent configuration between components and for
    overriding everything at once in tests.
    """

    outer_tolerance: float = OUTER_TOLERANCE
    max_outer_iterations: int = MAX_OUTER_ITERATIONS
    admm_tolerance: float = ADMM_TOLERANCE
    max_admm_iterations: int = MAX_ADMM_ITERATIONS
    block_size: int = DEFAULT_BLOCK_SIZE
    sparsity_threshold: float = SPARSITY_THRESHOLD
    slab_nnz: int = DEFAULT_SLAB_NNZ


DEFAULTS = Defaults()
