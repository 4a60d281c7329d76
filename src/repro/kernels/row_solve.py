"""The ADMM inner loop (paper Algorithm 1), compiled.

**Line 6.**  It solves ``(G + rho I) H_tilde^T = (K + rho (H + U))^T``
for every row of a tall ``I x F`` right-hand side with one cached
Cholesky factor.  LAPACK's ``potrs`` runs that tall-skinny shape far
below GEMM speed, and ``rhs @ inv`` is not row independent: GEMM blocks
rows, so a row's bits would depend on which rows share the call, and the
batched blocked solver must match the one-block-at-a-time loop byte for
byte.

Here the inverse ``A^-1 = (G + rho I)^-1`` is formed once per mode
update (by :meth:`repro.linalg.cholesky.CholeskyFactor.inverse`) and
every row is multiplied by it in one fixed order::

    y[c] = x[0] * A^-1[0, c] + x[1] * A^-1[1, c] + ... + x[F-1] * A^-1[F-1, c]

summed sequentially in ``j``.  With the paper's ``rho = trace(G)/F`` the
eigenvalues of ``G + rho I`` lie in ``[rho, (F + 1) rho]``, so its
condition number is at most ``F + 1`` and multiplying by the explicit
inverse is as accurate as the substitution.

**The fused block loop.**  For the proxes the workloads use
(:data:`PROX_KINDS`: ``nonneg`` and ``nonneg_l1``; a constraint
opts in through :meth:`~repro.constraints.base.Constraint.native_prox`),
:meth:`RowSolver.admm_blocks` runs all of Algorithm 1 in one call: each
row block in turn iterates line 6, the prox, the dual update and its
residuals until it converges or reaches the cap, with its rows resident
in cache (paper Section IV-B).  Every step runs in the order of the
NumPy loop of :mod:`repro.admm.blocked` and the residual order of
:mod:`repro.admm.residuals`, so factors, duals, iteration counts and
residuals are byte-equal to it; that loop stays the fallback for every
other constraint and the test oracle.  The unblocked solve is the same
call with one block of every row.

**Two implementations, one result.**  ``row_solve.c`` (built into the
library of :mod:`repro.kernels.native`, with its flags: no FMA
contraction, no fast-math) register-blocks the solve 4 rows x 8 columns
and runs the elementwise pass on explicit vectors, with one variant per
ISA (AVX-512F, AVX2, baseline), picked at load.  :func:`numpy_row_solve`
replays the solve's order with one ``np.multiply`` by the first column
and ``+=`` of each later column's products, over cache-sized row chunks.
Every variant is byte-equal to the NumPy code, which is the test oracle.

**Fallback.**  :func:`row_solver` checks the chosen variant for byte
equality against the NumPy code before first use: the solve against
:func:`numpy_row_solve`, and the fused loop against the NumPy block loop
(factors, duals and iteration counts).  If the library cannot be built
or loaded, or a single bit differs, it returns ``None`` for the rest of
the process with one ``RuntimeWarning`` and one ``kernel_fallback``
observability record, and NumPy serves both.  This verdict is separate
from the root MTTKRP kernel's, so a failing ADMM kernel does not take
that kernel with it.
"""

from __future__ import annotations

import ctypes
import threading
import warnings

import numpy as np

from ..observability import record_kernel_fallback
from ..types import VALUE_DTYPE

#: Variant names by id (``repro_row_solve``'s first argument).
VARIANTS = ("baseline", "avx2", "avx512f")
#: Elements of one replay chunk: two chunk buffers stay in L2.
REPLAY_CHUNK = 16384
#: Ranks and row counts of the self-check: every column tail (rank mod 8)
#: and row tail (rows mod 4), and the scalar-only ranks below 8.
PROBE_RANKS = (1, 3, 8, 9, 16, 23)
PROBE_ROWS = (0, 1, 4, 7)
#: Prox kinds of the fused block loop, by id (``repro_admm_blocks``).
PROX_KINDS = ("nonneg", "nonneg_l1")
#: ``(rank, rows, block size)`` of the fused-loop self-check: vector
#: widths with and without a column tail, a short last block, and one
#: block of every row.
FUSED_PROBES = ((1, 9, 4), (3, 11, 4), (9, 23, 7), (17, 13, 13))

_ERRORS = {3: "native ADMM kernel scratch", 6: "unsupported ISA variant",
           7: "unknown prox kind"}


def numpy_row_solve(x: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """``x <- x @ inverse`` row by row, in place, in the kernel's order.

    Each entry is ``x[:, 0] * inverse[0]`` plus, one ``j`` at a time,
    ``x[:, j] * inverse[j]``; every product and sum is rounded on its own,
    which is what the compiled variants do.  Like them, it raises no
    floating-point warnings (``inf``/``NaN`` simply propagate).
    """
    rows, rank = x.shape
    if rows == 0 or rank == 0:
        return x
    step = max(1, REPLAY_CHUNK // rank)
    acc = np.empty((min(step, rows), rank), dtype=VALUE_DTYPE)
    prod = np.empty_like(acc)
    with np.errstate(all="ignore"):
        for start in range(0, rows, step):
            chunk = x[start:start + step]
            y, p = acc[:chunk.shape[0]], prod[:chunk.shape[0]]
            np.multiply(chunk[:, :1], inverse[0], out=y)
            for j in range(1, rank):
                np.multiply(chunk[:, j:j + 1], inverse[j], out=p)
                y += p
            chunk[...] = y
    return x


def check_operands(x: np.ndarray, inverse: np.ndarray) -> None:
    """Raise :class:`ValueError` unless *x* is a writeable C-contiguous
    float64 ``(rows, F)`` matrix and *inverse* a C-contiguous float64
    ``(F, F)`` matrix: what the kernel needs, asked of both backends."""
    rank = inverse.shape[0]
    if x.dtype != VALUE_DTYPE or x.ndim != 2 or x.shape[1] != rank \
            or not x.flags.c_contiguous or not x.flags.writeable:
        raise ValueError("x must be a writeable C-contiguous float64 "
                         f"matrix with {rank} columns")
    if inverse.dtype != VALUE_DTYPE or inverse.shape != (rank, rank) \
            or not inverse.flags.c_contiguous:
        raise ValueError("inverse must be a C-contiguous float64 "
                         "square matrix")


def _check(code: int) -> None:
    if code == 3:
        raise MemoryError(_ERRORS[3])
    if code:
        raise ValueError(_ERRORS.get(code, f"native error {code}"))


class RowSolver:
    """One compiled variant: ``solver(x, inverse)`` updates *x* in place,
    and :meth:`admm_blocks` runs the fused block loop.

    The operands of a solve must pass :func:`check_operands`.
    """

    def __init__(self, fn, blocks, variant: str):
        self._fn = fn
        self._blocks = blocks
        self._id = VARIANTS.index(variant)
        #: ISA variant name (one of :data:`VARIANTS`).
        self.variant = variant

    def __call__(self, x: np.ndarray, inverse: np.ndarray) -> np.ndarray:
        check_operands(x, inverse)
        _check(self._fn(self._id, x.shape[0], inverse.shape[0],
                        x.ctypes.data, inverse.ctypes.data))
        return x

    def admm_blocks(self, primal: np.ndarray, dual: np.ndarray,
                    mttkrp: np.ndarray, inverse: np.ndarray, rho: float,
                    prox: tuple[str, float], tolerance: float,
                    max_iterations: int, block_size: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 1 on every *block_size*-row block, in place.

        *primal* and *dual* (writeable) and *mttkrp* are C-contiguous
        float64 ``(rows, F)`` matrices, *inverse* is ``(G + rho I)^-1``
        and *prox* is a :meth:`~repro.constraints.base.Constraint.
        native_prox` answer.  Blocks are those of
        :func:`~repro.parallel.partition.row_blocks`.  Returns per block
        the iterations run, whether the block converged, and its last
        ``(r, s)`` residuals (``inf`` when it ran none).
        """
        check_operands(primal, inverse)
        check_operands(dual, inverse)
        if dual.shape != primal.shape or mttkrp.shape != primal.shape \
                or mttkrp.dtype != VALUE_DTYPE \
                or not mttkrp.flags.c_contiguous:
            raise ValueError("dual and mttkrp must be C-contiguous float64 "
                             "matrices of the primal's shape")
        kind, threshold = prox
        if kind not in PROX_KINDS:
            raise ValueError(f"unknown prox kind {kind!r}")
        rows, rank = primal.shape
        size = block_size if 0 < block_size < rows else max(rows, 1)
        blocks = -(-rows // size)
        iterations = np.zeros(blocks, dtype=np.int64)
        converged = np.zeros(blocks, dtype=np.int64)
        residuals = np.full((blocks, 2), np.inf)
        _check(self._blocks(
            self._id, rows, rank, size, primal.ctypes.data,
            dual.ctypes.data, mttkrp.ctypes.data, inverse.ctypes.data,
            rho, PROX_KINDS.index(kind), threshold, tolerance,
            max_iterations, iterations.ctypes.data, converged.ctypes.data,
            residuals.ctypes.data))
        return iterations, converged.astype(bool), residuals


def load_solvers() -> dict[str, RowSolver]:
    """Every variant this CPU runs, by name, best last; builds the library
    if it is not cached (raises :class:`~repro.kernels.native.
    NativeUnavailable` when it cannot)."""
    from .native import load_library

    lib = load_library()
    fn = lib.repro_row_solve
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 2
    blocks = lib.repro_admm_blocks
    blocks.restype = ctypes.c_int
    blocks.argtypes = [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 4 \
        + [ctypes.c_double, ctypes.c_int64, ctypes.c_double,
           ctypes.c_double, ctypes.c_int64] + [ctypes.c_void_p] * 3
    return {name: RowSolver(fn, blocks, name)
            for name in supported_variants(lib)}


def supported_variants(lib: ctypes.CDLL) -> list[str]:
    """Names of the variants this CPU runs, best last: the mask of
    ``repro_row_solve_variants()``, which covers every kernel of the
    library."""
    supported = lib.repro_row_solve_variants
    supported.restype = ctypes.c_int64
    supported.argtypes = []
    mask = int(supported())
    return [name for i, name in enumerate(VARIANTS) if mask >> i & 1]


def _probe_inverse(rng: np.random.Generator,
                   rank: int) -> tuple[np.ndarray, np.ndarray, float]:
    """A random Gram, ``(G + rho I)^-1`` and ``rho = trace(G)/F``."""
    w = rng.standard_normal((rank + 2, rank))
    gram = w.T @ w
    rho = float(np.trace(gram)) / rank
    return gram, np.linalg.inv(gram + rho * np.eye(rank)), rho


def self_check(solver: RowSolver) -> None:
    """Raise :class:`~repro.kernels.native.NativeUnavailable` unless
    *solver* is byte-equal to the NumPy code.

    The solve is compared with :func:`numpy_row_solve` on
    :data:`PROBE_RANKS` x :data:`PROBE_ROWS` with values over twelve
    decades and signed zeros.  The fused loop is compared with
    :func:`repro.admm.blocked.numpy_block_loop` (line 6 by
    :func:`numpy_row_solve`) for every prox kind on
    :data:`FUSED_PROBES`: factors, duals and iteration counts.
    """
    from ..admm.blocked import numpy_block_loop
    from ..constraints.l1 import NonNegativeL1
    from ..constraints.nonneg import NonNegative
    from .native import NativeUnavailable, signed_values

    rng = np.random.default_rng(20170815)
    for rank in PROBE_RANKS:
        _, inverse, _ = _probe_inverse(rng, rank)
        for rows in PROBE_ROWS:
            x = signed_values(rng, rows, rank)
            want = numpy_row_solve(x.copy(), inverse)
            if solver(x, inverse).tobytes() != want.tobytes():
                raise NativeUnavailable(
                    f"row-solve self-check mismatch ({solver.variant}) at "
                    f"rank {rank}, {rows} rows")
    for constraint in (NonNegative(), NonNegativeL1(0.5)):
        for rank, rows, block_size in FUSED_PROBES:
            gram, inverse, rho = _probe_inverse(rng, rank)
            mttkrp = rng.standard_normal((rows, rank)) @ gram
            mttkrp[::3] *= 100.0
            primal = signed_values(rng, rows, rank) * 1e-6
            dual = signed_values(rng, rows, rank) * 1e-6
            fused = (primal.copy(), dual.copy())
            iterations, _, _ = solver.admm_blocks(
                *fused, mttkrp, inverse, rho,
                constraint.native_prox(1.0 / rho), 1e-6, 25, block_size)
            want, _, _ = numpy_block_loop(
                primal, dual, mttkrp,
                lambda x: numpy_row_solve(x, inverse), rho, constraint,
                1e-6, 25, block_size)
            if fused[0].tobytes() != primal.tobytes() \
                    or fused[1].tobytes() != dual.tobytes() \
                    or iterations.tolist() != want.tolist():
                raise NativeUnavailable(
                    f"fused ADMM self-check mismatch ({solver.variant}) "
                    f"with {constraint.name} at rank {rank}, {rows} rows, "
                    f"blocks of {block_size}")


# ----------------------------------------------------------------------
# Process-wide resolution
# ----------------------------------------------------------------------
_LOCK = threading.Lock()
_STATE: dict[str, RowSolver | None] = {}


def _resolve() -> RowSolver | None:
    try:
        solver = list(load_solvers().values())[-1]
        self_check(solver)
        return solver
    except Exception as exc:  # any failure means: use the NumPy replay
        reason = f"{type(exc).__name__}: {exc}"
    warnings.warn(f"native row solve unavailable ({reason}); the ADMM "
                  "solve and block loop use NumPy", RuntimeWarning,
                  stacklevel=5)
    record_kernel_fallback("row_solve")
    return None


def row_solver() -> RowSolver | None:
    """The process's compiled ADMM kernel (line-6 solve and fused block
    loop), or ``None`` to use NumPy for both.

    Resolved once per process (compile or cache load, the best variant
    the CPU runs, then the self-check); every later call returns the
    same answer.
    """
    try:
        return _STATE["solver"]
    except KeyError:
        pass
    with _LOCK:
        if "solver" not in _STATE:
            _STATE["solver"] = _resolve()
    return _STATE["solver"]


def backend() -> str:
    """``"native"`` when :func:`row_solver` serves, else ``"numpy"``."""
    return "numpy" if row_solver() is None else "native"


def solve_rows(x: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """``x <- x @ inverse`` in place, row-independent, on either backend;
    the operands must pass :func:`check_operands` on both."""
    solver = row_solver()
    if solver is not None:
        return solver(x, inverse)
    check_operands(x, inverse)
    return numpy_row_solve(x, inverse)


def reset() -> None:
    """Forget the resolved solver so the next use resolves afresh."""
    with _LOCK:
        _STATE.clear()
