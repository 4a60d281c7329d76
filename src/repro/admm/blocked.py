"""Blockwise ADMM (paper Section IV-B).

The mode subproblem is split into ``B`` row blocks

``min sum_b 1/2 ||(X_(m))_b - H_b (KR)^T||^2 + r(H_b)``
``s.t. H_b = H_tilde_b  for every block``

which is exact whenever the prox is row separable.  Each block runs
Algorithm 1 **to its own convergence**: high-signal blocks take the extra
iterations they need instead of being stopped by the aggregate criterion,
and low-signal blocks stop early instead of being dragged along
(non-uniform convergence).

For the proxes the workloads use (``nonneg`` and ``nonneg_l1``;
see :meth:`~repro.constraints.base.Constraint.native_prox`) one
compiled call runs a chunk of consecutive blocks, each in turn to its
own convergence with its rows resident in cache (:meth:`repro.kernels.
row_solve.RowSolver.admm_blocks`), which is the paper's
temporal-locality argument.  The blocks are cut into
:data:`CHUNKS_PER_WORKER` chunks per worker, which go through the
executor's ``parallel_for``: ``ctypes`` releases the GIL for each call,
so the chunks overlap, and a worker that finishes pulls the next chunk
(the paper's dynamic schedule over blocks).  Every other constraint,
and every constraint when no compiler is present, runs
:func:`numpy_block_loop` on the calling thread: the blocks are solved
together as one *active set*.  Each inner step runs the line-6 solve,
the prox and the dual update once over the stacked rows of every block
still running, and takes the per-block residuals from one batched row
reduction.  Blocks that converge or reach the iteration cap leave the
stack.

Each row sees exactly the operations the one-block-at-a-time loop
applies to it: the line-6 solve
(:meth:`~repro.linalg.cholesky.CholeskyFactor.solve_rows`) computes
every row in one fixed order whatever rows share the call, the prox is
row separable, and the block sums keep the summation order of
:mod:`repro.admm.residuals`.  The compiled loop replays the same
operations in the same order, and no block reads another, so neither
the cut into chunks nor the thread that runs each one changes a bit.
Factors, duals and the report are bitwise identical to
:func:`repro.testing.oracles.per_block_admm_reference` on both paths,
for every executor and thread count.

The Cholesky factor of ``G + rho I`` and its inverse are mode-global
(every block shares G and hence rho), computed once and reused by all
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import ADMM_TOLERANCE, DEFAULT_BLOCK_SIZE, MAX_ADMM_ITERATIONS
from ..constraints.base import Constraint
from ..kernels import row_solve
from ..linalg.cholesky import CholeskyFactor
from ..observability import span
from ..parallel.executor import ExecutorBase, resolve_executor
from ..parallel.partition import row_blocks
from ..parallel.threadpool import effective_threads
from ..types import VALUE_DTYPE
from ..validation import require
from .residuals import block_relative_residual
from .rho import RhoPolicy, TraceRho
from .state import AdmmState

#: Chunks of consecutive row blocks per worker that the compiled loop's
#: blocks are cut into.  Workers pull chunks as they finish, so a chunk
#: whose blocks hit the iteration cap does not leave the other workers
#: idle; each chunk costs one pool hand-off, which is why there are not
#: more (on two cores, 2 per worker beat 4 and 8 on NELL, Patents and
#: Amazon fits).
CHUNKS_PER_WORKER = 2


@dataclass(frozen=True)
class BlockedAdmmReport:
    """Outcome of one blocked inner solve."""

    #: Inner iterations performed by every block (length = #blocks).
    block_iterations: tuple[int, ...]
    #: Rows per block (parallel work-item sizes for the machine model).
    block_rows: tuple[int, ...]
    rho: float
    converged: bool
    #: Diagonal jitter the mode-global Cholesky needed (shared by every
    #: block; 0.0 unless the Gram was rank deficient / indefinite).
    jitter_added: float = 0.0

    @property
    def iterations(self) -> int:
        """Maximum block iteration count (the critical path)."""
        return max(self.block_iterations) if self.block_iterations else 0

    @property
    def total_row_iterations(self) -> int:
        """sum over blocks of rows * iterations — the actual work done."""
        return int(sum(r * i for r, i in
                       zip(self.block_rows, self.block_iterations)))


def blocked_admm_update(state: AdmmState, mttkrp: np.ndarray,
                        gram: np.ndarray, constraint: Constraint,
                        rho_policy: RhoPolicy | None = None,
                        tolerance: float = ADMM_TOLERANCE,
                        max_iterations: int = MAX_ADMM_ITERATIONS,
                        block_size: int = DEFAULT_BLOCK_SIZE,
                        executor: "str | ExecutorBase | None" = None,
                        threads: int | None = None
                        ) -> BlockedAdmmReport:
    """Run blockwise ADMM, updating *state* in place.

    Parameters mirror :func:`repro.admm.solver.admm_update` plus:

    block_size:
        Rows per block; the paper's default is 50.  ``block_size >= rows``
        degenerates to the unblocked algorithm (one block).
    executor, threads:
        Where the compiled loop's chunks of blocks go
        (:func:`~repro.parallel.executor.resolve_executor`;
        ``fit_aoadmm`` passes its engine's) and on how many workers
        (:func:`~repro.parallel.threadpool.effective_threads`).  Neither
        changes a bit of the result.
    """
    require(constraint.row_separable,
            f"constraint {constraint.name!r} is not row separable; "
            "the blockwise reformulation does not apply (Section IV-B)")
    require(mttkrp.shape == state.primal.shape,
            "MTTKRP output must match the primal shape")
    rank = state.rank
    require(gram.shape == (rank, rank), "Gram must be F x F")

    rho = (rho_policy or TraceRho()).rho(gram)
    chol = CholeskyFactor(gram + rho * np.eye(rank))
    blocks = row_blocks(state.rows, block_size)
    fused = native_loop(state, constraint, rho)
    executor = resolve_executor(executor)
    chunks = [] if fused is None else block_chunks(blocks, threads)

    with span("admm.solve", rows=state.rows, blocks=len(blocks),
              solve=chol.rows_backend,
              loop="numpy" if fused is None else "native",
              chunks=max(len(chunks), 1),
              workers=executor.workers(len(chunks), threads)):
        if fused is None:
            iterations, converged, _ = numpy_block_loop(
                state.primal, state.dual, mttkrp,
                lambda x: chol.solve_rows(x, out=x), rho, constraint,
                tolerance, max_iterations, block_size)
        else:
            solver, prox = fused
            kmat = np.ascontiguousarray(mttkrp, dtype=VALUE_DTYPE)
            inverse = chol.inverse()

            def run(chunk: slice) -> tuple[np.ndarray, ...]:
                return solver.admm_blocks(
                    state.primal[chunk], state.dual[chunk], kmat[chunk],
                    inverse, rho, prox, tolerance, max_iterations,
                    block_size)

            parts = executor.parallel_for(run, chunks, threads=threads)
            iterations = np.concatenate([p[0] for p in parts])
            converged = np.concatenate([p[1] for p in parts])

    return BlockedAdmmReport(block_iterations=tuple(iterations.tolist()),
                             block_rows=tuple(b.stop - b.start
                                              for b in blocks),
                             rho=rho, converged=bool(converged.all()),
                             jitter_added=chol.jitter_added)


def block_chunks(blocks: list[slice], threads: int | None
                 ) -> list[slice]:
    """Row ranges of :data:`CHUNKS_PER_WORKER` chunks per worker of
    consecutive *blocks*, or one chunk per block when there are fewer;
    chunk lengths differ by at most one block."""
    n = len(blocks)
    count = min(n, CHUNKS_PER_WORKER * effective_threads(threads))
    cuts = [i * n // count for i in range(count + 1)]
    return [slice(blocks[lo].start, blocks[hi - 1].stop)
            for lo, hi in zip(cuts, cuts[1:])]


def native_loop(state: AdmmState, constraint: Constraint, rho: float
                ) -> tuple[row_solve.RowSolver, tuple[str, float]] | None:
    """The compiled ADMM kernel and *constraint*'s prox for its fused
    block loop, or ``None`` when the NumPy loop must serve (no kernel, a
    prox it does not implement, or an empty or non-C-ordered state)."""
    prox = constraint.native_prox(1.0 / rho)
    if prox is None or not state.rows or not state.rank:
        return None
    for mat in (state.primal, state.dual):
        if mat.dtype != VALUE_DTYPE or not mat.flags.c_contiguous \
                or not mat.flags.writeable:
            return None
    solver = row_solve.row_solver()
    return None if solver is None else (solver, prox)


def numpy_block_loop(primal: np.ndarray, dual: np.ndarray,
                     mttkrp: np.ndarray,
                     solve: Callable[[np.ndarray], np.ndarray], rho: float,
                     constraint: Constraint, tolerance: float,
                     max_iterations: int, block_size: int | None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 1 on every *block_size*-row block, in NumPy, in place.

    *solve* multiplies every row of its C-ordered argument by
    ``(G + rho I)^-1`` in place (line 6).  Returns per block the
    iterations run, whether it converged and its last ``(r, s)``
    residuals (``inf`` when it ran none), as
    :meth:`~repro.kernels.row_solve.RowSolver.admm_blocks` does.
    *block_size* ``None`` gives one block of every row, even of none:
    the unblocked solve, for any constraint.

    The blocks run together as one active set: the stack of running
    rows is the leading ``m`` rows of the state itself.  U is updated in
    place in the dual, and H alternates between the primal and one spare
    buffer (the prox writes into whichever does not hold the current H).
    When blocks leave, the stack is reordered so that the staying rows
    come first, in order, and the leaving rows rest behind them;
    ``order`` maps stack rows back to state rows, and the state is put
    back in row order at the end.  The scratch is two factor-sized
    buffers, as much as the per-block loop's collected results.
    """
    lengths = np.array([primal.shape[0]] if block_size is None else
                       [b.stop - b.start
                        for b in row_blocks(primal.shape[0], block_size)],
                       dtype=np.intp)
    iterations = np.zeros(len(lengths), dtype=np.intp)
    converged = np.zeros(len(lengths), dtype=bool)
    residuals = np.full((len(lengths), 2), np.inf)
    if not len(lengths) or max_iterations <= 0:
        return iterations, converged, residuals
    size = int(lengths[0])
    mttkrp = np.asarray(mttkrp, dtype=primal.dtype)
    buffers = (primal, np.empty_like(primal))
    # K + rho (H + U), then H_tilde (solved in place), then the residual
    # differences and squares (C-ordered); also the staging area for
    # reordering.
    work = np.empty(primal.shape)
    active = np.arange(len(lengths))
    order = None  # stack row -> state row; None while that is the identity
    finished = []  # (start, stop, array holding the final H of those rows)
    m = primal.shape[0]
    h, held = primal, 0  # ``held``: which buffer holds H (None: neither)
    step = 0
    while True:
        step += 1
        u = dual[:m]
        rhs = work[:m]
        spare = 1 if held == 0 else 0
        scratch = buffers[spare][:m]
        if order is None:
            np.add(h, u, out=rhs)
            rhs *= rho
            rhs += mttkrp
        else:
            np.add(h, u, out=scratch)
            scratch *= rho
            np.take(mttkrp, order[:m], axis=0, out=rhs, mode="clip")
            rhs += scratch
        aux = solve(rhs)
        h_prev = h
        h = constraint.prox(np.subtract(aux, u, out=scratch), 1.0 / rho)
        held = spare if h is scratch else None
        u += h
        u -= aux
        r = block_relative_residual(np.subtract(h, aux, out=rhs), h, size,
                                    rhs)
        s = block_relative_residual(np.subtract(h, h_prev, out=rhs), u,
                                    size, rhs)
        done = (r < tolerance) & (s < tolerance)
        leaving = done if step < max_iterations else np.ones_like(done)
        if not leaving.any():
            continue
        iterations[active[leaving]] = step
        converged[active[done]] = True
        residuals[active[leaving]] = np.stack((r[leaving], s[leaving]), 1)
        if leaving.all():
            break
        leaving_rows = np.repeat(leaving, lengths[active])
        perm = np.concatenate((np.flatnonzero(~leaving_rows),
                               np.flatnonzero(leaving_rows)))
        if held is None:
            held = spare
        np.take(h, perm, axis=0, out=rhs, mode="clip")
        buffers[held][:m] = rhs
        np.take(u, perm, axis=0, out=rhs, mode="clip")
        u[...] = rhs
        if order is None:
            order = np.arange(primal.shape[0])
        order[:m] = order[:m][perm]
        stay = m - int(np.count_nonzero(leaving_rows))
        finished.append((stay, m, buffers[held]))
        active = active[~leaving]
        m = stay
        h = buffers[held][:m]

    if order is None:
        if held != 0:
            primal[...] = h
    else:
        finished.append((0, m, h))
        for start, stop, final in finished:
            work[order[start:stop]] = final[start:stop]
        primal[...] = work
        work[order] = dual
        dual[...] = work
    return iterations, converged, residuals
