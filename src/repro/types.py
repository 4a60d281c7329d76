"""Shared type aliases and lightweight protocols used across :mod:`repro`.

The package standardizes on

* ``int64`` coordinates (tensor indices can exceed ``int32`` for the
  billion-scale tensors the paper targets), and
* ``float64`` values (the factorization is a least-squares solver; single
  precision would change convergence behaviour).

Everything here is importable without pulling in heavyweight submodules.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence, Union, runtime_checkable

import numpy as np

#: dtype used for all tensor coordinates.
INDEX_DTYPE = np.int64

#: dtype used for all tensor / factor values.
VALUE_DTYPE = np.float64

#: Most modes the compiled MTTKRP kernel's per-level tables hold; a
#: tensor the kernel or a sharded store serves has 2 to this many.
MAX_MODES = 64

#: A dense factor matrix (``I_m x F``).
FactorMatrix = np.ndarray

#: A list of factor matrices, one per tensor mode.
FactorList = Sequence[np.ndarray]

#: Shape of a tensor: one extent per mode.
Shape = tuple[int, ...]

#: Anything accepted as a random seed.
SeedLike = Union[int, np.random.Generator, None]

#: Callback invoked once per outer AO-ADMM iteration.
IterationCallback = Callable[..., None]


@runtime_checkable
class TensorSource(Protocol):
    """What every tensor the drivers can factorize must expose.

    The unifying contract behind the ``repro.open_tensor`` front door:
    :class:`~repro.tensor.coo.COOTensor` (in-core coordinates),
    :class:`~repro.tensor.csf.CSFTensor` (in-core compressed fibers) and
    :class:`~repro.tensor.store.ShardedTensorStore` (out-of-core slabs
    on disk) all satisfy it, so ``repro.fit`` and the checkpoint layer
    only ever ask these four questions — *how* the non-zeros are stored
    (and whether they are resident at all) stays a backend concern.

    ``runtime_checkable`` deliberately checks only member presence; the
    semantic contract is: ``shape`` is one extent per mode, ``nmodes ==
    len(shape)``, ``nnz`` counts stored non-zeros, and
    ``norm_squared()`` returns ``sum(vals**2)`` **bit-identically**
    across every backend holding the same non-zeros (the relative-error
    trace depends on it).
    """

    @property
    def shape(self) -> tuple[int, ...]: ...

    @property
    def nmodes(self) -> int: ...

    @property
    def nnz(self) -> int: ...

    def norm_squared(self) -> float: ...


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from any seed-like input.

    Passing an existing generator returns it unchanged, which lets callers
    thread a single stream through multiple components.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
