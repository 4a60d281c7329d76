"""CP model / optimizer-state persistence and objective evaluation.

Save/load uses NumPy's ``.npz`` container — one array per factor plus
optional weights — matching what the CLI's ``--output`` writes, so models
round-trip between the API and the command line.

The lower half of the module is the generic state-persistence layer the
checkpoint subsystem (:mod:`repro.robustness.checkpoint`) builds on:
atomic ``.npz`` writes with a JSON metadata side-channel, and stable
content fingerprints for integrity checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from ..constraints.base import Constraint
from ..integrity import IntegrityError
from ..tensor.coo import COOTensor
from ..validation import require
from .cpd import CPModel

_WEIGHTS_KEY = "weights"
_MODE_KEY = re.compile(r"mode(\d+)")
#: Reserved key carrying the JSON metadata blob in state ``.npz`` files.
_META_KEY = "__meta__"
#: Metadata key carrying the SHA-1 over every payload array, in sorted
#: key order — the bit-rot detector :func:`load_state_npz` verifies.
PAYLOAD_SHA_KEY = "payload_sha1"


def save_model(model: CPModel, path: str | Path) -> Path:
    """Write *model* to an ``.npz`` file; returns the path."""
    path = Path(path)
    arrays = {f"mode{m}": factor
              for m, factor in enumerate(model.factors)}
    if model.weights is not None:
        arrays[_WEIGHTS_KEY] = model.weights
    np.savez(path, **arrays)
    # np.savez appends .npz when missing; normalize the returned path.
    return path if path.suffix == ".npz" else path.with_name(
        path.name + ".npz")


def load_model(path: str | Path) -> CPModel:
    """Read a :class:`CPModel` previously written by :func:`save_model`."""
    with np.load(Path(path)) as data:
        # Sort numerically: lexicographic order breaks at >= 10 modes
        # ("mode10" < "mode2").
        modes = sorted((k for k in data.files if _MODE_KEY.fullmatch(k)),
                       key=lambda k: int(_MODE_KEY.fullmatch(k).group(1)))
        require(bool(modes), f"{path} contains no factor arrays")
        # Validate contiguous mode numbering.
        expected = [f"mode{m}" for m in range(len(modes))]
        require(modes == expected,
                f"{path} has non-contiguous factor keys {modes}")
        factors = [np.array(data[k]) for k in expected]
        weights = (np.array(data[_WEIGHTS_KEY])
                   if _WEIGHTS_KEY in data.files else None)
    return CPModel(factors, weights)


# ----------------------------------------------------------------------
# Generic state persistence (checkpoint substrate)
# ----------------------------------------------------------------------

def array_fingerprint(*arrays: np.ndarray) -> str:
    """Order-sensitive SHA-1 over the raw bytes of *arrays*.

    Used to fingerprint tensors (coords + values) and checkpoint
    payloads so a resumed run can verify it is continuing from exactly
    the state that was checkpointed.  A C-contiguous buffer is hashed
    in place through the buffer protocol (no ``tobytes()`` copy); the
    digest is the same as hashing ``tobytes()``.
    """
    digest = hashlib.sha1()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes() if arr.dtype.hasobject else arr.data)
    return digest.hexdigest()


def payload_fingerprint(arrays: dict[str, np.ndarray]) -> str:
    """SHA-1 over every payload array, in sorted key order.

    The whole-payload integrity fingerprint :func:`save_state_npz`
    embeds in the metadata blob and :func:`load_state_npz` verifies —
    a flipped bit in *any* array (factors, duals, trace history)
    changes it, closing the gap left by fingerprints that only cover
    the primal factors.
    """
    keys = sorted(arrays)
    digest = hashlib.sha1()
    for key in keys:
        digest.update(key.encode())
        digest.update(b"\0")
    digest.update(array_fingerprint(
        *(arrays[k] for k in keys)).encode() if keys else b"")
    return digest.hexdigest()


def save_state_npz(path: str | Path, arrays: dict[str, np.ndarray],
                   meta: dict, fsync: bool = False,
                   checksum: bool = True) -> Path:
    """Atomically write *arrays* plus a JSON *meta* blob to ``path``.

    The write goes through a temporary file in the destination directory
    followed by ``os.replace``, so a crash mid-checkpoint can never leave
    a truncated file where a good previous checkpoint used to be.  With
    ``fsync=True`` the temporary file (and, best-effort, the directory
    entry) are flushed to stable storage before the rename — the
    checkpoint retention layer prunes older versions only after this
    barrier, so a power loss can never leave *zero* durable checkpoints.

    With *checksum* (the default) a :func:`payload_fingerprint` over
    every array is embedded in the metadata under
    :data:`PAYLOAD_SHA_KEY`; :func:`load_state_npz` verifies it, so
    bit-rot inside the container is detected at load time rather than
    propagated into a resumed fit.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    require(_META_KEY not in arrays,
            f"array key {_META_KEY!r} is reserved for metadata")
    if checksum:
        meta = dict(meta)
        meta[PAYLOAD_SHA_KEY] = payload_fingerprint(arrays)
    payload = dict(arrays)
    payload[_META_KEY] = np.array(json.dumps(meta, sort_keys=True))
    fd, tmp_name = tempfile.mkstemp(suffix=".npz", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        if fsync:
            try:
                dir_fd = os.open(path.parent, os.O_RDONLY)
            except OSError:  # pragma: no cover - exotic filesystems
                pass
            else:
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def load_state_npz(path: str | Path,
                   verify: bool = True) -> tuple[dict[str, np.ndarray], dict]:
    """Read back ``(arrays, meta)`` written by :func:`save_state_npz`.

    When the metadata carries a :data:`PAYLOAD_SHA_KEY` fingerprint
    (every file written by this version does) and *verify* is on, the
    payload is re-fingerprinted and a mismatch raises
    :class:`~repro.integrity.IntegrityError` — the checkpoint store's
    newest-loadable fallback treats that exactly like an unreadable
    file: quarantine and fall back, never resume from rotted state.
    Files written before payload checksums existed load unverified.
    """
    path = Path(path)
    with np.load(path) as data:
        require(_META_KEY in data.files,
                f"{path} is not a repro state file (missing metadata)")
        meta = json.loads(str(data[_META_KEY]))
        arrays = {k: np.array(data[k]) for k in data.files
                  if k != _META_KEY}
    expected = meta.get(PAYLOAD_SHA_KEY)
    if verify and expected is not None:
        actual = payload_fingerprint(arrays)
        if actual != expected:
            raise IntegrityError(
                f"{path}: payload checksum mismatch (stored "
                f"{expected[:12]}…, recomputed {actual[:12]}…) — the "
                f"file was corrupted after it was written", path=path)
    return arrays, meta


def penalized_objective(model: CPModel, tensor: COOTensor,
                        constraints: "list[Constraint] | None" = None
                        ) -> float:
    """Equation (1)'s objective: ``1/2 ||X - X_hat||_F^2 + sum_m r(A_m)``.

    The quantity AO-ADMM monotonically decreases (up to inner-solve
    inexactness).  Indicator constraints contribute 0 when feasible and
    ``inf`` otherwise, so a finite value certifies feasibility too.
    """
    norm_x_sq = tensor.norm_squared()
    err_sq = (norm_x_sq - 2.0 * model.inner_with(tensor)
              + model.norm_squared())
    objective = 0.5 * max(err_sq, 0.0)
    if constraints is not None:
        require(len(constraints) == model.nmodes,
                "one constraint per mode required")
        for constraint, factor in zip(constraints, model.factors):
            objective += constraint.penalty(factor)
    return float(objective)
