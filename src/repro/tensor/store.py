"""Out-of-core sharded tensor store (`ROADMAP` item 1).

A :class:`ShardedTensorStore` is the on-disk twin of the in-core
ALLMODE engine state: for every mode it persists the mode-rooted CSF
tree, pre-split into the **same nnz-balanced root-slice slabs** the
in-core tiled kernels use (:class:`repro.tensor.tiling.CSFTiling` over
:func:`repro.parallel.partition.balanced_chunks`).  Each slab is one
packed binary file of 64-byte-aligned level arrays that
``numpy.memmap`` maps back lazily, so a fit only ever pages in the
slabs it is currently sweeping.

Why per-mode trees on disk: the streaming MTTKRP path then always runs
the **root** kernel, whose slabs write disjoint output rows — no
nnz-sized scatter buffer has to stay resident, and the per-slab sweep
is the same monolithic upward sweep the in-core kernels use, so the
results are **bit-identical** to in-core MTTKRP for any byte
budget, eviction order, or prefetch schedule (the family contract the
differential harness enforces).

``meta.json`` carries the tensor-level facts the drivers need without
touching a single slab: shape, nnz, ``norm_squared`` (stored via
``repr`` so the JSON round-trip is exact — the relative-error trace
depends on it bit-for-bit), and the same SHA-1 fingerprint
:func:`repro.robustness.checkpoint.tensor_fingerprint` computes for
in-core tensors, so checkpoints interoperate across in-core and
sharded runs of the same data.

:func:`open_tensor` is the single front door that picks in-core vs.
out-of-core; see its docstring for the dispatch rules.

Storage integrity (:mod:`repro.integrity`): every slab file carries a
chunked CRC-32 manifest in ``meta.json``, verified on first touch (and
on every read under ``REPRO_VERIFY_READS=1``).  A slab that fails
verification — torn, truncated, or bit-rotted — is quarantined to
``<file>.corrupt`` and transparently rebuilt when the store still
holds (or was handed via :meth:`ShardedTensorStore.attach_source`) the
tensor it was sharded from; otherwise the read raises
:class:`~repro.integrity.IntegrityError` instead of feeding damaged
bytes to a kernel.  Store creation is torn-write-safe: slabs are
written into a hidden staging directory, (optionally) fsynced, moved
into place, and ``meta.json`` is published atomically **last** — a
crash mid-shard can never leave a directory that parses as a store.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
import warnings
import weakref
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..integrity import (
    ChecksumManifest,
    IntegrityError,
    StreamingChecksummer,
    verify_file,
    verify_manifest,
    verify_reads_enabled,
)
from ..observability import record_integrity_event
from ..types import INDEX_DTYPE, MAX_MODES, VALUE_DTYPE, TensorSource
from ..validation import check_mode, require
from .coo import COOTensor
from .csf import CSFTensor, rooted_tree
from .tiling import CSFSlab, CSFTiling

STORE_FORMAT = "repro-sharded-tensor"
#: Version 2 added per-slab checksum manifests; version-1 stores still
#: open (their slabs are size-checked but not checksum-verifiable).
STORE_VERSION = 2

#: The manifest file every store directory carries.
META_FILE = "meta.json"

#: Offset alignment of arrays inside a slab file (cache-line friendly,
#: and safe for any dtype's alignment requirement under memmap).
_ALIGN = 64

#: Environment variable supplying a default in-core byte budget.
BUDGET_ENV_VAR = "REPRO_MAX_BYTES_IN_CORE"

#: Name prefix of store directories created implicitly by
#: :func:`open_tensor` (the key CI leak checks look for).
TEMP_SHARD_PREFIX = "repro_shards_"

#: Name prefix of the hidden staging directory :meth:`create` shards
#: into before publishing; a surviving one marks a crashed shard (fsck
#: detects and removes it).
STAGING_PREFIX = ".staging-"

#: Suffix a corrupt slab file is renamed to when quarantined.
SLAB_QUARANTINE_SUFFIX = ".corrupt"


def _fingerprint_arrays(*arrays: np.ndarray) -> str:
    """Order-sensitive SHA-1 over raw array bytes.

    Byte-for-byte the same digest as
    :func:`repro.core.serialize.array_fingerprint` (re-implemented here
    to keep the tensor layer import-independent of the core layer);
    ``tests/test_store.py`` pins the two together.
    """
    digest = hashlib.sha1()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.data)
    return digest.hexdigest()


#: Malformed ``REPRO_MAX_BYTES_IN_CORE`` values already warned about —
#: the budget is resolved on every engine build, so a typo'd shell
#: profile must warn once, not once per fit (the ``REPRO_EXECUTOR`` /
#: ``REPRO_NUM_THREADS`` warn-once contract).
_WARNED_ENV_VALUES: set[str] = set()


def resolve_byte_budget(max_bytes_in_core: int | None = None) -> int | None:
    """An explicit byte budget, else ``REPRO_MAX_BYTES_IN_CORE``, else None.

    A malformed environment value warns once per distinct value and is
    ignored (same contract as ``REPRO_EXECUTOR`` /
    ``REPRO_NUM_THREADS``: a typo in a shell profile must not crash —
    or spam — library calls).
    """
    if max_bytes_in_core is not None:
        budget = int(max_bytes_in_core)
        require(budget >= 1, "max_bytes_in_core must be positive")
        return budget
    raw = os.environ.get(BUDGET_ENV_VAR)
    if not raw:
        return None
    try:
        budget = int(raw)
        if budget < 1:
            raise ValueError(budget)
    except ValueError:
        if raw not in _WARNED_ENV_VALUES:
            _WARNED_ENV_VALUES.add(raw)
            warnings.warn(
                f"ignoring malformed {BUDGET_ENV_VAR}={raw!r} "
                "(need a positive integer byte count)",
                RuntimeWarning, stacklevel=2)
        return None
    return budget


class ShardedTensorStore:
    """A sparse tensor sharded into per-mode CSF slab files on disk.

    Satisfies :class:`repro.types.TensorSource`; build with
    :meth:`create`, reopen with :meth:`open` (or via
    :func:`open_tensor`).  All index/value bytes live on disk; the
    resident-set policy (under ``max_bytes_in_core``) is the
    MTTKRP engine's job (:mod:`repro.tensor.ooc`), not the store's —
    the store only maps slabs on demand.
    """

    def __init__(self, path: Path, meta: dict,
                 max_bytes_in_core: int | None = None,
                 cleanup_root: "Path | None" = None,
                 source: "COOTensor | None" = None):
        self.path = Path(path)
        self.meta = meta
        #: Default in-core byte budget an MTTKRP engine over this
        #: store should honor (``None`` = no eviction pressure).
        self.max_bytes_in_core = max_bytes_in_core
        self.closed = False
        #: The tensor this store was sharded from, when still known —
        #: set by :meth:`create` and :meth:`attach_source`.  With a
        #: source at hand a corrupt slab is quarantined and rebuilt
        #: transparently instead of failing the read.
        self._source = source
        #: ``(mode, index)`` pairs whose checksum this handle has
        #: already verified — reads verify on first touch, and on every
        #: touch under ``REPRO_VERIFY_READS=1``.
        self._verified: set[tuple[int, int]] = set()
        #: Serializes verify/quarantine/rebuild against the prefetch
        #: thread (both it and the consumer call :meth:`load_slab`).
        self._integrity_lock = threading.Lock()
        self._cleanup_root = cleanup_root
        if cleanup_root is not None:
            # An implicitly created temp store cleans up after itself
            # even when close() is never called.
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, str(cleanup_root), True)
        else:
            self._finalizer = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, tensor: COOTensor, path: "str | Path",
               slab_nnz_target: int | None = None,
               cleanup_root: "Path | None" = None,
               durable: bool = True,
               fault_hook: "Callable[[str], None] | None" = None,
               ) -> "ShardedTensorStore":
        """Shard *tensor* into a new store directory at *path*.

        One mode-rooted CSF tree per mode (the ALLMODE policy the
        in-core engine uses), each split by :class:`CSFTiling` into the
        nnz-balanced slabs that become the unit of disk I/O, residency,
        and eviction.  The directory must not already contain a store.

        The shard is **torn-write-safe**: slabs are written (and, with
        *durable*, fsynced) into a hidden staging directory inside
        *path*, moved into place, and ``meta.json`` is published
        atomically *last* — a crash at any point leaves either a
        complete store or a directory with no manifest, never a
        half-store that parses.  Leftover ``modeN`` debris from a
        previously crashed shard at the same *path* is replaced.
        *durable* is on for user-named stores and off for the
        self-cleaning temp stores :func:`open_tensor` creates (their
        lifetime is the process, so crash durability buys nothing).

        *fault_hook*, when given, is called with each slab's relative
        path just before it is written — the fault-injection seam
        :class:`repro.robustness.faults.ShardCrashPlan` uses to prove
        the crash contract.

        The returned store keeps a reference to *tensor* as its
        **source**, so a slab that later fails verification is rebuilt
        in place instead of failing the read.
        """
        require(isinstance(tensor, COOTensor),
                "ShardedTensorStore.create shards a COOTensor")
        # Checked before anything is written: a 1-mode tree has no
        # fibers to tile, and the kernel that streams the slabs takes
        # 2 to MAX_MODES modes.
        require(2 <= tensor.nmodes <= MAX_MODES,
                f"a sharded store takes 2 to {MAX_MODES} modes, not "
                f"{tensor.nmodes}")
        path = Path(path)
        require(not (path / META_FILE).exists(),
                f"{path} already contains a sharded tensor store")
        path.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=STAGING_PREFIX, dir=path))
        try:
            modes_meta = []
            # One sort for tree 0; each tree derives its order from it
            # and is written out before the next is built.
            perm0 = tensor.permutation_lex()
            for mode in range(tensor.nmodes):
                csf = rooted_tree(tensor, perm0, mode)
                tiling = CSFTiling(csf, slab_nnz_target=slab_nnz_target)
                (staging / f"mode{mode}").mkdir(exist_ok=True)
                slabs_meta = []
                for slab in tiling:
                    rel = f"mode{mode}/slab{slab.index:05d}.bin"
                    if fault_hook is not None:
                        fault_hook(rel)
                    slabs_meta.append(
                        _write_slab(staging / rel, rel, slab,
                                    durable=durable))
                modes_meta.append({
                    "mode": mode,
                    "mode_order": list(csf.mode_order),
                    "slabs": slabs_meta,
                })
            meta = {
                "format": STORE_FORMAT,
                "version": STORE_VERSION,
                "shape": list(tensor.shape),
                "nnz": int(tensor.nnz),
                # json emits repr(float); repr round-trips doubles
                # exactly, so norm_squared() stays bit-identical to the
                # in-core one.
                "norm_squared": tensor.norm_squared(),
                "fingerprint": {
                    "shape": list(tensor.shape),
                    "nnz": int(tensor.nnz),
                    "sha1": _fingerprint_arrays(tensor.coords,
                                                tensor.vals),
                },
                "slab_nnz_target": slab_nnz_target,
                "modes": modes_meta,
            }
            # Publish: mode directories first, the manifest last — the
            # store only becomes visible (is_store / open) once every
            # byte it names is already in its final place.
            for mode in range(tensor.nmodes):
                target = path / f"mode{mode}"
                if target.exists():
                    shutil.rmtree(target)
                os.replace(staging / f"mode{mode}", target)
            if durable:
                _fsync_dir(path)
            _write_meta(path, meta, durable=durable)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return cls(path, meta, cleanup_root=cleanup_root, source=tensor)

    @classmethod
    def open(cls, path: "str | Path",
             max_bytes_in_core: int | None = None) -> "ShardedTensorStore":
        """Open an existing store directory."""
        path = Path(path)
        meta_path = path / META_FILE
        require(meta_path.is_file(),
                f"{path} is not a sharded tensor store (no {META_FILE})")
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        require(meta.get("format") == STORE_FORMAT,
                f"{path}: unrecognized store format {meta.get('format')!r}")
        require(int(meta.get("version", 0)) <= STORE_VERSION,
                f"{path}: store version {meta.get('version')} is newer "
                f"than this library understands ({STORE_VERSION})")
        return cls(path, meta,
                   max_bytes_in_core=resolve_byte_budget(max_bytes_in_core))

    @staticmethod
    def is_store(path: "str | Path") -> bool:
        """Whether *path* is a store directory (has a manifest)."""
        return (Path(path) / META_FILE).is_file()

    # ------------------------------------------------------------------
    # TensorSource surface
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(s) for s in self.meta["shape"])

    @property
    def nmodes(self) -> int:
        return len(self.meta["shape"])

    @property
    def nnz(self) -> int:
        return int(self.meta["nnz"])

    def norm_squared(self) -> float:
        """Squared Frobenius norm (bit-identical to the source tensor's)."""
        return float(self.meta["norm_squared"])

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.sqrt(self.norm_squared()))

    def fingerprint(self) -> dict:
        """The checkpoint-layer tensor fingerprint (shape, nnz, SHA-1).

        Equal to ``tensor_fingerprint(coo)`` of the tensor this store
        was created from, so checkpoints written by an in-core run
        resume against the sharded store and vice versa.
        """
        fp = self.meta["fingerprint"]
        return {"shape": list(fp["shape"]), "nnz": int(fp["nnz"]),
                "sha1": fp["sha1"]}

    # ------------------------------------------------------------------
    # Slab access
    # ------------------------------------------------------------------
    def mode_order(self, mode: int) -> tuple[int, ...]:
        """Mode order of the tree rooted at *mode*."""
        mode = check_mode(mode, self.nmodes)
        return tuple(self.meta["modes"][mode]["mode_order"])

    def slab_count(self, mode: int) -> int:
        mode = check_mode(mode, self.nmodes)
        return len(self.meta["modes"][mode]["slabs"])

    def slab_meta(self, mode: int, index: int) -> dict:
        mode = check_mode(mode, self.nmodes)
        return self.meta["modes"][mode]["slabs"][index]

    def slab_nbytes(self, mode: int, index: int) -> int:
        """On-disk (== resident) bytes of one slab's arrays."""
        return int(self.slab_meta(mode, index)["nbytes"])

    def load_slab(self, mode: int, index: int) -> CSFSlab:
        """Map one slab back as a :class:`CSFSlab` over memmapped arrays.

        The returned arrays are read-only ``np.memmap`` views — pages
        fault in lazily and are released when the slab object is
        dropped (which is exactly what eviction from
        :class:`repro.tensor.ooc.SlabCache` does).

        This is a **verified read**: the slab file is always
        size-checked against what the manifest promises, and its
        checksum is verified on this handle's first touch of the slab
        (every touch under ``REPRO_VERIFY_READS=1``).  A slab that
        fails is quarantined to ``*.corrupt`` and rebuilt from the
        store's source tensor when one is attached; without a source
        the read raises :class:`~repro.integrity.IntegrityError` —
        never a cryptic memmap error, never silently damaged bytes.
        """
        self._check_open()
        mode = check_mode(mode, self.nmodes)
        smeta = self.slab_meta(mode, index)
        index = int(smeta["index"])
        with self._integrity_lock:
            deep = (verify_reads_enabled()
                    or (mode, index) not in self._verified)
            problem = self.slab_problem(mode, index, deep=deep)
            if problem is not None:
                self._recover_slab(mode, index, problem)
            self._verified.add((mode, index))
        mm = np.memmap(self.path / smeta["file"], dtype=np.uint8, mode="r")
        arrays = {}
        for name, spec in smeta["arrays"].items():
            count = int(np.prod(spec["shape"], dtype=np.int64))
            arrays[name] = np.frombuffer(
                mm, dtype=np.dtype(spec["dtype"]), count=count,
                offset=int(spec["offset"])).reshape(spec["shape"])
        nmodes = self.nmodes
        tree = CSFTensor(
            self.shape, self.mode_order(mode),
            [arrays[f"fids{level}"] for level in range(nmodes)],
            [arrays[f"fptr{level}"] for level in range(nmodes - 1)],
            arrays["vals"])
        node_ranges = tuple((int(lo), int(hi))
                            for lo, hi in smeta["node_ranges"])
        return CSFSlab(int(smeta["index"]), tree, node_ranges)

    def iter_slabs(self, mode: int):
        """Yield every slab of *mode* in index order (no caching)."""
        for index in range(self.slab_count(mode)):
            yield self.load_slab(mode, index)

    # ------------------------------------------------------------------
    # Integrity: verification, quarantine, rebuild
    # ------------------------------------------------------------------
    def slab_path(self, mode: int, index: int) -> Path:
        """Absolute path of one slab's backing file."""
        return self.path / self.slab_meta(mode, index)["file"]

    def slab_checksum(self, mode: int, index: int) -> "ChecksumManifest | None":
        """The manifest recorded at shard time (None for v1 stores)."""
        recorded = self.slab_meta(mode, index).get("checksum")
        return (ChecksumManifest.from_dict(recorded)
                if recorded is not None else None)

    def slab_problem(self, mode: int, index: int,
                     deep: bool = True) -> "str | None":
        """Read-only integrity check of one slab; ``None`` means clean.

        Never quarantines, never rebuilds — the detection half that
        :meth:`load_slab` and the fsck scrubber share.  The shallow
        check (always) stats the file against the length the manifest
        promises; *deep* additionally streams the chunked checksum.
        """
        self._check_open()
        mode = check_mode(mode, self.nmodes)
        smeta = self.slab_meta(mode, index)
        file_path = self.path / smeta["file"]
        try:
            size = file_path.stat().st_size
        except FileNotFoundError:
            return "slab file is missing"
        expected = self.slab_checksum(mode, index)
        if expected is None:
            # v1 store: no checksum was recorded; the array table still
            # tells us how long the file must at least be.
            promised = _promised_slab_bytes(smeta)
            if size < promised:
                return (f"truncated: {size} bytes on disk, header "
                        f"promises {promised}")
            return None
        if size != expected.length:
            direction = "truncated" if size < expected.length else "grew"
            return (f"{direction}: {size} bytes on disk, manifest "
                    f"promises {expected.length}")
        if not deep:
            return None
        return verify_file(file_path, expected)

    def quarantine_slab(self, mode: int, index: int,
                        reason: str) -> "Path | None":
        """Move a damaged slab file aside to ``*.corrupt``.

        Returns the quarantine path (``None`` when the file was already
        gone).  The evidence is preserved for forensics; fsck reports
        quarantined files and ``--repair`` cleans them up.
        """
        smeta = self.slab_meta(mode, index)
        file_path = self.path / smeta["file"]
        quarantined = file_path.with_name(
            file_path.name + SLAB_QUARANTINE_SUFFIX)
        try:
            os.replace(file_path, quarantined)
        except FileNotFoundError:
            quarantined = None
        record_integrity_event("quarantine", artifact=smeta["file"])
        warnings.warn(
            f"quarantined corrupt slab {file_path} "
            f"({reason})" + (f" -> {quarantined.name}"
                             if quarantined is not None else ""),
            RuntimeWarning, stacklevel=2)
        self._verified.discard((mode, int(smeta["index"])))
        return quarantined

    def rebuild_slab(self, mode: int, index: int) -> Path:
        """Deterministically re-shard one slab from the source tensor.

        Requires a source (:meth:`create` retains one,
        :meth:`attach_source` supplies one later).  The rebuilt bytes
        must match the checksum recorded at shard time — a mismatch
        means the attached tensor is not the one this store was sharded
        from, and raises :class:`IntegrityError` rather than silently
        swapping in different data.
        """
        self._check_open()
        mode = check_mode(mode, self.nmodes)
        require(self._source is not None,
                "cannot rebuild a slab without a source tensor "
                "(attach_source a tensor with the store's fingerprint)")
        smeta = self.slab_meta(mode, index)
        file_path = self.path / smeta["file"]
        csf = rooted_tree(self._source, self._source.permutation_lex(), mode)
        tiling = CSFTiling(
            csf, slab_nnz_target=self.meta.get("slab_nnz_target"))
        rebuilt = None
        for slab in tiling:
            if slab.index == int(smeta["index"]):
                rebuilt = slab
                break
        require(rebuilt is not None,
                f"deterministic re-shard of mode {mode} did not produce "
                f"slab {smeta['index']} — store meta is inconsistent")
        tmp = file_path.with_name(file_path.name + ".rebuild")
        new_meta = _write_slab(tmp, smeta["file"], rebuilt, durable=True)
        recorded = self.slab_checksum(mode, index)
        if recorded is not None:
            problem = verify_manifest(
                ChecksumManifest.from_dict(new_meta["checksum"]), recorded)
            if problem is not None:
                tmp.unlink(missing_ok=True)
                raise IntegrityError(
                    f"{file_path}: rebuilt slab does not match the "
                    f"checksum recorded at shard time ({problem}) — the "
                    f"attached source is not the tensor this store was "
                    f"sharded from", path=file_path)
        os.replace(tmp, file_path)
        record_integrity_event("rebuild", artifact=smeta["file"],
                               nbytes=int(new_meta["nbytes"]))
        self._verified.add((mode, int(smeta["index"])))
        return file_path

    def attach_source(self, tensor: COOTensor) -> None:
        """Attach the tensor this store was sharded from.

        Enables transparent quarantine-and-rebuild on a reopened store
        (``fsck --repair --source``).  The tensor must carry the exact
        fingerprint recorded in ``meta.json`` — same bytes, same order.
        """
        require(isinstance(tensor, COOTensor),
                "attach_source needs the original COOTensor")
        fp = self.fingerprint()
        require(tuple(fp["shape"]) == tuple(int(s) for s in tensor.shape)
                and int(fp["nnz"]) == int(tensor.nnz)
                and fp["sha1"] == _fingerprint_arrays(tensor.coords,
                                                      tensor.vals),
                "attach_source: tensor fingerprint does not match this "
                "store (different data, order, or dtype)")
        self._source = tensor

    def has_source(self) -> bool:
        """Whether a rebuild source is currently attached."""
        return self._source is not None

    def _recover_slab(self, mode: int, index: int, problem: str) -> None:
        """Quarantine a damaged slab, then rebuild or raise."""
        smeta = self.slab_meta(mode, index)
        file_path = self.path / smeta["file"]
        record_integrity_event("mismatch", artifact=smeta["file"])
        quarantined = self.quarantine_slab(mode, index, problem)
        if self._source is None:
            where = (f"; evidence preserved at {quarantined}"
                     if quarantined is not None else "")
            raise IntegrityError(
                f"{file_path}: {problem}{where}. No source tensor is "
                f"attached, so the slab cannot be rebuilt — re-shard "
                f"the tensor, or run `python -m repro fsck "
                f"{self.path} --repair --source <tensor>`",
                path=file_path, quarantined=quarantined)
        self.rebuild_slab(mode, index)

    # ------------------------------------------------------------------
    # Whole-tensor queries (conversion / tests — not the streaming path)
    # ------------------------------------------------------------------
    def to_coo(self) -> COOTensor:
        """Materialize the whole tensor in core (lex-sorted by mode 0).

        For conversion and testing; the factorization path never calls
        this.
        """
        self._check_open()
        coords_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        for slab in self.iter_slabs(0):
            coo = slab.tree.to_coo()
            coords_parts.append(coo.coords)
            vals_parts.append(coo.vals)
        if not coords_parts:
            return COOTensor(np.empty((self.nmodes, 0), dtype=INDEX_DTYPE),
                             np.empty(0, dtype=VALUE_DTYPE), self.shape)
        return COOTensor(np.concatenate(coords_parts, axis=1),
                         np.concatenate(vals_parts), self.shape)

    def storage_bytes(self) -> int:
        """Total slab bytes on disk (== the full in-core CSF footprint)."""
        return sum(int(s["nbytes"])
                   for m in self.meta["modes"] for s in m["slabs"])

    def slab_files(self) -> list[Path]:
        """Every slab file of the store (leak-check support)."""
        return [self.path / s["file"]
                for m in self.meta["modes"] for s in m["slabs"]]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        require(not self.closed, "sharded tensor store is closed")

    def close(self) -> None:
        """Close the store; removes the directory when it owns a temp one.

        Idempotent.  Stores opened on user-provided paths are left on
        disk; stores :func:`open_tensor` implicitly created in a temp
        directory are deleted — the "no leaked shard files" guarantee.
        """
        if self.closed:
            return
        self.closed = True
        if self._cleanup_root is not None:
            if self._finalizer is not None:
                self._finalizer.detach()
            shutil.rmtree(self._cleanup_root, ignore_errors=True)

    def __enter__(self) -> "ShardedTensorStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardedTensorStore(path={str(self.path)!r}, "
                f"shape={self.shape}, nnz={self.nnz}, "
                f"bytes={self.storage_bytes()})")


def _write_slab(file_path: Path, rel: str, slab: CSFSlab,
                durable: bool = False) -> dict:
    """Pack one slab's level arrays into an aligned binary file.

    The chunked CRC-32 manifest is accumulated **while writing** (no
    second read pass) and returned in the slab record's ``checksum``
    key; *durable* fsyncs the file before returning.
    """
    arrays = slab.tree.buffers()
    manifest: dict[str, dict] = {}
    offset = 0
    summer = StreamingChecksummer()
    with open(file_path, "wb") as handle:
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            aligned = -(-offset // _ALIGN) * _ALIGN
            if aligned > offset:
                pad = b"\0" * (aligned - offset)
                handle.write(pad)
                summer.update(pad)
            manifest[name] = {
                "offset": aligned,
                "shape": [int(s) for s in arr.shape],
                "dtype": arr.dtype.str,
            }
            data = arr.tobytes()
            handle.write(data)
            summer.update(data)
            offset = aligned + arr.nbytes
        if durable:
            handle.flush()
            os.fsync(handle.fileno())
    return {
        "index": slab.index,
        "file": rel,
        "nnz": int(slab.nnz),
        "nbytes": int(sum(np.prod(s["shape"], dtype=np.int64)
                          * np.dtype(s["dtype"]).itemsize
                          for s in manifest.values())),
        "node_ranges": [[int(lo), int(hi)]
                        for lo, hi in slab.node_ranges],
        "arrays": manifest,
        "checksum": summer.manifest().to_dict(),
    }


def _promised_slab_bytes(smeta: dict) -> int:
    """Minimum file length the slab's array table implies (v1 stores)."""
    end = 0
    for spec in smeta["arrays"].values():
        count = int(np.prod(spec["shape"], dtype=np.int64))
        end = max(end, int(spec["offset"])
                  + count * np.dtype(spec["dtype"]).itemsize)
    return end


def _fsync_dir(path: Path) -> None:
    """fsync a directory so renames inside it survive a crash."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(fd)


def _write_meta(path: Path, meta: dict, durable: bool = True) -> None:
    """Publish ``meta.json`` atomically (tmp + fsync + rename)."""
    tmp = path / (META_FILE + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=1)
        if durable:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path / META_FILE)
    if durable:
        _fsync_dir(path)


# ----------------------------------------------------------------------
# The unified front door
# ----------------------------------------------------------------------
def open_tensor(source: "str | Path | TensorSource",
                max_bytes_in_core: int | None = None,
                shard_dir: "str | Path | None" = None,
                slab_nnz_target: int | None = None,
                shape: Sequence[int] | None = None) -> TensorSource:
    """Open *source* as a :class:`~repro.types.TensorSource`.

    The single entry point behind ``repro.fit(path_or_tensor, ...)``
    and ``repro.load_tns``.  Dispatch rules:

    * a **store directory** (contains ``meta.json``) opens as a
      :class:`ShardedTensorStore` carrying the byte budget;
    * a **``.tns`` / ``.tns.gz`` file** reads in-core
      (:class:`~repro.tensor.coo.COOTensor`) when no byte budget is in
      effect, and is sharded into a store when one is — into
      *shard_dir* when given, else a self-cleaning temp directory the
      returned store removes on ``close()``;
    * an existing **tensor object** (COO/CSF/store) passes through
      unchanged — unless it is a ``COOTensor`` and a byte budget is in
      effect, in which case it is sharded the same way.

    The byte budget is *max_bytes_in_core* when given, else the
    ``REPRO_MAX_BYTES_IN_CORE`` environment variable, else none.
    """
    budget = resolve_byte_budget(max_bytes_in_core)
    if isinstance(source, ShardedTensorStore):
        if budget is not None:
            source.max_bytes_in_core = budget
        return source
    if isinstance(source, (str, Path)):
        path = Path(source)
        if ShardedTensorStore.is_store(path):
            return ShardedTensorStore.open(path, max_bytes_in_core=budget)
        require(path.is_file(),
                f"{path} is neither a tensor file nor a store directory")
        from .io import read_tns
        tensor: TensorSource = read_tns(path, shape=shape)
        if budget is None:
            return tensor
        return _shard_in_core(tensor, budget, shard_dir, slab_nnz_target)
    require(isinstance(source, TensorSource),
            f"cannot open {type(source).__name__!r} as a tensor: need a "
            "path, a COOTensor/CSFTensor, or a ShardedTensorStore")
    if budget is not None and isinstance(source, COOTensor):
        return _shard_in_core(source, budget, shard_dir, slab_nnz_target)
    return source


def _shard_in_core(tensor: COOTensor, budget: int,
                   shard_dir: "str | Path | None",
                   slab_nnz_target: int | None) -> ShardedTensorStore:
    if shard_dir is not None:
        store = ShardedTensorStore.create(
            tensor, shard_dir, slab_nnz_target=slab_nnz_target)
    else:
        # Self-cleaning temp store: its lifetime is this process, so
        # fsync durability buys nothing — skip it (durable=False).
        tmp = Path(tempfile.mkdtemp(prefix=TEMP_SHARD_PREFIX))
        try:
            store = ShardedTensorStore.create(
                tensor, tmp / "store", slab_nnz_target=slab_nnz_target,
                cleanup_root=tmp, durable=False)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
    store.max_bytes_in_core = budget
    return store
