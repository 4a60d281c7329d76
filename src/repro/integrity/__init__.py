"""Storage integrity: checksummed artifacts, verified reads, fsck.

The platform persists load-bearing state in two places — memmapped
slab files under a :class:`~repro.tensor.store.ShardedTensorStore` and
versioned ``.npz`` checkpoints — and a fit warm-started from either is
only as trustworthy as those bytes.  This package makes both of them
end-to-end verifiable:

* :mod:`repro.integrity.checksum` — the chunked CRC-32 core with a
  canonical manifest format (:class:`ChecksumManifest`) embedded in
  ``meta.json`` slab records and state-file metadata, plus
  :class:`IntegrityError`, the one loud failure every corruption path
  funnels into;
* **verified reads** — slab checksums are verified on first touch, and
  on *every* read when ``REPRO_VERIFY_READS=1``
  (:func:`verify_reads_enabled`); corrupt slabs are quarantined to
  ``<file>.corrupt`` and transparently rebuilt when the store still
  knows its source tensor;
* :mod:`repro.integrity.fsck` — the ``python -m repro fsck`` scrubber
  that walks stores and checkpoint directories, reporting per-artifact
  verdicts and (with ``repair=True``) quarantining, rebuilding, and
  cleaning up partial shards.

Detection counters (``integrity_bytes_scrubbed`` /
``integrity_mismatches`` / ``integrity_quarantines`` /
``integrity_rebuilds``) flow through the observability registry; the
contract — enforced by the differential harness's storage-fault sweep —
is that under any injected slab corruption a fit either completes
bit-identical to the unfaulted run (after quarantine + rebuild) or
fails loudly with :class:`IntegrityError`.  No silent wrong answers.
"""

from __future__ import annotations

import os
import warnings

from .checksum import (
    ALGORITHM,
    CHUNK_BYTES,
    ChecksumManifest,
    IntegrityError,
    StreamingChecksummer,
    checksum_bytes,
    checksum_file,
    verify_file,
    verify_manifest,
)

#: Environment variable switching slab reads to verify-every-read.
VERIFY_ENV_VAR = "REPRO_VERIFY_READS"

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})
_FALSE_VALUES = frozenset({"", "0", "false", "no", "off"})

#: Malformed ``REPRO_VERIFY_READS`` values already warned about (the
#: warn-once-per-value contract of ``REPRO_EXECUTOR`` et al.).
_WARNED_ENV_VALUES: set[str] = set()


def verify_reads_enabled() -> bool:
    """Whether every slab read must re-verify its checksum.

    Default (unset/falsey): slabs are verified on **first touch** per
    store handle only.  ``REPRO_VERIFY_READS=1`` verifies on every
    read.  An unrecognized value warns once per value and — because
    verification is always safe, only slower — enables verification.
    """
    raw = os.environ.get(VERIFY_ENV_VAR, "")
    lowered = raw.strip().lower()
    if lowered in _FALSE_VALUES:
        return False
    if lowered in _TRUE_VALUES:
        return True
    if raw not in _WARNED_ENV_VALUES:
        _WARNED_ENV_VALUES.add(raw)
        warnings.warn(
            f"unrecognized {VERIFY_ENV_VAR}={raw!r}; treating it as "
            "enabled (verification is safe) — use 1/0 to silence this",
            RuntimeWarning, stacklevel=2)
    return True


__all__ = [
    "ALGORITHM",
    "CHUNK_BYTES",
    "ChecksumManifest",
    "IntegrityError",
    "StreamingChecksummer",
    "checksum_bytes",
    "checksum_file",
    "verify_file",
    "verify_manifest",
    "VERIFY_ENV_VAR",
    "verify_reads_enabled",
]
