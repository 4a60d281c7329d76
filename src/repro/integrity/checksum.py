"""Chunked CRC-32 checksums: the storage-integrity substrate.

Every persisted artifact the platform computes on — slab files in a
:class:`~repro.tensor.store.ShardedTensorStore` and checkpoint ``.npz``
payloads — is covered by one canonical manifest format so a flipped bit or a
torn page is *detected* before it reaches a kernel, never computed on
silently.

The algorithm is deliberately boring: ``zlib.crc32`` over fixed-size
chunks (1 MiB, a multiple of the 64-byte slab alignment) plus one
running digest over the whole stream.  CRC-32 is not cryptographic —
the threat model is bit-rot, truncation, and torn writes, not an
adversary — and it runs at memory bandwidth, so verified reads stay
cheap enough to leave on (``REPRO_VERIFY_READS=1``) in CI.  Chunking
buys two things: verification streams in bounded memory (no slab has
to be resident twice), and a mismatch localizes to the damaged chunk,
which the report surfaces for forensics.

:class:`StreamingChecksummer` computes the manifest *while bytes are
written* (the sharder uses it so checksumming adds no second pass);
:func:`checksum_file` / :func:`verify_file` are the at-rest form the
fsck scrubber and verified reads use.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

from ..validation import require

#: Bytes per checksum chunk.  A multiple of the slab writer's 64-byte
#: alignment, large enough that manifests stay small (one crc per MiB).
CHUNK_BYTES = 1 << 20

#: Manifest format tag; bump when the layout changes incompatibly.
ALGORITHM = "crc32/chunked-v1"


class IntegrityError(RuntimeError):
    """Persisted bytes failed verification (corrupt, torn, or truncated).

    Raised instead of letting damaged bytes flow into a kernel.  Carries
    the offending ``path`` and, when the artifact was moved aside, the
    ``quarantined`` path so the caller's error message (and the user)
    can find the evidence.
    """

    def __init__(self, message: str, path: "str | Path | None" = None,
                 quarantined: "str | Path | None" = None):
        super().__init__(message)
        self.path = Path(path) if path is not None else None
        self.quarantined = (Path(quarantined)
                            if quarantined is not None else None)


@dataclass(frozen=True)
class ChecksumManifest:
    """Canonical sidecar record of one artifact's checksums.

    JSON-stable (:meth:`to_dict` / :meth:`from_dict`): crcs are plain
    unsigned ints, so the manifest embeds directly in ``meta.json``
    slab records and state-file metadata blobs.
    """

    #: Format tag (:data:`ALGORITHM`).
    algorithm: str
    #: Chunk size the stream was split at.
    chunk_bytes: int
    #: Total byte length of the covered stream.
    length: int
    #: Per-chunk ``zlib.crc32`` values, in stream order.
    chunks: tuple[int, ...]
    #: Running crc32 over the whole stream (cheap whole-file check).
    digest: int

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "chunk_bytes": self.chunk_bytes,
            "length": self.length,
            "chunks": list(self.chunks),
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChecksumManifest":
        require(payload.get("algorithm") == ALGORITHM,
                f"unrecognized checksum algorithm "
                f"{payload.get('algorithm')!r} (this build understands "
                f"{ALGORITHM!r})")
        return cls(
            algorithm=str(payload["algorithm"]),
            chunk_bytes=int(payload["chunk_bytes"]),
            length=int(payload["length"]),
            chunks=tuple(int(c) for c in payload["chunks"]),
            digest=int(payload["digest"]),
        )


class StreamingChecksummer:
    """Accumulate the manifest of a stream as it is produced.

    Feed every byte written with :meth:`update` (chunk boundaries are
    handled internally — writes need not align), then read
    :meth:`manifest` once after the last byte.
    """

    def __init__(self, chunk_bytes: int = CHUNK_BYTES):
        require(chunk_bytes >= 1, "chunk_bytes must be positive")
        self.chunk_bytes = int(chunk_bytes)
        self._length = 0
        self._digest = 0
        self._chunks: list[int] = []
        self._chunk_crc = 0
        self._chunk_fill = 0

    def update(self, data: "bytes | memoryview") -> None:
        view = memoryview(data).cast("B")
        self._digest = zlib.crc32(view, self._digest)
        self._length += len(view)
        offset = 0
        while offset < len(view):
            take = min(self.chunk_bytes - self._chunk_fill,
                       len(view) - offset)
            self._chunk_crc = zlib.crc32(view[offset:offset + take],
                                         self._chunk_crc)
            self._chunk_fill += take
            offset += take
            if self._chunk_fill == self.chunk_bytes:
                self._chunks.append(self._chunk_crc)
                self._chunk_crc = 0
                self._chunk_fill = 0

    def manifest(self) -> ChecksumManifest:
        chunks = list(self._chunks)
        if self._chunk_fill:
            chunks.append(self._chunk_crc)
        return ChecksumManifest(algorithm=ALGORITHM,
                                chunk_bytes=self.chunk_bytes,
                                length=self._length,
                                chunks=tuple(chunks),
                                digest=self._digest)


def checksum_bytes(data: "bytes | memoryview",
                   chunk_bytes: int = CHUNK_BYTES) -> ChecksumManifest:
    """Manifest of an in-memory byte string."""
    summer = StreamingChecksummer(chunk_bytes)
    summer.update(data)
    return summer.manifest()


def checksum_file(path: "str | Path",
                  chunk_bytes: int = CHUNK_BYTES) -> ChecksumManifest:
    """Manifest of a file's current on-disk bytes (streamed read)."""
    summer = StreamingChecksummer(chunk_bytes)
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk_bytes)
            if not block:
                break
            summer.update(block)
    return summer.manifest()


def verify_manifest(actual: ChecksumManifest,
                    expected: ChecksumManifest) -> str | None:
    """``None`` when *actual* matches *expected*, else a problem string.

    Length mismatches report as truncation/growth; content mismatches
    name the damaged chunk indices so forensics can find the bytes.
    """
    if actual.length != expected.length:
        direction = ("truncated" if actual.length < expected.length
                     else "grew")
        return (f"{direction}: {actual.length} bytes on disk, manifest "
                f"promises {expected.length}")
    if actual.chunk_bytes != expected.chunk_bytes:
        # Re-chunk via the digest only (different chunk size, same data
        # is still verifiable at whole-stream granularity).
        if actual.digest != expected.digest:
            return "checksum mismatch (whole-stream digest)"
        return None
    bad = [i for i, (a, e) in enumerate(zip(actual.chunks,
                                            expected.chunks)) if a != e]
    if bad or actual.digest != expected.digest:
        where = (f"chunk(s) {', '.join(str(i) for i in bad)} of "
                 f"{len(expected.chunks)}" if bad else "digest")
        return f"checksum mismatch in {where}"
    return None


def verify_file(path: "str | Path",
                expected: ChecksumManifest) -> str | None:
    """Scrub a file against its manifest; ``None`` means clean.

    Bytes read for verification are reported to the observability
    registry (``integrity_bytes_scrubbed``) so dashboards can see scrub
    throughput; a missing file reports as its own problem rather than
    raising.
    """
    from ..observability import record_integrity_event
    path = Path(path)
    try:
        actual = checksum_file(path, expected.chunk_bytes)
    except FileNotFoundError:
        return "file is missing"
    except OSError as exc:
        return f"unreadable: {exc}"
    record_integrity_event("scrub", artifact=path.name,
                           nbytes=actual.length)
    return verify_manifest(actual, expected)
