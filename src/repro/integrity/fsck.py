"""The ``repro fsck`` scrubber: walk, verify, and repair persisted state.

One engine audits every artifact class the platform persists:

* **sharded tensor stores** — every slab is checksum-scrubbed against
  the manifest (:meth:`ShardedTensorStore.slab_problem`, read-only);
  stale ``.staging-*`` directories from a crashed shard are flagged;
  with ``repair=True`` a damaged slab is quarantined and — when the
  original tensor is supplied via *source* — deterministically rebuilt
  in place;
* **checkpoint files / directories** — each ``.npz`` is loaded with
  payload-checksum verification; with ``repair=True`` a rotted file is
  quarantined to ``.corrupt`` so the resume fallback walks past it.

Any other file — a JSON metrics export, or an ``autotune.json`` left
by an older version's on-disk tuning cache — is reported ``skipped``.

Detection is **read-only**: a plain ``fsck`` run never mutates anything,
so it is safe against a store a fit is concurrently reading.  Verdicts
are per artifact — ``clean`` / ``corrupt`` / ``repaired`` /
``quarantined`` / ``skipped`` — and :attr:`FsckReport.ok` is ``True``
exactly when no unrepaired corruption remains, which is what the CLI
turns into its exit code.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..observability import record_integrity_event
from .checksum import IntegrityError

#: Verdicts an :class:`ArtifactReport` can carry.
VERDICTS = ("clean", "corrupt", "repaired", "quarantined", "skipped")


@dataclass
class ArtifactReport:
    """One scrubbed artifact and what happened to it."""

    path: str
    #: ``slab`` / ``staging`` / ``checkpoint`` / ``quarantine`` /
    #: ``other``.
    kind: str
    verdict: str
    detail: str = ""


@dataclass
class FsckReport:
    """Everything one fsck run looked at, with per-artifact verdicts."""

    root: str
    repair: bool = False
    artifacts: list[ArtifactReport] = field(default_factory=list)

    def add(self, path: "str | Path", kind: str, verdict: str,
            detail: str = "") -> ArtifactReport:
        report = ArtifactReport(str(path), kind, verdict, detail)
        self.artifacts.append(report)
        return report

    def merge(self, other: "FsckReport") -> None:
        self.artifacts.extend(other.artifacts)

    def count(self, verdict: str) -> int:
        return sum(1 for a in self.artifacts if a.verdict == verdict)

    @property
    def ok(self) -> bool:
        """No unrepaired corruption remains."""
        return self.count("corrupt") == 0

    def summary(self) -> str:
        lines = [f"fsck {self.root}"
                 f" ({'repair' if self.repair else 'check only'})"]
        for a in self.artifacts:
            line = f"  [{a.verdict:>11}] {a.kind:<13} {a.path}"
            if a.detail:
                line += f"  — {a.detail}"
            lines.append(line)
        counts = ", ".join(f"{self.count(v)} {v}" for v in VERDICTS
                           if self.count(v))
        lines.append(f"  {len(self.artifacts)} artifact(s): "
                     f"{counts or 'nothing found'}")
        lines.append("  OK" if self.ok else "  CORRUPTION REMAINS")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "root": self.root,
            "repair": self.repair,
            "ok": self.ok,
            "counts": {v: self.count(v) for v in VERDICTS},
            "artifacts": [asdict(a) for a in self.artifacts],
        }, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# Per-class scrubbers
# ----------------------------------------------------------------------

def fsck_store(path: "str | Path", repair: bool = False,
               source=None) -> FsckReport:
    """Scrub one sharded tensor store directory."""
    from ..tensor.store import META_FILE, STAGING_PREFIX, ShardedTensorStore
    path = Path(path)
    report = FsckReport(root=str(path), repair=repair)
    try:
        store = ShardedTensorStore.open(path)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the scrub
        report.add(path / META_FILE, "store-meta", "corrupt",
                   f"{type(exc).__name__}: {exc}")
        return report
    if source is not None:
        store.attach_source(source)
    for mode in range(store.nmodes):
        for index in range(store.slab_count(mode)):
            rel = store.slab_meta(mode, index)["file"]
            problem = store.slab_problem(mode, index, deep=True)
            if problem is None:
                report.add(path / rel, "slab", "clean")
                continue
            record_integrity_event("mismatch", artifact=rel)
            if not repair:
                report.add(path / rel, "slab", "corrupt", problem)
                continue
            store.quarantine_slab(mode, index, problem)
            if store.has_source():
                store.rebuild_slab(mode, index)
                report.add(path / rel, "slab", "repaired",
                           f"{problem}; rebuilt from source")
            else:
                report.add(path / rel, "slab", "corrupt",
                           f"{problem}; quarantined, but no source to "
                           f"rebuild from (pass --source)")
    # Debris: a staging directory only survives a crashed shard; the
    # quarantine files are preserved evidence from earlier repairs.
    for staging in sorted(path.glob(STAGING_PREFIX + "*")):
        if repair:
            import shutil
            shutil.rmtree(staging, ignore_errors=True)
            record_integrity_event("repair", artifact=staging.name)
            report.add(staging, "staging", "repaired",
                       "stale staging directory removed")
        else:
            report.add(staging, "staging", "corrupt",
                       "stale staging directory from a crashed shard")
    for evidence in sorted(path.rglob("*.corrupt")):
        report.add(evidence, "quarantine", "skipped",
                   "quarantined evidence from an earlier repair")
    return report


def fsck_state_file(path: "str | Path", repair: bool = False) -> FsckReport:
    """Scrub one ``.npz`` state/checkpoint file (payload checksum)."""
    from ..core.serialize import load_state_npz
    path = Path(path)
    report = FsckReport(root=str(path), repair=repair)
    try:
        nbytes = path.stat().st_size
    except OSError as exc:
        report.add(path, "checkpoint", "corrupt",
                   f"unreadable: {exc}")
        return report
    try:
        load_state_npz(path, verify=True)
    except IntegrityError as exc:
        problem = str(exc)
    except Exception as exc:  # noqa: BLE001 - truncated zip, garbage, ...
        problem = f"{type(exc).__name__}: {exc}"
    else:
        record_integrity_event("scrub", artifact=path.name, nbytes=nbytes)
        report.add(path, "checkpoint", "clean")
        return report
    record_integrity_event("mismatch", artifact=path.name)
    if not repair:
        report.add(path, "checkpoint", "corrupt", problem)
        return report
    import os
    target = path.with_name(path.name + ".corrupt")
    os.replace(path, target)
    record_integrity_event("quarantine", artifact=path.name)
    report.add(path, "checkpoint", "quarantined",
               f"{problem}; moved to {target.name} (resume falls back "
               f"to the next older version)")
    return report


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

def fsck_path(path: "str | Path", repair: bool = False,
              source=None) -> FsckReport:
    """Scrub whatever lives at *path* (the ``repro fsck`` entry point).

    Dispatch: a store directory (has ``meta.json``) scrubs as a store;
    an ``.npz`` file as a checkpoint; any other directory is walked
    recursively and every recognized artifact inside it is scrubbed.
    *source* (the original :class:`~repro.tensor.coo.COOTensor`)
    enables slab rebuilds during store repair.
    """
    from ..tensor.store import META_FILE, ShardedTensorStore
    path = Path(path)
    if path.name == META_FILE and path.is_file():
        return fsck_store(path.parent, repair=repair, source=source)
    if path.is_dir():
        if ShardedTensorStore.is_store(path):
            return fsck_store(path, repair=repair, source=source)
        report = FsckReport(root=str(path), repair=repair)
        entries = sorted(path.iterdir())
        if not entries:
            report.add(path, "other", "skipped", "empty directory")
        for entry in entries:
            if entry.is_dir():
                report.merge(fsck_path(entry, repair=repair,
                                       source=source))
            elif entry.suffix == ".npz":
                report.merge(fsck_state_file(entry, repair=repair))
            elif entry.suffix == ".json":
                report.add(entry, "other", "skipped",
                           "JSON file, not a recognized artifact")
            elif entry.name.endswith(".corrupt"):
                report.add(entry, "quarantine", "skipped",
                           "quarantined evidence from an earlier repair")
        return report
    if path.suffix == ".npz":
        return fsck_state_file(path, repair=repair)
    report = FsckReport(root=str(path), repair=repair)
    if path.exists():
        report.add(path, "other", "skipped", "not a recognized artifact")
    else:
        report.add(path, "other", "corrupt", "path does not exist")
    return report
