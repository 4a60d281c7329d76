"""Storage-integrity subsystem: checksums, verified reads, torn writes, fsck.

Every corruption class the platform can meet on disk — flipped bits,
truncation, torn shard commits, rotted checkpoints, mangled tuning
caches — is injected deterministically here and proven to be *detected*
(loud :class:`IntegrityError`, never damaged bytes into a kernel) and,
where a source of truth exists, *repaired* bit-identically.
"""

import json
import os

import numpy as np
import pytest

import repro
from repro import AOADMMOptions, IntegrityError, fit_aoadmm
from repro.integrity import (
    ALGORITHM,
    ChecksumManifest,
    StreamingChecksummer,
    VERIFY_ENV_VAR,
    checksum_bytes,
    checksum_file,
    verify_file,
    verify_manifest,
    verify_reads_enabled,
)
from repro.integrity.fsck import (
    fsck_path,
    fsck_state_file,
    fsck_store,
)
from repro.cli import main as cli_main
from repro.core.serialize import (
    PAYLOAD_SHA_KEY,
    load_state_npz,
    payload_fingerprint,
    save_state_npz,
)
from repro.robustness import (
    CheckpointStore,
    InjectedCrash,
    STORAGE_FAULT_KINDS,
    ShardCrashPlan,
    SlabFaultSpec,
    inject_slab_fault,
    resolve_resume,
)
from repro.tensor import noisy_lowrank_coo, save_tns
from repro.tensor.store import (
    BUDGET_ENV_VAR,
    SLAB_QUARANTINE_SUFFIX,
    ShardedTensorStore,
)


@pytest.fixture(scope="module")
def tensor():
    t, _ = noisy_lowrank_coo((20, 16, 12), rank=3, nnz=800, seed=7)
    return t


def make_store(tensor, path, keep_source=True):
    store = ShardedTensorStore.create(tensor, path, slab_nnz_target=64)
    if not keep_source:
        store.close()
        store = ShardedTensorStore.open(path)
    return store


def make_options(**kw):
    base = dict(rank=3, constraints="nonneg", seed=0,
                max_outer_iterations=4, outer_tolerance=0.0)
    base.update(kw)
    return AOADMMOptions(**base)


def flip_byte(path, offset=0, bit=0):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ (1 << bit)]))


# ----------------------------------------------------------------------
# Checksum core
# ----------------------------------------------------------------------

class TestChecksumCore:
    def test_manifest_roundtrips_json(self, rng):
        data = rng.bytes(3000)
        manifest = checksum_bytes(data, chunk_bytes=1024)
        assert manifest.algorithm == ALGORITHM
        assert manifest.length == 3000
        assert len(manifest.chunks) == 3  # 1024+1024+952
        again = ChecksumManifest.from_dict(
            json.loads(json.dumps(manifest.to_dict())))
        assert again == manifest

    def test_unknown_algorithm_rejected(self):
        payload = checksum_bytes(b"x").to_dict()
        payload["algorithm"] = "md5/whole"
        with pytest.raises(ValueError, match="unrecognized checksum"):
            ChecksumManifest.from_dict(payload)

    def test_streaming_matches_one_shot(self, rng):
        data = rng.bytes(10_000)
        summer = StreamingChecksummer(chunk_bytes=4096)
        # Feed in ragged pieces that straddle every chunk boundary.
        for start in range(0, len(data), 700):
            summer.update(data[start:start + 700])
        assert summer.manifest() == checksum_bytes(data, chunk_bytes=4096)

    def test_verify_detects_flip_and_names_chunk(self, rng):
        data = bytearray(rng.bytes(4096))
        expected = checksum_bytes(bytes(data), chunk_bytes=1024)
        data[2500] ^= 0x10  # chunk 2
        problem = verify_manifest(
            checksum_bytes(bytes(data), chunk_bytes=1024), expected)
        assert problem == "checksum mismatch in chunk(s) 2 of 4"

    def test_verify_reports_truncation_with_sizes(self, rng):
        data = rng.bytes(2048)
        expected = checksum_bytes(data, chunk_bytes=1024)
        problem = verify_manifest(
            checksum_bytes(data[:2000], chunk_bytes=1024), expected)
        assert problem == ("truncated: 2000 bytes on disk, manifest "
                           "promises 2048")

    def test_verify_file_clean_and_missing(self, tmp_path, rng):
        path = tmp_path / "blob.bin"
        data = rng.bytes(5000)
        path.write_bytes(data)
        expected = checksum_file(path)
        assert verify_file(path, expected) is None
        path.unlink()
        assert verify_file(path, expected) == "file is missing"

    def test_env_var_parsing(self, monkeypatch):
        monkeypatch.delenv(VERIFY_ENV_VAR, raising=False)
        assert not verify_reads_enabled()
        monkeypatch.setenv(VERIFY_ENV_VAR, "1")
        assert verify_reads_enabled()
        monkeypatch.setenv(VERIFY_ENV_VAR, "0")
        assert not verify_reads_enabled()
        # Fail-safe: an unrecognized value means verify, with a warning.
        monkeypatch.setenv(VERIFY_ENV_VAR, "banana")
        with pytest.warns(RuntimeWarning, match="banana"):
            assert verify_reads_enabled()


# ----------------------------------------------------------------------
# Verified slab reads: detect, quarantine, rebuild
# ----------------------------------------------------------------------

class TestVerifiedSlabReads:
    def test_bitflip_detected_on_first_touch(self, tensor, tmp_path):
        store = make_store(tensor, tmp_path / "s", keep_source=False)
        record = inject_slab_fault(store,
                                   SlabFaultSpec("slab_bitflip", seed=3))
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            store.load_slab(0, 0)
        quarantined = record.path.with_name(
            record.path.name + SLAB_QUARANTINE_SUFFIX)
        assert quarantined.exists()
        assert not record.path.exists()
        store.close()

    def test_truncation_is_a_clear_error_not_memmap_garbage(
            self, tensor, tmp_path):
        store = make_store(tensor, tmp_path / "s", keep_source=False)
        inject_slab_fault(store, SlabFaultSpec("slab_truncate", seed=1))
        with pytest.raises(IntegrityError,
                           match=r"truncated: \d+ bytes on disk, "
                                 r"manifest promises \d+"):
            store.load_slab(0, 0)
        store.close()

    def test_rebuild_from_source_is_bit_identical(self, tensor, tmp_path):
        store = make_store(tensor, tmp_path / "s")  # source retained
        path = store.slab_path(1, 0)
        clean_bytes = path.read_bytes()
        inject_slab_fault(store, SlabFaultSpec("slab_bitflip", mode=1,
                                               seed=5))
        assert path.read_bytes() != clean_bytes
        slab = store.load_slab(1, 0)  # transparent quarantine + rebuild
        assert slab is not None
        assert path.read_bytes() == clean_bytes
        assert path.with_name(path.name + SLAB_QUARANTINE_SUFFIX).exists()
        store.close()

    def test_attach_source_rejects_wrong_tensor(self, tensor, tmp_path):
        store = make_store(tensor, tmp_path / "s", keep_source=False)
        other, _ = noisy_lowrank_coo((20, 16, 12), rank=3, nnz=800,
                                     seed=8)
        with pytest.raises(ValueError, match="source"):
            store.attach_source(other)
        store.attach_source(tensor)  # the real one is accepted
        assert store.has_source()
        store.close()

    def test_verify_reads_env_rechecks_every_touch(self, tensor, tmp_path,
                                                   monkeypatch):
        store = make_store(tensor, tmp_path / "s", keep_source=False)
        store.load_slab(0, 0)  # first touch: verified, now trusted
        path = store.slab_path(0, 0)
        flip_byte(path, offset=100, bit=2)
        # Same handle, same size: the cheap path misses same-size rot...
        monkeypatch.delenv(VERIFY_ENV_VAR, raising=False)
        store.load_slab(0, 0)
        # ...but paranoid mode re-verifies and catches it.
        monkeypatch.setenv(VERIFY_ENV_VAR, "1")
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            store.load_slab(0, 0)
        store.close()

    def test_v2_meta_carries_manifest_per_slab(self, tensor, tmp_path):
        store = make_store(tensor, tmp_path / "s")
        for mode in range(store.nmodes):
            for index in range(store.slab_count(mode)):
                manifest = store.slab_checksum(mode, index)
                assert manifest is not None
                assert verify_file(store.slab_path(mode, index),
                                   manifest) is None
        store.close()


# ----------------------------------------------------------------------
# Torn-write-safe shard commits
# ----------------------------------------------------------------------

class TestTornWrites:
    def test_crash_mid_shard_leaves_no_parseable_store(self, tensor,
                                                       tmp_path):
        target = tmp_path / "s"
        with pytest.raises(InjectedCrash):
            ShardedTensorStore.create(tensor, target, slab_nnz_target=64,
                                      fault_hook=ShardCrashPlan(at_slab=2))
        assert not ShardedTensorStore.is_store(target)
        with pytest.raises(Exception):
            ShardedTensorStore.open(target)

    def test_reshard_over_crash_debris_succeeds(self, tensor, tmp_path):
        target = tmp_path / "s"
        with pytest.raises(InjectedCrash):
            ShardedTensorStore.create(tensor, target, slab_nnz_target=64,
                                      fault_hook=ShardCrashPlan(at_slab=3))
        store = ShardedTensorStore.create(tensor, target,
                                          slab_nnz_target=64)
        assert fsck_store(target).ok
        store.close()


# ----------------------------------------------------------------------
# Deterministic storage faults
# ----------------------------------------------------------------------

class TestStorageFaults:
    def test_fault_kinds_registered(self):
        assert STORAGE_FAULT_KINDS == ("slab_bitflip", "slab_truncate")

    @pytest.mark.parametrize("kind", STORAGE_FAULT_KINDS)
    def test_same_spec_same_damage(self, tensor, tmp_path, kind):
        spec = SlabFaultSpec(kind, mode=0, index=0, seed=42)
        records = []
        for name in ("a", "b"):
            store = make_store(tensor, tmp_path / name, keep_source=False)
            records.append(inject_slab_fault(store, spec))
            store.close()
        assert records[0].offset == records[1].offset
        assert records[0].detail == records[1].detail
        assert (records[0].path.read_bytes()
                == records[1].path.read_bytes())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SlabFaultSpec("slab_gamma_ray")


# ----------------------------------------------------------------------
# Checkpoint payload checksums and the resume fallback
# ----------------------------------------------------------------------

class TestCheckpointIntegrity:
    def save_state(self, path, rng):
        arrays = {"a": rng.normal(size=(8, 3)),
                  "b": rng.normal(size=(5, 3))}
        save_state_npz(path, arrays, {"note": "test"})
        return arrays

    def test_payload_sha_stamped_and_verified(self, tmp_path, rng):
        path = tmp_path / "state.npz"
        arrays = self.save_state(path, rng)
        loaded, meta = load_state_npz(path, verify=True)
        assert meta[PAYLOAD_SHA_KEY] == payload_fingerprint(
            {k: np.asarray(v) for k, v in arrays.items()})
        assert np.array_equal(loaded["a"], arrays["a"])

    def test_tampered_payload_sha_is_loud(self, tmp_path, rng):
        # A forged fingerprint passes the zip-level CRC (the file itself
        # is well-formed) and must be caught by the payload check.
        path = tmp_path / "state.npz"
        self.save_state(path, rng)
        arrays, meta = load_state_npz(path, verify=False)
        meta[PAYLOAD_SHA_KEY] = "0" * 40
        save_state_npz(path, arrays, meta, checksum=False)
        with pytest.raises(IntegrityError,
                           match="payload checksum mismatch"):
            load_state_npz(path, verify=True)

    def test_bitflipped_payload_is_loud(self, tmp_path, rng):
        path = tmp_path / "state.npz"
        arrays = self.save_state(path, rng)
        raw = bytearray(path.read_bytes())
        # Flip a byte inside array "a"'s stored payload, located by its
        # own bytes (np.savez stores members uncompressed).
        needle = np.asarray(arrays["a"]).tobytes()[:32]
        offset = raw.index(needle)
        raw[offset] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(Exception):
            load_state_npz(path, verify=True)
        assert not fsck_state_file(path).ok

    def test_resume_falls_back_past_rotted_versions(self, tensor,
                                                    tmp_path):
        # Satellite: corrupt the newest K checkpoints; resume must
        # quarantine each, pick the newest *valid* one, and reach a
        # bit-identical final model.
        base = tmp_path / "ck.npz"
        reference = fit_aoadmm(tensor, make_options(
            max_outer_iterations=6, checkpoint_every=1,
            checkpoint_path=base, checkpoint_keep_last=4))
        store = CheckpointStore(base, keep_last=4)
        versions = store.versions()
        assert len(versions) == 4  # iterations 3..6
        for doomed in versions[-2:]:  # newest two rot on disk
            flip_byte(doomed, offset=200, bit=5)
        checkpoint = resolve_resume(base)
        assert checkpoint.iteration == 4  # newest valid version
        for doomed in versions[-2:]:
            assert not doomed.exists()
            assert doomed.with_name(doomed.name + ".corrupt").exists()
        resumed = fit_aoadmm(tensor, make_options(max_outer_iterations=6),
                             resume_from=checkpoint)
        for ref, res in zip(reference.model.factors,
                            resumed.model.factors):
            np.testing.assert_array_equal(ref, res)


# ----------------------------------------------------------------------
# fsck: detect -> repair -> clean, for every artifact class
# ----------------------------------------------------------------------

class TestFsck:
    def test_store_roundtrip(self, tensor, tmp_path):
        target = tmp_path / "s"
        store = make_store(tensor, target, keep_source=False)
        assert fsck_store(target).ok
        inject_slab_fault(store, SlabFaultSpec("slab_bitflip", mode=2,
                                               seed=9))
        store.close()
        report = fsck_store(target)  # detection is read-only
        assert not report.ok and report.count("corrupt") == 1
        assert fsck_store(target).count("corrupt") == 1  # still there
        repaired = fsck_store(target, repair=True, source=tensor)
        assert repaired.ok and repaired.count("repaired") == 1
        rescan = fsck_store(target)
        assert rescan.ok and rescan.count("corrupt") == 0
        assert rescan.count("skipped") == 1  # quarantine evidence

    def test_store_repair_without_source_quarantines_only(self, tensor,
                                                          tmp_path):
        target = tmp_path / "s"
        store = make_store(tensor, target, keep_source=False)
        inject_slab_fault(store, SlabFaultSpec("slab_bitflip", seed=2))
        store.close()
        report = fsck_store(target, repair=True)
        assert not report.ok
        assert "no source to rebuild from" in report.artifacts[0].detail

    def test_checkpoint_roundtrip(self, tmp_path, rng):
        path = tmp_path / "state.npz"
        save_state_npz(path, {"a": rng.normal(size=(4, 2))}, {})
        assert fsck_state_file(path).ok
        flip_byte(path, offset=90, bit=1)
        assert not fsck_state_file(path).ok
        report = fsck_state_file(path, repair=True)
        assert report.count("quarantined") == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_stale_tuning_cache_is_skipped(self, tmp_path):
        # Older versions persisted measured tuning decisions here; fsck
        # no longer scrubs them, so one must never read as corruption.
        stale = tmp_path / "autotune.json"
        stale.write_text(json.dumps({
            "v1:aaaa:mode=0:rank=4:threads=1:executor=serial":
                {"backend": 12},  # invalid by the old cache rules
        }))
        report = fsck_path(tmp_path)
        assert report.ok and report.count("corrupt") == 0
        (entry,) = report.artifacts
        assert entry.verdict == "skipped"
        assert entry.path.endswith("autotune.json")
        direct = fsck_path(stale, repair=True)
        assert direct.ok
        (entry,) = direct.artifacts
        assert entry.verdict == "skipped"
        assert entry.detail == "not a recognized artifact"
        assert json.loads(stale.read_text())  # untouched

    def test_walk_scrubs_mixed_directory(self, tensor, tmp_path, rng):
        make_store(tensor, tmp_path / "store", keep_source=False).close()
        (tmp_path / "ck").mkdir()
        save_state_npz(tmp_path / "ck" / "s.npz",
                       {"a": rng.normal(size=(3, 2))}, {})
        (tmp_path / "metrics.json").write_text(
            json.dumps({"fit_seconds": 1.5}))
        report = fsck_path(tmp_path)
        assert report.ok
        kinds = {a.kind for a in report.artifacts}
        assert "slab" in kinds and "checkpoint" in kinds
        # A metrics export is not a recognized artifact.
        metrics = [a for a in report.artifacts
                   if a.path.endswith("metrics.json")]
        assert metrics and metrics[0].verdict == "skipped"

    def test_missing_path_is_corrupt(self, tmp_path):
        assert not fsck_path(tmp_path / "nope").ok


# ----------------------------------------------------------------------
# CLI: fsck exit codes and shard overwrite refusal
# ----------------------------------------------------------------------

class TestCli:
    def test_fsck_detect_repair_rescan(self, tensor, tmp_path, capsys):
        target = tmp_path / "s"
        tns = tmp_path / "t.tns"
        save_tns(tensor, tns)
        store = make_store(tensor, target, keep_source=False)
        inject_slab_fault(store, SlabFaultSpec("slab_bitflip", seed=4))
        store.close()
        assert cli_main(["fsck", str(target)]) == 4
        assert "corrupt" in capsys.readouterr().out
        assert cli_main(["fsck", str(target), "--repair",
                         "--source", str(tns)]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out
        assert cli_main(["fsck", str(target), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_shard_refuses_existing_directory(self, tensor, tmp_path,
                                              capsys):
        tns = tmp_path / "t.tns"
        save_tns(tensor, tns)
        target = tmp_path / "precious"
        target.mkdir()
        (target / "thesis.txt").write_text("years of work")
        assert cli_main(["shard", str(tns), str(target)]) == 2
        assert "refusing to overwrite" in capsys.readouterr().out
        assert (target / "thesis.txt").read_text() == "years of work"
        # An empty directory (and a fresh path) are both fine.
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main(["shard", str(tns), str(empty)]) == 0
        assert cli_main(["shard", str(tns), str(empty)]) == 2  # a store now

    def test_shard_and_fsck_source_ignore_byte_budget(self, tensor, tmp_path,
                                                      monkeypatch, capsys):
        # Both commands need the .tns in core; a budget in the
        # environment must not turn it into a temporary store.
        monkeypatch.setenv(BUDGET_ENV_VAR, "65536")
        tns = tmp_path / "t.tns"
        save_tns(tensor, tns)
        target = tmp_path / "s"
        assert cli_main(["shard", str(tns), str(target),
                         "--slab-nnz", "64"]) == 0
        store = ShardedTensorStore.open(target)
        inject_slab_fault(store, SlabFaultSpec("slab_bitflip", seed=4))
        store.close()
        assert cli_main(["fsck", str(target), "--repair",
                         "--source", str(tns)]) == 0
        assert "repaired" in capsys.readouterr().out
        assert cli_main(["fsck", str(target), "--repair",
                         "--source", str(target)]) == 2
        assert "not a store" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Fits over damaged stores: bit-identical repair or loud failure
# ----------------------------------------------------------------------

class TestFitContract:
    def test_fit_after_rebuild_is_bit_identical(self, tensor, tmp_path):
        clean = make_store(tensor, tmp_path / "clean")
        reference = fit_aoadmm(clean, make_options())
        clean.close()
        store = make_store(tensor, tmp_path / "hurt")  # source retained
        inject_slab_fault(store, SlabFaultSpec("slab_bitflip", mode=1,
                                               seed=6))
        result = fit_aoadmm(store, make_options())
        store.close()
        for ref, res in zip(reference.model.factors,
                            result.model.factors):
            np.testing.assert_array_equal(ref, res)

    def test_fit_without_source_fails_loud(self, tensor, tmp_path):
        store = make_store(tensor, tmp_path / "s", keep_source=False)
        inject_slab_fault(store, SlabFaultSpec("slab_truncate", seed=2))
        with pytest.raises(IntegrityError):
            fit_aoadmm(store, make_options())
        store.close()

    def test_rebuilt_slab_shows_in_fit_metrics(self, tensor, tmp_path):
        clean = make_store(tensor, tmp_path / "clean")
        reference = fit_aoadmm(clean, make_options())
        clean.close()
        store = make_store(tensor, tmp_path / "s")  # rebuildable
        inject_slab_fault(store, SlabFaultSpec("slab_bitflip", seed=11))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            result = repro.fit(store, options=make_options(), observe=True)
        store.close()
        for ref, res in zip(reference.model.factors, result.factors):
            np.testing.assert_array_equal(ref, res)
        counters = result.metrics["counters"]

        def total(name):
            return sum(v for k, v in counters.items()
                       if k.split("{")[0] == name)

        assert total("integrity_mismatches") == 1
        assert total("integrity_quarantines") == 1
        assert total("integrity_rebuilds") == 1
