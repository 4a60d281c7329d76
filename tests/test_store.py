"""Sharded tensor store + the unified ``open_tensor`` front door."""

import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.serialize import array_fingerprint
from repro.robustness.checkpoint import tensor_fingerprint
from repro.tensor import (
    COOTensor,
    CSFTensor,
    ShardedTensorStore,
    load_tns,
    open_tensor,
    random_coo,
    read_tns,
    write_tns,
)
from repro.integrity import IntegrityError
from repro.tensor.csf import default_mode_order
from repro.tensor.store import BUDGET_ENV_VAR, resolve_byte_budget
from repro.tensor.tiling import CSFTiling
from repro.testing.oracles import lexsort_csf_reference
from repro.types import TensorSource


def _bitwise_equal(a: COOTensor, b: COOTensor) -> bool:
    a, b = a.sort_lex(), b.sort_lex()
    return (a.shape == b.shape
            and np.array_equal(a.coords, b.coords)
            and np.array_equal(a.vals, b.vals))


@pytest.fixture
def store(tmp_path, small_tensor):
    return ShardedTensorStore.create(small_tensor, tmp_path / "store",
                                     slab_nnz_target=32)


#: Slab ``(length, crc32 digest)`` of a fixed Reddit-``tiny``-shaped
#: random tensor sharded at ``slab_nnz_target=4096``, per mode, recorded
#: when the CSF trees were still built by an N-key lexsort.  A change to
#: the tree construction order or the slab layout changes these bytes.
#: (``random_coo`` draws its values without vectorized float math, so its
#: bytes do not depend on the SIMD level NumPy dispatches to; the
#: synthetic datasets' values do, in the last ulp.)
PINNED_TENSOR_SHA1 = "e06c10477bf2f3a9fa447a072aa4f3b1a79e4f50"
PINNED_SLAB_CHECKSUMS = {
    0: [(105664, 3830891077), (105952, 120907459), (105176, 854022592),
        (105688, 1240875309)],
    1: [(106360, 3363322090), (103272, 2531280882), (102760, 348352050),
        (100744, 4159974144)],
    2: [(115984, 1608464744), (115552, 3609709056), (115696, 126337426),
        (115584, 2814342548)],
}


class TestPinnedOnDiskBytes:
    @pytest.fixture
    def pinned_store(self, tmp_path):
        tensor = random_coo((620, 60, 1020), 14000, seed=3)
        # The input is pinned first, so a failure below is about the
        # store's bytes, not its input.
        assert tensor_fingerprint(tensor)["sha1"] == PINNED_TENSOR_SHA1
        return ShardedTensorStore.create(tensor, tmp_path / "pinned",
                                         slab_nnz_target=4096,
                                         durable=False)

    @staticmethod
    def checksums(store):
        return {mode: [(store.slab_checksum(mode, i).length,
                        store.slab_checksum(mode, i).digest)
                       for i in range(store.slab_count(mode))]
                for mode in range(store.nmodes)}

    def test_slab_checksums_are_pinned(self, pinned_store):
        assert self.checksums(pinned_store) == PINNED_SLAB_CHECKSUMS

    def test_rebuilt_slabs_match_the_pinned_checksums(self, pinned_store):
        for mode, slabs in PINNED_SLAB_CHECKSUMS.items():
            for index in range(len(slabs)):
                pinned_store.slab_path(mode, index).unlink()
                pinned_store.rebuild_slab(mode, index)
                assert pinned_store.slab_problem(mode, index) is None
        assert self.checksums(pinned_store) == PINNED_SLAB_CHECKSUMS


def _random_tensor(shape, nnz, seed):
    """Uniform coordinates; the second half repeats the first."""
    rng = np.random.default_rng(seed)
    coords = np.vstack([rng.integers(0, extent, nnz) for extent in shape])
    coords[:, nnz // 2:] = coords[:, :nnz - nnz // 2]
    return COOTensor(coords, rng.standard_normal(nnz), shape)


class TestTreesFromOneSort:
    """``create`` sorts once and derives every other tree's order by
    radix passes; every slab must equal the same slab of the lexsort
    reference tree, byte for byte."""

    @pytest.mark.parametrize("shape", [(5, 4, 6), (6, 1, 7, 4),
                                       (4, 3, 5, 2, 3), (40, 70000, 9),
                                       (3, 2**32 + 5, 6)])
    def test_slabs_match_lexsort_reference(self, tmp_path, shape):
        tensor = _random_tensor(shape, 600, seed=4)
        store = ShardedTensorStore.create(tensor, tmp_path / "s",
                                          slab_nnz_target=64,
                                          durable=False)
        for mode in range(tensor.nmodes):
            order = default_mode_order(tensor.nmodes, mode)
            assert store.mode_order(mode) == order
            ref = CSFTiling(lexsort_csf_reference(tensor, order),
                            slab_nnz_target=64)
            assert store.slab_count(mode) == len(ref)
            for want in ref:
                got = store.load_slab(mode, want.index)
                assert got.node_ranges == want.node_ranges
                for name, arr in want.tree.buffers().items():
                    stored = got.tree.buffers()[name]
                    assert stored.dtype == arr.dtype
                    assert stored.tobytes() == arr.tobytes()

    def test_rebuild_checks_the_recorded_checksum(self, tmp_path):
        tensor = _random_tensor((30, 70000, 20), 2000, seed=5)
        store = ShardedTensorStore.create(tensor, tmp_path / "s",
                                          slab_nnz_target=256,
                                          durable=False)
        store.slab_path(2, 1).unlink()
        store.rebuild_slab(2, 1)
        assert store.slab_problem(2, 1) is None
        # The store keeps the tensor it was sharded from as its source;
        # a changed value makes the rebuilt bytes differ.
        tensor.vals[:] += 1.0
        with pytest.raises(IntegrityError, match="recorded at shard time"):
            store.rebuild_slab(2, 1)

    def test_coordinates_validated_before_sharding(self, tmp_path,
                                                   small_tensor):
        small_tensor.coords[2, 3] = small_tensor.shape[2]
        with pytest.raises(ValueError, match="out of range"):
            ShardedTensorStore.create(small_tensor, tmp_path / "s")
        assert not ShardedTensorStore.is_store(tmp_path / "s")


class TestStoreRoundTrip:
    def test_create_then_to_coo_bitwise(self, store, small_tensor):
        assert _bitwise_equal(store.to_coo(), small_tensor)

    def test_reopen_from_disk(self, tmp_path, store, small_tensor):
        reopened = ShardedTensorStore.open(tmp_path / "store")
        assert reopened.shape == small_tensor.shape
        assert reopened.nnz == small_tensor.nnz
        assert _bitwise_equal(reopened.to_coo(), small_tensor)

    def test_norm_squared_bitwise(self, store, small_tensor):
        # repr round-trips doubles exactly through meta.json.
        assert store.norm_squared() == small_tensor.norm_squared()
        reopened = ShardedTensorStore.open(store.path)
        assert reopened.norm_squared() == small_tensor.norm_squared()

    def test_fingerprint_matches_checkpoint_layer(self, store, small_tensor):
        assert store.fingerprint() == tensor_fingerprint(small_tensor)
        # Pin the store's internal digest to the core serializer's.
        assert store.fingerprint()["sha1"] == array_fingerprint(
            small_tensor.coords, small_tensor.vals)

    def test_slabs_are_nnz_partition(self, store, small_tensor):
        for mode in range(store.nmodes):
            total = sum(store.slab_meta(mode, i)["nnz"]
                        for i in range(store.slab_count(mode)))
            assert total == small_tensor.nnz
            assert store.slab_count(mode) > 1  # target 32 on 140 nnz

    def test_slab_arrays_are_readonly_maps(self, store):
        slab = store.load_slab(0, 0)
        assert not slab.tree.vals.flags.writeable

    def test_storage_and_slab_files(self, store):
        files = store.slab_files()
        assert all(f.is_file() for f in files)
        assert store.storage_bytes() == sum(
            store.slab_nbytes(m, i) for m in range(store.nmodes)
            for i in range(store.slab_count(m)))

    def test_create_refuses_existing_store(self, tmp_path, store,
                                           small_tensor):
        with pytest.raises(ValueError, match="already contains"):
            ShardedTensorStore.create(small_tensor, tmp_path / "store")

    def test_closed_store_rejects_slab_access(self, store):
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.load_slab(0, 0)

    def test_close_keeps_user_directory(self, tmp_path, store):
        store.close()
        assert (tmp_path / "store" / "meta.json").is_file()


class TestModeCount:
    def test_one_mode_rejected_before_anything_is_written(self, tmp_path):
        target = tmp_path / "store"
        with pytest.raises(ValueError, match="takes 2 to 64 modes, not 1"):
            ShardedTensorStore.create(random_coo((17,), 10, seed=1), target)
        assert not target.exists()

    def test_open_one_mode_tns_under_budget(self, tmp_path, monkeypatch):
        import tempfile

        from repro.tensor.store import TEMP_SHARD_PREFIX
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        path = tmp_path / "line.tns"
        write_tns(random_coo((17,), 10, seed=1), path)
        with pytest.raises(ValueError, match="takes 2 to 64 modes, not 1"):
            open_tensor(path, max_bytes_in_core=4096)
        assert not list(tmp_path.glob(TEMP_SHARD_PREFIX + "*"))

    def test_two_modes_shard(self, tmp_path):
        tensor = random_coo((9, 7), 20, seed=2)
        store = ShardedTensorStore.create(tensor, tmp_path / "store")
        assert _bitwise_equal(store.to_coo(), tensor)


class TestTensorSourceProtocol:
    def test_all_sources_satisfy_protocol(self, store, small_tensor):
        csf = CSFTensor.from_coo(small_tensor)
        for src in (small_tensor, csf, store):
            assert isinstance(src, TensorSource)
            assert src.shape == small_tensor.shape
            assert src.nnz == small_tensor.nnz
            assert np.isfinite(src.norm_squared())

    def test_csf_norm_close_to_coo(self, small_tensor):
        csf = CSFTensor.from_coo(small_tensor)
        # Leaf-order summation: equal to the last ulp or two, not
        # contractually bitwise (the store freezes the COO value).
        assert csf.norm_squared() == pytest.approx(
            small_tensor.norm_squared(), rel=1e-15)
        assert csf.norm() == pytest.approx(small_tensor.norm(), rel=1e-15)


class TestOpenTensor:
    def test_tns_file_opens_in_core(self, tmp_path, small_tensor,
                                    monkeypatch):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        path = write_tns(small_tensor, tmp_path / "t.tns")
        opened = open_tensor(path)
        assert isinstance(opened, COOTensor)
        assert opened == small_tensor

    def test_store_directory_opens_as_store(self, tmp_path, store):
        opened = open_tensor(tmp_path / "store")
        assert isinstance(opened, ShardedTensorStore)
        assert opened.nnz == store.nnz

    def test_budget_shards_file_to_temp_store(self, tmp_path, small_tensor):
        path = write_tns(small_tensor, tmp_path / "t.tns")
        opened = open_tensor(path, max_bytes_in_core=4096)
        assert isinstance(opened, ShardedTensorStore)
        assert opened.max_bytes_in_core == 4096
        shard_root = opened.path
        assert shard_root.exists()
        opened.close()
        assert not shard_root.exists()  # temp shards self-clean

    def test_budget_shards_in_core_tensor(self, small_tensor):
        with open_tensor(small_tensor, max_bytes_in_core=1) as opened:
            assert isinstance(opened, ShardedTensorStore)
            assert _bitwise_equal(opened.to_coo(), small_tensor)

    def test_shard_dir_is_respected_and_kept(self, tmp_path, small_tensor):
        opened = open_tensor(small_tensor, max_bytes_in_core=1,
                             shard_dir=tmp_path / "shards")
        assert opened.path == tmp_path / "shards"
        opened.close()
        assert (tmp_path / "shards" / "meta.json").is_file()

    def test_tensor_objects_pass_through(self, small_tensor, store,
                                         monkeypatch):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        assert open_tensor(small_tensor) is small_tensor
        csf = CSFTensor.from_coo(small_tensor)
        assert open_tensor(csf) is csf
        assert open_tensor(store) is store

    def test_budget_env_var(self, monkeypatch, small_tensor):
        monkeypatch.setenv(BUDGET_ENV_VAR, "2048")
        assert resolve_byte_budget() == 2048
        with open_tensor(small_tensor) as opened:
            assert isinstance(opened, ShardedTensorStore)
            assert opened.max_bytes_in_core == 2048

    def test_malformed_env_var_warns_and_ignores(self, monkeypatch,
                                                 small_tensor):
        from repro.tensor import store as store_mod
        monkeypatch.setattr(store_mod, "_WARNED_ENV_VALUES", set())
        monkeypatch.setenv(BUDGET_ENV_VAR, "lots")
        with pytest.warns(RuntimeWarning, match=BUDGET_ENV_VAR):
            assert resolve_byte_budget() is None

    def test_malformed_env_var_warns_once_per_value(self, monkeypatch,
                                                    small_tensor):
        from repro.tensor import store as store_mod
        monkeypatch.setattr(store_mod, "_WARNED_ENV_VALUES", set())
        monkeypatch.setenv(BUDGET_ENV_VAR, "plenty")
        with pytest.warns(RuntimeWarning, match=BUDGET_ENV_VAR):
            assert resolve_byte_budget() is None
        # Same malformed value again: silently ignored (warn-once, the
        # REPRO_EXECUTOR / REPRO_NUM_THREADS contract).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_byte_budget() is None
        # A *different* malformed value earns its own warning.
        monkeypatch.setenv(BUDGET_ENV_VAR, "loads")
        with pytest.warns(RuntimeWarning, match="loads"):
            assert resolve_byte_budget() is None

    def test_rejects_non_tensor(self):
        with pytest.raises(ValueError, match="cannot open"):
            open_tensor(object())

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="neither"):
            open_tensor(tmp_path / "nope.tns")


class TestIoFrontDoor:
    def test_load_tns_routes_through_open_tensor(self, tmp_path,
                                                 small_tensor, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        path = write_tns(small_tensor, tmp_path / "t.tns")
        assert load_tns(path) == small_tensor
        with load_tns(path, max_bytes_in_core=4096) as store:
            assert isinstance(store, ShardedTensorStore)

    def test_read_tns_chunking_bit_identical(self, tmp_path):
        tensor = random_coo((40, 30, 20), 700, seed=13)
        path = write_tns(tensor, tmp_path / "t.tns")
        whole = read_tns(path)
        chunked = read_tns(path, chunk_lines=7)
        assert np.array_equal(whole.coords, chunked.coords)
        assert np.array_equal(whole.vals, chunked.vals)

    def test_write_tns_accepts_any_source(self, tmp_path, store,
                                          small_tensor):
        path = write_tns(store, tmp_path / "from_store.tns")
        assert _bitwise_equal(read_tns(path).sort_lex(),
                              small_tensor.sort_lex())

    def test_deprecated_top_level_shims(self):
        # The deprecated top-level read_tns/write_tns aliases are gone;
        # the supported spellings import without a warning.
        for name in ("read_tns", "write_tns"):
            with pytest.raises(AttributeError):
                getattr(repro, name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repro.load_tns is load_tns
            assert repro.open_tensor is open_tensor

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_symbol


class TestFitFrontDoor:
    def test_fit_accepts_path(self, tmp_path, small_tensor):
        path = write_tns(small_tensor, tmp_path / "t.tns")
        direct = repro.fit(small_tensor, rank=3, seed=0,
                           max_outer_iterations=3)
        via_path = repro.fit(str(path), rank=3, seed=0,
                             max_outer_iterations=3)
        for a, b in zip(direct.factors, via_path.factors):
            np.testing.assert_array_equal(a, b)

    def test_fit_accepts_store_directory(self, tmp_path, store,
                                         small_tensor):
        direct = repro.fit(small_tensor, rank=3, seed=0,
                           max_outer_iterations=3)
        via_store = repro.fit(Path(tmp_path / "store"), rank=3, seed=0,
                              max_outer_iterations=3)
        for a, b in zip(direct.factors, via_store.factors):
            np.testing.assert_array_equal(a, b)

    def test_fit_rejects_non_source(self):
        with pytest.raises(ValueError, match="TensorSource"):
            repro.fit(3.14, rank=3)

    def test_hosvd_init_needs_in_core(self, store):
        with pytest.raises(ValueError, match="hosvd"):
            repro.fit(store, rank=3, seed=0, init="hosvd",
                      max_outer_iterations=2)
