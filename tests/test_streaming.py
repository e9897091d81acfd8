import collections
import dataclasses
import gc
import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sals import dataio, solver, streaming
from sals.solver import SolverParams, factorize
from sals.streaming import ColumnStore, stream_factorize
from sals.tensor import Coo, store_from_arrays
from conftest import random_store, same_bits, shrink_batches, shrink_blocks


def max_model_diff(a, b):
    return max(np.max(np.abs(x - y)) for x, y in zip(a.matrices, b.matrices))


class _CountingFile:
    """A file object that adds the bytes written through it to ``counter[name]``."""

    def __init__(self, fh, counter, name):
        self._fh, self._counter, self._name = fh, counter, name

    def write(self, data):
        self._counter[self._name] += memoryview(data).nbytes
        return self._fh.write(data)

    def __getattr__(self, attr):
        return getattr(self._fh, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class _CountingNumpy:
    """numpy, counting the elements of the arrays that ``concatenate`` returns."""

    def __init__(self):
        self.joined = 0

    def concatenate(self, *args, **kwargs):
        out = np.concatenate(*args, **kwargs)
        self.joined += out.size
        return out

    def __getattr__(self, name):
        return getattr(np, name)


class TestColumnStore:
    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "directory"])
    def test_round_trip(self, rng, tmp_path, on_disk):
        cs = ColumnStore((6, 4), rank=5, directory=tmp_path if on_disk else None)
        mats = [rng.random((6, 5)), rng.random((4, 5))]
        for n, m in enumerate(mats):
            cs.write_full(n, m)
        cols = np.array([0, 3])
        slab = cs.load_columns(0, cols)
        assert slab.flags.c_contiguous
        assert np.array_equal(slab, mats[0][:, cols])
        assert cs.resident == slab.size
        slab[:, 1] = 7.0
        cs.store_columns(0, cols, slab)
        cs.release(slab)
        assert cs.resident == 0
        mats[0][:, 3] = 7.0
        for n, expected in enumerate(mats):
            path = tmp_path / f"factor_{n}.bin"
            if on_disk:
                assert path.read_bytes() == np.asfortranarray(expected, "<f8").tobytes("F")
            else:
                assert not path.exists()
        for block in cs.blocks(2):
            assert all(b.flags.c_contiguous for b in block)
        assert cs.resident == 0
        model = cs.read_model(0.0)
        assert all(m.flags.c_contiguous for m in model.matrices)
        assert all(np.array_equal(a, b) for a, b in zip(model.matrices, mats))

    def test_empty_factor_keeps_an_empty_file(self, tmp_path):
        cs = ColumnStore((0, 3), rank=2, directory=tmp_path)
        cs.write_full(0, np.zeros((0, 2)))
        cs.write_full(1, np.ones((3, 2)))
        assert (tmp_path / "factor_0.bin").read_bytes() == b""
        assert cs.load_columns(0, np.array([1])).shape == (0, 1)
        assert cs.read_model(0.0).matrices[0].shape == (0, 2)


CONFIGS = [
    dict(rank=4, n_columns=2, outer_iters=2, inner_iters=1, lam=0.05, seed=3),
    dict(rank=5, n_columns=2, outer_iters=2, inner_iters=2, lam=0.01,
         regularization="weighted", seed=11),           # uneven last subset
    dict(rank=3, n_columns=1, outer_iters=3, inner_iters=1, lam=0.0,
         column_order="fixed", seed=7),                 # lam=0 skip handling
    dict(rank=4, n_columns=4, outer_iters=2, inner_iters=1, lam=0.2, seed=1),
]


class TestStreamFactorize:
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_matches_in_memory(self, rng, tmp_path, monkeypatch, cfg):
        store = random_store(rng, (9, 8, 7), 160)
        params = SolverParams(**cfg)
        expected = factorize(store, params)
        shrink_batches(monkeypatch, 37)
        run = stream_factorize(store, params, workdir=tmp_path)
        got = run.load_model()
        assert max_model_diff(expected, got) <= 1e-12

    @pytest.mark.parametrize("cap, lengths, nnz", [
        (1, (9, 8, 7), 160), (7, (9, 8, 7), 160), (1 << 16, (1, 300, 300), 70_000),
    ])
    def test_rows_spanning_chunks_match_in_memory(self, rng, tmp_path, monkeypatch, cap,
                                                  lengths, nnz):
        # A row above the batch cap (2^16 is the default at C = 2) is one
        # batch, and so one cache chunk, of its own: no row spans chunks.
        store = random_store(rng, lengths, nnz)
        above = [(store.bucket_sizes(n) > cap).any() for n in range(store.n_modes)]
        assert all(above) if cap < 1 << 16 else above == [True, False, False]
        params = SolverParams(rank=3, n_columns=2, outer_iters=2, lam=0.05, seed=4)
        expected = factorize(store, params)
        shrink_batches(monkeypatch, cap)
        run = stream_factorize(store, params, workdir=tmp_path)
        assert all(np.array_equal(a, b) for a, b in zip(expected.matrices,
                                                        run.load_model().matrices))

    def test_row_spanning_many_chunks_is_joined_once(self, tmp_path, monkeypatch):
        # Mode 0's row 0 holds 4,000 entries, 100 times a batch cap of 40.
        # Each cache chunk is one of the row kernel's batches, so the row is
        # read as one chunk of its own and streaming joins nothing.
        rng = np.random.default_rng(8)
        idx = np.concatenate([
            np.column_stack([np.full(size, i), *np.divmod(rng.choice(10_000, size, False), 100)])
            for i, size in enumerate((4000, 200, 200, 200))])
        store = store_from_arrays(idx, rng.normal(size=len(idx)), (4, 100, 100))
        params = SolverParams(rank=4, n_columns=2, outer_iters=1, lam=0.05, seed=4)
        expected = factorize(store, params)
        for cap in (400, 40):
            counting = _CountingNumpy()
            monkeypatch.setattr(streaming, "np", counting)
            shrink_batches(monkeypatch, cap)
            run = stream_factorize(store, params, workdir=tmp_path / str(cap))
            assert counting.joined == 0, cap
            assert all(np.array_equal(a, b) for a, b in zip(expected.matrices,
                                                            run.load_model().matrices))

    @pytest.mark.parametrize("cap", [None, 7, 1], ids=["default", "cap7", "cap1"])
    @pytest.mark.parametrize("rank, c_cols", [(4, 1), (4, 2), (4, 4), (5, 4), (8, 3)],
                             ids=["1", "2", "4", "5-4", "8-3"])  # K = 4 unless named
    def test_kernel_gets_the_in_memory_batches(self, tmp_path, monkeypatch, rank, c_cols, cap):
        # Each cache chunk is one of the row kernel's batches, so streaming
        # hands the kernel the same (mode, rows, entries) sequence as
        # factorize, mode 0's row 0 above the cap included; where C does not
        # divide K, the last subset's passes read the chunks of its own width.
        rng = np.random.default_rng(c_cols)
        sizes, others = ((140_000, 900, 0, 2000), (400, 400)) if cap is None else \
            ((40, 9, 0, 1, 2), (9, 8))
        idx = np.concatenate([
            np.column_stack([np.full(size, i),
                             *np.divmod(rng.choice(np.prod(others), size, False), others[1])])
            for i, size in enumerate(sizes)])
        store = store_from_arrays(idx, rng.normal(size=len(idx)), (len(sizes), *others))
        if cap is not None:
            shrink_batches(monkeypatch, cap)
        assert store.bucket_sizes(0)[0] > solver._batch_entries(c_cols)
        calls, real = [], solver.normal_eq_arrays

        def noting(slabs, cols, rhat, seg, mode, *args, **kwargs):
            calls.append((mode, seg.size - 1, int(seg[-1])))
            return real(slabs, cols, rhat, seg, mode, *args, **kwargs)

        monkeypatch.setattr(solver, "normal_eq_arrays", noting)
        params = SolverParams(rank=rank, n_columns=c_cols, outer_iters=1, lam=0.05, seed=3)
        expected = factorize(store, params)
        in_memory = calls[:]
        calls.clear()
        run = stream_factorize(store, params, workdir=tmp_path)
        assert calls == in_memory
        assert all(np.array_equal(a, b) for a, b in zip(expected.matrices,
                                                        run.load_model().matrices))

    @pytest.mark.parametrize("length, word", [(2**15 - 1, 2), (2**15, 4), (2**15 + 1, 4)])
    def test_index_words_at_the_int16_boundary(self, tmp_path, monkeypatch, length, word):
        # Index columns are int16 while every mode is shorter than 2^15 rows,
        # so every index fits; the top rows are cached in the other modes'
        # files.
        rng = np.random.default_rng(length)
        rows = np.concatenate([[0, length - 2, length - 1] * 4, rng.integers(0, length, 300)])
        idx = np.column_stack([rows, rng.integers(0, 5, rows.size), rng.integers(0, 3, rows.size)])
        idx = np.unique(idx, axis=0)
        store = store_from_arrays(idx, rng.normal(size=len(idx)), (length, 5, 3))
        params = SolverParams(rank=3, n_columns=2, outer_iters=2, lam=0.05, seed=4)
        expected = factorize(store, params)
        shrink_batches(monkeypatch, 5)
        run = stream_factorize(store, params, workdir=tmp_path)
        for n in range(store.n_modes):
            *columns, values = dataio.cache_files(tmp_path / "cache", n, store.n_modes)
            for path, kind, size in [*((c, b"i", word) for c in columns), (values, b"f", 8)]:
                header = path.read_bytes()[:dataio._HEADER.size]
                assert dataio._HEADER.unpack(header)[2:] == (kind, size, store.nnz)
        assert all(np.array_equal(a, b) for a, b in zip(expected.matrices,
                                                        run.load_model().matrices))

    def test_resident_bound(self, rng, tmp_path):
        store = random_store(rng, (12, 10, 9), 200)
        params = SolverParams(rank=6, n_columns=2, outer_iters=2, inner_iters=1,
                              lam=0.05, seed=2)
        run = stream_factorize(store, params, workdir=tmp_path)
        c_sum = params.n_columns * sum(store.mode_lengths)
        assert run.peak_resident_values <= c_sum + 1024
        # init writes a factor 2^16 / K rows at a time, here a whole factor;
        # the loop holds the C slabs
        assert run.peak_resident_values == max(
            c_sum, max(length * params.rank for length in store.mode_lengths)
        )

    @pytest.mark.parametrize("block_values", [6, 30, 1 << 16])
    def test_initial_factors_in_row_blocks(self, rng, tmp_path, monkeypatch, block_values):
        # init draws and writes each factor max(1, 2^16 / K) rows at a time
        # (block_values / K here); the draws give the bits of one whole draw
        store = random_store(rng, (40, 9, 25), 300)
        params = SolverParams(rank=6, n_columns=2, outer_iters=2, lam=0.05, seed=2)
        expected = factorize(store, params)
        init_rng, _ = solver.rng_streams(params.seed)
        initial = [np.zeros((store.mode_lengths[0], params.rank))] + [
            init_rng.random((length, params.rank)) for length in store.mode_lengths[1:]]
        shrink_blocks(monkeypatch, block_values)
        colstore = solver.init_columns(store.mode_lengths, params, tmp_path / "init")
        for n, matrix in enumerate(initial):
            assert (tmp_path / "init" / f"factor_{n}.bin").read_bytes() == (
                np.asfortranarray(matrix, "<f8").tobytes("F"))
        block = max(1, block_values // params.rank)
        assert colstore.peak == params.rank * min(block, max(store.mode_lengths))
        run = stream_factorize(store, params, workdir=tmp_path / "run")
        assert all(same_bits(a, b) for a, b in zip(expected.matrices,
                                                    run.load_model().matrices))
        assert run.peak_resident_values == max(
            params.n_columns * sum(store.mode_lengths),
            params.rank * min(block, max(store.mode_lengths)))

    def test_hooks_match_in_memory_records(self, rng, tmp_path):
        store = random_store(rng, (8, 7, 6), 120)
        test = Coo(store.idx[:10], store.values[:10])
        params = SolverParams(rank=4, n_columns=2, outer_iters=3, lam=0.1,
                              regularization="weighted", seed=5)
        mem_records = []
        factorize(store, params, test_entries=test, on_iteration=mem_records.append)
        stream_records = []
        stream_factorize(store, params, workdir=tmp_path, test_entries=test,
                         on_iteration=stream_records.append)
        assert len(stream_records) == 3
        for a, b in zip(mem_records, stream_records):
            assert (b.loss, b.test_rmse, b.loss_rose) == (a.loss, a.test_rmse, a.loss_rose)

    def test_two_dimensional_tensor(self, rng, tmp_path):
        store = random_store(rng, (10, 8), 50)
        params = SolverParams(rank=3, n_columns=3, outer_iters=2, lam=0.02, seed=9)
        expected = factorize(store, params)
        run = stream_factorize(store, params, workdir=tmp_path)
        assert max_model_diff(expected, run.load_model()) <= 1e-12

    def test_zero_length_mode(self, tmp_path):
        store = store_from_arrays(np.empty((0, 2), int), np.empty(0), (0, 3))
        params = SolverParams(rank=2, n_columns=1, outer_iters=2, lam=0.1, seed=3)
        run = stream_factorize(store, params, workdir=tmp_path)
        assert (tmp_path / "factors" / "factor_0.bin").read_bytes() == b""
        got, expected = run.load_model(), factorize(store, params)
        assert [m.shape for m in got.matrices] == [(0, 2), (3, 2)]
        assert all(np.array_equal(a, b) for a, b in zip(expected.matrices, got.matrices))

    def test_workdir_holds_only_factors_and_caches(self, rng, tmp_path):
        store = random_store(rng, (6, 5, 4), 60)
        params = SolverParams(rank=3, n_columns=2, outer_iters=2, lam=0.1, seed=4)
        stream_factorize(store, params, workdir=tmp_path, on_iteration=lambda r: None)
        expected = {f"factors/factor_{n}.bin" for n in range(3)}
        # each mode caches its values and the other two modes' index columns, not its own
        expected |= {f"cache/r_m{n}.bin" for n in range(3)}
        expected |= {f"cache/idx_m{n}_{m}.bin" for n in range(3) for m in range(3) if m != n}
        found = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
        assert found == expected

    def test_value_passes_rewrite_8_bytes_a_record_in_place(self, rng, tmp_path, monkeypatch):
        store = random_store(rng, (6, 5, 4), 60)
        params = SolverParams(rank=4, n_columns=2, outer_iters=2, lam=0.1, seed=4)
        cache = tmp_path / "cache"
        written = collections.Counter()
        opened = collections.Counter()
        index_files = {}

        def counting_open(path, mode="r"):
            opened[Path(path).name, mode] += 1
            return _CountingFile(open(path, mode), written, Path(path).name)

        def set_up(*args):
            dataio.write_residual_caches(*args)
            index_files.update({p.name: (p.stat().st_mtime_ns, p.read_bytes())
                                for p in cache.glob("idx_*")})
            monkeypatch.setattr(dataio, "open", counting_open, raising=False)

        monkeypatch.setattr(streaming, "write_residual_caches", set_up)
        stream_factorize(store, params, workdir=tmp_path, on_iteration=lambda r: None)
        # Each outer iteration runs two column subsets; after outer iteration
        # 1 each subset rewrites every mode's r_m<n>.bin into r-hat and then
        # into r again (mode 0's first rewrite rides on its first refit, the
        # last mode's second on its last refit).  Outer iteration 1 augments
        # nothing, so there each subset rewrites each file once.  A rewrite
        # writes header + 8 B per record + CRC trailer, and never an index.
        passes = 2 * (1 + 2)
        assert sorted(index_files) == [f"idx_m{n}_{m}.bin" for n in range(3)
                                       for m in range(3) if m != n]
        for n in range(3):
            assert opened[f"r_m{n}.bin", "r+b"] == passes
            assert written[f"r_m{n}.bin"] == passes * (8 * store.nnz + 28)
        for name in index_files:
            path = cache / name
            assert (path.stat().st_mtime_ns, path.read_bytes()) == index_files[path.name]
            assert opened[path.name, "rb"] > 0 and written[path.name] == 0
        assert {mode for _, mode in opened} == {"rb", "r+b"}  # no file created after set-up

    def test_reused_workdir_with_longer_stale_caches(self, rng, tmp_path):
        params = SolverParams(rank=3, n_columns=2, outer_iters=2, lam=0.1, seed=4)
        stream_factorize(random_store(rng, (6, 5, 4), 100), params, workdir=tmp_path)
        small = random_store(rng, (6, 5, 4), 30)
        run = stream_factorize(small, params, workdir=tmp_path)
        assert max_model_diff(factorize(small, params), run.load_model()) == 0

    def test_temporary_workdir_cleanup(self, rng):
        store = random_store(rng, (5, 5), 15)
        params = SolverParams(rank=2, n_columns=1, outer_iters=1, lam=0.1, seed=0)
        run = stream_factorize(store, params)
        model = run.load_model()
        assert all(np.isfinite(m).all() for m in model.matrices)
        run.cleanup()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_removes_temporary_workdir(self, rng, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        store = random_store(rng, (6, 5, 4), 60, value_scale=1e300)
        params = SolverParams(rank=2, n_columns=1, outer_iters=2, lam=0.1, seed=1)
        with pytest.raises(ValueError, match="non-finite") as info:
            stream_factorize(store, params)
        # the traceback keeps the run's frame alive, so garbage collection
        # has not removed the directory: the run itself must have
        assert info.value.__traceback__ is not None
        assert not list(tmp_path.glob("sals-stream-*"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_removes_its_files_from_workdir(self, rng, tmp_path, monkeypatch):
        store = random_store(rng, (6, 5, 4), 60, value_scale=1e300)
        params = SolverParams(rank=2, n_columns=1, outer_iters=2, lam=0.1, seed=1)
        keep = tmp_path / "notes.txt"
        keep.write_text("not the run's")
        present, real = [], streaming.update_rows

        def noting(*args):  # the run fails in its first refit, with every file made
            present.append(sorted(p.name for p in tmp_path.rglob("*.bin")))
            return real(*args)

        monkeypatch.setattr(streaming, "update_rows", noting)
        with pytest.raises(ValueError, match="non-finite"):
            stream_factorize(store, params, workdir=tmp_path)
        assert present[0] == sorted([f"factor_{n}.bin" for n in range(3)] + [
            p.name for n in range(3) for p in dataio.cache_files(tmp_path, n, 3)])
        assert sorted(tmp_path.rglob("*")) == [keep]
        assert keep.read_text() == "not the run's"
        # a workdir the run made itself is removed too
        with pytest.raises(ValueError, match="non-finite"):
            stream_factorize(store, params, workdir=tmp_path / "new")
        assert sorted(tmp_path.rglob("*")) == [keep]

    def test_bad_test_set_fails_before_any_file_is_written(self, rng, tmp_path, monkeypatch):
        writes = []
        monkeypatch.setattr(ColumnStore, "write_full", lambda *a: writes.append("factor"))
        monkeypatch.setattr(streaming, "write_residual_caches", lambda *a: writes.append("cache"))
        store = random_store(rng, (4, 3), 8)
        params = SolverParams(rank=2, n_columns=1, outer_iters=1, lam=0.1, seed=0)
        test = Coo(np.array([[0, 0], [4, 0]]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match=r"test entry 1: mode 0 index 5 outside \[1, 4\]"):
            stream_factorize(store, params, workdir=tmp_path / "run", test_entries=test)
        assert writes == [] and not (tmp_path / "run").exists()


class TestPasses:
    @pytest.mark.parametrize("t_in", [1, 2])
    @pytest.mark.parametrize("lengths", [(40,), (9, 8), (7, 6, 5), (5, 4, 4, 3)])
    def test_passes_per_subset(self, rng, tmp_path, monkeypatch, lengths, t_in):
        store = random_store(rng, lengths, 30 if len(lengths) == 1 else 150)
        params = SolverParams(rank=5, n_columns=2, outer_iters=2, inner_iters=t_in, lam=0.05,
                              seed=4)
        passes = collections.Counter()
        per_outer = []  # each outer iteration's passes per value file
        real = dataio.stream_pass

        def counting(path, *args, **kwargs):
            passes[Path(path[-1]).name] += 1  # the value file
            return real(path, *args, **kwargs)

        def close(record):  # the record reads mode 0's cache by stream_chunks, not counted
            per_outer.append(passes - sum(per_outer, collections.Counter()))

        monkeypatch.setattr(dataio, "stream_pass", counting)
        shrink_batches(monkeypatch, 13)
        run = stream_factorize(store, params, workdir=tmp_path, on_iteration=close)
        n, subsets = len(lengths), 3  # ceil(K / C) = 3 per outer iteration
        # augment and write-back stream N - 1 modes each: mode 0's augment
        # rides on its first refit, the last mode's write-back on its last;
        # outer iteration 1 augments nothing
        first, second = per_outer
        assert sum(first.values()) == subsets * (n * t_in + n - 1)
        assert sum(second.values()) == subsets * (n * t_in + 2 * n - 2)
        if n > 1:
            assert first["r_m0.bin"] == second["r_m0.bin"] == subsets * (t_in + 1)
            assert first[f"r_m{n - 1}.bin"] == subsets * t_in
            assert second[f"r_m{n - 1}.bin"] == subsets * (t_in + 1)
        expected = factorize(store, params)
        assert all(np.array_equal(a, b) for a, b in zip(expected.matrices,
                                                        run.load_model().matrices))


class TestFailedPassesCloseFiles:
    """A pass that raises leaves no cache file open."""

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    @pytest.mark.parametrize("target, call", [
        ("compute_rhat", 3),      # outer iteration 2 (1 augments nothing): mode 1's augment pass
        ("compute_rhat", 8),      # outer iteration 2: mode 0's first refit, which augments
        ("update_residual", 2),   # the last mode's last refit, which writes back
        ("update_residual", 6),   # mode 0's write-back pass
        ("CacheWriter.append", 2),  # set-up, writing mode 0's three files
    ])
    def test_failing_step_closes_its_writer(self, rng, tmp_path, monkeypatch, target, call):
        store = random_store(rng, (6, 5, 4), 120)
        params = SolverParams(rank=2, n_columns=2, outer_iters=2, lam=0.1, seed=1)
        owner, name = (dataio.CacheWriter, "append") if "." in target else (streaming, target)
        real, calls = getattr(owner, name), itertools.count(1)

        def failing(*args):
            if next(calls) == call:
                raise RuntimeError("injected")
            return real(*args)

        monkeypatch.setattr(owner, name, failing)
        shrink_batches(monkeypatch, 50)
        with pytest.raises(RuntimeError, match="injected"):
            stream_factorize(store, params, workdir=tmp_path)
        assert next(calls) > call
        gc.collect()
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    @pytest.mark.parametrize("fail_at", [2, 3, 5])
    def test_set_up_failing_within_a_mode_closes_and_removes_its_files(
            self, rng, tmp_path, monkeypatch, fail_at):
        # Set-up creates mode 0's column files idx_m0_1 and idx_m0_2, then
        # r_m0, then mode 1's: failing to create the 2nd, 3rd or 5th file
        # leaves only some of one mode's files made, and open.
        store = random_store(rng, (6, 5, 4), 120)
        params = SolverParams(rank=2, n_columns=2, outer_iters=1, lam=0.1, seed=1)
        made, creates = [], itertools.count(1)

        def failing_open(path, mode="r", *args):
            if mode == "wb":
                if next(creates) == fail_at:
                    raise OSError("injected")
                made.append(Path(path).name)
            return open(path, mode, *args)

        monkeypatch.setattr(dataio, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="injected"):
            stream_factorize(store, params, workdir=tmp_path)
        assert made == [p.name for n in range(2)
                        for p in dataio.cache_files(tmp_path, n, 3)][:fail_at - 1]
        gc.collect()
        assert not list(tmp_path.iterdir())


class TestEmptyRows:
    @pytest.mark.parametrize("lam, regularization", [
        (0.05, "plain"), (0.0, "plain"), (0.05, "weighted"),
    ])
    def test_paths_agree_bitwise_with_many_empty_rows(self, monkeypatch, lam, regularization):
        from sals.cluster import run_distributed
        from sals.partition import greedy_assign
        from sals.accounting import SolveStats

        rng = np.random.default_rng(11)
        lengths = (30, 25, 20)
        idx = np.stack([rng.integers(0, length * 3 // 5, size=120) for length in lengths], axis=1)
        idx = np.unique(idx, axis=0)
        store = store_from_arrays(idx, rng.normal(size=len(idx)), lengths)
        for n in range(3):
            assert (store.bucket_sizes(n) == 0).mean() >= 0.3
        params = SolverParams(rank=4, n_columns=2, outer_iters=2, inner_iters=2, lam=lam,
                              regularization=regularization, seed=5)
        stats = [SolveStats() for _ in range(3)]
        serial = factorize(store, params, stats=stats[0])
        dist, _ = run_distributed(store, params, greedy_assign(store, 3), check_replicas=True,
                                  stats=stats[1])
        shrink_batches(monkeypatch, 7)
        run = stream_factorize(store, params, stats=stats[2])
        try:
            streamed = run.load_model()
        finally:
            run.cleanup()
        for other in (dist, streamed):
            assert all(np.array_equal(a, b) for a, b in zip(serial.matrices, other.matrices))
        assert len({(s.rows_updated, s.rows_skipped) for s in stats}) == 1
        for n, factor in enumerate(serial.matrices):
            rows = factor[store.bucket_sizes(n) == 0]
            if lam > 0 and regularization == "plain":  # refit to exactly +0.0
                assert (rows == 0.0).all() and not np.signbit(rows).any()
            elif n > 0:  # skipped: the initial uniform [0, 1) values stay
                assert (rows > 0).all()


class _FactsOnly:
    """A store that gives its facts (mode lengths, bucket sizes, ||x||^2) and
    fails the test on any read of its entries or their index."""

    ENTRIES = ("idx", "values", "mode_perm", "mode_cols", "groups", "bucket")

    def __init__(self, store):
        self.store = store

    def __getattr__(self, name):
        if name in self.ENTRIES:
            raise AssertionError(f"streaming loop read store.{name}")
        return getattr(self.store, name)


class TestStreamingReadsFactsOnly:
    """Only the cache writer reads the entries: the schedule, the record
    builder, the evaluator and the streaming loop read the tensor's facts."""

    @pytest.mark.parametrize("lam, regularization", [
        (0.05, "plain"), (0.05, "weighted"), (0.0, "plain"),
    ])
    def test_facts_only_run_matches_in_memory(self, tmp_path, monkeypatch, lam,
                                              regularization):
        rng = np.random.default_rng(21)
        lengths = (8, 1, 9, 4)  # modes 0 and 2 have empty rows, mode 1 one row
        cells = np.unravel_index(rng.choice(6 * 7 * 4, size=70, replace=False), (6, 7, 4))
        idx = np.column_stack([cells[0], np.zeros(70, int), cells[1], cells[2]])
        store = store_from_arrays(idx, rng.normal(size=70), lengths)
        assert (store.bucket_sizes(0) == 0).sum() == 2 and (store.bucket_sizes(2) == 0).sum() == 2
        test = Coo(np.column_stack([rng.integers(0, n, 12) for n in lengths]),
                   rng.normal(size=12))
        params = SolverParams(rank=3, n_columns=2, outer_iters=3, inner_iters=2, lam=lam,
                              regularization=regularization, seed=6)
        expected, expected_records = [], []
        model = factorize(store, params, test_entries=test, on_iteration=expected.append)
        shrink_batches(monkeypatch, 7)
        run = stream_factorize(store, params, workdir=tmp_path / "store", test_entries=test,
                               on_iteration=expected_records.append)

        real = streaming.write_residual_caches
        monkeypatch.setattr(streaming, "write_residual_caches",
                            lambda facts, *args: real(facts.store, *args))
        records = []
        facts_run = stream_factorize(_FactsOnly(store), params, workdir=tmp_path / "facts",
                                     test_entries=test, on_iteration=records.append)
        got = facts_run.load_model()
        assert all(np.array_equal(a, b) for a, b in zip(model.matrices, got.matrices))
        assert all(np.array_equal(a, b) for a, b in zip(run.load_model().matrices,
                                                        got.matrices))
        untimed = lambda r: dataclasses.replace(r, seconds=0.0, eval_seconds=0.0)  # noqa: E731
        assert [untimed(r) for r in records] == [untimed(r) for r in expected_records]
        assert [r.loss_rose for r in records] == [r.loss_rose for r in expected]
        for a, b in zip(expected, records):
            assert (b.loss, b.test_rmse) == (a.loss, a.test_rmse)
