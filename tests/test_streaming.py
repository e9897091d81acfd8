import collections
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sals import dataio, streaming
from sals.accounting import ResidencyMeter
from sals.solver import SolverParams, factorize
from sals.streaming import ColumnStore, stream_factorize
from sals.tensor import Coo, store_from_arrays
from conftest import random_store


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


class TestColumnStore:
    def test_round_trip(self, rng, tmp_path):
        meter = ResidencyMeter()
        cs = ColumnStore(tmp_path, (6, 4), rank=5, meter=meter)
        mats = [rng.random((6, 5)), rng.random((4, 5))]
        for n, m in enumerate(mats):
            cs.write_full(n, m)
        cols = np.array([0, 3])
        slab = cs.load_columns(0, cols)
        assert np.array_equal(slab, mats[0][:, cols])
        assert meter.current == slab.size
        slab[:, 1] = 7.0
        cs.store_columns(0, cols, slab)
        cs.release(slab)
        assert meter.current == 0
        model = cs.read_model(0.0)
        assert np.array_equal(model.matrices[1], mats[1])
        assert (model.matrices[0][:, 3] == 7.0).all()
        assert np.array_equal(model.matrices[0][:, 1], mats[0][:, 1])


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
    def test_matches_in_memory(self, rng, tmp_path, cfg):
        store = random_store(rng, (9, 8, 7), 160)
        params = SolverParams(**cfg)
        expected = factorize(store, params)
        run = stream_factorize(store, params, workdir=tmp_path, chunk_records=37)
        got = run.load_model()
        assert max_model_diff(expected, got) <= 1e-12

    def test_resident_bound(self, rng, tmp_path):
        store = random_store(rng, (12, 10, 9), 200)
        params = SolverParams(rank=6, n_columns=2, outer_iters=2, inner_iters=1,
                              lam=0.05, seed=2)
        run = stream_factorize(store, params, workdir=tmp_path)
        c_sum = params.n_columns * sum(store.mode_lengths)
        assert run.peak_resident_values <= c_sum + 1024
        # init writes one full factor at a time; the loop holds the C slabs
        assert run.peak_resident_values == max(
            c_sum, max(length * params.rank for length in store.mode_lengths)
        )

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
            assert b.loss == pytest.approx(a.loss, rel=1e-12)
            assert b.test_rmse == pytest.approx(a.test_rmse, rel=1e-12)

    def test_two_dimensional_tensor(self, rng, tmp_path):
        store = random_store(rng, (10, 8), 50)
        params = SolverParams(rank=3, n_columns=3, outer_iters=2, lam=0.02, seed=9)
        expected = factorize(store, params)
        run = stream_factorize(store, params, workdir=tmp_path)
        assert max_model_diff(expected, run.load_model()) <= 1e-12

    def test_workdir_holds_only_factors_and_caches(self, rng, tmp_path):
        store = random_store(rng, (6, 5, 4), 60)
        params = SolverParams(rank=3, n_columns=2, outer_iters=2, lam=0.1, seed=4)
        stream_factorize(store, params, workdir=tmp_path, on_iteration=lambda r: None)
        expected = {f"factors/factor_{n}.bin" for n in range(3)}
        expected |= {f"cache/{kind}_m{n}.bin" for kind in ("idx", "r") for n in range(3)}
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
        # Each outer iteration runs two column subsets; each subset's augment
        # rewrites every mode's r_m<n>.bin into r-hat and its write-back
        # rewrites it into r again.  A value pass writes header + 8 B per
        # record + CRC trailer per mode, (N + 1) times fewer record bytes than
        # N indices plus a value.
        passes = params.outer_iters * 2 * 2
        assert sorted(index_files) == [f"idx_m{n}.bin" for n in range(3)]
        for n in range(3):
            assert opened[f"r_m{n}.bin", "r+b"] == passes
            assert written[f"r_m{n}.bin"] == passes * (8 * store.nnz + 28)
            path = cache / f"idx_m{n}.bin"
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
    def test_failed_run_removes_its_files_from_workdir(self, rng, tmp_path):
        store = random_store(rng, (6, 5, 4), 60, value_scale=1e300)
        params = SolverParams(rank=2, n_columns=1, outer_iters=2, lam=0.1, seed=1)
        keep = tmp_path / "notes.txt"
        keep.write_text("not the run's")
        with pytest.raises(ValueError, match="non-finite"):
            stream_factorize(store, params, workdir=tmp_path)
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


class TestEmptyRows:
    @pytest.mark.parametrize("lam, regularization", [
        (0.05, "plain"), (0.0, "plain"), (0.05, "weighted"),
    ])
    def test_paths_agree_bitwise_with_many_empty_rows(self, lam, regularization):
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
        run = stream_factorize(store, params, chunk_records=7, stats=stats[2])
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
