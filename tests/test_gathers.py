"""Call-site guards on every subset-ALS path: what the solvers hand each other.

- Every row gather reads a C-contiguous source.  ``np.take`` copies a
  strided source whole before it gathers (see :func:`sals.tensor.take_rows`),
  so one F-ordered slab turns each gather of a refit into a copy of all I_n
  rows.
- No gather of r-hat runs through the identity: where a row group's
  entries already sit in r-hat's order, the row kernel slices it.
- Only the schedule driver (and the column store's own ``blocks``) loads,
  stores and releases slabs, once per mode and subset.
- No refit hands the row kernel an empty bucket: row groups split the
  empty rows out once.
- One refit's transient memory follows its batches, not its mode lengths.

Each call-site test wraps every module binding of one name for a run of a
path.  The checks live here, not in the library: tests elsewhere feed
``take_rows`` strided input on purpose.
"""
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from sals import cluster, partition, solver, streaming, tensor
from sals.tensor import Coo, store_from_arrays
from conftest import random_store, shrink_batches

STORE = random_store(np.random.default_rng(9), (50, 50, 50), 3000)
TEST = Coo(np.random.default_rng(10).integers(0, 50, (200, 3)),
           np.random.default_rng(11).normal(size=200))
PARAMS = solver.SolverParams(rank=6, n_columns=4, outer_iters=2, lam=0.05, seed=4)
HOOKED = dict(test_entries=TEST, on_iteration=lambda record: None)
# Entries in the first 40 rows of every mode: rows 40..49 are empty in each.
_CUBE = random_store(np.random.default_rng(12), (40, 40, 40), 3000)
EMPTY_ROWS = store_from_arrays(_CUBE.idx, _CUBE.values, (50, 50, 50))

OWNERS = (tensor, solver, cluster, streaming, partition, tensor.ColumnStore)


def spy(monkeypatch, real, note):
    """Rebind every binding of ``real`` in ``OWNERS`` to a wrapper that
    calls ``note`` with the arguments before the call."""
    def wrapper(*args, **kwargs):
        note(*args, **kwargs)
        return real(*args, **kwargs)

    for owner in OWNERS:
        if getattr(owner, real.__name__, None) is real:
            monkeypatch.setattr(owner, real.__name__, wrapper)


@pytest.fixture
def sources(monkeypatch):
    """(shape, C-contiguous) of the source of every ``take_rows`` call made while
    the test runs."""
    seen = []
    spy(monkeypatch, tensor.take_rows,
        lambda a, index: seen.append((a.shape, a.flags.c_contiguous)))
    return seen


def _stream(store, params, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        shrink_batches(mp, 500)
        run = streaming.stream_factorize(store, params, **kwargs)
    try:
        return run.load_model()
    finally:
        run.cleanup()


RUNS = {
    "sals": solver.factorize,
    "cdtf": lambda store, params, **kwargs: solver.factorize_cdtf(
        store, replace(params, n_columns=1), **kwargs),
    "cluster": lambda store, params, **kwargs: cluster.run_distributed(
        store, params, partition.greedy_assign(store, 3), check_replicas=True, **kwargs)[0],
    "streaming": _stream,
}


@pytest.mark.parametrize("path", sorted(RUNS))
def test_path_gathers_from_c_contiguous_sources(sources, path):
    RUNS[path](STORE, PARAMS, **HOOKED)
    assert sources
    assert [shape for shape, contiguous in sources if not contiguous] == []


@pytest.mark.parametrize("path", sorted(RUNS) + ["cluster-M1"])
def test_no_rhat_gather_through_the_identity(monkeypatch, path):
    # Mode 0's whole-mode groups, a worker's mode-0 groups (its owned rows'
    # entries lead its replica) and every streaming chunk hold their entries
    # in r-hat's own order, so a batch's r-hat is a slice of it: a mode-0
    # refit gathers nothing, and no gather runs through the identity.
    gathers, identity, modes = [], [], [None]  # per 1-D gather, the mode last refit
    spy(monkeypatch, solver.update_rows, lambda slabs, rhat, mode, *args: modes.append(mode))

    def note(a, index):
        if a.ndim == 1:
            gathers.append(modes[-1])
            if index.size and np.array_equal(index, np.arange(index[0], index[0] + index.size)):
                identity.append((int(index[0]), index.size))

    spy(monkeypatch, tensor.take_rows, note)
    if path == "cluster-M1":
        cluster.run_distributed(STORE, PARAMS, partition.greedy_assign(STORE, 1), **HOOKED)
    else:
        RUNS[path](STORE, PARAMS, **HOOKED)
    assert identity == []
    assert 0 not in gathers
    assert set(gathers) - {None} == (set() if path == "streaming" else {1, 2})


def test_streaming_gathers_by_contiguous_indices(monkeypatch):
    # A cache chunk's index columns are read into an F-ordered array, so no
    # take_rows call pays np.ascontiguousarray for a strided column.
    contiguous = []
    spy(monkeypatch, tensor.take_rows,
        lambda a, index: contiguous.append(index.flags.c_contiguous))
    RUNS["streaming"](STORE, PARAMS, **HOOKED)
    assert contiguous and all(contiguous)


@pytest.mark.parametrize("lam, regularization", [
    (0.05, "plain"), (0.05, "weighted"), (0.0, "plain"),
])
def test_streaming_chunk_groups_are_the_store_groups_sliced(monkeypatch, lam, regularization):
    # K = 5, C = 2: the last subset reads its chunks at width 1.  Each chunk's
    # group, built from the bucket sizes and the chunk's columns, is the
    # store's whole-mode group cut at the chunk's rows.
    widths, refits = set(), []

    def note(slabs, rhat_vals, mode, groups, *args):
        widths.add(slabs[0].shape[1])
        refits.append((mode, groups))

    spy(monkeypatch, solver.update_rows, note)
    RUNS["streaming"](EMPTY_ROWS, replace(PARAMS, rank=5, n_columns=2, lam=lam,
                                          regularization=regularization))
    assert widths == {1, 2}
    whole = [EMPTY_ROWS.groups(n) for n in range(EMPTY_ROWS.n_modes)]
    covered = {n: [] for n in range(EMPTY_ROWS.n_modes)}
    for mode, groups in refits:
        full = whole[mode]
        if groups.ptr.size == 1:  # the mode's empty rows, settled after its chunks
            assert groups.rows.size == 0 and np.array_equal(groups.empty, full.empty)
            continue
        r0 = int(np.searchsorted(full.rows, groups.rows[0]))
        r1 = r0 + groups.rows.size
        lo, hi = full.ptr[r0], full.ptr[r1]
        assert np.array_equal(groups.rows, full.rows[r0:r1])
        assert np.array_equal(groups.ptr, full.ptr[r0:r1 + 1] - lo)
        assert groups.order is None and groups.empty.size == 0
        assert groups.cols[mode] is None
        for m, col in enumerate(groups.cols):
            if m != mode:
                assert np.array_equal(col, full.cols[m][lo:hi])
        covered[mode].append(groups.rows)
    for mode, rows in covered.items():  # the chunks cover every filled row, pass by pass
        rows = np.concatenate(rows)
        passes = rows.size // whole[mode].rows.size
        assert np.array_equal(rows, np.tile(whole[mode].rows, passes))


def test_rmse_gathers_from_c_contiguous_sources(sources):
    model = solver.factorize(STORE, PARAMS)
    sources.clear()
    tensor.rmse(model, TEST)
    assert sources
    assert [shape for shape, contiguous in sources if not contiguous] == []


@pytest.mark.parametrize("path", sorted(RUNS))
def test_driver_owns_the_slabs(monkeypatch, path):
    # Without a hook nothing is measured, so every slab is the driver's:
    # one load, store and release per mode and column subset.
    calls, callers, stores = Counter(), set(), set()

    def note(name):
        def noted(colstore, *args):
            calls[name] += 1
            frame = sys._getframe(2)  # past the spy's wrapper
            while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
                frame = frame.f_back
            callers.add(frame.f_code.co_name)
            stores.add(colstore)
        return noted

    for name in ("load_columns", "store_columns", "release"):
        spy(monkeypatch, getattr(tensor.ColumnStore, name), note(name))
    RUNS[path](STORE, PARAMS)
    c_cols = 1 if path == "cdtf" else PARAMS.n_columns
    subsets = -(-PARAMS.rank // c_cols) * PARAMS.outer_iters
    assert calls == dict.fromkeys(("load_columns", "store_columns", "release"),
                                  STORE.n_modes * subsets)
    assert callers == {"run_schedule"}
    assert len(stores) == 1 and next(iter(stores)).resident == 0


@pytest.mark.parametrize("lam, regularization", [
    (0.05, "plain"), (0.05, "weighted"), (0.0, "plain"),
])
@pytest.mark.parametrize("path", sorted(RUNS))
def test_no_refit_gets_an_empty_bucket(monkeypatch, path, lam, regularization):
    for n in range(EMPTY_ROWS.n_modes):
        assert np.array_equal(np.flatnonzero(EMPTY_ROWS.bucket_sizes(n) == 0), np.arange(40, 50))
    sizes = []
    spy(monkeypatch, solver.update_rows,
        lambda slabs, rhat_vals, mode, groups, *args: sizes.append(np.diff(groups.ptr)))
    RUNS[path](EMPTY_ROWS, replace(PARAMS, lam=lam, regularization=regularization))
    assert sizes
    assert [s for s in sizes if not (s > 0).all()] == []


def refit_peak(store, c_cols, lam=0.05, weighted=False):
    """``tracemalloc`` peak of one ``update_rows`` call on mode 0, C-ordered slabs."""
    rng = np.random.default_rng(1)
    slabs = [rng.random((length, c_cols)) for length in store.mode_lengths]
    rhat, groups = rng.normal(size=store.nnz), store.groups(0)
    tracemalloc.start()
    try:
        solver.update_rows(slabs, rhat, 0, groups, lam, weighted)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("lam, weighted", [(0.05, False), (0.05, True), (0.0, False)])
def test_refit_peak_does_not_grow_with_mode_length(lam, weighted):
    # The same entries under modes of 10^4 and 10^5 rows: only empty rows are
    # added.  A strided gather would copy a whole (I_n, C) slab, 8 C bytes per
    # added row; the bound is one column's 8 bytes per added row.
    c_cols = 4
    small = random_store(np.random.default_rng(4), (10 ** 4,) * 3, 1 << 16)
    large = store_from_arrays(small.idx, small.values, (10 ** 5,) * 3)
    peaks = [refit_peak(store, c_cols, lam, weighted) for store in (small, large)]
    assert peaks[1] - peaks[0] <= 8 * (10 ** 5 - 10 ** 4), peaks


@pytest.mark.parametrize("c_cols", [1, 8])
def test_refit_peak_stays_per_batch(c_cols):
    # 2^19 entries in buckets of about 16, summed by segments: four batches
    # at C = 1 and sixteen at C = 8.  G, its (C, P) copy, the product buffer
    # and the systems are per batch, so the peak is a few batches' (P, C)
    # blocks.
    store = random_store(np.random.default_rng(5), (1 << 15, 64, 64), 1 << 19)
    assert refit_peak(store, c_cols) <= 6 * solver._batch_entries(c_cols) * c_cols * 8
