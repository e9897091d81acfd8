"""Property-based cross-path check over generated shapes and schedules.

Complements the fixed ``CASES`` of ``test_equivalence.py``: serial,
distributed and streaming runs must agree bitwise and count the same row
updates and skips, and coordinate descent must match subset-ALS at C=1
with fixed order, for 1 to 5 modes, empty buckets, empty tensors, C not
dividing K, more machines than rows and stream chunks down to a single
record.  A fixed store adds buckets of 0 to 600 entries, across the row
kernel's limits between segmented sums and per-row BLAS products, and runs
them again with every mode split into many row-kernel batches.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sals
from sals import solver
from sals.solver import SolverParams, factorize, factorize_cdtf
from conftest import LIMIT_SIZES, kernel_store, random_store, shrink_batches


@st.composite
def cases(draw):
    n_modes = draw(st.integers(1, 5))
    lengths = tuple(draw(st.lists(st.integers(1, 5), min_size=n_modes, max_size=n_modes)))
    nnz = draw(st.integers(0, min(int(np.prod(lengths)), 40)))
    rank = draw(st.integers(1, 4))
    params = SolverParams(
        rank=rank,
        n_columns=draw(st.integers(1, rank)),
        outer_iters=draw(st.integers(1, 2)),
        inner_iters=draw(st.integers(1, 2)),
        lam=draw(st.sampled_from([0.0, 0.05, 0.5])),
        regularization=draw(st.sampled_from(["plain", "weighted"])),
        column_order=draw(st.sampled_from(["fixed", "random_per_outer"])),
        seed=draw(st.integers(0, 1000)),
    )
    machines = draw(st.integers(1, max(lengths) + 2))
    strategy = draw(st.sampled_from(["greedy", "sequential", "random"]))
    chunk = draw(st.integers(1, 16))
    store_seed = draw(st.integers(0, 1000))
    return lengths, nnz, params, machines, strategy, chunk, store_seed


def assert_same(a, b):
    assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(cases())
def test_paths_agree_bitwise(case):
    lengths, nnz, params, machines, strategy, chunk, store_seed = case
    store = random_store(np.random.default_rng(store_seed), lengths, nnz)
    stats = [sals.SolveStats() for _ in range(3)]
    serial = factorize(store, params, stats=stats[0])

    assignment = sals.assign(store, strategy, machines, seed=3)
    dist, _ = sals.run_distributed(store, params, assignment, check_replicas=True,
                                   stats=stats[1])
    assert_same(serial, dist)

    run = sals.stream_factorize(store, params, chunk_records=chunk, stats=stats[2])
    try:
        assert_same(serial, run.load_model())
    finally:
        run.cleanup()
    counts = {(s.rows_updated, s.rows_skipped) for s in stats}
    assert len(counts) == 1, counts

    cd = replace(params, n_columns=1, column_order="fixed")
    assert_same(factorize(store, cd), factorize_cdtf(store, cd))


@pytest.mark.parametrize("c_cols", [1, 2, 3, 4, 8])
def test_paths_agree_bitwise_across_bucket_limits(c_cols):
    # C = K = 8 is the benchmark's als path.
    store = kernel_store(np.random.default_rng(c_cols), 3, LIMIT_SIZES)
    params = SolverParams(rank=max(4, c_cols), n_columns=c_cols, outer_iters=2, lam=0.05,
                          seed=c_cols)
    serial = factorize(store, params)
    dist, _ = sals.run_distributed(store, params, sals.assign(store, "greedy", 2, seed=3),
                                   check_replicas=True)
    assert_same(serial, dist)
    run = sals.stream_factorize(store, params, chunk_records=97)
    try:
        assert_same(serial, run.load_model())
    finally:
        run.cleanup()


@pytest.mark.parametrize("c_cols, lam, regularization", [
    (1, 0.05, "plain"), (2, 0.0, "plain"), (3, 0.05, "weighted"),
])
def test_paths_agree_bitwise_across_split_batches(monkeypatch, c_cols, lam, regularization):
    # At its default cap every test store is one batch at C = 1, so a cap of
    # 61 entries splits each mode into many batches, on every path.
    store = kernel_store(np.random.default_rng(20 + c_cols), 3, LIMIT_SIZES)
    params = SolverParams(rank=4, n_columns=c_cols, outer_iters=2, lam=lam,
                          regularization=regularization, seed=c_cols)
    whole = factorize(store, params)
    shrink_batches(monkeypatch, 61)
    for n in range(store.n_modes):
        assert len(list(solver._batches(store.groups(n).ptr, c_cols))) > 3
    serial = factorize(store, params)
    assert_same(whole, serial)
    for machines in (2, 3):
        dist, _ = sals.run_distributed(store, params, sals.assign(store, "greedy", machines, seed=3),
                                       check_replicas=True)
        assert_same(serial, dist)
    run = sals.stream_factorize(store, params, chunk_records=97)
    try:
        assert_same(serial, run.load_model())
    finally:
        run.cleanup()
    if c_cols == 1:
        cd = replace(params, column_order="fixed")
        assert_same(factorize(store, cd), factorize_cdtf(store, cd))
