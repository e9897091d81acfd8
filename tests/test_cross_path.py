"""Property-based cross-path check over generated shapes and schedules.

Complements the fixed ``CASES`` of ``test_equivalence.py``: serial,
distributed and streaming runs must agree bitwise, and coordinate descent
must match subset-ALS at C=1 with fixed order, for 1 to 5 modes, empty
buckets, empty tensors, C not dividing K, more machines than rows and
stream chunks down to a single record.
"""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sals
from sals.solver import SolverParams, factorize, factorize_cdtf
from conftest import random_store


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
    serial = factorize(store, params)

    assignment = sals.assign(store, strategy, machines, seed=3)
    dist, _ = sals.run_distributed(store, params, assignment, check_replicas=True)
    assert_same(serial, dist)

    run = sals.stream_factorize(store, params, chunk_records=chunk)
    try:
        assert_same(serial, run.load_model())
    finally:
        run.cleanup()

    cd = replace(params, n_columns=1, column_order="fixed")
    assert_same(factorize(store, cd), factorize_cdtf(store, cd))
