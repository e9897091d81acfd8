"""Cross-path regression net: every execution path must agree bitwise.

Serial, distributed (any machine count / assignment), and streaming runs
share row kernels and consume identical seeded streams, so their final
models must match bit for bit; coordinate descent, a wrapper of the
general path, must match it at C=1 with fixed order.  Their progress records
agree bitwise too: every path's record folds ||r||^2 by mode-0 row and the
penalty and test prediction over C-column blocks.
"""
import numpy as np
import pytest

import sals
from sals.solver import SolverParams, factorize, factorize_cdtf
from sals.tensor import Coo
from conftest import random_store, shrink_batches

CASES = [
    # (lengths, nnz, K, C, T_out, T_in, lam, reg, order, M, strategy, streaming's batch cap)
    ((9, 7), 40, 3, 1, 2, 1, 0.0, "plain", "fixed", 2, "sequential", 11),
    ((8, 6, 5), 120, 5, 2, 2, 2, 0.05, "weighted", "random_per_outer", 3, "greedy", 23),
    ((5, 4, 6, 3), 150, 4, 3, 2, 1, 0.01, "plain", "random_per_outer", 4, "random", 64),
    ((12, 11, 10), 300, 6, 6, 2, 1, 0.1, "weighted", "fixed", 5, "greedy", 97),
    ((30, 30, 30), 50, 2, 2, 2, 1, 0.0, "plain", "fixed", 4, "sequential", 16),
    ((7, 7, 7), 200, 7, 3, 3, 2, 0.5, "plain", "random_per_outer", 6, "random", 31),
    ((10, 3), 25, 4, 1, 3, 2, 0.02, "weighted", "fixed", 3, "greedy", 7),
    ((6, 6, 6, 6), 400, 5, 5, 2, 1, 0.05, "weighted", "random_per_outer", 2, "sequential", 128),
    # streaming fuses mode 0's augment into the subset's first refit and the
    # last mode's write-back into its last: at N = 1 and T_in = 1 both in one
    # pass, at T_in = 2 in separate ones (a row holds one entry here, so a
    # cache chunk holds several rows)
    ((40,), 30, 3, 1, 2, 1, 0.05, "plain", "fixed", 2, "sequential", 7),
    ((25,), 20, 4, 2, 2, 2, 0.1, "weighted", "random_per_outer", 3, "greedy", 6),
    # rows of every mode are above the batch cap, each a chunk of its own
    ((4, 3, 3, 3, 4), 300, 4, 2, 2, 1, 0.05, "plain", "random_per_outer", 3, "greedy", 29),
    # long, mostly empty modes: both exceed 2^16 rows (two radix digits), and
    # 94 % and 92 % of their rows hold no entry, under weighted and zero lambda
    ((100_000, 70_000, 3), 6000, 8, 4, 2, 1, 0.05, "weighted", "random_per_outer", 3, "greedy",
     997),
    ((100_000, 70_000, 3), 6000, 8, 4, 2, 1, 0.0, "plain", "random_per_outer", 3, "greedy", 997),
]


@pytest.mark.parametrize("i, case", list(enumerate(CASES)), ids=[f"case{i}" for i in range(len(CASES))])
def test_all_paths_bitwise_identical(i, case, tmp_path, monkeypatch):
    lengths, nnz, k, c, t_out, t_in, lam, reg, order, m, strategy, cap = case
    rng = np.random.default_rng(900 + i)
    store = random_store(rng, lengths, nnz)
    params = SolverParams(
        rank=k, n_columns=c, outer_iters=t_out, inner_iters=t_in,
        lam=lam, regularization=reg, column_order=order, seed=nnz,
    )
    test = Coo(np.stack([rng.integers(0, n, 6) for n in lengths], axis=1), rng.normal(size=6))
    records = {"serial": [], "cluster": [], "streaming": []}

    def hooks(path):
        return dict(test_entries=test, on_iteration=records[path].append)

    serial = factorize(store, params, **hooks("serial"))

    assignment = sals.assign(store, strategy, m, seed=3)
    dist, _ = sals.run_distributed(store, params, assignment, check_replicas=True,
                                   **hooks("cluster"))
    for a, b in zip(serial.matrices, dist.matrices):
        assert np.array_equal(a, b)

    shrink_batches(monkeypatch, cap)
    run = sals.stream_factorize(store, params, workdir=tmp_path, **hooks("streaming"))
    stream = run.load_model()
    for a, b in zip(serial.matrices, stream.matrices):
        assert np.array_equal(a, b)

    def fields(r):
        return r.iteration, r.loss, r.test_rmse, r.loss_rose

    assert len(records["serial"]) == t_out
    assert [fields(r) for r in records["cluster"]] == [fields(r) for r in records["serial"]]
    assert [fields(r) for r in records["streaming"]] == [fields(r) for r in records["serial"]]

    if c == 1 and order == "fixed":
        fused = factorize_cdtf(store, params)
        for a, b in zip(serial.matrices, fused.matrices):
            assert np.array_equal(a, b)
