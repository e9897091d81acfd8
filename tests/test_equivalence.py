"""Cross-path regression net: every execution path must agree bitwise.

Serial, distributed (any machine count / assignment), and streaming runs
share row kernels and consume identical seeded streams, so their final
models must match bit for bit; coordinate descent, a wrapper of the
general path, must match it at C=1 with fixed order.  Their progress records
agree bitwise too: every path's record folds ||r||^2 by mode-0 row and the
penalty and test prediction over C-column blocks.
"""
import collections

import numpy as np
import pytest

import sals
from sals.solver import SolverParams, factorize, factorize_cdtf
from sals.tensor import Coo
from conftest import random_store, same_bits, shrink_batches

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
        assert same_bits(a, b)

    shrink_batches(monkeypatch, cap)
    run = sals.stream_factorize(store, params, workdir=tmp_path, **hooks("streaming"))
    stream = run.load_model()
    for a, b in zip(serial.matrices, stream.matrices):
        assert same_bits(a, b)

    def fields(r):
        return r.iteration, r.loss, r.test_rmse, r.loss_rose

    assert len(records["serial"]) == t_out
    assert [fields(r) for r in records["cluster"]] == [fields(r) for r in records["serial"]]
    assert [fields(r) for r in records["streaming"]] == [fields(r) for r in records["serial"]]

    if c == 1 and order == "fixed":
        fused = factorize_cdtf(store, params)
        for a, b in zip(serial.matrices, fused.matrices):
            assert same_bits(a, b)


def _run(path, store, params, **kwargs):
    """The model of one path's run: ``serial``, ``cdtf``, ``cluster<M>`` (greedy) or
    ``streaming``."""
    if path == "serial":
        return factorize(store, params, **kwargs)
    if path == "cdtf":
        return factorize_cdtf(store, params, **kwargs)
    if path.startswith("cluster"):
        assignment = sals.assign(store, "greedy", int(path[len("cluster"):]))
        return sals.run_distributed(store, params, assignment, check_replicas=True, **kwargs)[0]
    run = sals.stream_factorize(store, params, **kwargs)
    try:
        return run.load_model()
    finally:
        run.cleanup()


PATHS = ["serial", "cdtf", "cluster1", "cluster2", "cluster3", "streaming"]


@pytest.mark.parametrize("t_out", [1, 3])
@pytest.mark.parametrize("path, c_cols", [(path, c) for path in PATHS for c in (1, 3, 4)
                                          if path != "cdtf" or c == 1])
def test_negative_zero_values_give_the_bits_of_positive_zeros(monkeypatch, path, c_cols, t_out):
    # Outer iteration 1 skips the augment, whose r + (+0.0) made every -0.0
    # residual +0.0; each path's canonical residual x + 0.0 does so instead.
    # A mode-0 row of -0.0 values alone would refit to -0.0 at C = 1 without it.
    rng = np.random.default_rng(77)
    base = random_store(rng, (7, 6, 5), 120)
    values = base.values.copy()
    values[rng.random(values.size) < 0.2] = -0.0
    row = np.argmax(base.bucket_sizes(0))
    values[base.idx[:, 0] == row] = -0.0
    idx = np.asarray(base.idx, dtype=np.int64)
    negative = sals.store_from_arrays(idx, values, base.mode_lengths)
    positive = sals.store_from_arrays(idx, values + 0.0, base.mode_lengths)
    assert np.signbit(negative.values).sum() > np.signbit(positive.values).sum()
    params = SolverParams(rank=4, n_columns=c_cols, outer_iters=t_out, lam=0.05, seed=5,
                          column_order="fixed" if path == "cdtf" else "random_per_outer")
    shrink_batches(monkeypatch, 17)
    records = {}
    models = {}
    for name, store in (("negative", negative), ("positive", positive)):
        records[name] = []
        models[name] = _run(path, store, params, on_iteration=records[name].append)
    assert all(same_bits(a, b) for a, b in zip(models["negative"].matrices,
                                                models["positive"].matrices))
    assert [r.loss for r in records["negative"]] == [r.loss for r in records["positive"]]


@pytest.mark.parametrize("path", ["serial", "cluster1", "cluster3", "streaming"])
def test_first_outer_iteration_augments_nothing(monkeypatch, path):
    # A spy on compute_rhat, counted per outer iteration: none in the first,
    # then one per subset (and worker) over every entry the path holds, or
    # over every mode's cache once when streaming.
    from sals import cluster, solver, streaming

    store = random_store(np.random.default_rng(78), (7, 6, 5), 120)
    params = SolverParams(rank=5, n_columns=2, outer_iters=3, lam=0.05, seed=5)
    owner = {"serial": solver, "streaming": streaming}.get(path, cluster)
    real, records, calls = owner.compute_rhat, [], []

    def spy(residual, *args):
        calls.append((len(records) + 1, residual.size))
        return real(residual, *args)

    monkeypatch.setattr(owner, "compute_rhat", spy)
    _run(path, store, params, on_iteration=records.append)
    subsets, machines = 3, int(path[len("cluster"):]) if path.startswith("cluster") else 1
    held = store.nnz * (store.n_modes if path == "streaming" else 1)
    if machines > 1:
        held = int(sals.assign(store, "greedy", machines).union_loads.sum())
    for outer in (1, 2, 3):
        sizes = [size for it, size in calls if it == outer]
        assert sum(sizes) == (0 if outer == 1 else subsets * held), outer
        if path != "streaming":  # streaming augments a cache chunk at a time
            assert len(sizes) == (0 if outer == 1 else subsets * machines), outer


@pytest.mark.parametrize("t_out", [1, 2])
@pytest.mark.parametrize("t_in", [1, 2])
@pytest.mark.parametrize("path, c_cols", [(path, c) for path in PATHS for c in (1, 3, 4)
                                          if path != "cdtf" or c == 1])
def test_last_subset_writes_back_nothing_unread(monkeypatch, path, c_cols, t_in, t_out):
    # Spies on update_residual and on value-file rewrites (r+b opens), each
    # counted per column subset (a subset ends when its N slabs are stored).
    # Only a record reads the residual after the final subset, so a run with
    # no reader writes nothing back there; a hook or check_replicas keeps
    # every write-back.  The model never reads the residual: its bits agree.
    from sals import cluster, dataio, solver, streaming
    from sals.tensor import ColumnStore

    store = random_store(np.random.default_rng(79), (7, 6, 5), 120)
    n_modes, subsets = store.n_modes, t_out * -(-4 // c_cols)
    params = SolverParams(rank=4, n_columns=c_cols, outer_iters=t_out, inner_iters=t_in,
                          lam=0.05, seed=5)
    owner = {"serial": solver, "cdtf": solver, "streaming": streaming}.get(path, cluster)
    shrink_batches(monkeypatch, 17)  # streaming passes run several chunks
    events, stored = None, []
    real_update, real_store = owner.update_residual, ColumnStore.store_columns

    def update_spy(rhat, *args):
        events[len(stored) // n_modes, "written back"] += rhat.size
        return real_update(rhat, *args)

    def store_spy(self, *args):
        stored.append(None)
        return real_store(self, *args)

    def open_spy(file, mode="r", *args, **kwargs):
        if mode == "r+b":  # a record's reads are not counted
            events[len(stored) // n_modes, mode] += 1
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(owner, "update_residual", update_spy)
    monkeypatch.setattr(ColumnStore, "store_columns", store_spy)
    monkeypatch.setattr(dataio, "open", open_spy, raising=False)
    runs = {"none": {}, "hook": {"on_iteration": lambda record: None}}
    if path.startswith("cluster"):
        runs["check_replicas"] = {"check_replicas": True}
    counts, models = {}, {}
    for reader, kwargs in runs.items():
        events, stored[:] = collections.Counter(), []
        if path.startswith("cluster"):
            assignment = sals.assign(store, "greedy", int(path[len("cluster"):]))
            models[reader] = sals.run_distributed(store, params, assignment, **kwargs)[0]
        else:
            models[reader] = _run(path, store, params, **kwargs)
        counts[reader] = events
    held = store.nnz * (n_modes if path == "streaming" else 1)
    if path.startswith("cluster"):
        held = int(assignment.union_loads.sum())
    final = subsets - 1
    unread, kept = counts["none"], counts["hook"]
    assert counts.get("check_replicas", kept) == kept
    assert [kept[s, "written back"] for s in range(subsets)] == [held] * subsets
    assert [unread[s, "written back"] for s in range(subsets)] == [held] * final + [0]
    assert all(unread[key] == kept[key] for key in kept if key[0] != final)
    if path == "streaming":  # N augment rewrites after outer iteration 1, N write-backs;
        # without a reader only the rewrites that a later sweep reads remain:
        # at T_in = 1 mode 0's r-hat is read by its one refit alone
        augments = n_modes if t_out > 1 else 0
        assert kept[final, "r+b"] == augments + n_modes
        assert unread[final, "r+b"] == augments - (t_out > 1 and t_in == 1)
    else:
        assert not any(kind == "r+b" for _, kind in kept)
    for reader in runs:
        assert all(same_bits(a, b) for a, b in zip(models[reader].matrices,
                                                    models["none"].matrices))
