import tracemalloc

import numpy as np
import pytest

from sals.dataio import generate_zipf
from sals.partition import (
    assign,
    greedy_assign,
    load_stats,
    random_assign,
    sequential_assign,
    write_assignment,
)
from sals.tensor import store_from_arrays
from conftest import random_store


def read_assignment(path, n_machines: int, n_modes: int) -> list[list[np.ndarray]]:
    """Parse the text form back into 0-based row arrays."""
    sets: list[list[np.ndarray | None]] = [
        [None] * n_modes for _ in range(n_machines)
    ]
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            m, n = int(parts[0]) - 1, int(parts[1]) - 1
            rows = np.asarray([int(r) - 1 for r in parts[2:]], dtype=np.int64)
            sets[m][n] = rows
    return [[s if s is not None else np.empty(0, dtype=np.int64) for s in row] for row in sets]


def ladder_store(counts):
    """Mode-0 bucket sizes equal to ``counts``; mode-1 buckets singletons."""
    rows = []
    col = 0
    for r, cnt in enumerate(counts):
        for _ in range(cnt):
            rows.append((r, col))
            col += 1
    idx = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
    return store_from_arrays(idx, np.ones(len(rows)), (len(counts), max(col, 1)))


def check_partition_invariants(store, assignment):
    for n in range(store.n_modes):
        cap = -(-store.mode_lengths[n] // assignment.n_machines)
        all_rows = np.concatenate([assignment.rows(m, n) for m in range(assignment.n_machines)])
        assert sorted(all_rows.tolist()) == list(range(store.mode_lengths[n]))
        for m in range(assignment.n_machines):
            assert assignment.rows(m, n).size <= cap


class TestGreedy:
    def test_hand_simulated_example(self):
        store = ladder_store([5, 3, 2, 1])
        a = greedy_assign(store, 2)
        assert a.rows(0, 0).tolist() == [0, 3]   # rows 1 and 4
        assert a.rows(1, 0).tolist() == [1, 2]   # rows 2 and 3
        assert a.mode_loads[0, 0] == 6
        assert a.mode_loads[1, 0] == 5

    def test_all_empty_rows_round_robin(self):
        store = store_from_arrays(np.empty((0, 2), dtype=np.int64), np.empty(0), (5, 4))
        a = greedy_assign(store, 2)
        assert a.rows(0, 0).size <= 3 and a.rows(1, 0).size <= 3
        check_partition_invariants(store, a)
        # ties resolve by machine id, alternating as row counts grow
        assert a.rows(0, 0).tolist() == [0, 2, 4]
        assert a.rows(1, 0).tolist() == [1, 3]

    def test_single_machine(self, rng):
        store = random_store(rng, (7, 6), 20)
        a = greedy_assign(store, 1)
        assert a.rows(0, 0).tolist() == list(range(7))
        assert a.mode_loads[0, 0] == store.nnz

    def test_invariants_random_instances(self, rng):
        for _ in range(5):
            store = random_store(rng, (13, 9, 11), 200)
            for m in (2, 3, 5):
                check_partition_invariants(store, greedy_assign(store, m))


class TestSequential:
    def test_even_split(self, rng):
        store = random_store(rng, (4, 4), 6)
        a = sequential_assign(store, 2)
        assert a.rows(0, 0).tolist() == [0, 1]
        assert a.rows(1, 0).tolist() == [2, 3]

    def test_uneven_split(self, rng):
        store = random_store(rng, (5, 5), 6)
        a = sequential_assign(store, 2)
        assert a.rows(0, 0).tolist() == [0, 1]
        assert a.rows(1, 0).tolist() == [2, 3, 4]

    def test_single_machine(self, rng):
        store = random_store(rng, (6, 4), 8)
        a = sequential_assign(store, 1)
        assert a.rows(0, 0).tolist() == list(range(6))

    def test_invariants(self, rng):
        store = random_store(rng, (17, 8, 5), 120)
        for m in (2, 3, 4, 7):
            check_partition_invariants(store, sequential_assign(store, m))


class TestRandom:
    def test_reproducible(self, rng):
        store = random_store(rng, (9, 9), 30)
        a = random_assign(store, 3, seed=42)
        b = random_assign(store, 3, seed=42)
        for m in range(3):
            for n in range(2):
                assert np.array_equal(a.rows(m, n), b.rows(m, n))

    def test_single_machine(self, rng):
        store = random_store(rng, (5, 5), 10)
        a = random_assign(store, 1, seed=0)
        assert a.rows(0, 1).tolist() == list(range(5))

    def test_exact_division(self):
        store = store_from_arrays(
            np.stack([np.arange(1000), np.zeros(1000, dtype=np.int64)], axis=1),
            np.ones(1000), (1000, 1),
        )
        a = random_assign(store, 4, seed=7)
        assert all(a.rows(m, 0).size == 250 for m in range(4))
        check_partition_invariants(store, a)


class TestLoadStats:
    def test_single_machine_totals(self, rng):
        store = random_store(rng, (8, 6), 30)
        report = load_stats(store, greedy_assign(store, 1))
        assert (report.max_mode_load == store.nnz).all()
        assert report.imbalance == pytest.approx(np.ones(2))

    def test_uniform_instance_strategies_within_five_percent(self):
        idx = np.array([(i, j) for i in range(12) for j in range(12)])
        store = store_from_arrays(idx, np.ones(len(idx)), (12, 12))
        for strategy in ("greedy", "sequential", "random"):
            report = load_stats(store, assign(store, strategy, 4, seed=2))
            assert (report.imbalance <= 1.05).all()

    def test_zipf_greedy_dominates(self):
        store = generate_zipf((300, 300, 300), 15000, 1.2, seed=3)
        g = load_stats(store, greedy_assign(store, 8))
        s = load_stats(store, sequential_assign(store, 8))
        r = load_stats(store, random_assign(store, 8, seed=3))
        assert (g.max_mode_load <= s.max_mode_load).all()
        assert (g.max_mode_load <= r.max_mode_load).all()

    def test_loads_match_brute_force(self, rng):
        store = random_store(rng, (10, 9, 8), 150)
        a = greedy_assign(store, 3)
        for n in range(3):
            owner = a.owners[n]
            for m in range(3):
                brute = int((owner[store.idx[:, n]] == m).sum())
                assert a.mode_loads[m, n] == brute
        # union loads: entry belongs to machine if any mode's row is owned
        owners = a.owners
        for m in range(3):
            mask = np.zeros(store.nnz, dtype=bool)
            for n in range(3):
                mask |= owners[n][store.idx[:, n]] == m
            assert a.union_loads[m] == int(mask.sum())


class TestAssignmentMemory:
    @pytest.mark.parametrize("strategy", ["greedy", "sequential", "random"])
    def test_peak_does_not_grow_with_machine_count(self, strategy):
        # The loads are counted one machine at a time, so no (nnz, M)
        # temporary is made: 64 machines peak near 2 machines' bytes.
        store = random_store(np.random.default_rng(0), (64, 64, 64), 1 << 15)
        peaks = []
        for n_machines in (2, 64):
            tracemalloc.start()
            try:
                assign(store, strategy, n_machines, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        store = random_store(rng, (7, 5), 20)
        a = greedy_assign(store, 3)
        path = tmp_path / "assignment.txt"
        write_assignment(path, a)
        sets = read_assignment(path, 3, 2)
        for m in range(3):
            for n in range(2):
                assert np.array_equal(sets[m][n], a.rows(m, n))

    def test_unknown_strategy_rejected(self, rng):
        store = random_store(rng, (4, 4), 5)
        with pytest.raises(ValueError):
            assign(store, "hashed", 2)
