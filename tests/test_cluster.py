import tracemalloc

import numpy as np
import pytest

from sals.cluster import (
    ClusterError,
    comm_report,
    distribute,
    export_comm_csv,
    run_distributed,
)
from sals.partition import assign, greedy_assign, sequential_assign
from sals.solver import SolverParams, factorize
from sals.tensor import Coo, RowGroups, store_from_arrays
from conftest import random_store


class TestDistribute:
    def test_single_machine_holds_everything_once(self, rng):
        store = random_store(rng, (6, 5, 4), 50)
        workers = distribute(store, greedy_assign(store, 1))
        assert len(workers) == 1
        assert workers[0].positions.tolist() == list(range(store.nnz))

    def test_replication_bounded_by_dimension(self, rng):
        store = random_store(rng, (12, 10, 8), 200)
        assignment = sequential_assign(store, 4)
        workers = distribute(store, assignment)
        counts = np.zeros(store.nnz, dtype=int)
        for w in workers:
            counts[w.positions] += 1
        assert counts.min() >= 1
        assert counts.max() <= store.n_modes

    def test_membership_matches_definition(self, rng):
        store = random_store(rng, (9, 7, 5), 120)
        assignment = assign(store, "random", 3, seed=2)
        workers = distribute(store, assignment)
        owners = assignment.owners
        for m, w in enumerate(workers):
            expected = np.zeros(store.nnz, dtype=bool)
            for n in range(3):
                expected |= owners[n][store.idx[:, n]] == m
            assert np.array_equal(np.flatnonzero(expected), w.positions)

    def test_fully_owned_entry_lives_on_one_machine(self):
        # machine 1 owns row 1 of both modes; entry (1,1) appears only there
        store = store_from_arrays([[0, 0], [1, 1]], [1.0, 2.0], (2, 2))
        assignment = sequential_assign(store, 2)
        workers = distribute(store, assignment)
        assert workers[0].positions.tolist() == [0]
        assert workers[1].positions.tolist() == [1]

    def test_owned_buckets_are_complete(self, rng):
        store = random_store(rng, (8, 6, 7), 100)
        assignment = greedy_assign(store, 3)
        workers = distribute(store, assignment)
        for m, w in enumerate(workers):
            for n in range(3):
                rows, order, ptr, _ = w.groups[n]
                assert np.array_equal(rows, assignment.rows(m, n))
                assert ptr[0] == 0 and ptr[-1] == order.size
                for r, row in enumerate(rows):
                    local = order[ptr[r]:ptr[r + 1]]
                    assert np.array_equal(w.positions[local], store.bucket(n, int(row)))

    @pytest.mark.parametrize("strategy", ["greedy", "sequential", "random"])
    @pytest.mark.parametrize("lengths", [(11, 7), (9, 7, 5), (6, 5, 4, 3)])
    def test_worker_groups_are_the_row_kernel_layout(self, rng, strategy, lengths):
        # Each worker keeps, per mode, the row kernel's input: its owned rows'
        # buckets at local positions, with the other modes' index columns.
        store = random_store(rng, lengths, 150)
        assignment = assign(store, strategy, 3, seed=5)
        workers = distribute(store, assignment)
        for m, w in enumerate(workers):
            brute = np.zeros(store.nnz, dtype=bool)
            for n in range(store.n_modes):
                for row in assignment.rows(m, n):
                    brute[store.idx[:, n] == row] = True
            assert np.array_equal(assignment.held(store, m), np.flatnonzero(brute))
            assert assignment.union_loads[m] == w.positions.size
            assert w.positions.dtype == store.mode_perm[0].dtype
            for n in range(store.n_modes):
                g = w.groups[n]
                assert isinstance(g, RowGroups)
                assert g.order.dtype == store.mode_perm[0].dtype
                for k in range(store.n_modes):
                    if k == n:
                        assert g.cols[k] is None
                    else:
                        assert np.array_equal(g.cols[k], store.idx[w.positions[g.order], k])


def _instance(rng, lengths=(10, 9, 8), nnz=300):
    return random_store(rng, lengths, nnz)


class TestRunDistributed:
    def test_peak_memory_grows_only_by_the_replicas(self):
        # Each worker augments and writes back its residual replica in place,
        # in the serial path's fixed-size chunks, so doubling nnz at fixed
        # mode lengths raises the peak by the replicated entries (indices,
        # values, positions and group orders) and not by an unchunked
        # pass's (nnz, C) temporaries.
        stores = [random_store(np.random.default_rng(n), (100, 100, 100), 1 << n)
                  for n in (17, 18)]
        params = SolverParams(rank=8, n_columns=4, outer_iters=1, lam=0.05, seed=3)
        peaks = []
        for store in stores:
            assignment = greedy_assign(store, 2)
            tracemalloc.start()
            try:
                run_distributed(store, params, assignment)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        added = stores[1].nnz - stores[0].nnz
        assert (peaks[1] - peaks[0]) / added <= 140, peaks

    def test_single_machine_no_traffic_bitwise_serial(self, rng):
        store = _instance(rng)
        params = SolverParams(rank=4, n_columns=2, outer_iters=2, inner_iters=1,
                              lam=0.05, seed=3)
        serial = factorize(store, params)
        model, log = run_distributed(store, params, greedy_assign(store, 1))
        assert int(log.sent.sum()) == 0 and int(log.received.sum()) == 0
        assert log.predicted_exchange() == 0
        assert all(row["exchanged"] == 0 for row in comm_report(log))
        assert all(np.array_equal(a, b) for a, b in zip(model.matrices, serial.matrices))

    @pytest.mark.parametrize("strategy", ["greedy", "sequential", "random"])
    def test_multi_machine_bitwise_serial(self, rng, strategy):
        store = _instance(rng)
        params = SolverParams(rank=4, n_columns=3, outer_iters=2, inner_iters=2,
                              lam=0.02, regularization="weighted", seed=8)
        serial = factorize(store, params)
        assignment = assign(store, strategy, 4, seed=5)
        model, _ = run_distributed(store, params, assignment, check_replicas=True)
        assert all(np.array_equal(a, b) for a, b in zip(model.matrices, serial.matrices))

    def test_workers_without_rows_in_a_mode(self, rng):
        # mode 0 has fewer rows than machines: some workers broadcast empty
        # payloads there, yet the run still reproduces the serial model
        store = random_store(rng, (5, 9, 30), 250)
        params = SolverParams(rank=3, n_columns=2, outer_iters=2, inner_iters=1,
                              lam=0.05, seed=12)
        serial = factorize(store, params)
        assignment = greedy_assign(store, 7)
        model, log = run_distributed(store, params, assignment, check_replicas=True)
        assert all(np.array_equal(a, b) for a, b in zip(model.matrices, serial.matrices))
        expected = params.inner_iters * params.rank * sum(store.mode_lengths)
        assert all(int(rec["sent"].sum()) == expected for rec in log.iterations)

    def test_lambda_zero_skips_match_serial(self, rng):
        # sparse instance: many empty rows give singular systems at lam=0;
        # skipped rows must retain identical values on every path
        store = random_store(rng, (30, 30, 30), 40)
        params = SolverParams(rank=2, n_columns=2, outer_iters=2, inner_iters=1,
                              lam=0.0, seed=9)
        serial = factorize(store, params)
        model, _ = run_distributed(store, params, sequential_assign(store, 4),
                                   check_replicas=True)
        assert all(np.array_equal(a, b) for a, b in zip(model.matrices, serial.matrices))

    def test_comm_volume_hand_example(self):
        # two modes of length 4, K=2, C=1, T_in=1, M=2 with an even split:
        # each worker sends C*|mS_n| = 2 per (subset, mode) step, 8 per outer
        # iteration, and exchanges K*T_in*(I_1+I_2) = 16 in total
        idx = np.array([(i, j) for i in range(4) for j in range(4)])
        store = store_from_arrays(idx, np.ones(16), (4, 4))
        params = SolverParams(rank=2, n_columns=1, outer_iters=3, inner_iters=1,
                              lam=0.1, column_order="fixed", seed=0)
        assignment = sequential_assign(store, 2)
        _, log = run_distributed(store, params, assignment)
        for rec in log.iterations:
            assert rec["sent"].tolist() == [8, 8]
            assert rec["received"].tolist() == [8, 8]
        assert log.predicted_exchange() == 16
        for row in comm_report(log):
            assert row["exchanged"] == row["predicted_exchange"] == 16

    def test_total_broadcast_matches_formula(self, rng):
        store = _instance(rng)
        params = SolverParams(rank=5, n_columns=2, outer_iters=2, inner_iters=3,
                              lam=0.05, seed=4)
        assignment = greedy_assign(store, 3)
        _, log = run_distributed(store, params, assignment)
        expected = params.inner_iters * params.rank * sum(store.mode_lengths)
        for rec in log.iterations:
            assert int(rec["sent"].sum()) == expected
        # received totals: every broadcast reaches M-1 workers
        assert int(log.received.sum()) == (assignment.n_machines - 1) * int(log.sent.sum())

    def test_doubling_inner_iters_doubles_traffic(self, rng):
        store = _instance(rng, (8, 8), 40)
        assignment = sequential_assign(store, 2)
        totals = []
        for t_in in (1, 2):
            params = SolverParams(rank=4, n_columns=2, outer_iters=2,
                                  inner_iters=t_in, lam=0.1, seed=6)
            _, log = run_distributed(store, params, assignment)
            totals.append(int(log.sent.sum()))
        assert totals[1] == 2 * totals[0]

    def test_worker_failure_aborts_with_diagnostics(self, rng):
        store = _instance(rng, (8, 8), 40)
        params = SolverParams(rank=2, n_columns=1, outer_iters=2, lam=0.1, seed=1)
        assignment = sequential_assign(store, 3)

        seen = []

        def fault(worker, stamp):
            seen.append(stamp)
            if worker == 2 and stamp.outer == 2 and stamp.mode == 1:
                raise RuntimeError("injected fault")

        with pytest.raises(ClusterError, match="worker 2.*injected fault") as info:
            run_distributed(store, params, assignment, fault_hook=fault)
        cause = info.value.__cause__
        assert isinstance(cause, RuntimeError) and str(cause) == "injected fault"
        assert max(seen) == seen[-1] and (seen[-1].outer, seen[-1].mode) == (2, 1)

    def test_diverged_replica_is_reported(self, rng, monkeypatch):
        # worker 1 corrupts its copy of a mode-0 row it does not own while
        # refitting the last mode, after the mode-0 exchange has run
        from sals import cluster

        store = _instance(rng, (8, 8), 40)
        params = SolverParams(rank=2, n_columns=1, outer_iters=1, lam=0.1, seed=1)
        assignment = sequential_assign(store, 2)
        foreign = int(np.setdiff1d(np.arange(8), assignment.rows(1, 0))[0])
        current = []
        update_rows = cluster.update_rows

        def corrupting(slabs, residual, mode, *args):
            update_rows(slabs, residual, mode, *args)
            if current[-1] == 1 and mode == store.n_modes - 1:
                slabs[0][foreign] += 1.0

        monkeypatch.setattr(cluster, "update_rows", corrupting)
        with pytest.raises(ClusterError, match="worker 1: column replica diverged, mode 0"):
            run_distributed(store, params, assignment, check_replicas=True,
                            fault_hook=lambda m, stamp: current.append(m))

    def test_bad_test_set_fails_before_distribution(self, rng, monkeypatch):
        from sals import cluster

        calls = []
        monkeypatch.setattr(cluster, "distribute", lambda *a: calls.append(a))
        store = _instance(rng, (4, 3), 8)
        params = SolverParams(rank=2, n_columns=1, outer_iters=1, lam=0.1, seed=0)
        test = Coo(np.array([[0, 3]]), np.array([1.0]))
        with pytest.raises(ValueError, match=r"test entry 0: mode 1 index 4 outside \[1, 3\]"):
            run_distributed(store, params, greedy_assign(store, 2), test_entries=test)
        assert calls == []

    def test_hooks_and_csv_export(self, rng, tmp_path):
        store = _instance(rng, (8, 7), 50)
        params = SolverParams(rank=3, n_columns=3, outer_iters=2, lam=0.05, seed=2)
        test = Coo(store.idx[:6], store.values[:6])
        records = []
        _, log = run_distributed(
            store, params, sequential_assign(store, 2),
            test_entries=test, on_iteration=records.append,
        )
        assert len(records) == 2
        assert records[0].test_rmse is not None
        assert records[0].params_sent == int(log.iterations[0]["sent"].sum())
        path = tmp_path / "comm.csv"
        export_comm_csv(log, path)
        columns = ["iteration", "worker", "sent", "received", "flops"]
        expected = [",".join(columns)] + [
            ",".join(str(row[c]) for c in columns) for row in comm_report(log)
        ]
        assert path.read_bytes() == ("\r\n".join(expected) + "\r\n").encode()
        assert len(expected) == 1 + 2 * 2
