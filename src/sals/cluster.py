"""Deterministic multi-worker simulation of the distributed solver.

M workers each own a row partition, a private replica of the residual
values for the entries they hold, and their own copy of the active column
slabs of every factor matrix.  One run of the shared schedule driver
(:func:`sals.solver.run_schedule`) steps all of them in lockstep: each
step (augment, refit of one mode, write-back, close) runs on every
worker's replica before the next step starts, which is the ordering a
barrier between machines would give; there are no threads.  After every
worker has refit mode n, each worker's owned rows are copied into every
other worker's slab; these copies are the only communication, and
:class:`CommLog` counts them.  The master model plays the role of the
shared file system: workers read the active columns from it at the start
of a subset and the lead worker's slabs are written back at the end;
neither transfer counts as communication.

Each worker holds the entries its rows touch in any mode (the assignment's
:meth:`~sals.partition.RowAssignment.held` positions) and, built once per
mode, the row kernel's input for its owned rows: the store's
:class:`~sals.tensor.RowGroups` of those rows with positions made local.
Because every worker owns the complete entry bucket of each row it updates
(in canonical order) and runs the serial solver's augment, write-back, row
kernel and record builder, the final model and the records are bitwise
identical to a serial run with the same seed.
"""
from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .accounting import SolveStats
from .partition import RowAssignment
from .solver import (
    ProgressHook,
    Recorder,
    SolverParams,
    Stamp,
    WEIGHTED,
    compute_rhat,
    init_model,
    run_schedule,
    update_residual,
    update_rows,
)
from .tensor import (  # noqa: F401 - subset_products: instrumented by perfbench
    FactorModel,
    RowGroups,
    SparseTensorStore,
    column_dtype,
    subset_products,
    take_columns,
    take_rows,
)


class ClusterError(RuntimeError):
    """A worker's step failed; the message names the worker, the cause is chained."""


@dataclass
class WorkerState:
    """One machine's private shard of the problem."""

    machine: int
    positions: np.ndarray      # global entry positions (canonical order)
    idx: np.ndarray            # local copy of the indices, column-major
    residual: np.ndarray       # private residual replica
    groups: list[RowGroups]    # per mode, the owned rows' buckets at local positions


def distribute(store: SparseTensorStore, assignment: RowAssignment) -> list[WorkerState]:
    """Replicate entries to every machine whose row sets touch them.

    A worker's groups are the store's groups of its owned rows, with their
    entry positions mapped to the worker's local ones.
    """
    position = column_dtype((store.nnz,))
    local = np.empty(store.nnz, dtype=position)  # global -> local, per worker
    workers = []
    for m in range(assignment.n_machines):
        positions = assignment.held(store, m).astype(position)
        local[positions] = np.arange(positions.size, dtype=position)
        groups = []
        for n in range(store.n_modes):
            g = store.groups(n, assignment.rows(m, n))
            groups.append(g._replace(order=take_rows(local, g.order)))
        workers.append(WorkerState(
            m, positions, take_columns(store.idx, positions), store.values[positions], groups,
        ))
    return workers


@dataclass
class CommLog:
    """Parameters sent/received and work done, per worker and per iteration."""

    n_workers: int
    rank: int
    inner_iters: int
    sum_lengths: int
    sent: np.ndarray
    received: np.ndarray
    events: np.ndarray
    flops: np.ndarray
    iterations: list[dict] = field(default_factory=list)

    @classmethod
    def empty(cls, n_workers: int, rank: int, inner_iters: int, sum_lengths: int) -> "CommLog":
        zeros = lambda: np.zeros(n_workers, dtype=np.int64)
        return cls(n_workers, rank, inner_iters, sum_lengths, zeros(), zeros(), zeros(), zeros())

    def predicted_exchange(self) -> int:
        """Closed-form per-worker parameters exchanged per outer iteration."""
        if self.n_workers == 1:
            return 0
        return self.rank * self.inner_iters * self.sum_lengths


def comm_report(log: CommLog) -> list[dict]:
    """Per-(iteration, worker) measured traffic beside the closed-form prediction."""
    predicted = log.predicted_exchange()
    rows = []
    for rec in log.iterations:
        for m in range(log.n_workers):
            sent = int(rec["sent"][m])
            received = int(rec["received"][m])
            rows.append(
                {
                    "iteration": rec["iteration"],
                    "worker": m,
                    "sent": sent,
                    "received": received,
                    "exchanged": sent + received,
                    "predicted_exchange": predicted,
                    "flops": int(rec["flops"][m]),
                }
            )
    return rows


def export_comm_csv(log: CommLog, path) -> None:
    """Write the traffic and flop columns of :func:`comm_report` as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, ["iteration", "worker", "sent", "received", "flops"], extrasaction="ignore",
        )
        writer.writeheader()
        writer.writerows(comm_report(log))


@contextmanager
def _blame(machine: int, stamp: Stamp | None = None):
    """Turn an error in one worker's step into a :class:`ClusterError` naming it."""
    try:
        yield
    except Exception as exc:
        where = f"worker {machine}" if stamp is None else f"worker {machine}: {stamp}"
        raise ClusterError(f"{where}: {exc}") from exc


def _worker_loop(
    store: SparseTensorStore,
    params: SolverParams,
    workers: list[WorkerState],
    master: FactorModel,
    master_residual: np.ndarray,
    log: CommLog,
    recorder: Recorder,
    check_replicas: bool,
    fault_hook: Callable[[int, Stamp], None] | None,
) -> list[SolveStats]:
    """Every worker's steps of the schedule, run in lockstep by :func:`run_schedule`.

    Each step finishes on every worker before the next step starts.
    Returns each worker's counters.
    """
    n_modes = store.n_modes
    weighted = params.regularization == WEIGHTED
    stats = [SolveStats() for _ in workers]
    counters = ("sent", "received", "flops")
    marks = dict.fromkeys(counters, 0)  # the totals at the last close

    def augment(columns):
        replicas = []
        for ws in workers:
            with _blame(ws.machine):
                slabs = [master.matrices[n][:, columns] for n in range(n_modes)]
                compute_rhat(ws.residual, slabs, ws.idx, stats[ws.machine])
            replicas.append(slabs)
        return replicas

    def refit(replicas, stamp):
        n = stamp.mode
        for ws, slabs in zip(workers, replicas):
            with _blame(ws.machine, stamp):
                if fault_hook is not None:
                    fault_hook(ws.machine, stamp)
                update_rows(slabs, ws.residual, n, ws.groups[n], params.lam, weighted,
                            stats[ws.machine])
        if len(workers) == 1:
            return
        for ws, slabs in zip(workers, replicas):  # broadcast every worker's owned rows
            owned = ws.groups[n].rows
            payload = take_rows(slabs[n], owned)
            for other, other_slabs in zip(workers, replicas):
                if other is not ws:
                    other_slabs[n][owned] = payload
                    log.received[other.machine] += payload.size
            log.sent[ws.machine] += payload.size
            log.events[ws.machine] += 1

    def merge_residual():  # only the records' loss and the replica check read it
        for ws in workers:
            order = ws.groups[0].order
            master_residual[take_rows(ws.positions, order)] = take_rows(ws.residual, order)

    def measure():
        merge_residual()
        return float(master_residual @ master_residual), [master.matrices]

    def write_back(columns, replicas):
        for ws, slabs in zip(workers, replicas):
            with _blame(ws.machine):
                update_residual(ws.residual, slabs, ws.idx, stats[ws.machine])
        for n in range(n_modes):
            master.matrices[n][:, columns] = replicas[0][n]
        if check_replicas:
            merge_residual()
            for ws, slabs in zip(workers, replicas):
                for n in range(n_modes):
                    if not np.array_equal(slabs[n], master.matrices[n][:, columns]):
                        raise ClusterError(
                            f"worker {ws.machine}: column replica diverged, mode {n}"
                        )
                if not np.array_equal(ws.residual, master_residual[ws.positions]):
                    raise ClusterError(f"worker {ws.machine}: residual replica diverged")

    def close(it):
        log.flops[:] = [s.flops for s in stats]
        rec = {"iteration": it}
        for key in counters:
            total = getattr(log, key).copy()
            rec[key], marks[key] = total - marks[key], total
        log.iterations.append(rec)
        recorder.close(it, measure, int(log.flops.sum()), params_sent=int(rec["sent"].sum()),
                       params_received=int(rec["received"].sum()))

    run_schedule(params, n_modes, augment, refit, write_back, close)
    return stats


def run_distributed(
    store: SparseTensorStore,
    params: SolverParams,
    assignment: RowAssignment,
    *,
    test_entries=None,
    on_iteration: ProgressHook | None = None,
    check_replicas: bool = False,
    fault_hook: Callable[[int, Stamp], None] | None = None,
    stats: SolveStats | None = None,
) -> tuple[FactorModel, CommLog]:
    """Run the distributed schedule and return the model plus traffic log.

    The result is bitwise identical to :func:`sals.solver.factorize` with
    the same parameters and seed, for any machine count and assignment.
    The workers' counters are merged into ``stats`` when it is given.
    A failing worker step raises :class:`ClusterError`.
    """
    # checks the test set before the entries are replicated
    recorder = Recorder(store, params.lam, params.regularization, test_entries, on_iteration)
    workers = distribute(store, assignment)
    master, residual = init_model(store, params)
    log = CommLog.empty(
        assignment.n_machines, params.rank, params.inner_iters, sum(store.mode_lengths)
    )
    recorder.start()
    worker_stats = _worker_loop(
        store, params, workers, master, residual, log, recorder, check_replicas, fault_hook,
    )
    if stats is not None:
        for ws_stats in worker_stats:
            stats.merge(ws_stats)
    return master, log
