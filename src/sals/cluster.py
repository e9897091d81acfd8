"""Deterministic multi-worker simulation of the distributed solver.

M workers each own a row partition, a private replica of the residual
values for the entries they hold, and their own copy of the active column
slabs of every factor matrix.  One run of the shared schedule driver
(:func:`sals.solver.run_schedule`) steps all of them in lockstep: each
step (augment, refit of one mode, write-back, close) runs on every
worker's replica before the next step starts, which is the ordering a
barrier between machines would give; there are no threads.  After every
worker has refit mode n, each worker's owned rows, empty ones included, are
copied into every other worker's slab; these copies are the only
communication, and :class:`CommLog` counts them.  The master column store
plays the role of the shared file system: the driver reads the active
columns from it once at the start of a subset, as the lead worker's slabs,
the other workers copy them at the subset's first refit, and the driver
writes the lead worker's slabs back at the end; neither transfer counts as
communication.

Each worker holds the entries its rows touch in any mode (the assignment's
:meth:`~sals.partition.RowAssignment.held` positions), its owned mode-0
rows' entries first, and, built once per mode, the row kernel's input for
its owned rows: the :class:`~sals.tensor.RowGroups` of those rows at local
positions, which mode 0 and the record slice as the serial path does.
Because every worker owns the complete entry bucket of each row it updates
(in canonical order) and runs the serial solver's augment, write-back, row
kernel and record builder, the final model and the records are bitwise
identical to a serial run with the same seed.  No residual is merged: a
record reads each worker's owned mode-0 rows from its own replica.
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
    init_columns,
    run_schedule,
    update_residual,
    update_rows,
)
from .tensor import (  # noqa: F401 - subset_products: instrumented by perfbench
    ColumnStore,
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
    positions: np.ndarray      # global entry positions: owned mode-0 rows' entries, then the rest
    idx: np.ndarray            # its entries' indices, column-major
    residual: np.ndarray       # private residual replica
    groups: list[RowGroups]    # per mode, the owned rows' buckets at local positions


def distribute(store: SparseTensorStore, assignment: RowAssignment) -> list[WorkerState]:
    """Replicate entries to every machine whose row sets touch them.

    Each entry's owner in every mode is looked up once for all machines.
    A worker's local entries are its owned mode-0 rows' entries, then the
    rest it holds, each run in canonical order, so its mode-0 groups are
    the serial layout (``order`` is ``None``, columns sliced from its
    ``idx``); its other modes' groups are the store's groups of its owned
    rows at local positions.  A worker whose mode-0 rows cover every entry
    (M = 1) shares the store's ``idx`` and groups.  Its residual replica
    starts as its entries' x + 0.0.  An assignment made for a store of
    another shape raises ``ValueError``.
    """
    if assignment.n_modes != store.n_modes:
        raise ValueError(f"assignment has {assignment.n_modes} modes, the store {store.n_modes}")
    for n, (owners, length) in enumerate(zip(assignment.owners, store.mode_lengths)):
        if owners.size != length:
            raise ValueError(f"mode {n}: assignment has {owners.size} rows, the store {length}")
    nnz, n_modes = store.nnz, store.n_modes
    position = column_dtype((nnz,))
    machine = np.min_scalar_type(assignment.n_machines - 1)
    # per mode, the owner of each entry's row
    owner_of = [take_rows(owners.astype(machine), store.idx[:, n])
                for n, owners in enumerate(assignment.owners)]
    local = np.empty(nnz, dtype=position)  # global -> local, per worker
    workers = []
    for m in range(assignment.n_machines):
        mine = [assignment.rows(m, n) for n in range(n_modes)]
        rows, empty, ptr = store.split_rows(0, mine[0])
        n0 = int(ptr[-1])
        head = owner_of[0] == m
        rest = np.zeros(nnz, dtype=bool)
        for owner in owner_of[1:]:
            rest |= owner == m
        rest &= ~head
        positions = np.concatenate([np.flatnonzero(head), np.flatnonzero(rest)])  # intp
        residual = store.values[positions]
        residual += 0.0  # the canonical residual, with no -0.0 (see run_schedule)
        if n0 == nnz:  # every entry in canonical order: local positions are global
            idx = store.idx
            groups = [store.groups(n, None if mine[n].size == store.mode_lengths[n] else mine[n])
                      for n in range(1, n_modes)]
        else:
            local[positions] = np.arange(positions.size, dtype=position)
            groups = [g._replace(order=take_rows(local, g.order))
                      for g in (store.groups(n, mine[n]) for n in range(1, n_modes))]
            idx = take_columns(store.idx, positions)  # after the groups' temporaries: a lower heap
        cols = (None,) + tuple(idx[:n0, k] for k in range(1, n_modes))
        groups.insert(0, RowGroups(rows, None, ptr, cols, empty))
        workers.append(WorkerState(m, positions.astype(position), idx, residual, groups))
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
    master: ColumnStore,
    log: CommLog,
    recorder: Recorder,
    check_replicas: bool,
    fault_hook: Callable[[int, Stamp], None] | None,
) -> list[SolveStats]:
    """Every worker's steps of the schedule, run in lockstep by :func:`run_schedule`.

    Each step finishes on every worker before the next step starts.  The
    last subset writes back only for a reader: a progress hook or
    ``check_replicas``.  Returns each worker's counters.
    """
    n_modes = store.n_modes
    weighted = params.regularization == WEIGHTED
    stats = [SolveStats() for _ in workers]
    counters = ("sent", "received", "flops")
    marks = dict.fromkeys(counters, 0)  # the totals at the last close
    # per worker and mode, the rows it broadcasts: all it owns, empty ones included
    owned = [[np.concatenate([g.rows, g.empty]) for g in ws.groups] for ws in workers]
    replicas = []  # per worker, the active slabs; the lead worker's are the driver's

    def augment(slabs):  # before the subset's first refit every replica equals the driver's
        for ws in workers:
            with _blame(ws.machine):
                compute_rhat(ws.residual, slabs, ws.idx, stats[ws.machine])

    def refit(driver_slabs, stamp):
        n = stamp.mode
        if stamp.inner == 0 and n == 0:  # the subset's first refit: the others copy the slabs
            replicas[:] = [driver_slabs] + [[s.copy() for s in driver_slabs] for _ in workers[1:]]
        for ws, slabs in zip(workers, replicas):
            with _blame(ws.machine, stamp):
                if fault_hook is not None:
                    fault_hook(ws.machine, stamp)
                update_rows(slabs, ws.residual, n, ws.groups[n], params.lam, weighted,
                            stats[ws.machine])
        if len(workers) == 1:
            return
        for ws, slabs in zip(workers, replicas):  # broadcast every worker's owned rows
            rows = owned[ws.machine][n]
            payload = take_rows(slabs[n], rows)
            for other, other_slabs in zip(workers, replicas):
                if other is not ws:
                    other_slabs[n][rows] = payload
                    log.received[other.machine] += payload.size
            log.sent[ws.machine] += payload.size
            log.events[ws.machine] += 1

    def write_back(_):
        for ws, slabs in zip(workers, replicas):
            with _blame(ws.machine):
                update_residual(ws.residual, slabs, ws.idx, stats[ws.machine])
        if check_replicas:
            merged = np.empty(store.nnz)  # each entry as its mode-0 row's owner holds it
            for ws in workers:  # a worker's owned mode-0 entries lead its replica
                n0 = ws.groups[0].ptr[-1]
                merged[ws.positions[:n0]] = ws.residual[:n0]
            for ws, slabs in zip(workers, replicas):
                for n in range(n_modes):
                    if not np.array_equal(slabs[n], replicas[0][n]):
                        raise ClusterError(
                            f"worker {ws.machine}: column replica diverged, mode {n}"
                        )
                if not np.array_equal(ws.residual, merged[ws.positions]):
                    raise ClusterError(f"worker {ws.machine}: residual replica diverged")

    def close(it):
        log.flops[:] = [s.flops for s in stats]
        rec = {"iteration": it}
        for key in counters:
            total = getattr(log, key).copy()
            rec[key], marks[key] = total - marks[key], total
        log.iterations.append(rec)
        recorder.close(it, [(ws.groups[0], ws.residual) for ws in workers],
                       master.blocks(params.n_columns), int(log.flops.sum()),
                       params_sent=int(rec["sent"].sum()),
                       params_received=int(rec["received"].sum()))

    run_schedule(params, master, augment, refit, write_back, close,
                 keep_residual=check_replicas or recorder.on_iteration is not None)
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
    master = init_columns(store.mode_lengths, params)
    log = CommLog.empty(
        assignment.n_machines, params.rank, params.inner_iters, sum(store.mode_lengths)
    )
    recorder.start()
    worker_stats = _worker_loop(
        store, params, workers, master, log, recorder, check_replicas, fault_hook,
    )
    if stats is not None:
        for ws_stats in worker_stats:
            stats.merge(ws_stats)
    return master.read_model(params.lam), log
