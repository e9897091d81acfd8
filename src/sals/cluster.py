"""Deterministic multi-worker simulation of the distributed solver.

M long-lived worker threads each own a row partition, a private replica of
the residual values for the entries they hold, and the current column slabs
of every factor matrix.  Each thread runs the shared schedule driver
(:func:`sals.solver.run_schedule`) with steps that work on its replica.
Workers exchange updated rows only through a broadcast bus; a barrier
separates every step, and each broadcast carries the driver's (outer,
subset, inner, mode) stamp, which receivers verify.  The master model
plays the role of the shared file system: workers read the active columns
from it at the start of a subset and the lead worker writes them back at
the end; neither transfer counts as communication.

Because every worker owns the complete entry bucket of each row it updates
(in canonical order) and runs the same row kernel and evaluator as the
serial solver, the final model is bitwise identical to a serial run with
the same seed.
"""
from __future__ import annotations

import csv
import queue
import threading
import traceback
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .accounting import SolveStats
from .partition import RowAssignment
from .solver import (
    IterationRecord,
    ProgressHook,
    SolverParams,
    Stamp,
    WEIGHTED,
    init_model,
    run_schedule,
    update_rows,
)
from .tensor import (
    FactorModel,
    RowGroups,
    SparseTensorStore,
    _test_arrays,
    evaluate,
    subset_products,
)


class ClusterError(RuntimeError):
    """A worker failed; carries per-worker diagnostics."""


class Message(NamedTuple):
    sender: int
    stamp: Stamp
    rows: np.ndarray
    values: np.ndarray


@dataclass
class WorkerState:
    """One machine's private shard of the problem."""

    machine: int
    positions: np.ndarray                 # global entry positions (canonical order)
    idx: np.ndarray                       # local copy of the index rows
    values: np.ndarray                    # local copy of the observed values
    residual: np.ndarray                  # private residual replica
    groups: list[RowGroups]               # per mode, owned rows and local bucket positions
    lead_global: np.ndarray               # global positions of groups[0]'s entries


def distribute(store: SparseTensorStore, assignment: RowAssignment) -> list[WorkerState]:
    """Replicate entries to every machine whose row sets touch them."""
    owners = [
        assignment.owner_map(n, store.mode_lengths[n]) for n in range(store.n_modes)
    ]
    workers = []
    for m in range(assignment.n_machines):
        mask = np.zeros(store.nnz, dtype=bool)
        for n in range(store.n_modes):
            mask |= owners[n][store.idx[:, n]] == m
        positions = np.flatnonzero(mask)
        idx_local = store.idx[positions]
        vals_local = store.values[positions]
        groups = []
        for n in range(store.n_modes):
            rows, order, ptr = store.groups(n, assignment.sets[m][n])
            groups.append(RowGroups(rows, np.searchsorted(positions, order), ptr))
        workers.append(
            WorkerState(
                m, positions, idx_local, vals_local, vals_local.copy(),
                groups, positions[groups[0].order],
            )
        )
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "worker", "sent", "received", "flops"])
        for rec in log.iterations:
            for m in range(log.n_workers):
                writer.writerow(
                    [rec["iteration"], m, int(rec["sent"][m]),
                     int(rec["received"][m]), int(rec["flops"][m])]
                )


class _Bus:
    """Broadcast mailboxes plus the shared barrier."""

    def __init__(self, n_workers: int):
        self.n_workers = n_workers
        self.queues = [queue.SimpleQueue() for _ in range(n_workers)]
        self.barrier = threading.Barrier(n_workers)

    def broadcast(self, msg: Message) -> None:
        for m in range(self.n_workers):
            if m != msg.sender:
                self.queues[m].put(msg)

    def drain(self, me: int, stamp: Stamp) -> list[Message]:
        got = []
        for _ in range(self.n_workers - 1):
            msg = self.queues[me].get_nowait()
            if msg.stamp != stamp:
                raise AssertionError(
                    f"worker {me}: stamp {msg.stamp} from {msg.sender}, expected {stamp}"
                )
            got.append(msg)
        return got


@dataclass
class _RunContext:
    store: SparseTensorStore
    params: SolverParams
    master: FactorModel
    master_residual: np.ndarray
    bus: _Bus
    log: CommLog
    worker_stats: list[SolveStats]
    test: tuple[np.ndarray, np.ndarray] | None
    on_iteration: ProgressHook | None
    check_replicas: bool
    fault_hook: Callable[[int, Stamp], None] | None
    errors: list[tuple[int, str]] = field(default_factory=list)
    error_lock: threading.Lock = field(default_factory=threading.Lock)


def _worker_loop(ctx: _RunContext, ws: WorkerState) -> None:
    """One worker's steps of the schedule, run by :func:`run_schedule`."""
    m = ws.machine
    n_modes = ctx.store.n_modes
    n_workers = ctx.bus.n_workers
    params = ctx.params
    weighted = params.regularization == WEIGHTED
    stats = ctx.worker_stats[m]
    barrier = ctx.bus.barrier
    counters = ("sent", "received", "flops")
    marks = dict.fromkeys(counters, 0)  # the lead's totals at the last close

    def augment(columns):
        slabs = [ctx.master.matrices[n][:, columns] for n in range(n_modes)]
        ws.residual += subset_products(slabs, ws.idx)
        stats.flops += ws.idx.shape[0] * columns.size * n_modes
        barrier.wait()  # r-hat complete everywhere before any row update
        return slabs

    def refit(slabs, stamp):
        n = stamp.mode
        if ctx.fault_hook is not None:
            ctx.fault_hook(m, stamp)
        update_rows(
            slabs, ws.idx, ws.residual, n, ws.groups[n], params.lam, weighted, stats,
        )
        if n_workers > 1:
            owned = ws.groups[n].rows
            payload = slabs[n][owned]
            ctx.bus.broadcast(Message(m, stamp, owned, payload))
            ctx.log.sent[m] += payload.size
            ctx.log.events[m] += 1
        barrier.wait()  # all broadcasts of this step are delivered
        if n_workers > 1:
            for msg in ctx.bus.drain(m, stamp):
                slabs[msg.stamp.mode][msg.rows] = msg.values
                ctx.log.received[m] += msg.values.size

    def write_back(columns, slabs):
        ws.residual -= subset_products(slabs, ws.idx)
        stats.flops += ws.idx.shape[0] * columns.size * n_modes
        ctx.master_residual[ws.lead_global] = ws.residual[ws.groups[0].order]
        if m == 0:
            for n in range(n_modes):
                ctx.master.matrices[n][:, columns] = slabs[n]
        barrier.wait()  # master model/residual now reflect this subset
        if ctx.check_replicas:
            for n in range(n_modes):
                if not np.array_equal(slabs[n], ctx.master.matrices[n][:, columns]):
                    raise AssertionError(f"worker {m}: column replica diverged, mode {n}")
            if not np.array_equal(ws.residual, ctx.master_residual[ws.positions]):
                raise AssertionError(f"worker {m}: residual replica diverged")
            barrier.wait()

    def close(it):
        ctx.log.flops[m] = stats.flops
        barrier.wait()  # iteration counters final
        record = None
        if m == 0:
            rec = {"iteration": it}
            for key in counters:
                total = getattr(ctx.log, key).copy()
                rec[key], marks[key] = total - marks[key], total
            ctx.log.iterations.append(rec)
            if ctx.on_iteration is not None:
                record = IterationRecord(it, 0.0, *evaluate(
                    float(ctx.master_residual @ ctx.master_residual), [ctx.master.matrices],
                    ctx.store, params.lam, params.regularization, ctx.test,
                ), *(int(rec[key].sum()) for key in counters))
        barrier.wait()  # bookkeeping done; next iteration may start
        return record

    run_schedule(params, n_modes, augment, refit, write_back, close, ctx.on_iteration)


def _worker_main(ctx: _RunContext, ws: WorkerState) -> None:
    try:
        _worker_loop(ctx, ws)
    except threading.BrokenBarrierError:
        pass  # another worker failed; its error is already recorded
    except BaseException as exc:  # noqa: BLE001 - full diagnostics wanted
        with ctx.error_lock:
            ctx.errors.append((ws.machine, f"{exc!r}\n{traceback.format_exc()}"))
        ctx.bus.barrier.abort()


def run_distributed(
    store: SparseTensorStore,
    params: SolverParams,
    assignment: RowAssignment,
    *,
    test_entries=None,
    on_iteration: ProgressHook | None = None,
    check_replicas: bool = False,
    fault_hook: Callable[[int, Stamp], None] | None = None,
) -> tuple[FactorModel, CommLog]:
    """Run the distributed schedule and return the model plus traffic log.

    The result is bitwise identical to :func:`sals.solver.factorize` with
    the same parameters and seed, for any machine count and assignment.
    """
    workers = distribute(store, assignment)
    master, residual = init_model(store, params)
    n_workers = assignment.n_machines
    log = CommLog.empty(
        n_workers, params.rank, params.inner_iters, sum(store.mode_lengths)
    )
    ctx = _RunContext(
        store=store,
        params=params,
        master=master,
        master_residual=residual.values,
        bus=_Bus(n_workers),
        log=log,
        worker_stats=[SolveStats() for _ in range(n_workers)],
        test=_test_arrays(test_entries),
        on_iteration=on_iteration,
        check_replicas=check_replicas,
        fault_hook=fault_hook,
    )
    threads = [
        threading.Thread(
            target=_worker_main, args=(ctx, ws), name=f"sals-worker-{ws.machine}"
        )
        for ws in workers
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if ctx.errors:
        detail = "\n".join(f"worker {m}: {msg}" for m, msg in ctx.errors)
        raise ClusterError(f"distributed run aborted:\n{detail}")
    return master, log
