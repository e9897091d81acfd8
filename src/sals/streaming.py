"""Out-of-core execution of the subset-ALS schedule.

Residual entries live in per-mode binary caches on disk (grouped by the
mode's rows) and the factors in a :class:`~sals.tensor.ColumnStore` mapped
from ``factors/factor_<n>.bin``; only the active C columns of each factor
are loaded as slabs at a time.  Per mode ``n`` the cache directory holds
``idx_m<n>.bin``, the entries' indices, written once at set-up, and
``r_m<n>.bin``, the mode's one copy of the residual values.  The shared
schedule driver (:func:`sals.solver.run_schedule`) runs with steps that work
on the caches: per column subset, augment rewrites each value file in place
into r-hat, each refit streams one mode's r-hat and hands its complete row
groups to the serial row kernel, write back rewrites r-hat in place into the
residual, and close measures the residual in one pass over a value file.
Two of these passes ride on refits: mode 0's augment on the subset's first
refit, which augments each chunk as it reads it, and the last mode's
write-back on the subset's last refit, which writes back each run of rows
once it is refit.  A subset thus streams N * T_in + 2N - 2 passes, not
N * (T_in + 2): one pass at N = 1 and T_in = 1.  The column store's meter
counts the loaded slabs' values; its peak stays at C * sum(I_n) during the
loop (plus a transient of one full factor per mode while the initial model
is written out), as the fused passes hold no second set of slabs.

The row groups keep canonical order within each row, so a streaming run
reproduces the in-memory model bit for bit.
"""
from __future__ import annotations

import tempfile
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio
from .accounting import SolveStats
from .dataio import CacheWriter, cache_pair, check_chunk_records, write_residual_caches
from .solver import (  # noqa: F401 - normal_eq_arrays, solve_row: instrumented by perfbench
    ProgressHook,
    Recorder,
    SolverParams,
    WEIGHTED,
    compute_rhat,
    init_columns,
    normal_eq_arrays,
    run_schedule,
    solve_row,
    update_residual,
    update_rows,
)
from .tensor import (  # noqa: F401 - subset_products: instrumented by perfbench
    ColumnStore,
    FactorModel,
    RowGroups,
    SparseTensorStore,
    subset_products,
)


@dataclass
class StreamingRun:
    """Handle to a finished streaming run; the model stays on disk."""

    column_store: ColumnStore
    lam: float
    peak_resident_values: int
    _tmp: tempfile.TemporaryDirectory | None = None

    def load_model(self) -> FactorModel:
        return self.column_store.read_model(self.lam)

    def cleanup(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None


def _value_pass(
    cache: Path,
    written: dict[Path, dict],
    step,
    slabs: list[np.ndarray],
    stats: SolveStats,
    chunk_records: int,
    modes,
) -> None:
    """Rewrite the value files of ``modes`` in place by ``step``, :func:`compute_rhat`
    or :func:`update_residual`, applied to a copy of every chunk's values.

    Each chunk is read before it is overwritten and writes never get ahead
    of reads, so one file is both input and output; the index file is only read.
    """
    for n in modes:
        pair = cache_pair(cache, n)
        with CacheWriter.rewrite(pair[1]) as writer:

            def visit(idx, values, acc):
                values = values.copy()
                step(values, slabs, idx, stats)
                writer.append(None, values)
                return acc

            dataio.stream_pass(pair, visit, expected=written, chunk_records=chunk_records)
            written.update(writer.close())


def _update_mode_streaming(
    path: tuple[Path, Path],
    expected: dict[Path, dict],
    slabs: list[np.ndarray],
    mode: int,
    absent: RowGroups,
    lam: float,
    weighted: bool,
    stats: SolveStats,
    chunk_records: int,
    *,
    augment: bool = False,
    write_back: bool = False,
) -> None:
    """One row-refit pass over a mode-grouped cache pair holding r-hat.

    Each chunk's complete row groups go to :func:`update_rows`, delimited by
    their row heads; the last group may continue in the next chunk and is
    carried over.  The ``absent`` group's ``empty`` rows, whose buckets are
    empty and so not cached, go to :func:`update_rows` at the end, which
    settles them without a batch.

    With ``augment`` the value file still holds the residual: each chunk is
    turned into r-hat by :func:`compute_rhat` as it is read.  A row is refit
    only once all its entries are read, so the slabs still hold the values
    the augment needs.  With ``write_back`` each run of refit rows is turned
    back into the residual by :func:`update_residual` right after its refit,
    which must then be the subset's last.  Either way the refit rows' values
    are written back in place, behind the reads, and ``expected`` gets the
    value file's new writer record.
    """
    rewrite = augment or write_back

    def refit_groups(idx, values, end):
        rows = idx[:end, mode]
        heads = np.flatnonzero(np.diff(rows, prepend=-1))
        cols = tuple(None if m == mode else idx[:end, m] for m in range(len(slabs)))
        groups = RowGroups(rows[heads], None, np.append(heads, end), cols, rows[:0])
        update_rows(slabs, values[:end], mode, groups, lam, weighted, stats)
        if write_back:
            update_residual(values[:end], slabs, idx[:end], stats)
        if rewrite:
            writer.append(None, values[:end])

    def visit(idx, values, carry):
        if rewrite:
            values = values.copy()
            if augment:
                compute_rhat(values, slabs, idx, stats)
        if carry is not None:
            idx, values = np.concatenate([carry[0], idx]), np.concatenate([carry[1], values])
        tail = int(np.searchsorted(idx[:, mode], idx[-1, mode]))
        refit_groups(idx, values, tail)
        return idx[tail:], values[tail:]

    with CacheWriter.rewrite(path[1]) if rewrite else nullcontext() as writer:
        carry = dataio.stream_pass(path, visit, expected=expected, chunk_records=chunk_records)
        if carry is not None:
            refit_groups(*carry, carry[1].size)
        if rewrite:
            expected.update(writer.close())
    update_rows(slabs, np.empty(0), mode, absent, lam, weighted, stats)


def stream_factorize(
    store: SparseTensorStore,
    params: SolverParams,
    *,
    workdir=None,
    test_entries=None,
    on_iteration: ProgressHook | None = None,
    stats: SolveStats | None = None,
    chunk_records: int = 1 << 16,
) -> StreamingRun:
    """Run the full schedule out of core and leave the model on disk.

    Matches :func:`sals.solver.factorize` exactly for the same parameters
    and seed.  Use ``StreamingRun.load_model`` to materialize the result
    (that load happens outside the metered loop).  Without ``workdir`` the
    run works in a temporary directory.  A run that raises removes the files
    and directories it made, the temporary directory included.
    """
    stats = stats if stats is not None else SolveStats()
    # checks the chunk size and the test set before any file is written
    check_chunk_records(chunk_records)
    recorder = Recorder(store, params.lam, params.regularization, test_entries, on_iteration,
                        flops=stats.flops)
    tmp = None if workdir is not None else tempfile.TemporaryDirectory(prefix="sals-stream-")
    workdir = Path(workdir if tmp is None else tmp.name)
    factors, cache = workdir / "factors", workdir / "cache"
    made = [d for d in (workdir, factors, cache) if not d.exists()]
    try:
        colstore = init_columns(store.mode_lengths, params, factors)
        written: dict[Path, dict] = {}  # each cache file's writer record, checked on reads
        write_residual_caches(store, cache, written, chunk_records)

        weighted = params.regularization == WEIGHTED
        empty = [np.flatnonzero(store.bucket_sizes(n) == 0) for n in range(store.n_modes)]
        absent = [RowGroups(rows[:0], rows[:0], np.zeros(1, int), (), rows) for rows in empty]

        last = store.n_modes - 1

        def augment(slabs):  # mode 0's augment rides on its first refit
            _value_pass(cache, written, compute_rhat, slabs, stats, chunk_records,
                        range(1, store.n_modes))

        def refit(slabs, stamp):
            n = stamp.mode
            _update_mode_streaming(
                cache_pair(cache, n), written, slabs, n, absent[n], params.lam, weighted, stats,
                chunk_records, augment=stamp.inner == 0 and n == 0,
                write_back=stamp.inner == params.inner_iters - 1 and n == last,
            )

        def write_back(slabs):  # the last mode's write-back rode on its last refit
            _value_pass(cache, written, update_residual, slabs, stats, chunk_records,
                        range(last))

        def measure():
            resid_sq = dataio.stream_pass(
                cache_pair(cache, 0), _sum_squares, expected=written,
                chunk_records=chunk_records,
            )
            return resid_sq or 0.0, colstore.blocks(params.n_columns)

        recorder.start()
        run_schedule(params, colstore, augment, refit, write_back,
                     lambda it: recorder.close(it, measure, stats.flops))
    except BaseException:  # a failed run leaves no scratch files behind
        for n in range(store.n_modes):
            for path in (factors / f"factor_{n}.bin", *cache_pair(cache, n)):
                path.unlink(missing_ok=True)
        for directory in reversed(made):
            with suppress(OSError):  # holds files this run did not write
                directory.rmdir()
        if tmp is not None:
            tmp.cleanup()
        raise
    return StreamingRun(colstore, params.lam, colstore.meter.peak, _tmp=tmp)


def _sum_squares(idx, values, acc):
    return (0.0 if acc is None else acc) + float(values @ values)
