"""Out-of-core execution of the subset-ALS schedule.

Residual entries live in per-mode binary caches on disk (grouped by the
mode's rows) and the factors in a :class:`~sals.tensor.ColumnStore` mapped
from ``factors/factor_<n>.bin``; only the active C columns of each factor
are loaded as slabs at a time.  Per mode ``n`` the cache directory holds
``idx_m<n>_<m>.bin``, the entries' mode-m indices for every other mode m,
each column contiguous across its file and written once at set-up (int16
while every mode is shorter than 2^15 rows, 2 (N - 1) bytes an entry), and
``r_m<n>.bin``, the mode's one copy of the residual values (see
:mod:`sals.dataio`, ``CACHE_VERSION`` 4).  The mode's own index is not
cached: every pass over mode n's cache reads it in the row kernel's own
batches of the mode's filled rows at the subset's slab width (C, or K mod
C), so each chunk's rows and row heads come from the bucket sizes, and its
entries' own factor rows are its rows' slab rows repeated over their
buckets.  A chunk is read straight into an F-ordered (records, N - 1)
index array and a writable value vector.  The shared schedule driver
(:func:`sals.solver.run_schedule`) runs with steps that work on the caches:
per column subset, augment rewrites each value file in place into r-hat,
each refit streams one mode's r-hat to the serial row kernel, write back
rewrites r-hat in place into the residual, and close hands mode 0's value
file chunks to the record builder as runs of whole rows.  Two of these
passes ride on refits: mode 0's augment on the subset's first refit and the
last mode's write-back on the subset's last refit, each done chunk by chunk.
A subset thus streams N * T_in + 2N - 2 passes, not N * (T_in + 2): one
pass at N = 1 and T_in = 1.  The column store counts the loaded slabs'
values; their peak stays at C * sum(I_n) during the loop (plus a
transient of one full factor per mode while the initial model is written
out), as the fused passes hold no second set of slabs.

The row groups keep canonical order within each row, so a streaming run
reproduces the in-memory model and records bit for bit.
"""
from __future__ import annotations

import tempfile
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np

from . import dataio
from .accounting import SolveStats
from .dataio import CacheWriter, cache_files, write_residual_caches
from .solver import (  # noqa: F401 - normal_eq_arrays, solve_row: instrumented by perfbench
    ProgressHook,
    Recorder,
    SolverParams,
    WEIGHTED,
    _batches,
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
    column_dtype,
    subset_products,
    take_rows,
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


class _ModeChunks:
    """Mode ``mode``'s cache chunks at one slab width: the row kernel's batches
    (:func:`sals.solver._batches`) over the mode's filled ``rows``, whose
    buckets ``ptr`` bounds.  Both come from the bucket sizes alone, so a
    chunk's rows and row heads are known before it is read."""

    def __init__(self, mode: int, rows: np.ndarray, ptr: np.ndarray, width: int):
        self.mode, self.rows, self.ptr = mode, rows, ptr
        self.bounds = list(_batches(ptr, width))
        self.counts = [int(ptr[r1] - ptr[r0]) for r0, r1 in self.bounds]  # records per chunk

    def groups(self, k: int, idx: np.ndarray) -> RowGroups:
        """Chunk ``k``, read as ``idx`` (the other modes' columns), as one row group."""
        r0, r1 = self.bounds[k]
        cols = list(idx.T)
        cols.insert(self.mode, None)
        rows = self.rows[r0:r1]
        return RowGroups(rows, None, self.ptr[r0:r1 + 1] - self.ptr[r0], tuple(cols), rows[:0])

    def own(self, slabs: list[np.ndarray], groups: RowGroups) -> tuple[int, np.ndarray]:
        """The chunk entries' own factor rows: each row's slab row over its bucket."""
        rows = take_rows(slabs[self.mode], groups.rows)
        return self.mode, np.repeat(rows, np.diff(groups.ptr), axis=0)


def _value_pass(
    cache: Path,
    written: dict[Path, dict],
    chunks: dict[int, list[_ModeChunks]],
    step,
    slabs: list[np.ndarray],
    stats: SolveStats,
    modes,
) -> None:
    """Rewrite the value files of ``modes`` in place by ``step``, :func:`compute_rhat`
    or :func:`update_residual`, applied to every chunk's values; mode n's
    cache is read in ``chunks[C][n]``, at the slabs' width C.

    Each chunk is read before it is overwritten and writes never get ahead
    of reads, so one file is both input and output; the column files are only read.
    """
    for n in modes:
        files, plan = cache_files(cache, n, len(slabs)), chunks[slabs[0].shape[1]][n]
        chunk = count()
        with CacheWriter.rewrite(files[-1]) as writer:

            def visit(idx, values, acc):
                step(values, slabs, idx, stats, plan.own(slabs, plan.groups(next(chunk), idx)))
                writer.append(None, values)
                return acc

            dataio.stream_pass(files, visit, expected=written, chunks=plan.counts)
            written.update(writer.close())


def _update_mode_streaming(
    files: tuple[Path, ...],
    expected: dict[Path, dict],
    chunks: dict[int, list[_ModeChunks]],
    slabs: list[np.ndarray],
    mode: int,
    absent: RowGroups,
    lam: float,
    weighted: bool,
    stats: SolveStats,
    *,
    augment: bool = False,
    write_back: bool = False,
) -> None:
    """One row-refit pass over a mode-grouped cache holding r-hat.

    The cache is read in ``chunks[C][mode]``, the row kernel's own batches
    at the slabs' width C, so each chunk holds whole rows and goes to
    :func:`update_rows` as one group.  The ``absent`` group's ``empty`` rows,
    whose buckets are empty and so not cached, go to :func:`update_rows` at
    the end, which settles them without a batch.

    With ``augment`` the value file still holds the residual: each chunk is
    turned into r-hat by :func:`compute_rhat` before its refit.  With
    ``write_back`` each chunk is turned back into the residual by
    :func:`update_residual` right after its refit, which must then be the
    subset's last.  Either way the chunk's values are written back in place,
    behind the reads, and ``expected`` gets the value file's new writer record.
    """
    rewrite, plan, chunk = augment or write_back, chunks[slabs[0].shape[1]][mode], count()

    def visit(idx, values, acc):
        groups = plan.groups(next(chunk), idx)
        if augment:
            compute_rhat(values, slabs, idx, stats, plan.own(slabs, groups))
        update_rows(slabs, values, mode, groups, lam, weighted, stats)
        if write_back:  # the own rows as refit
            update_residual(values, slabs, idx, stats, plan.own(slabs, groups))
        if rewrite:
            writer.append(None, values)
        return acc

    with CacheWriter.rewrite(files[-1]) if rewrite else nullcontext() as writer:
        dataio.stream_pass(files, visit, expected=expected, chunks=plan.counts)
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
) -> StreamingRun:
    """Run the full schedule out of core and leave the model on disk.

    Matches :func:`sals.solver.factorize` exactly for the same parameters
    and seed.  Use ``StreamingRun.load_model`` to materialize the result
    (that load happens outside the metered loop).  Without ``workdir`` the
    run works in a temporary directory.  A run that raises removes the files
    and directories it made, the temporary directory included.
    """
    stats = stats if stats is not None else SolveStats()
    # checks the test set before any file is written
    recorder = Recorder(store, params.lam, params.regularization, test_entries, on_iteration,
                        flops=stats.flops)
    tmp = None if workdir is not None else tempfile.TemporaryDirectory(prefix="sals-stream-")
    workdir = Path(workdir if tmp is None else tmp.name)
    factors, cache, n_modes = workdir / "factors", workdir / "cache", store.n_modes
    made = [d for d in (workdir, factors, cache) if not d.exists()]
    try:
        colstore = init_columns(store.mode_lengths, params, factors)
        sizes = [store.bucket_sizes(n) for n in range(n_modes)]
        filled = [np.flatnonzero(size).astype(column_dtype(store.mode_lengths)) for size in sizes]
        ptrs = [np.append(0, np.cumsum(size[size > 0])) for size in sizes]
        # per slab width (C, and K mod C if not 0) each mode's cache chunks: the kernel's batches
        chunks = {width: [_ModeChunks(n, filled[n], ptrs[n], width) for n in range(n_modes)]
                  for width in {params.n_columns, params.rank % params.n_columns} - {0}}
        written: dict[Path, dict] = {}  # each cache file's writer record, checked on reads
        write_residual_caches(store, cache, written,
                              [plan.counts for plan in chunks[params.n_columns]])

        weighted, last = params.regularization == WEIGHTED, n_modes - 1
        empty = [np.flatnonzero(size == 0) for size in sizes]
        absent = [RowGroups(rows[:0], rows[:0], np.zeros(1, int), (), rows) for rows in empty]

        def augment(slabs):  # mode 0's augment rides on its first refit
            _value_pass(cache, written, chunks, compute_rhat, slabs, stats, range(1, last + 1))

        def refit(slabs, stamp):
            n = stamp.mode
            _update_mode_streaming(
                cache_files(cache, n, n_modes), written, chunks, slabs, n, absent[n], params.lam,
                weighted, stats,
                augment=stamp.inner == 0 and n == 0,
                write_back=stamp.inner == params.inner_iters - 1 and n == last,
            )

        def write_back(slabs):  # the last mode's write-back rode on its last refit
            _value_pass(cache, written, chunks, update_residual, slabs, stats, range(last))

        def close(it):  # the record reads mode 0's cache chunks as runs of whole rows
            plan = chunks[params.n_columns][0]
            runs = ((plan.groups(k, idx), values) for k, (idx, values) in enumerate(
                dataio.stream_chunks(cache_files(cache, 0, n_modes), expected=written,
                                     chunks=plan.counts)))
            recorder.close(it, runs, colstore.blocks(params.n_columns), stats.flops)

        recorder.start()
        run_schedule(params, colstore, augment, refit, write_back, close)
    except BaseException:  # a failed run leaves no scratch files behind
        for n in range(n_modes):
            for path in (factors / f"factor_{n}.bin", *cache_files(cache, n, n_modes)):
                path.unlink(missing_ok=True)
        for directory in reversed(made):
            with suppress(OSError):  # holds files this run did not write
                directory.rmdir()
        if tmp is not None:
            tmp.cleanup()
        raise
    return StreamingRun(colstore, params.lam, colstore.peak, _tmp=tmp)
