"""Out-of-core execution of the subset-ALS schedule.

Residual entries live in per-mode binary caches on disk (grouped by the
mode's rows) and factor matrices live in a column-addressable store; only
the active C columns of each factor are held in memory at a time.  Per mode
``n`` the cache directory holds ``idx_m<n>.bin``, the entries' indices,
written once at set-up, and ``r_m<n>.bin``, the mode's one copy of the
residual values.  The shared schedule driver (:func:`sals.solver.run_schedule`)
runs with steps that work on the caches: per column subset, augment
rewrites each value file in place into r-hat, each refit streams one mode's
r-hat and hands its complete row groups to the serial row kernel, write back
rewrites r-hat in place into the residual, and close measures the residual
in one pass over a value file.  A residency meter counts
live factor-matrix values; its peak stays at C * sum(I_n) during the loop
(plus a transient of one full factor per mode while the initial model is
written out).

The row groups keep canonical order within each row, so a streaming run
reproduces the in-memory model bit for bit.
"""
from __future__ import annotations

import tempfile
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio
from .accounting import ResidencyMeter, SolveStats
from .dataio import CacheWriter, cache_pair, write_residual_caches
from .solver import (  # noqa: F401 - normal_eq_arrays, solve_row: instrumented by perfbench
    ProgressHook,
    Recorder,
    SolverParams,
    WEIGHTED,
    compute_rhat,
    init_factors,
    normal_eq_arrays,
    run_schedule,
    solve_row,
    update_residual,
    update_rows,
)
from .tensor import (  # noqa: F401 - subset_products: instrumented by perfbench
    FactorModel,
    RowGroups,
    SparseTensorStore,
    subset_products,
)


class ColumnStore:
    """Factor matrices on disk, one column-major file per mode.

    Columns are contiguous on disk, so loading or storing the active subset
    touches exactly C * I_n values per mode.  All loads and releases run
    through one :class:`ResidencyMeter`.
    """

    def __init__(self, directory, mode_lengths, rank: int, meter: ResidencyMeter):
        self.directory = Path(directory)
        self.mode_lengths = tuple(mode_lengths)
        self.rank = rank
        self.meter = meter
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, mode: int) -> Path:
        return self.directory / f"factor_{mode}.bin"

    def write_full(self, mode: int, matrix: np.ndarray) -> None:
        """Write one full factor matrix (init only; metered transiently)."""
        length = self.mode_lengths[mode]
        self.meter.add(length * self.rank)
        with open(self._path(mode), "wb") as fh:
            fh.write(np.asfortranarray(matrix, dtype="<f8").tobytes(order="F"))
        self.meter.release(length * self.rank)

    def load_columns(self, mode: int, columns: np.ndarray) -> np.ndarray:
        length = self.mode_lengths[mode]
        slab = np.empty((length, columns.size))
        with open(self._path(mode), "rb") as fh:
            for j, k in enumerate(columns):
                fh.seek(int(k) * length * 8)
                slab[:, j] = np.frombuffer(fh.read(length * 8), dtype="<f8")
        self.meter.add(slab.size)
        return slab

    def store_columns(self, mode: int, columns: np.ndarray, slab: np.ndarray) -> None:
        length = self.mode_lengths[mode]
        with open(self._path(mode), "r+b") as fh:
            for j, k in enumerate(columns):
                fh.seek(int(k) * length * 8)
                fh.write(np.ascontiguousarray(slab[:, j], dtype="<f8").tobytes())

    def release(self, slab: np.ndarray) -> None:
        self.meter.release(slab.size)

    def blocks(self, width: int):
        """Yield every factor's slab ``width`` columns at a time, released after use."""
        for start in range(0, self.rank, width):
            cols = np.arange(start, min(start + width, self.rank))
            slabs = [self.load_columns(n, cols) for n in range(len(self.mode_lengths))]
            yield slabs
            for slab in slabs:
                self.release(slab)

    def read_model(self, lam: float) -> FactorModel:
        """Materialize the full model; meant for use after the metered loop."""
        mats = []
        for n, length in enumerate(self.mode_lengths):
            raw = np.frombuffer(self._path(n).read_bytes(), dtype="<f8")
            mats.append(np.ascontiguousarray(raw.reshape(length, self.rank, order="F")))
        return FactorModel(self.rank, lam, mats)


@dataclass
class StreamingRun:
    """Handle to a finished streaming run; the model stays on disk."""

    workdir: Path
    column_store: ColumnStore
    lam: float
    peak_resident_values: int
    stats: SolveStats
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
) -> None:
    """Rewrite each mode's value file in place by ``step``, :func:`compute_rhat`
    or :func:`update_residual`, applied to a copy of every chunk's values.

    Each chunk is read before it is overwritten and writes never get ahead
    of reads, so one file is both input and output; the index file is only read.
    """
    for n in range(len(slabs)):
        pair = cache_pair(cache, n)
        writer = CacheWriter.rewrite(pair[1])

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
) -> None:
    """One row-refit pass over a mode-grouped cache pair holding r-hat.

    Each chunk's complete row groups go to :func:`update_rows`, delimited by
    their row heads; the last group may continue in the next chunk and is
    carried over.  The ``absent`` rows, whose buckets are empty and so not
    cached, go to :func:`update_rows` at the end, which settles them
    without a batch.
    """

    def refit_groups(idx, values, end):
        rows = idx[:end, mode]
        heads = np.flatnonzero(np.diff(rows, prepend=-1))
        cols = tuple(None if m == mode else idx[:end, m] for m in range(len(slabs)))
        groups = RowGroups(rows[heads], np.arange(end), np.append(heads, end), cols)
        update_rows(slabs, values[:end], mode, groups, lam, weighted, stats)

    def visit(idx, values, carry):
        if carry is not None:
            idx, values = np.concatenate([carry[0], idx]), np.concatenate([carry[1], values])
        tail = int(np.searchsorted(idx[:, mode], idx[-1, mode]))
        refit_groups(idx, values, tail)
        return idx[tail:], values[tail:]

    carry = dataio.stream_pass(path, visit, expected=expected, chunk_records=chunk_records)
    if carry is not None:
        refit_groups(*carry, carry[1].size)
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
    # checks the test set before any file is written
    recorder = Recorder(store, params.lam, params.regularization, test_entries, on_iteration,
                        flops=stats.flops)
    tmp = None if workdir is not None else tempfile.TemporaryDirectory(prefix="sals-stream-")
    workdir = Path(workdir if tmp is None else tmp.name)
    factors, cache = workdir / "factors", workdir / "cache"
    made = [d for d in (workdir, factors, cache) if not d.exists()]
    meter = ResidencyMeter()
    colstore = ColumnStore(factors, store.mode_lengths, params.rank, meter)
    try:
        for n, matrix in enumerate(init_factors(store, params)):
            colstore.write_full(n, matrix)

        written: dict[Path, dict] = {}  # each cache file's writer record, checked on reads
        write_residual_caches(store, cache, written, chunk_records)

        weighted = params.regularization == WEIGHTED
        absent = [store.groups(n, np.flatnonzero(store.bucket_sizes(n) == 0))
                  for n in range(store.n_modes)]

        def augment(columns):
            slabs = [colstore.load_columns(n, columns) for n in range(store.n_modes)]
            _value_pass(cache, written, compute_rhat, slabs, stats, chunk_records)
            return slabs

        def refit(slabs, stamp):
            n = stamp.mode
            _update_mode_streaming(cache_pair(cache, n), written, slabs, n, absent[n],
                                   params.lam, weighted, stats, chunk_records)

        def write_back(columns, slabs):
            _value_pass(cache, written, update_residual, slabs, stats, chunk_records)
            for n in range(store.n_modes):
                colstore.store_columns(n, columns, slabs[n])
                colstore.release(slabs[n])

        def measure():
            resid_sq = dataio.stream_pass(
                cache_pair(cache, 0), _sum_squares, expected=written,
                chunk_records=chunk_records,
            )
            return resid_sq or 0.0, colstore.blocks(params.n_columns)

        recorder.start()
        run_schedule(params, store, augment, refit, write_back,
                     lambda it: recorder.close(it, measure, stats.flops))
    except BaseException:  # a failed run leaves no scratch files behind
        for n in range(store.n_modes):
            for path in (colstore._path(n), *cache_pair(cache, n)):
                path.unlink(missing_ok=True)
        for directory in reversed(made):
            with suppress(OSError):  # holds files this run did not write
                directory.rmdir()
        if tmp is not None:
            tmp.cleanup()
        raise
    return StreamingRun(workdir, colstore, params.lam, meter.peak, stats, _tmp=tmp)


def _sum_squares(idx, values, acc):
    return (0.0 if acc is None else acc) + float(values @ values)
