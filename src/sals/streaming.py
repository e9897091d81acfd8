"""Out-of-core execution of the subset-ALS schedule.

Residual entries live in per-mode binary caches on disk (grouped by the
mode's rows) and factor matrices live in a column-addressable store; only
the active C columns of each factor are held in memory at a time.  The
shared schedule driver (:func:`sals.solver.run_schedule`) runs with steps
that work on the caches: per column subset, augment streams each mode's
residual cache to materialize the augmented residual on disk, each refit
streams one mode's r-hat cache and hands its complete row groups to the
serial row kernel, and write back streams the caches again.  A residency
meter counts live factor-matrix values; its peak stays at C * sum(I_n)
during the loop (plus a transient of one full factor per mode while the
initial model is written out).

The row groups keep canonical order within each row, so a streaming run
reproduces the in-memory model bit for bit.
"""
from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataio
from .accounting import ResidencyMeter, SolveStats
from .dataio import CacheWriter, cache_name, write_residual_caches
from .solver import (  # noqa: F401 - normal_eq_arrays, solve_row: instrumented by perfbench
    IterationRecord,
    ProgressHook,
    SolverParams,
    WEIGHTED,
    init_factors,
    normal_eq_arrays,
    run_schedule,
    solve_row,
    update_rows,
)
from .tensor import (
    FactorModel,
    RowGroups,
    SparseTensorStore,
    as_coo,
    evaluate,
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
    records: list[IterationRecord] = field(default_factory=list)
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
    src: str,
    dst: str,
    slabs: list[np.ndarray],
    sign: float,
    stats: SolveStats,
    chunk_records: int,
) -> None:
    """Stream each mode's ``src`` cache into its ``dst`` cache, adding ``sign``
    times the active-column reconstruction."""
    n_modes = len(slabs)
    for n in range(n_modes):
        src_path, dst_path = cache / cache_name(src, n), cache / cache_name(dst, n)
        writer = CacheWriter(dst_path, n_modes)

        def visit(idx, values, acc):
            writer.append(idx, values + sign * subset_products(slabs, idx))
            stats.flops += idx.shape[0] * slabs[0].shape[1] * n_modes
            return acc

        dataio.stream_pass(src_path, visit, expected=written[src_path],
                           chunk_records=chunk_records)
        written[dst_path] = writer.close()


def _update_mode_streaming(
    path: Path,
    expected: dict,
    slabs: list[np.ndarray],
    mode: int,
    absent: RowGroups,
    lam: float,
    weighted: bool,
    stats: SolveStats,
    chunk_records: int,
) -> None:
    """One row-refit pass over a mode-grouped r-hat cache.

    Each chunk's complete row groups go to :func:`update_rows`, delimited by
    their row heads; the last group may continue in the next chunk and is
    carried over.  The ``absent`` rows, whose buckets are empty and so not
    cached, are refit at the end.
    """

    def refit_groups(idx, values, end):
        rows = idx[:end, mode]
        heads = np.flatnonzero(np.diff(rows, prepend=-1))
        groups = RowGroups(rows[heads], np.arange(end), np.append(heads, end))
        # A chunk read from the cache is a strided view; the kernel's row
        # gathers want contiguous sources (see take_rows).
        update_rows(slabs, np.ascontiguousarray(idx[:end]), np.ascontiguousarray(values[:end]),
                    mode, groups, lam, weighted, stats)

    def visit(idx, values, carry):
        if carry is not None:
            idx, values = np.concatenate([carry[0], idx]), np.concatenate([carry[1], values])
        tail = int(np.searchsorted(idx[:, mode], idx[-1, mode]))
        refit_groups(idx, values, tail)
        return idx[tail:], values[tail:]

    carry = dataio.stream_pass(path, visit, expected=expected, chunk_records=chunk_records)
    if carry is not None:
        refit_groups(*carry, carry[1].size)
    update_rows(slabs, np.empty((0, len(slabs)), dtype=np.int64), np.empty(0), mode,
                absent, lam, weighted, stats)


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
    run works in a temporary directory, which is removed if the run raises.
    """
    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="sals-stream-")
        workdir = tmp.name
    try:
        workdir = Path(workdir)
        meter = ResidencyMeter()
        stats = stats if stats is not None else SolveStats()
        colstore = ColumnStore(workdir / "factors", store.mode_lengths, params.rank, meter)

        for n, matrix in enumerate(init_factors(store, params)):
            colstore.write_full(n, matrix)

        cache = workdir / "cache"
        written: dict[Path, dict] = {}  # each cache file's writer record, checked on reads
        write_residual_caches(store, cache, written, chunk_records)

        test = None if test_entries is None else as_coo(
            test_entries, store.n_modes, store.mode_lengths)
        weighted = params.regularization == WEIGHTED
        absent = [store.groups(n, np.flatnonzero(store.bucket_sizes(n) == 0))
                  for n in range(store.n_modes)]
        run = StreamingRun(workdir, colstore, params.lam, 0, stats, _tmp=tmp)
        flops_mark = stats.flops

        def augment(columns):
            slabs = [colstore.load_columns(n, columns) for n in range(store.n_modes)]
            _value_pass(cache, written, "r", "rhat", slabs, +1.0, stats, chunk_records)
            return slabs

        def refit(slabs, stamp):
            n = stamp.mode
            path = cache / cache_name("rhat", n)
            _update_mode_streaming(path, written[path], slabs, n, absent[n],
                                   params.lam, weighted, stats, chunk_records)

        def write_back(columns, slabs):
            _value_pass(cache, written, "rhat", "r", slabs, -1.0, stats, chunk_records)
            for n in range(store.n_modes):
                colstore.store_columns(n, columns, slabs[n])
                colstore.release(slabs[n])

        def close(it):
            nonlocal flops_mark
            if on_iteration is None:
                return None
            path = cache / cache_name("r", 0)
            resid_sq = dataio.stream_pass(
                path, _sum_squares, expected=written[path], chunk_records=chunk_records
            )
            run.records.append(IterationRecord(it, 0.0, *evaluate(
                resid_sq or 0.0, colstore.blocks(params.n_columns), store,
                params.lam, params.regularization, test,
            ), flops=stats.flops - flops_mark))
            flops_mark = stats.flops
            return run.records[-1]

        run_schedule(params, store, augment, refit, write_back, close, on_iteration)
    except BaseException:
        if tmp is not None:  # a failed run leaves no scratch files behind
            tmp.cleanup()
        raise
    run.peak_resident_values = meter.peak
    return run


def _sum_squares(idx, values, acc):
    return (0.0 if acc is None else acc) + float(values @ values)
