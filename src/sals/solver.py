"""Subset-ALS schedule driver and row kernel, plus the serial path.

One outer iteration sweeps the K factor columns in subsets of C.  For each
subset the residual is augmented to r-hat, every mode's rows are refit T_in
times by solving small regularized normal equations, and the residual is
written back.  C=1 with a fixed column order is the coordinate-descent
specialization (see :func:`factorize_cdtf`); C=K with T_in=1 is classic ALS.

:func:`run_schedule` owns that schedule for every execution path: the
column-order draws, the loops and the (outer, subset, inner, mode) stamp.
A path supplies only the steps that depend on where the residual lives
(augment, refit one mode, write back, close the outer iteration); the
serial path here keeps it in an in-memory array.  Every path refits rows
through :func:`update_rows` on identically ordered arrays and evaluates
through :func:`sals.tensor.evaluate`, which is what makes distributed and
streaming runs reproduce serial results bitwise.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .accounting import SolveStats
from .tensor import (
    AUGMENTED,
    RESIDUAL,
    FactorModel,
    ResidualState,
    RowGroups,
    SparseTensorStore,
    _test_arrays,
    evaluate,
    subset_products,
)

PLAIN = "plain"
WEIGHTED = "weighted"
FIXED = "fixed"
RANDOM_PER_OUTER = "random_per_outer"

_CHUNK = 1 << 16
_BATCH_ENTRIES = 1 << 15  # entries a row-kernel batch gathers at once
_SMALL_BUCKET = 64        # buckets below this size are summed by segments, not BLAS


@dataclass(frozen=True)
class SolverParams:
    """Configuration of one factorization run."""

    rank: int
    n_columns: int = 1          # C: columns updated jointly, 1 <= C <= rank
    outer_iters: int = 10       # T_out
    inner_iters: int = 1        # T_in
    lam: float = 0.0
    regularization: str = PLAIN
    column_order: str = RANDOM_PER_OUTER
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if not 1 <= self.n_columns <= self.rank:
            raise ValueError("n_columns must satisfy 1 <= C <= rank")
        if self.outer_iters < 1 or self.inner_iters < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.regularization not in (PLAIN, WEIGHTED):
            raise ValueError(f"unknown regularization {self.regularization!r}")
        if self.column_order not in (FIXED, RANDOM_PER_OUTER):
            raise ValueError(f"unknown column order {self.column_order!r}")


@dataclass
class NormalEq:
    """The C x C systems (B + lambda' I) a = c of row updates.

    B is (R, C, C) and c is (R, C) for a stack of R rows, or (C, C) and (C,)
    for a single row.
    """

    B: np.ndarray
    c: np.ndarray


@dataclass
class IterationRecord:
    """Progress snapshot emitted after each outer iteration.

    ``seconds`` is solver-loop time since the run started; evaluating the
    loss and test RMSE takes ``eval_seconds`` and is not part of it.
    """

    iteration: int
    seconds: float
    loss: float
    test_rmse: float | None = None
    params_sent: int = 0
    params_received: int = 0
    flops: int = 0
    eval_seconds: float = 0.0


ProgressHook = Callable[[IterationRecord], None]


class Stamp(NamedTuple):
    """Position of one mode refit in the schedule."""

    outer: int
    subset: int
    inner: int
    mode: int


def rng_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent generators for model init and column-order draws.

    Serial, distributed, and streaming runs all derive their randomness
    through this one function, so equal seeds give equal schedules.
    """
    init_ss, order_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(init_ss), np.random.default_rng(order_ss)


def init_model(
    store: SparseTensorStore, params: SolverParams
) -> tuple[FactorModel, ResidualState]:
    """Zero first factor, uniform [0,1) others; residual starts equal to x."""
    init_rng, _ = rng_streams(params.seed)
    mats = [np.zeros((store.mode_lengths[0], params.rank))]
    for n in range(1, store.n_modes):
        mats.append(init_rng.random((store.mode_lengths[n], params.rank)))
    model = FactorModel(params.rank, params.lam, mats)
    residual = ResidualState(store.values.copy(), RESIDUAL)
    return model, residual


def choose_columns(
    params: SolverParams, rng: np.random.Generator | None = None
) -> list[np.ndarray]:
    """Disjoint column subsets covering 0..K-1, each of size C (last may be K mod C).

    Fixed order chunks the identity; the random policy chunks a fresh
    permutation drawn from ``rng``.
    """
    if params.column_order == FIXED:
        cols = np.arange(params.rank)
    else:
        if rng is None:
            raise ValueError("random column order needs a generator")
        cols = rng.permutation(params.rank)
    c = params.n_columns
    return [cols[s:s + c] for s in range(0, params.rank, c)]


def compute_rhat(
    store: SparseTensorStore,
    residual: ResidualState,
    model: FactorModel,
    columns: np.ndarray,
    stats: SolveStats | None = None,
) -> ResidualState:
    """Augmented residual: r-hat = r + active-column reconstruction.

    Allocates a fresh buffer (counted in ``stats.rhat_buffers``); the input
    residual is left untouched.
    """
    if residual.kind != RESIDUAL:
        raise ValueError("compute_rhat expects a plain residual")
    columns = np.asarray(columns, dtype=np.int64)
    slabs = [m[:, columns] for m in model.matrices]
    vals = residual.values + subset_products(slabs, store.idx)
    if stats is not None:
        stats.rhat_buffers += 1
        stats.flops += store.nnz * columns.size * store.n_modes
    return ResidualState(vals, AUGMENTED, tuple(int(k) for k in columns))


def update_residual(
    store: SparseTensorStore,
    rhat: ResidualState,
    model: FactorModel,
    columns: np.ndarray,
    stats: SolveStats | None = None,
) -> ResidualState:
    """Write the residual back: r = r-hat - updated-column reconstruction.

    Reuses the r-hat buffer in place; the input state is consumed.
    """
    if rhat.kind != AUGMENTED:
        raise ValueError("update_residual expects an augmented residual")
    columns = np.asarray(columns, dtype=np.int64)
    slabs = [m[:, columns] for m in model.matrices]
    rhat.values -= subset_products(slabs, store.idx)
    if stats is not None:
        stats.flops += store.nnz * columns.size * store.n_modes
    return ResidualState(rhat.values, RESIDUAL)


def _batches(ptr: np.ndarray, c_cols: int) -> Iterator[tuple[int, int]]:
    """Row ranges ``[r0, r1)`` of at most about ``_BATCH_ENTRIES`` entries.

    A batch also holds at most ``_BATCH_ENTRIES // C`` rows, so its stacked
    systems stay about as large as its gathered entries; a bucket larger
    than the cap is a batch of its own.
    """
    n_rows = ptr.size - 1
    max_rows = max(1, _BATCH_ENTRIES // c_cols)
    r0 = 0
    while r0 < n_rows:
        fit = int(np.searchsorted(ptr, ptr[r0] + _BATCH_ENTRIES, side="right")) - 1
        r1 = min(max(fit, r0 + 1), r0 + max_rows, n_rows)
        yield r0, r1
        r0 = r1


def normal_eq_arrays(
    slabs: Sequence[np.ndarray],
    idx_rows: np.ndarray,
    rhat_vals: np.ndarray,
    ptr: np.ndarray,
    mode: int,
    stats: SolveStats | None = None,
) -> NormalEq:
    """Stacked normal equations of a run of rows from their gathered entries.

    ``idx_rows`` is the (P, N) block of entry indices of the rows' buckets
    back to back, each in canonical order, ``rhat_vals`` the matching r-hat
    values, and row r's entries are ``ptr[r]:ptr[r+1]``.  Returns B as
    (R, C, C) and c as (R, C); empty buckets give zero systems.  Buckets of
    fewer than ``_SMALL_BUCKET`` entries are summed by segmented reductions,
    larger ones by one BLAS product each.  Either way a row's sums read only
    its own entries, so its bits do not depend on the other rows.
    """
    n_modes = len(slabs)
    c_cols = slabs[mode].shape[1]
    G: np.ndarray | None = None
    for n in range(n_modes):
        if n == mode:
            continue
        g = slabs[n][idx_rows[:, n]]
        if G is None:
            G = g
        else:
            G *= g
    if G is None:  # 1-dimensional tensor: empty product
        G = np.ones((idx_rows.shape[0], c_cols))
    sizes = np.diff(ptr)
    B = np.zeros((sizes.size, c_cols, c_cols))
    c = np.zeros((sizes.size, c_cols))
    small = sizes < _SMALL_BUCKET
    summed = np.flatnonzero(small & (sizes > 0))
    if summed.size:
        Gs, rs, starts = G, rhat_vals, ptr[summed]
        if not small.all():  # keep only the small buckets' entries
            keep = np.repeat(small, sizes)
            Gs, rs = G[keep], rhat_vals[keep]
            starts = (np.cumsum(sizes * small) - sizes * small)[summed]
        for a in range(c_cols):  # row a of B and, mirrored, column a
            sums = np.add.reduceat(Gs[:, a:a + 1] * Gs[:, a:], starts, axis=0)
            B[summed, a, a:] = sums
            B[summed, a + 1:, a] = sums[:, 1:]
        c[summed] = np.add.reduceat(Gs * rs[:, None], starts, axis=0)
    for r in np.flatnonzero(~small):
        g = G[ptr[r]:ptr[r + 1]]
        B[r] = g.T @ g
        c[r] = g.T @ rhat_vals[ptr[r]:ptr[r + 1]]
    if stats is not None:
        p = idx_rows.shape[0]
        stats.flops += p * c_cols * max(n_modes - 2, 0) + p * c_cols * c_cols + p * c_cols
    return NormalEq(B, c)


def build_normal_eq(
    store: SparseTensorStore,
    rhat: ResidualState,
    model: FactorModel,
    mode: int,
    row: int,
    columns: np.ndarray,
    stats: SolveStats | None = None,
) -> NormalEq:
    """Normal equations for one row of one mode over the active columns."""
    if rhat.kind != AUGMENTED or rhat.columns != tuple(int(k) for k in columns):
        raise ValueError("r-hat state does not match the requested columns")
    columns = np.asarray(columns, dtype=np.int64)
    slabs = [m[:, columns] for m in model.matrices]
    pos = store.bucket(mode, row)
    neq = normal_eq_arrays(
        slabs, store.idx[pos], rhat.values[pos], np.array([0, pos.size]), mode, stats
    )
    return NormalEq(neq.B[0], neq.c[0])


def solve_row(
    neq: NormalEq, lam_eff: float | np.ndarray, stats: SolveStats | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (B + lambda' I) a = c for a stack of systems by Cholesky factorization.

    ``neq.B`` is (R, C, C), ``neq.c`` (R, C) and ``lam_eff`` a scalar or one
    value per system; a single (C, C) system is a batch of one and gives a
    (C,) solution and a bool.  Returns ``(solutions, solved)``.  A singular
    system (possible only when lambda' = 0) gets zeros and ``solved``
    False, so the caller can keep the row's previous values.
    """
    B, c = neq.B, neq.c
    if c.ndim == 1:
        x, ok = solve_row(NormalEq(B[np.newaxis], c[np.newaxis]), lam_eff, stats)
        return x[0], bool(ok[0])
    lam = np.broadcast_to(np.asarray(lam_eff, dtype=np.float64), c.shape[:1])
    if (lam < 0).any():
        raise ValueError("lam_eff must be nonnegative")
    if not (np.isfinite(B).all() and np.isfinite(c).all()):
        raise ValueError("non-finite normal equations")
    c_cols = c.shape[1]
    A = B.copy()
    diag = np.arange(c_cols)
    A[:, diag, diag] += lam[:, np.newaxis]
    x = np.zeros_like(c)
    if c_cols == 1:  # the closed-form coordinate update
        ok = A[:, 0, 0] > 0
        x[ok] = c[ok] / A[ok, 0]
    else:
        L, ok = _cholesky(A)
        x[ok] = _cholesky_solve(L[ok], c[ok])
    if stats is not None:
        stats.flops += c_cols ** 3 * int(ok.sum())
    return x, ok


def _cholesky(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of stacked matrices, and which ones exist.

    One stacked call serves the usual all-definite case; if it fails, each
    matrix is factored alone so that only the singular ones are lost.
    """
    try:
        return np.linalg.cholesky(A), np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    L = np.zeros_like(A)
    ok = np.zeros(len(A), dtype=bool)
    for r in range(len(A)):
        try:
            L[r] = np.linalg.cholesky(A[r])
            ok[r] = True
        except np.linalg.LinAlgError:
            pass
    return L, ok


def _cholesky_solve(L: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve L L^T x = c per stacked system by forward and back substitution.

    Every step is elementwise over the systems, so each solution's bits
    depend only on its own system.
    """
    x = c.copy()
    c_cols = c.shape[1]
    for j in range(c_cols):
        x[:, j] /= L[:, j, j]
        x[:, j + 1:] -= L[:, j + 1:, j] * x[:, j:j + 1]
    for j in reversed(range(c_cols)):
        x[:, j] /= L[:, j, j]
        x[:, :j] -= L[:, j, :j] * x[:, j:j + 1]
    return x


def update_rows(
    slabs: list[np.ndarray],
    idx: np.ndarray,
    rhat_vals: np.ndarray,
    mode: int,
    groups: RowGroups,
    lam: float,
    weighted: bool,
    stats: SolveStats | None = None,
) -> int:
    """Refit the rows ``groups.rows`` of ``slabs[mode]`` in place; returns skip count.

    ``groups.order`` indexes ``idx`` and ``rhat_vals``.  Rows go through
    :func:`normal_eq_arrays` and :func:`solve_row` in batches split on row
    boundaries.  Each solve reads only the row's own entries and the other
    modes' slabs, so neither the order nor the batching of rows affects the
    values.
    """
    rows, order, ptr = groups
    slab = slabs[mode]
    skipped = 0
    for r0, r1 in _batches(ptr, slab.shape[1]):
        pos = order[ptr[r0]:ptr[r1]]
        seg = ptr[r0:r1 + 1] - ptr[r0]
        neq = normal_eq_arrays(slabs, idx[pos], rhat_vals[pos], seg, mode, stats)
        finite = np.isfinite(neq.B).all(axis=(1, 2)) & np.isfinite(neq.c).all(axis=1)
        if not finite.all():
            row = int(rows[r0 + int(np.argmin(finite))])
            raise ValueError(f"mode {mode}, row {row}: non-finite normal equations")
        x, ok = solve_row(neq, lam * np.diff(seg) if weighted else lam, stats)
        slab[rows[r0:r1][ok]] = x[ok]
        n_ok = int(ok.sum())
        skipped += ok.size - n_ok
        if stats is not None:
            stats.rows_updated += n_ok
            stats.rows_skipped += ok.size - n_ok
    return skipped


def update_mode(
    store: SparseTensorStore,
    rhat: ResidualState,
    model: FactorModel,
    mode: int,
    columns: np.ndarray,
    params: SolverParams,
    stats: SolveStats | None = None,
) -> int:
    """Refit every row of one mode's active columns; returns rows skipped."""
    if rhat.kind != AUGMENTED or rhat.columns != tuple(int(k) for k in columns):
        raise ValueError("r-hat state does not match the requested columns")
    columns = np.asarray(columns, dtype=np.int64)
    slabs = [m[:, columns] for m in model.matrices]  # fancy indexing copies
    skipped = update_rows(
        slabs, store.idx, rhat.values, mode, store.groups(mode),
        params.lam, params.regularization == WEIGHTED, stats,
    )
    model.matrices[mode][:, columns] = slabs[mode]
    return skipped


def close_iteration(
    t0: float,
    iteration: int,
    close: Callable[[int], IterationRecord | None],
    on_iteration: ProgressHook | None,
) -> float:
    """Run ``close(iteration)`` off the solver clock; returns ``t0`` moved past it.

    The record ``close`` returns (only when a hook is set) is stamped with
    the solver-loop ``seconds`` and its own ``eval_seconds``, then emitted.
    """
    start = time.perf_counter()
    record = close(iteration)
    if record is not None:
        record.seconds = start - t0
        record.eval_seconds = time.perf_counter() - start
        on_iteration(record)
    return t0 + (time.perf_counter() - start)


def run_schedule(
    params: SolverParams,
    n_modes: int,
    augment: Callable[[np.ndarray], list[np.ndarray]],
    refit: Callable[[list[np.ndarray], Stamp], None],
    write_back: Callable[[np.ndarray, list[np.ndarray]], None],
    close: Callable[[int], IterationRecord | None],
    on_iteration: ProgressHook | None,
) -> None:
    """Drive the subset-ALS schedule through one execution path's steps.

    Per column subset, ``augment(columns)`` turns the residual into r-hat
    and returns the active slabs, ``refit(slabs, stamp)`` refits mode
    ``stamp.mode`` (T_in sweeps over all modes), and ``write_back(columns,
    slabs)`` stores the slabs and restores the residual.  ``close(outer)``
    ends each outer iteration (see :func:`close_iteration`).
    """
    _, order_rng = rng_streams(params.seed)
    t0 = time.perf_counter()
    for it in range(1, params.outer_iters + 1):
        for si, columns in enumerate(choose_columns(params, order_rng)):
            slabs = augment(columns)
            for inner in range(params.inner_iters):
                for n in range(n_modes):
                    stamp = Stamp(it, si, inner, n)
                    try:
                        refit(slabs, stamp)
                    except (ValueError, ArithmeticError) as exc:
                        raise type(exc)(f"{stamp}: {exc}") from exc
            write_back(columns, slabs)
        t0 = close_iteration(t0, it, close, on_iteration)


def factorize(
    store: SparseTensorStore,
    params: SolverParams,
    *,
    test_entries=None,
    on_iteration: ProgressHook | None = None,
    stats: SolveStats | None = None,
) -> FactorModel:
    """Run T_out outer iterations of subset-ALS and return the model.

    The residual buffer is turned into r-hat in place (and back) with
    chunked passes, so no augmented buffer is ever allocated.  The progress
    hook fires after each outer iteration with the regularized loss (and
    test RMSE when a test set is supplied).
    """
    model, residual = init_model(store, params)
    vals = residual.values
    test = _test_arrays(test_entries)
    stats = stats if stats is not None else SolveStats()
    weighted = params.regularization == WEIGHTED
    flops_mark = stats.flops

    def augment(columns):
        slabs = [m[:, columns] for m in model.matrices]
        for start in range(0, store.nnz, _CHUNK):
            vals[start:start + _CHUNK] += subset_products(slabs, store.idx[start:start + _CHUNK])
        stats.flops += store.nnz * columns.size * store.n_modes
        return slabs

    def refit(slabs, stamp):
        update_rows(
            slabs, store.idx, vals, stamp.mode, store.groups(stamp.mode),
            params.lam, weighted, stats,
        )

    def write_back(columns, slabs):
        for n in range(store.n_modes):
            model.matrices[n][:, columns] = slabs[n]
        for start in range(0, store.nnz, _CHUNK):
            vals[start:start + _CHUNK] -= subset_products(slabs, store.idx[start:start + _CHUNK])
        stats.flops += store.nnz * columns.size * store.n_modes

    def close(it):
        nonlocal flops_mark
        if on_iteration is None:
            return None
        record = IterationRecord(it, 0.0, *evaluate(
            float(vals @ vals), [model.matrices], store, params.lam, params.regularization, test,
        ), flops=stats.flops - flops_mark)
        flops_mark = stats.flops
        return record

    run_schedule(params, store.n_modes, augment, refit, write_back, close, on_iteration)
    return model


def factorize_cdtf(
    store: SparseTensorStore,
    params: SolverParams,
    *,
    test_entries=None,
    on_iteration: ProgressHook | None = None,
    stats: SolveStats | None = None,
) -> FactorModel:
    """Coordinate-descent specialization: :func:`factorize` at C=1, fixed order."""
    if params.n_columns != 1:
        raise ValueError("coordinate descent requires n_columns == 1")
    return factorize(
        store, replace(params, column_order=FIXED),
        test_entries=test_entries, on_iteration=on_iteration, stats=stats,
    )
