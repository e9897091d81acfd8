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
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .accounting import SolveStats
from .tensor import (
    AUGMENTED,
    RESIDUAL,
    FactorModel,
    ResidualState,
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
    """The C x C system (B + lambda' I) a = c of one row update."""

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


def normal_eq_arrays(
    slabs: Sequence[np.ndarray],
    idx_rows: np.ndarray,
    rhat_vals: np.ndarray,
    mode: int,
    stats: SolveStats | None = None,
) -> NormalEq:
    """Normal equations of one row from its gathered bucket arrays.

    ``idx_rows`` is the (P, N) block of entry indices of the bucket in
    canonical order, ``rhat_vals`` the matching r-hat values.  B and c
    accumulate over that order; empty buckets give zero systems.
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
    B = G.T @ G
    c = G.T @ rhat_vals
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
    return normal_eq_arrays(slabs, store.idx[pos], rhat.values[pos], mode, stats)


def solve_row(
    neq: NormalEq, lam_eff: float, stats: SolveStats | None = None
) -> tuple[np.ndarray, bool]:
    """Solve (B + lambda' I) a = c by Cholesky factorization.

    Returns ``(solution, True)`` on success.  A singular system (possible
    only when lambda' = 0) returns ``(zeros, False)`` so the caller can keep
    the row's previous values.
    """
    if lam_eff < 0:
        raise ValueError("lam_eff must be nonnegative")
    if not (np.isfinite(neq.B).all() and np.isfinite(neq.c).all()):
        raise ValueError("non-finite normal equations")
    c_cols = neq.c.shape[0]
    A = neq.B + lam_eff * np.eye(c_cols)
    try:
        chol = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
        x = scipy.linalg.cho_solve(chol, neq.c, check_finite=False)
    except scipy.linalg.LinAlgError:
        return np.zeros(c_cols), False
    if stats is not None:
        stats.flops += c_cols ** 3
    return x, True


def update_rows(
    slabs: list[np.ndarray],
    idx: np.ndarray,
    rhat_vals: np.ndarray,
    mode: int,
    buckets: Iterable[tuple[int, np.ndarray | slice]],
    lam: float,
    weighted: bool,
    stats: SolveStats | None = None,
) -> int:
    """Refit rows of ``slabs[mode]`` in place; returns skip count.

    ``buckets`` yields ``(row, positions)``: an index array or slice into
    ``idx`` and ``rhat_vals`` listing the row's entries in canonical order.
    Rows are independent; each solve reads only the other modes' slabs, so
    processing order does not affect the values.
    """
    skipped = 0
    slab = slabs[mode]
    for i, pos in buckets:
        idx_rows = idx[pos]
        lam_eff = lam * idx_rows.shape[0] if weighted else lam
        neq = normal_eq_arrays(slabs, idx_rows, rhat_vals[pos], mode, stats)
        x, ok = solve_row(neq, lam_eff, stats)
        if ok:
            slab[i] = x
            if stats is not None:
                stats.rows_updated += 1
        else:
            skipped += 1
            if stats is not None:
                stats.rows_skipped += 1
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
        slabs, store.idx, rhat.values, mode, store.buckets(mode),
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
                    refit(slabs, Stamp(it, si, inner, n))
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
            slabs, store.idx, vals, stamp.mode, store.buckets(stamp.mode),
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
