"""Subset-ALS schedule driver and row kernel, plus the serial path.

One outer iteration sweeps the K factor columns in subsets of C.  For each
subset the residual is augmented to r-hat, every mode's rows are refit T_in
times by solving small regularized normal equations, and the residual is
written back.  C=1 with a fixed column order is the coordinate-descent
specialization (see :func:`factorize_cdtf`); C=K with T_in=1 is classic ALS.

:func:`run_schedule` owns that schedule for every execution path: the
column-order draws, the loops, the (outer, subset, inner, mode) stamp and
each subset's slabs, which it loads from the run's
:class:`~sals.tensor.ColumnStore`, stores back and releases.  A path
supplies only the steps that depend on where the residual lives (augment,
refit one mode, write back, close the outer iteration); the serial path
here keeps it in an in-memory array.  Every path refits rows
through :func:`update_rows` on identically ordered arrays and records
through one :class:`Recorder`, which is what makes distributed and
streaming runs reproduce serial results bitwise.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .accounting import SolveStats
from .tensor import (
    ColumnStore,
    Coo,
    FactorModel,
    RowGroups,
    SparseTensorStore,
    _entry_blocks,
    as_coo,
    evaluate,
    subset_products,
    take_rows,
)

PLAIN = "plain"
WEIGHTED = "weighted"
FIXED = "fixed"
RANDOM_PER_OUTER = "random_per_outer"

_BATCH_ENTRIES = 1 << 15  # a row-kernel batch's floor of entries (see _batch_entries)
_BATCH_VALUES = 1 << 17   # ... and its (P, C) values at small C
# Per C, the bucket size from which a row's sums take one BLAS product of
# their own instead of the batch's segmented reductions, measured per entry
# (see README); _SMALL_BUCKET holds above C = 2.
_SMALL_BUCKET = 64
_SEGMENTED_BELOW = {1: np.inf, 2: 512}
_LOSS_RISE_RTOL = 1e-9    # relative rise of the loss between outer iterations that is flagged


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
        if not np.isfinite(self.lam):
            raise ValueError("lam must be finite")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.regularization not in (PLAIN, WEIGHTED):
            raise ValueError(f"unknown regularization {self.regularization!r}")
        if self.column_order not in (FIXED, RANDOM_PER_OUTER):
            raise ValueError(f"unknown column order {self.column_order!r}")


@dataclass
class IterationRecord:
    """Progress snapshot emitted after each outer iteration.

    ``seconds`` is solver-loop time since the run started; evaluating the
    loss and test RMSE takes ``eval_seconds`` and is not part of it.
    ``loss_rose`` marks a subset-ALS loss above the previous outer
    iteration's by more than 1e-9 relative and more than eps * ||x||^2 (the
    data's rounding level), which exact updates never give (see
    :class:`Recorder`; PSGD records are never flagged).
    """

    iteration: int
    seconds: float
    loss: float
    test_rmse: float | None = None
    params_sent: int = 0
    params_received: int = 0
    flops: int = 0
    eval_seconds: float = 0.0
    loss_rose: bool = False


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


def init_columns(mode_lengths: Sequence[int], params: SolverParams, directory=None) -> ColumnStore:
    """The initial factors in a :class:`ColumnStore`, in memory or under ``directory``:
    a zero first factor and uniform [0,1) others, drawn in mode order.

    Each factor is drawn and written in blocks of :func:`sals.tensor._entry_blocks`
    rows (2^16 / K), so only one block is ever held row-major; consecutive
    draws give the bits of one draw of the whole factor.
    """
    init_rng, _ = rng_streams(params.seed)
    colstore = ColumnStore(mode_lengths, params.rank, directory)
    for n, length in enumerate(colstore.mode_lengths):
        for block in _entry_blocks(length, params.rank):
            shape = (min(block.stop, length) - block.start, params.rank)
            colstore.write_full(n, init_rng.random(shape) if n else np.zeros(shape), block.start)
    return colstore


def init_model(store: SparseTensorStore, params: SolverParams) -> tuple[FactorModel, np.ndarray]:
    """The :func:`init_columns` model and its residual, a copy of x."""
    return init_columns(store.mode_lengths, params).read_model(params.lam), store.values.copy()


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


def _own_block(own: tuple[int, np.ndarray] | None, block: slice):
    return None if own is None else (own[0], own[1][block])


def compute_rhat(
    residual: np.ndarray,
    slabs: Sequence[np.ndarray],
    idx: np.ndarray,
    stats: SolveStats | None = None,
    own: tuple[int, np.ndarray] | None = None,
) -> None:
    """Augment the residual to r-hat in place: r-hat = r + the slabs' reconstruction.

    ``slabs`` are the active columns of every factor and ``idx`` the (nnz, N)
    entry indices.  One :func:`subset_products` call per block of 2^16 / C
    entries (:func:`sals.tensor._entry_blocks`) keeps each block's gathers
    in cache, and no buffer of the residual's length is allocated.  With
    ``own = (mode, rows)``, ``rows`` are the entries' mode-``mode`` factor
    rows and ``idx`` holds the other N - 1 modes' columns, as a streaming
    cache chunk does (see :func:`subset_products`).
    """
    for block in _entry_blocks(idx.shape[0], slabs[0].shape[1]):
        residual[block] += subset_products(slabs, idx[block], _own_block(own, block))
    if stats is not None:
        stats.flops += idx.shape[0] * slabs[0].shape[1] * len(slabs)


def update_residual(
    rhat: np.ndarray,
    slabs: Sequence[np.ndarray],
    idx: np.ndarray,
    stats: SolveStats | None = None,
    own: tuple[int, np.ndarray] | None = None,
) -> None:
    """Write the residual back in place: r = r-hat - the refit slabs' reconstruction.

    The inverse of :func:`compute_rhat`, in the same blocks.
    """
    for block in _entry_blocks(idx.shape[0], slabs[0].shape[1]):
        rhat[block] -= subset_products(slabs, idx[block], _own_block(own, block))
    if stats is not None:
        stats.flops += idx.shape[0] * slabs[0].shape[1] * len(slabs)


def _batch_entries(c_cols: int) -> int:
    """The most entries a batch of C-column rows gathers: max(2^15, 2^17 / C).

    A batch's G and its copies are (P, C) blocks, so small C gets larger
    batches and pays its fixed per-batch costs less often; the README gives
    the sweep of caps that set both numbers.
    """
    return max(_BATCH_ENTRIES, _BATCH_VALUES // c_cols)


def _batches(ptr: np.ndarray, c_cols: int) -> Iterator[tuple[int, int]]:
    """Row ranges ``[r0, r1)`` of at most :func:`_batch_entries` entries.

    A batch also holds at most that cap / C rows, so its stacked systems
    stay about as large as its gathered entries; a bucket larger than the
    cap is a batch of its own.
    """
    n_rows = ptr.size - 1
    cap = _batch_entries(c_cols)
    max_rows = max(1, cap // c_cols)
    r0 = 0
    while r0 < n_rows:
        fit = int(np.searchsorted(ptr, ptr[r0] + cap, side="right")) - 1
        r1 = min(max(fit, r0 + 1), r0 + max_rows, n_rows)
        yield r0, r1
        r0 = r1


def _products(slabs: Sequence[np.ndarray], cols: Sequence[np.ndarray | None],
              mode: int) -> np.ndarray:
    """G: per entry, the product of every other mode's slab row, as (P, C).

    Needs a second mode; a gather copies, so the product is built in place.
    """
    others = [n for n in range(len(slabs)) if n != mode]
    G = take_rows(slabs[others[0]], cols[others[0]])
    for n in others[1:]:
        G *= take_rows(slabs[n], cols[n])
    return G


@np.errstate(over="ignore", invalid="ignore")
def normal_eq_arrays(
    slabs: Sequence[np.ndarray],
    cols: Sequence[np.ndarray | None],
    rhat_vals: np.ndarray,
    ptr: np.ndarray,
    mode: int,
    stats: SolveStats | None = None,
    count_nonzero: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Stacked normal equations of a run of rows from their entries' index columns.

    ``cols[m]`` holds the mode-m indices of the rows' bucket entries back
    to back, each bucket in canonical order (``cols[mode]`` is not read),
    ``rhat_vals`` the matching r-hat values, and row r's entries are
    ``ptr[r]:ptr[r+1]``.  Returns ``(B, c, nonzero)``, the systems
    (B + lambda' I) a = c with B as (R, C, C) and c as (R, C); ``nonzero``
    is ``None`` unless ``count_nonzero``, when it counts each row's entries
    whose product row g is nonzero, for the rank test at lambda' = 0.
    Empty buckets give zero systems.
    A bucket below ``_SEGMENTED_BELOW[C]`` entries (``_SMALL_BUCKET`` above
    C = 2) is summed by segmented reductions over the batch, which build
    the summed rows' systems as one compact block; a larger one takes one
    BLAS product of its own.  The segmented sums run along contiguous rows:
    the summed entries' G is copied once to (C, P), and each of the
    C(C+1)/2 pair products and C products with r-hat is one P-long multiply
    into one reused buffer, whose ``np.add.reduceat`` writes the segment
    sums straight into B (mirrored) or c.  ``reduceat`` adds a segment as
    its first value plus the pairwise sum of the rest at any stride, so
    these are the bits of the summation over (P, C) columns.  Either way a
    row's sums read only its own entries, and the choice depends only on C
    and the bucket's size, so a row's bits do not depend on the other rows.
    Overflow is silent here: :func:`update_rows` checks the systems and
    names the row.
    """
    n_modes = len(slabs)
    c_cols = slabs[mode].shape[1]
    if n_modes > 1:
        G = _products(slabs, cols, mode)
    else:  # 1-dimensional tensor: empty product
        G = np.ones((rhat_vals.size, c_cols))
    sizes = np.diff(ptr)
    small = sizes < _SEGMENTED_BELOW.get(c_cols, _SMALL_BUCKET)
    summed = np.flatnonzero(small & (sizes > 0))
    Bs = np.empty((summed.size, c_cols, c_cols))
    cs = np.empty((summed.size, c_cols))
    if summed.size:
        Gs, rs, starts = G, rhat_vals, ptr[summed]
        if not small.all():  # keep only the small buckets' entries
            keep = np.repeat(small, sizes)
            Gs, rs = np.compress(keep, G, axis=0), np.compress(keep, rhat_vals)
            starts = (np.cumsum(sizes * small) - sizes * small)[summed]
        Gt, buf = np.ascontiguousarray(Gs.T), np.empty(rs.size)
        for a in range(c_cols):  # row a of B and, mirrored, column a; then c[a]
            for b in range(a, c_cols):
                np.add.reduceat(np.multiply(Gt[a], Gt[b], out=buf), starts, out=Bs[:, a, b])
            Bs[:, a + 1:, a] = Bs[:, a, a + 1:]
            np.add.reduceat(np.multiply(Gt[a], rs, out=buf), starts, out=cs[:, a])
    if summed.size == sizes.size:
        B, c = Bs, cs
    else:
        B = np.zeros((sizes.size, c_cols, c_cols))
        c = np.zeros((sizes.size, c_cols))
        B[summed], c[summed] = Bs, cs
    for r in np.flatnonzero(~small):
        g = G[ptr[r]:ptr[r + 1]]
        B[r] = g.T @ g
        c[r] = g.T @ rhat_vals[ptr[r]:ptr[r + 1]]
    nonzero = None
    if count_nonzero:
        nonzero = np.diff(np.concatenate([[0], np.cumsum(G.any(axis=1))])[ptr])
    if stats is not None:
        p = rhat_vals.shape[0]
        stats.flops += p * c_cols * max(n_modes - 2, 0) + p * c_cols * c_cols + p * c_cols
    return B, c, nonzero


def solve_row(
    B: np.ndarray, c: np.ndarray, lam_eff: float | np.ndarray,
    stats: SolveStats | None = None, *, checked: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (B + lambda' I) a = c for a stack of systems by Cholesky factorization.

    ``B`` is (R, C, C), ``c`` (R, C) and ``lam_eff`` a scalar or one
    value per system.  Returns ``(solutions, solved)``.  A singular system
    (possible only when lambda' = 0) gets zeros and ``solved`` False, so the
    caller can keep the row's previous values.  A negative lambda' or a
    non-finite system raises ``ValueError``; ``checked=False`` skips both
    checks, for :func:`update_rows`, which has made them per batch already
    (and calls this function, not a private core, so that a span on
    ``solve_row`` still times every solve).
    """
    lam = np.broadcast_to(np.asarray(lam_eff, dtype=np.float64), c.shape[:1])
    if checked:
        if (lam < 0).any():
            raise ValueError("lam_eff must be nonnegative")
        if not (np.isfinite(B).all() and np.isfinite(c).all()):
            raise ValueError("non-finite normal equations")
    c_cols = c.shape[1]
    A = B.copy()
    diag = np.arange(c_cols)
    A[:, diag, diag] += lam[:, np.newaxis]
    if c_cols == 1:  # the closed-form coordinate update
        ok = A[:, 0, 0] > 0
        solve = lambda L, rhs: rhs / L[:, 0]  # noqa: E731
    else:
        A, ok = _cholesky(A)
        solve = _cholesky_solve
    if ok.all():
        x = solve(A, c)
    else:  # solve the nonsingular systems only
        x = np.zeros_like(c)
        x[ok] = solve(np.compress(ok, A, axis=0), np.compress(ok, c, axis=0))
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
    depend only on its own system.  The steps run on a (C, C, R) copy of L
    and a (C, R) copy of c, one long contiguous loop each; the solutions
    come back as an (R, C) view.
    """
    L, x = L.transpose(1, 2, 0).copy(), c.T.copy()
    c_cols = c.shape[1]
    for j in range(c_cols):
        x[j] /= L[j, j]
        x[j + 1:] -= L[j + 1:, j] * x[j]
    for j in reversed(range(c_cols)):
        x[j] /= L[j, j]
        x[:j] -= L[j, :j] * x[j]
    return x.T


def update_rows(
    slabs: list[np.ndarray],
    rhat_vals: np.ndarray,
    mode: int,
    groups: RowGroups,
    lam: float,
    weighted: bool,
    stats: SolveStats | None = None,
) -> int:
    """Refit the rows of ``groups`` in ``slabs[mode]`` in place; returns skip count.

    ``groups.order`` indexes ``rhat_vals``, and ``groups.cols`` gives the
    entries' index columns in the same order.  Rows go through
    :func:`normal_eq_arrays` and :func:`solve_row` in batches split on row
    boundaries (see :func:`_batches`); a batch slices its entries' index
    columns and gathers only their r-hat values, or slices those too when
    ``groups.order`` is ``None``.  Each batch's systems are checked for
    non-finite values once, which names the row, before the unchecked
    solve.  Each solve reads only the row's own entries and the other
    modes' slabs, so neither the order nor the batching of rows affects
    the values.  A negative ``lam`` raises ``ValueError``.

    The rows with empty buckets, ``groups.empty``, never reach a batch.
    Under plain lambda > 0 their solution is exactly +0.0, which is written
    directly; such a row counts in ``rows_updated`` but adds no flops, as
    nothing is solved.  Otherwise (lambda' = 0) they are skipped.

    A row whose lambda' is 0 is skipped before factoring when fewer than C
    of its entries have a nonzero product row g (in particular when its
    bucket holds fewer than C entries): B = sum g g^T then has rank below
    C, so it is singular in exact arithmetic whether or not a rounded
    factorization succeeds.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    rows, order, ptr, cols, empty = groups
    slab = slabs[mode]
    c_cols = slab.shape[1]
    skipped = updated = 0
    if lam > 0 and not weighted:
        slab[empty] = 0.0
        updated += empty.size
    else:
        skipped += empty.size
    for r0, r1 in _batches(ptr, c_cols):
        lo, hi = ptr[r0], ptr[r1]
        seg = ptr[r0:r1 + 1] - lo
        B, c, nonzero = normal_eq_arrays(
            slabs, [None if col is None else col[lo:hi] for col in cols],
            rhat_vals[lo:hi] if order is None else take_rows(rhat_vals, order[lo:hi]),
            seg, mode, stats, count_nonzero=not lam > 0,
        )
        if not (np.isfinite(B).all() and np.isfinite(c).all()):
            finite = np.isfinite(B).all(axis=(1, 2)) & np.isfinite(c).all(axis=1)
            row = int(rows[r0 + int(np.argmin(finite))])
            raise ValueError(f"mode {mode}, row {row}: non-finite normal equations")
        sizes = np.diff(seg)
        lam_eff = lam * sizes if weighted else np.full(sizes.size, float(lam))
        batch = rows[r0:r1]
        fit = lam_eff > 0
        if nonzero is not None:  # lambda' = 0: the rank test
            fit |= nonzero >= c_cols
        if not fit.all():
            B, c, lam_eff, batch = B[fit], c[fit], lam_eff[fit], batch[fit]
        x, ok = solve_row(B, c, lam_eff, stats, checked=False)
        if not ok.all():
            x, batch = np.compress(ok, x, axis=0), np.compress(ok, batch)
        slab[batch] = x
        updated += batch.size
        skipped += (r1 - r0) - batch.size
    if stats is not None:
        stats.rows_updated += updated
        stats.rows_skipped += skipped
    return skipped


class Recorder:
    """The one builder and fold of :class:`IterationRecord`; every path closes
    each outer iteration through :meth:`close`, so records are bitwise equal.

    Made before a path's set-up, it checks the test set (and keeps its
    indices column-major, as the evaluator reads them by column) and
    starts the clock that ``seconds`` reads; a path with set-up of its own
    restarts the clock with :meth:`start` just before its loop.  ``flops``
    is the path's running total when the loop starts.  Subset-ALS records
    whose loss rose get ``loss_rose`` set; ``flag_rises=False`` (PSGD)
    never flags.  It reads the store's mode lengths, bucket sizes and ``sq_norm`` only.
    """

    def __init__(self, store: SparseTensorStore, lam: float, regularization: str, test_entries,
                 on_iteration: ProgressHook | None, *, flops: int = 0, flag_rises: bool = True):
        if test_entries is not None:
            idx, values = as_coo(test_entries, store.n_modes, store.mode_lengths)
            test_entries = Coo(np.asfortranarray(idx), values)
        self.test = test_entries
        self.lam, self.on_iteration, self.flops = lam, on_iteration, flops
        self.n_rows = store.mode_lengths[0]
        self.weights = None if regularization == PLAIN else [
            store.bucket_sizes(n) for n in range(store.n_modes)]
        self.rounding = self.last_loss = None  # rounding: loss_rose's floor, eps * ||x||^2
        if on_iteration is not None and flag_rises:
            self.rounding = np.finfo(np.float64).eps * store.sq_norm
        self.start()

    def start(self) -> None:
        """(Re)start the clock that the records' ``seconds`` read."""
        self.t0 = time.perf_counter()

    def close(self, iteration: int, runs: Iterable[tuple[RowGroups, np.ndarray]],
              blocks: Iterable[Sequence[np.ndarray]], flops: int, **counters: int) -> None:
        """Emit the iteration's record off the clock; without a hook, do nothing.

        ``runs`` yields ``(groups, values)``: mode-0 row groups, together
        holding every filled row once, and the residual values they index.
        ``blocks`` yields the factors' C-column slabs (see :func:`sals.tensor.evaluate`).
        ``flops`` is the running total and ``counters`` are further record fields.
        """
        if self.on_iteration is None:
            return
        start = time.perf_counter()
        record = IterationRecord(iteration, start - self.t0, *evaluate(
            self._residual_sq(runs), blocks, self.lam, self.weights, self.test,
        ), flops=flops - self.flops, **counters)
        record.eval_seconds = time.perf_counter() - start
        self.flops = flops
        if self.rounding is not None and self.last_loss is not None:
            rise = record.loss - self.last_loss
            record.loss_rose = rise > max(_LOSS_RISE_RTOL * abs(self.last_loss), self.rounding)
        self.last_loss = record.loss
        self.on_iteration(record)
        self.t0 += time.perf_counter() - start

    @np.errstate(over="ignore")
    def _residual_sq(self, runs) -> float:
        """||r||^2: each mode-0 row's r^2 summed in canonical order by ``np.add.reduceat``,
        whose bits do not depend on the segment's offset or alignment, then the
        I_0 row sums (0.0 for an empty row) in row order."""
        per_row = np.zeros(self.n_rows)
        for (rows, order, ptr, *_), values in runs:
            for r0, r1 in _batches(ptr, 1):
                lo, hi = ptr[r0], ptr[r1]
                run = values[lo:hi] if order is None else take_rows(values, order[lo:hi])
                per_row[rows[r0:r1]] = np.add.reduceat(np.square(run), ptr[r0:r1] - lo)
        return float(per_row.sum())


def final_subset(params: SolverParams) -> tuple[int, int]:
    """The (outer, subset) position of the schedule's last column subset."""
    return params.outer_iters, -(-params.rank // params.n_columns) - 1


def run_schedule(
    params: SolverParams,
    colstore: ColumnStore,
    augment: Callable[[list[np.ndarray]], None],
    refit: Callable[[list[np.ndarray], Stamp], None],
    write_back: Callable[[list[np.ndarray]], None],
    close: Callable[[int], None],
    *,
    keep_residual: bool = True,
) -> None:
    """Drive the subset-ALS schedule through one execution path's steps.

    Per column subset the driver loads every mode's slab of the active
    columns from ``colstore``; ``augment(slabs)`` turns the residual into
    r-hat, ``refit(slabs, stamp)`` refits mode ``stamp.mode`` (T_in sweeps
    over all modes) and ``write_back(slabs)`` restores the residual; then
    the driver stores the slabs back and releases them.  ``close(outer)``
    ends each outer iteration, through :meth:`Recorder.close`.

    Outer iteration 1 calls no ``augment``.  :func:`init_columns` draws a
    zero first factor and each column is refit once per outer iteration, so
    a subset's mode-0 columns are still +0.0 when it starts there: its
    reconstruction sums to +0.0 at every entry (the other factors are
    finite) and r-hat is the residual itself.  That holds bit for bit only
    for a residual without -0.0, which r + (+0.0) would make +0.0.  So every
    path starts from the canonical residual x + 0.0, and a write-back
    r-hat - p makes no -0.0 from an r-hat without one.  Per-subset set-up
    of a path belongs to the first step that needs it (the cluster copies
    the slabs to its other workers at the subset's first refit).

    After the :func:`final_subset` only a record reads the residual (the
    model never does), so with ``keep_residual=False``, for a run with no
    reader, that subset calls no ``write_back`` and leaves r-hat behind.
    """
    _, order_rng = rng_streams(params.seed)
    modes = range(len(colstore.mode_lengths))
    unread = None if keep_residual else final_subset(params)
    for it in range(1, params.outer_iters + 1):
        for si, columns in enumerate(choose_columns(params, order_rng)):
            slabs = [colstore.load_columns(n, columns) for n in modes]
            if it > 1:  # in outer iteration 1 r-hat is the residual (see above)
                augment(slabs)
            for inner in range(params.inner_iters):
                for n in modes:
                    stamp = Stamp(it, si, inner, n)
                    try:
                        refit(slabs, stamp)
                    except (ValueError, ArithmeticError) as exc:
                        raise type(exc)(f"{stamp}: {exc}") from exc
            if (it, si) != unread:
                write_back(slabs)
            for n in modes:
                colstore.store_columns(n, columns, slabs[n])
                colstore.release(slabs[n])
        close(it)


def factorize(
    store: SparseTensorStore,
    params: SolverParams,
    *,
    test_entries=None,
    on_iteration: ProgressHook | None = None,
    stats: SolveStats | None = None,
) -> FactorModel:
    """Run T_out outer iterations of subset-ALS and return the model.

    The residual is turned into r-hat and back in place by
    :func:`compute_rhat` and :func:`update_residual`.  The progress hook
    fires after each outer iteration with the regularized loss (and test
    RMSE when a test set is supplied); without one the last subset writes
    nothing back (see :func:`run_schedule`).
    """
    colstore, vals = init_columns(store.mode_lengths, params), store.values + 0.0  # no -0.0
    stats = stats if stats is not None else SolveStats()
    weighted = params.regularization == WEIGHTED
    groups = [store.groups(n) for n in range(store.n_modes)]

    def refit(slabs, stamp):
        update_rows(slabs, vals, stamp.mode, groups[stamp.mode], params.lam, weighted, stats)

    recorder = Recorder(store, params.lam, params.regularization, test_entries, on_iteration,
                        flops=stats.flops)
    run_schedule(params, colstore, lambda slabs: compute_rhat(vals, slabs, store.idx, stats),
                 refit, lambda slabs: update_residual(vals, slabs, store.idx, stats),
                 lambda it: recorder.close(it, [(groups[0], vals)],
                                           colstore.blocks(params.n_columns), stats.flops),
                 keep_residual=on_iteration is not None)
    return colstore.read_model(params.lam)


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
