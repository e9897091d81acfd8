"""Parallel stochastic gradient descent baseline.

Each epoch randomly splits the observed entries into M shards; every shard
runs sequential SGD on a private model copy and the shard models are
averaged entrywise afterwards.  The epoch-t learning rate is 2*eta0/(1+t).
Within a shard, entries that share no factor row commute, so the sweep runs
as wavefronts of such entries, one vectorised step each, bitwise equal to
visiting the entries one at a time.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .solver import PLAIN, IterationRecord, ProgressHook, close_iteration, update_residual
from .tensor import FactorModel, SparseTensorStore, as_coo, evaluate


@dataclass(frozen=True)
class SgdParams:
    """Configuration of a PSGD run."""

    rank: int
    lam: float = 0.0
    eta0: float = 0.01
    outer_iters: int = 10
    n_shards: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if not (np.isfinite(self.lam) and np.isfinite(self.eta0)):
            raise ValueError("lam and eta0 must be finite")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.outer_iters < 1:
            raise ValueError("outer_iters must be >= 1")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")


def learning_rate(eta0: float, epoch: int) -> float:
    """Decay schedule 2*eta0/(1+t); epoch 0 runs at 2*eta0."""
    return 2.0 * eta0 / (1.0 + epoch)


def entry_residual(matrices: Sequence, indices0: Sequence[int], value: float) -> float:
    """x minus the full reconstruction at one cell, as scalar arithmetic.

    Works on numpy matrices or nested lists; the scalar operation sequence
    is fixed so both storage forms produce bitwise-equal results.
    """
    rank = len(matrices[0][0])
    r = value
    for k in range(rank):
        p = 1.0
        for n, i in enumerate(indices0):
            p *= matrices[n][i][k]
        r -= p
    return r


def sgd_update_entry(
    model: FactorModel,
    indices0: Sequence[int],
    r: float,
    eta: float,
    lam: float,
    degrees: Sequence[int],
) -> None:
    """One SGD step on all N*K parameters touched by a single entry.

    ``r`` is the residual computed before the step and ``degrees[n]`` the
    entry count |Omega^(n)_i| of the touched row, which apportions the
    regularizer across a row's entries.  All NK parameters move
    simultaneously: gradients use only pre-step values.  The cross-mode
    product divides the full product by the mode's own factor, falling back
    to a direct product when that factor is exactly zero.
    """
    mats = model.matrices
    n_modes = len(mats)
    rank = model.rank
    old = [[float(mats[n][indices0[n]][k]) for k in range(rank)] for n in range(n_modes)]
    full = [1.0] * rank
    for k in range(rank):
        p = 1.0
        for n in range(n_modes):
            p *= old[n][k]
        full[k] = p
    for n in range(n_modes):
        row = mats[n][indices0[n]]
        deg = degrees[n]
        for k in range(rank):
            a = old[n][k]
            if a != 0.0:
                g = full[k] / a
            else:
                g = 1.0
                for l in range(n_modes):
                    if l != n:
                        g *= old[l][k]
            row[k] = a - 2.0 * eta * (lam * a / deg - r * g)


def wavefront_levels(rows: np.ndarray) -> np.ndarray:
    """Level of each entry of a shard, given its (m, N) row ids in visit order.

    Entry j's level is 1 + the highest level of an earlier entry that shares
    one of its rows (row ids must be distinct across modes).  Entries of one
    level share no row, and an entry's earlier neighbours on each of its rows
    sit at lower levels, so running the levels in order applies every row's
    updates in visit order.
    """
    last = [0] * (int(rows.max()) + 1 if rows.size else 0)
    get = last.__getitem__
    levels = []
    for row in zip(*rows.T.tolist()):
        level = max(map(get, row)) + 1
        for g in row:
            last[g] = level
        levels.append(level)
    return np.array(levels, dtype=np.int64)


def _wavefront_sweep(
    stacked: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
    degrees: np.ndarray,
    eta: float,
    lam: float,
) -> None:
    """Sequential SGD over one shard's entries, in place on ``stacked``.

    ``stacked`` holds every factor row, mode after mode; ``rows`` (m, N) are
    the shard's entries as row ids into it, in visit order, with ``values``
    beside them, and ``degrees`` is every row's entry count.  Each level of
    :func:`wavefront_levels` runs as one vectorised step that repeats
    :func:`sgd_update_entry`'s scalar operations in its order, so the result
    is bitwise that of visiting the entries one by one.
    """
    m, n_modes = rows.shape
    rank = stacked.shape[1]
    levels = wavefront_levels(rows)
    order = np.argsort(levels, kind="stable")
    bounds = np.cumsum(np.bincount(levels)).tolist()
    flat = np.take(rows, order, axis=0).ravel()
    deg = np.take(degrees, flat).reshape(m, n_modes, 1)
    vq = np.empty((m, rank + 1))  # [value, q_0 .. q_{K-1}] per entry
    vq[:, 0] = np.take(values, order)
    two_eta = 2.0 * eta
    # Silent like the scalar floats: a zero divisor's quotient is replaced,
    # and psgd_epoch checks the averaged factors for non-finite results.
    with np.errstate(all="ignore"):
        for s, e in zip(bounds[:-1], bounds[1:]):
            at = flat[s * n_modes:e * n_modes]
            old = np.take(stacked, at, axis=0).reshape(e - s, n_modes, rank)
            full = np.multiply.reduce(old, axis=1, out=vq[s:e, 1:])
            r = np.subtract.reduce(vq[s:e], axis=1)
            g = full[:, None, :] / old
            if np.count_nonzero(old) < old.size:
                _zero_factor_products(old, g)
            step = old * lam
            step /= deg[s:e]
            g *= r[:, None, None]
            step -= g
            step *= two_eta
            stacked[at] = (old - step).reshape(-1, rank)


def _zero_factor_products(old: np.ndarray, g: np.ndarray) -> None:
    """Where a factor is exactly zero, the cross-mode product taken directly."""
    for n in range(old.shape[1]):
        zero = old[:, n] == 0.0
        if zero.any():
            others = np.multiply.reduce(np.delete(old, n, axis=1), axis=1)
            g[:, n][zero] = others[zero]


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(epoch + 2)[epoch + 1])


def psgd_epoch(
    store: SparseTensorStore,
    model: FactorModel,
    params: SgdParams,
    epoch: int,
    partition: list[np.ndarray] | None = None,
) -> FactorModel:
    """One averaged epoch: shard the entries, run SGD per shard, average.

    The partition and visit order come from a per-epoch seeded shuffle
    (shard j takes the j-th slice of one permutation, so the shard-to-data
    mapping is fixed by the seed alone).  ``partition`` overrides the
    shuffle with explicit position arrays, mainly for tests.  A non-finite
    averaged factor raises ValueError naming the epoch (1-based, as in the
    iteration records), the mode and the first such row.
    """
    if partition is None:
        rng = _epoch_rng(params.seed, epoch)
        perm = rng.permutation(store.nnz)
        partition = np.array_split(perm, params.n_shards)
    else:
        partition = [_shard_positions(j, order, store.nnz) for j, order in enumerate(partition)]
    if not partition:
        raise ValueError("partition has no shards")
    eta = learning_rate(params.eta0, epoch)
    offsets = np.cumsum([0, *store.mode_lengths])
    rows = store.idx + offsets[:-1]
    degrees = np.concatenate(
        [store.bucket_sizes(n) for n in range(store.n_modes)], dtype=np.float64)
    start = np.concatenate(model.matrices, dtype=np.float64)
    shards = [start.copy() for _ in partition]
    for stacked, positions in zip(shards, partition):
        _wavefront_sweep(
            stacked, np.take(rows, positions, axis=0), np.take(store.values, positions),
            degrees, eta, params.lam,
        )
    total = shards[0]
    for stacked in shards[1:]:
        total += stacked
    total /= len(shards)
    bad = np.flatnonzero(~np.isfinite(total).all(axis=1))
    if bad.size:
        n = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        raise ValueError(
            f"epoch {epoch + 1}: mode {n}, row {bad[0] - offsets[n]}: non-finite factor entries")
    return FactorModel(model.rank, model.lam, np.split(total, offsets[1:-1]))


def _shard_positions(shard: int, order, nnz: int) -> np.ndarray:
    """An explicit shard's visit order, checked to name entries of the store."""
    positions = np.asarray(order)
    if positions.size == 0:
        return np.zeros(0, dtype=np.int64)
    bad = (positions < 0) | (positions >= nnz)
    if bad.any():
        raise ValueError(
            f"partition shard {shard}: position {positions[bad][0]} outside [0, {nnz})")
    return positions


def init_sgd_model(store: SparseTensorStore, params: SgdParams) -> FactorModel:
    """Uniform [0,1) initialization of every factor matrix."""
    rng = np.random.default_rng(np.random.SeedSequence(params.seed).spawn(1)[0])
    mats = [rng.random((length, params.rank)) for length in store.mode_lengths]
    return FactorModel(params.rank, params.lam, mats)


def factorize_psgd(
    store: SparseTensorStore,
    params: SgdParams,
    *,
    test_entries=None,
    on_iteration: ProgressHook | None = None,
) -> FactorModel:
    """Run T_out averaged epochs from a random initialization.

    Each record's ``flops`` is nnz * 7NK, as every epoch makes one update
    per entry.  An update counts NK operations for the entry's
    reconstruction and residual (as the subset-ALS augment counts an entry),
    and six for each of the NK parameters it moves: the cross-mode quotient,
    lambda * a, the division by the row's degree, r * g (a multiply-add),
    the 2 * eta scaling and the step.
    """
    model = init_sgd_model(store, params)
    epoch_flops = store.nnz * 7 * store.n_modes * params.rank
    test = None if test_entries is None else as_coo(
        test_entries, store.n_modes, store.mode_lengths)

    def close(epoch):
        if on_iteration is None:
            return None
        err = store.values.copy()
        update_residual(err, model.matrices, store.idx)
        return IterationRecord(epoch, 0.0, *evaluate(
            float(err @ err), [model.matrices], store, params.lam, PLAIN, test,
        ), flops=epoch_flops)

    t0 = time.perf_counter()
    for epoch in range(params.outer_iters):
        model = psgd_epoch(store, model, params, epoch)
        t0 = close_iteration(t0, epoch + 1, close, on_iteration)
    return model
