"""Parallel stochastic gradient descent baseline.

Each epoch randomly splits the observed entries into M shards; every shard
runs sequential SGD on a private model copy and the shard models are
averaged entrywise afterwards.  The epoch-t learning rate is 2*eta0/(1+t).
Within a shard, entries that share no factor row commute, so a shard runs
as wavefronts of such entries, bitwise equal to visiting the entries one at
a time.  The shards write private copies, so one sweep runs the l-th
wavefront of every shard as one vectorised step, and an epoch takes as many
steps as its longest shard has wavefronts.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .solver import PLAIN, ProgressHook, Recorder, update_residual
from .tensor import FactorModel, SparseTensorStore

# Entries whose row ids wavefront_levels turns into Python ints at a time
# (a whole shard at once would hold N int objects per entry), and the size
# of the windows of whole levels whose entries the sweep gathers at a time.
_LEVEL_CHUNK = 4096


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
    for start in range(0, rows.shape[0], _LEVEL_CHUNK):
        for row in zip(*rows[start:start + _LEVEL_CHUNK].T.tolist()):
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
    positions: np.ndarray,
    sizes: list[int],
    eta: float,
    lam: float,
) -> None:
    """Sequential SGD over every shard's entries at once, in place on ``stacked``.

    ``stacked`` holds M private copies of every factor row, mode after mode,
    one copy per shard; ``rows`` (nnz, N) are the store's entries as row ids
    into one copy, with ``values`` beside them, and ``degrees`` is every
    row's entry count.  ``positions`` is the shards' visit orders one after
    another, ``sizes`` their lengths.  Each entry keeps its shard's
    :func:`wavefront_levels` level, and step l runs level l of every shard
    as one vectorised step: shards share no row of ``stacked``, so each row
    still gets its shard's updates in visit order.  A step repeats the
    scalar one-entry update's operations in its order, so the result is
    bitwise that of visiting each shard's entries one by one.  The entries'
    row ids, degrees and values are gathered one window of whole levels
    (about ``_LEVEL_CHUNK`` entries, or one larger level) at a time.
    """
    n_modes = rows.shape[1]
    rank = stacked.shape[1]
    n_rows = stacked.shape[0] // len(sizes)
    starts = np.cumsum([0, *sizes])
    levels = np.concatenate([
        wavefront_levels(np.take(rows, positions[s:e], axis=0))
        for s, e in zip(starts[:-1], starts[1:])
    ])
    order = np.argsort(levels, kind="stable")
    bounds = np.cumsum(np.bincount(levels, minlength=1)).tolist()
    del levels
    take = stacked.take
    two_eta = 2.0 * eta
    first = 0
    # Silent like the scalar floats: a zero divisor's quotient is replaced,
    # and psgd_epoch checks the averaged factors for non-finite results.
    with np.errstate(all="ignore"):
        while first < len(bounds) - 1:
            # whole levels: up to _LEVEL_CHUNK entries, but at least one level
            last = max(bisect_right(bounds, bounds[first] + _LEVEL_CHUNK) - 1, first + 1)
            window = order[bounds[first]:bounds[last]]
            pos = positions.take(window)
            flat = np.take(rows, pos, axis=0)
            deg = degrees.take(flat).reshape(-1, n_modes, 1)
            # each entry's row ids into its own shard's copy
            flat += ((np.searchsorted(starts, window, side="right") - 1) * n_rows)[:, None]
            flat = flat.ravel()
            vq = np.empty((window.size, rank + 1))  # [value, q_0 .. q_{K-1}] per entry
            vq[:, 0] = values.take(pos)
            local = [b - bounds[first] for b in bounds[first:last + 1]]
            for s, e in zip(local[:-1], local[1:]):
                at = flat[s * n_modes:e * n_modes]
                old = take(at, axis=0).reshape(e - s, n_modes, rank)
                full = np.multiply.reduce(old, axis=1, out=vq[s:e, 1:])
                r = np.subtract.reduce(vq[s:e], axis=1)
                g = full[:, None, :] / old
                if not old.all():
                    _zero_factor_products(old, g)
                step = old * lam
                step /= deg[s:e]
                g *= r[:, None, None]
                step -= g
                step *= two_eta
                old -= step
                stacked[at] = old.reshape(-1, rank)
            first = last


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
    """One averaged epoch: shard the entries, sweep all shards, average.

    The partition and visit order come from a per-epoch seeded shuffle
    (shard j takes the j-th slice of one permutation, so the shard-to-data
    mapping is fixed by the seed alone).  ``partition`` overrides the
    shuffle with explicit position arrays, mainly for tests; a shard that
    is not a 1-D integer array is a ValueError naming it.  A non-finite
    averaged factor raises ValueError naming the epoch (1-based, as in the
    iteration records), the mode and the first such row.
    """
    if partition is None:
        positions = _epoch_rng(params.seed, epoch).permutation(store.nnz)
        sizes = [shard.size for shard in np.array_split(positions, params.n_shards)]
    else:
        partition = [_shard_positions(j, order, store.nnz) for j, order in enumerate(partition)]
        if not partition:
            raise ValueError("partition has no shards")
        sizes = [shard.size for shard in partition]
        positions = np.concatenate(partition)
    eta = learning_rate(params.eta0, epoch)
    offsets = np.cumsum([0, *store.mode_lengths])
    rows = np.add(store.idx, offsets[:-1], order="C")  # row-major: np.take gathers rows
    degrees = np.concatenate(
        [store.bucket_sizes(n) for n in range(store.n_modes)], dtype=np.float64)
    stacked = np.tile(np.concatenate(model.matrices, dtype=np.float64), (len(sizes), 1))
    _wavefront_sweep(stacked, rows, store.values, degrees, positions, sizes, eta, params.lam)
    shards = stacked.reshape(len(sizes), offsets[-1], model.rank)
    total = shards[0].copy()  # the model must not keep all M copies alive
    for shard in shards[1:]:
        total += shard
    total /= len(sizes)
    bad = np.flatnonzero(~np.isfinite(total).all(axis=1))
    if bad.size:
        n = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        raise ValueError(
            f"epoch {epoch + 1}: mode {n}, row {bad[0] - offsets[n]}: non-finite factor entries")
    return FactorModel(model.rank, model.lam, np.split(total, offsets[1:-1]))


def _shard_positions(shard: int, order, nnz: int) -> np.ndarray:
    """An explicit shard's visit order, checked to name entries of the store."""
    positions = np.asarray(order)
    if positions.ndim != 1:
        raise ValueError(f"partition shard {shard}: visit order is {positions.ndim}-D, not 1-D")
    if positions.size == 0:  # an empty list reads as float64
        return np.zeros(0, dtype=np.int64)
    if positions.dtype.kind not in "iu":
        raise ValueError(
            f"partition shard {shard}: positions of dtype {positions.dtype}, not integer")
    bad = (positions < 0) | (positions >= nnz)
    if bad.any():
        raise ValueError(
            f"partition shard {shard}: position {positions[bad][0]} outside [0, {nnz})")
    return positions.astype(np.int64, copy=False)


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

    def measure():
        err = store.values.copy()
        update_residual(err, model.matrices, store.idx)
        return float(err @ err), [model.matrices]

    recorder = Recorder(store, params.lam, PLAIN, test_entries, on_iteration, flag_rises=False)
    for epoch in range(params.outer_iters):
        model = psgd_epoch(store, model, params, epoch)
        recorder.close(epoch + 1, measure, (epoch + 1) * epoch_flops)
    return model
