"""Parallel stochastic gradient descent baseline.

Each epoch randomly splits the observed entries into M shards; every shard
runs sequential SGD on a private model copy and the shard models are
averaged entrywise afterwards.  The epoch-t learning rate is 2*eta0/(1+t).
Within a shard, entries that share no factor row commute, so a shard runs
as wavefronts of such entries, bitwise equal to visiting the entries one at
a time.  The shards write private copies, so one sweep runs the l-th
wavefront of every shard as one vectorised step, and an epoch takes as many
steps as its longest shard has wavefronts.  The wavefronts are found in one
of two ways: by Kahn's topological layering, vectorised per wavefront, when
the shards' entries make wide wavefronts, or by a Python pass per entry
when a hot row strings most entries into a chain of narrow ones.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .solver import PLAIN, ProgressHook, Recorder, update_residual
from .tensor import FactorModel, SparseTensorStore, _digits, column_dtype

# Entries whose row ids wavefront_levels turns into Python ints at a time
# (all at once would hold N int objects per entry), and the size of the
# windows of whole levels whose entries the sweep gathers at a time.
_LEVEL_CHUNK = 4096
# The sweep takes layered_levels when its entries are at least _WIDE times
# the busiest row's count in a shard, else wavefront_levels.  Layering wins
# once levels average about 13-17 entries: on one core of an AVX-512 x86
# machine (numpy 2.4) it costs 7-9 us per level plus 0.1 us per entry, and
# the Python pass 0.5-0.6 us per entry.  The busiest count bounds the levels
# from below; the levels are about 1-1.6x it on Zipf rows but 4-6x on
# uniform rows, so the break-even ratio is about 15-20 on the former and
# 65-85 on the latter.  32 sits between the two, which keeps a wrong pick
# on either kind within about 1.8x of the faster pass.
_WIDE = 32


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
    """Level of each entry, given the (m, N) row ids of entries in visit order.

    Entry j's level is 1 + the highest level of an earlier entry that shares
    one of its rows.  Row ids must be distinct across modes, and across
    shards when ``rows`` holds several shards' entries: each entry then gets
    its own shard's level.  Entries of one level share no row, and an
    entry's earlier neighbours on each of its rows sit at lower levels, so
    running the levels in order applies every row's updates in visit order.

    This is the Python pass: about 0.6 us per entry, whatever the levels'
    widths.  :func:`layered_levels` gives the same levels.
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
    return np.array(levels, dtype=column_dtype([rows.shape[0]]))


def layered_levels(rows: np.ndarray) -> np.ndarray:
    """:func:`wavefront_levels` by Kahn's topological layering, a few numpy
    calls per level: about 7-9 us per level and 0.1 us per entry.

    The entries are the nodes of a DAG with an edge from each entry to the
    next entry in visit order on each of its rows.  Level 1 is the entries
    without a predecessor, and level l + 1 the entries whose last pending
    predecessor is in level l, which is 1 + the highest level of their
    predecessors.  Each mode's successors come from a radix sort of that
    mode's row ids.
    """
    m, n_modes = rows.shape
    dtype = column_dtype([m])
    # succ[e, n]: the next entry on e's mode-n row, or e itself if there is
    # none; when e is levelled, that self-edge takes its pending count below
    # zero, so e is never ready again.
    succ = np.repeat(np.arange(m, dtype=dtype)[:, None], n_modes, axis=1)
    pending = np.zeros(m, np.min_scalar_type(-n_modes))  # predecessors not levelled yet
    bound = int(rows.max()) + 1 if m else 1
    for n in range(n_modes):
        order = np.lexsort(_digits(rows[:, n], bound))
        key = rows[:, n].take(order)
        same = key[1:] == key[:-1]
        del key
        succ[order[:-1], n] = np.where(same, order[1:], order[:-1])
        pending[order[1:]] += same
    levels = np.zeros(m, dtype)
    one = pending.dtype.type(1)  # a Python 1 takes ufunc.at's slow path
    frontier = np.flatnonzero(pending == 0)
    level = 0
    while frontier.size:
        level += 1
        levels[frontier] = level
        # intp, not the stored type: the slow paths of ufunc.at and fancy
        # indexing take twice as long on int32 indices
        cand = succ.take(frontier, axis=0).astype(np.intp).ravel()
        np.subtract.at(pending, cand, one)
        ready = cand[pending[cand] == 0]
        ready.sort()  # an entry that two edges reach is there twice
        frontier = np.concatenate((ready[:1], ready[1:][ready[1:] != ready[:-1]]))
    return levels


def _wavefront_sweep(
    stacked: np.ndarray,
    ids: np.ndarray,
    values: np.ndarray,
    degrees: np.ndarray,
    positions: np.ndarray,
    eta: float,
    lam: float,
) -> None:
    """Sequential SGD over every shard's entries at once, in place on ``stacked``.

    ``stacked`` holds M private copies of every factor row, mode after mode,
    one copy per shard.  ``ids`` (entries, N) are the shards' entries in
    visit order, one shard after another, as row ids into their own shard's
    copy; ``positions`` are the same entries' positions in ``values``, and
    ``degrees`` is the entry count of every row of one copy.  Each entry
    keeps its shard's level (:func:`wavefront_levels`), and step l runs
    level l of every shard as one vectorised step: shards share no row of
    ``stacked``, so each row still gets its shard's updates in visit order.
    A step repeats the scalar one-entry update's operations in its order,
    so the result is bitwise that of visiting each shard's entries one by
    one.  The entries' row ids, degrees and values are gathered one window
    of whole levels (about ``_LEVEL_CHUNK`` entries, or one larger level) at
    a time.

    The levels come from :func:`layered_levels` when the entries are at
    least ``_WIDE`` times the busiest row's count in a shard, which bounds
    the number of levels from below, and from :func:`wavefront_levels`
    otherwise.
    """
    n_modes = ids.shape[1]
    rank = stacked.shape[1]
    busiest = max(int(np.bincount(ids[:, n]).max()) for n in range(n_modes)) if ids.size else 0
    levels = (layered_levels if ids.shape[0] >= _WIDE * busiest else wavefront_levels)(ids)
    bounds = np.cumsum(np.bincount(levels, minlength=1)).tolist()
    order = np.lexsort(_digits(levels, len(bounds)))
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
            flat = ids.take(window, axis=0).astype(np.intp).ravel()
            # "wrap" takes each id modulo sum(I_n): the row's id in one copy
            deg = degrees.take(flat, mode="wrap").reshape(-1, n_modes, 1)
            vq = np.empty((window.size, rank + 1))  # [value, q_0 .. q_{K-1}] per entry
            vq[:, 0] = values.take(positions.take(window))
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
    store: SparseTensorStore, model: FactorModel, params: SgdParams, epoch: int
) -> FactorModel:
    """One averaged epoch: shard the entries, sweep all shards, average.

    The partition and visit order come from a per-epoch seeded shuffle
    (shard j takes the j-th slice of one permutation, so the shard-to-data
    mapping is fixed by the seed alone).  A non-finite averaged factor
    raises ValueError naming the epoch (1-based, as in the iteration
    records), the mode and the first such row.
    """
    positions = _epoch_rng(params.seed, epoch).permutation(store.nnz)
    sizes = [shard.size for shard in np.array_split(positions, params.n_shards)]
    return _sharded_epoch(store, model, params, epoch, positions, sizes)


def _sharded_epoch(
    store: SparseTensorStore, model: FactorModel, params: SgdParams, epoch: int,
    positions: np.ndarray, sizes: list[int],
) -> FactorModel:
    """:func:`psgd_epoch` over given shards: shard j visits the next ``sizes[j]``
    of ``positions``, int64 positions of the store's entries."""
    eta = learning_rate(params.eta0, epoch)
    offsets = np.cumsum([0, *store.mode_lengths]).tolist()
    # each visited entry's row ids into its own shard's copy of the rows
    ids = np.empty((positions.size, store.n_modes), column_dtype([len(sizes) * offsets[-1]]))
    for n in range(store.n_modes):
        np.add(store.idx[:, n].take(positions), offsets[n], out=ids[:, n], dtype=ids.dtype)
    start = 0
    for j, size in enumerate(sizes):
        ids[start:start + size] += j * offsets[-1]
        start += size
    degrees = np.concatenate(
        [store.bucket_sizes(n) for n in range(store.n_modes)], dtype=np.float64)
    stacked = np.tile(np.concatenate(model.matrices, dtype=np.float64), (len(sizes), 1))
    _wavefront_sweep(stacked, ids, store.values, degrees, positions, eta, params.lam)
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

    def residual(model):  # the record's one run: the residual, made once it is read
        err = store.values.copy()
        update_residual(err, model.matrices, store.idx)
        yield store.groups(0), err

    recorder = Recorder(store, params.lam, PLAIN, test_entries, on_iteration, flag_rises=False)
    for epoch in range(params.outer_iters):
        model = psgd_epoch(store, model, params, epoch)
        recorder.close(epoch + 1, residual(model), [model.matrices], (epoch + 1) * epoch_flops)
    return model
