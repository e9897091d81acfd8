"""Parallel stochastic gradient descent baseline.

Each epoch randomly splits the observed entries into M shards; every shard
runs sequential SGD on a private model copy and the shard models are
averaged entrywise afterwards.  The epoch-t learning rate is 2*eta0/(1+t).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .solver import PLAIN, IterationRecord, ProgressHook, close_iteration
from .tensor import FactorModel, SparseTensorStore, as_coo, evaluate, predict_entries


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


def _lists(model: FactorModel) -> list[list[list[float]]]:
    return [m.tolist() for m in model.matrices]


def _sgd_sweep(
    mats: list[list[list[float]]],
    idx_list: list[list[int]],
    values_list: list[float],
    order: list[int],
    degrees_list: list[list[int]],
    eta: float,
    lam: float,
    rank: int,
) -> None:
    # Pure-Python inner loop: mirrors sgd_update_entry operation for
    # operation, on list storage to dodge per-scalar numpy overhead.
    n_modes = len(mats)
    for p in order:
        ind = idx_list[p]
        r = values_list[p]
        rows = [mats[n][ind[n]] for n in range(n_modes)]
        full = [1.0] * rank
        for k in range(rank):
            q = 1.0
            for n in range(n_modes):
                q *= rows[n][k]
            full[k] = q
            r -= q
        old = [list(row) for row in rows]
        for n in range(n_modes):
            row = rows[n]
            deg = degrees_list[n][ind[n]]
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
    shuffle with explicit position arrays, mainly for tests.
    """
    if partition is None:
        rng = _epoch_rng(params.seed, epoch)
        perm = rng.permutation(store.nnz)
        partition = [np.asarray(a) for a in np.array_split(perm, params.n_shards)]
    eta = learning_rate(params.eta0, epoch)
    degrees_list = [np.diff(store.mode_ptr[n]).tolist() for n in range(store.n_modes)]
    idx_list = store.idx.tolist()
    values_list = store.values.tolist()
    shard_mats = []
    for order in partition:
        mats = _lists(model)
        _sgd_sweep(
            mats, idx_list, values_list, np.asarray(order).tolist(),
            degrees_list, eta, params.lam, params.rank,
        )
        shard_mats.append(mats)
    averaged = []
    for n in range(store.n_modes):
        acc = np.asarray(shard_mats[0][n], dtype=np.float64)
        for mats in shard_mats[1:]:
            acc += np.asarray(mats[n], dtype=np.float64)
        acc /= len(shard_mats)
        averaged.append(acc)
    return FactorModel(model.rank, model.lam, averaged)


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
    """Run T_out averaged epochs from a random initialization."""
    model = init_sgd_model(store, params)
    test = None if test_entries is None else as_coo(
        test_entries, store.n_modes, store.mode_lengths)

    def close(epoch):
        if on_iteration is None:
            return None
        err = store.values - predict_entries(model, store.idx)
        return IterationRecord(epoch, 0.0, *evaluate(
            float(err @ err), [model.matrices], store, params.lam, PLAIN, test,
        ))

    t0 = time.perf_counter()
    for epoch in range(params.outer_iters):
        model = psgd_epoch(store, model, params, epoch)
        t0 = close_iteration(t0, epoch + 1, close, on_iteration)
    return model
