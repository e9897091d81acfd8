"""Sparse tensor storage, factor models, and evaluation metrics.

An N-dimensional partially observed tensor is kept in coordinate form: one
shared entry list (sorted lexicographically by index tuple, the *canonical
order*) plus, for every mode, a grouped index that lists the positions of
each row's entries.  Observed cells have one in-memory form, a :class:`Coo`
of 0-based arrays, from file to store, test set and evaluator; indices are
1-based only in text files and in the error messages that quote them.
:func:`evaluate` is the one loss and RMSE evaluator of every solver path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class RowGroups(NamedTuple):
    """Rows of one mode with their buckets laid out back to back.

    Row ``rows[r]``'s entry positions are ``order[ptr[r]:ptr[r + 1]]``, in
    canonical order; this is the input layout of the row kernel.
    """

    rows: np.ndarray
    order: np.ndarray
    ptr: np.ndarray


class Coo(NamedTuple):
    """Observed cells as arrays: 0-based (nnz, N) int64 indices, float64 values."""

    idx: np.ndarray
    values: np.ndarray


def _check_range(idx: np.ndarray, mode_lengths: Sequence[int], what: str = "entry") -> None:
    for n, length in enumerate(mode_lengths):
        bad = np.flatnonzero((idx[:, n] < 0) | (idx[:, n] >= length))
        if bad.size:
            p = int(bad[0])
            raise ValueError(
                f"{what} {p}: mode {n} index {int(idx[p, n]) + 1} outside [1, {length}]"
            )


def as_coo(data: Coo, n_modes: int, mode_lengths: Sequence[int] | None = None) -> Coo:
    """``data`` checked as observed cells: (nnz, ``n_modes``) indices, nnz values.

    A test set gives its model's ``mode_lengths``: it must then be nonempty
    and every index in range.
    """
    if not isinstance(data, Coo):
        raise TypeError(f"expected observed cells as a Coo, got {type(data).__name__}")
    if data.idx.ndim != 2 or data.idx.shape[1] != n_modes:
        raise ValueError(f"expected (nnz, {n_modes}) indices, got {data.idx.shape}")
    if data.values.shape != (data.idx.shape[0],):
        raise ValueError(f"{data.idx.shape[0]} index rows but {data.values.size} values")
    if mode_lengths is not None:
        if data.values.size == 0:
            raise ValueError("empty test set")
        _check_range(data.idx, mode_lengths, "test entry")
    return data


@dataclass(frozen=True)
class SparseTensorStore:
    """Immutable observed-entry set with per-mode row indexes.

    ``idx`` holds 0-based indices, shape (nnz, n_modes), canonical order.
    ``mode_perm[n]`` lists entry positions sorted by (row in mode n,
    canonical order) and ``mode_ptr[n]`` delimits each row's slice, so the
    bucket of row ``i`` in mode ``n`` is
    ``mode_perm[n][mode_ptr[n][i]:mode_ptr[n][i+1]]``.  Bucket positions are
    ascending, which keeps every accumulation in canonical entry order.
    """

    mode_lengths: tuple[int, ...]
    idx: np.ndarray
    values: np.ndarray
    mode_perm: tuple[np.ndarray, ...] = field(repr=False)
    mode_ptr: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def n_modes(self) -> int:
        return len(self.mode_lengths)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def bucket(self, mode: int, row: int) -> np.ndarray:
        """Positions (into the entry list) of row ``row``'s entries in ``mode``."""
        ptr = self.mode_ptr[mode]
        return self.mode_perm[mode][ptr[row]:ptr[row + 1]]

    def groups(self, mode: int, rows: np.ndarray | None = None) -> RowGroups:
        """The buckets of ``rows`` of ``mode`` (default: every row, in order)."""
        ptr = self.mode_ptr[mode]
        if rows is None:
            return RowGroups(np.arange(self.mode_lengths[mode]), self.mode_perm[mode], ptr)
        rows = np.asarray(rows, dtype=np.int64)
        sizes = ptr[rows + 1] - ptr[rows]
        sub_ptr = np.concatenate([[0], np.cumsum(sizes)])
        at = np.arange(sub_ptr[-1]) + np.repeat(ptr[rows] - sub_ptr[:-1], sizes)
        return RowGroups(rows, self.mode_perm[mode][at], sub_ptr)

    def bucket_sizes(self, mode: int) -> np.ndarray:
        """|Omega^(n)_i| for every row i of ``mode``."""
        return np.diff(self.mode_ptr[mode])


def _index_mode(idx: np.ndarray, length: int, mode: int) -> tuple[np.ndarray, np.ndarray]:
    perm = np.argsort(idx[:, mode], kind="stable")
    rows_sorted = idx[perm, mode]
    ptr = np.searchsorted(rows_sorted, np.arange(length + 1))
    return perm, ptr


def store_from_arrays(
    idx: np.ndarray, values: np.ndarray, mode_lengths: Sequence[int]
) -> SparseTensorStore:
    """Build a store from 0-based index/value arrays.

    Sorts into canonical order, rejects non-finite values, out-of-range
    indices and duplicate tuples, and builds the per-mode grouped indexes.
    """
    mode_lengths = tuple(int(length) for length in mode_lengths)
    n_modes = len(mode_lengths)
    if any(length < 0 for length in mode_lengths):
        raise ValueError("mode lengths must be nonnegative")
    idx = np.ascontiguousarray(np.asarray(idx, dtype=np.int64).reshape(-1, n_modes))
    values = np.ascontiguousarray(np.asarray(values, dtype=np.float64).reshape(-1))
    if idx.shape[0] != values.shape[0]:
        raise ValueError("index and value counts differ")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        p = int(bad[0])
        raise ValueError(f"entry {p}: value {values[p]} is not finite")
    _check_range(idx, mode_lengths)

    if idx.shape[0]:
        order = np.lexsort(tuple(idx[:, n] for n in range(n_modes - 1, -1, -1)))
        idx = np.ascontiguousarray(idx[order])
        values = values[order]
        dup = np.flatnonzero((np.diff(idx, axis=0) == 0).all(axis=1))
        if dup.size:
            tup = tuple(int(i) + 1 for i in idx[int(dup[0])])
            raise ValueError(f"duplicate index tuple {tup}")

    perms, ptrs = [], []
    for n, length in enumerate(mode_lengths):
        perm, ptr = _index_mode(idx, length, n)
        perms.append(perm)
        ptrs.append(ptr)
    return SparseTensorStore(mode_lengths, idx, values, tuple(perms), tuple(ptrs))


def build_store(data: Coo, mode_lengths: Sequence[int]) -> SparseTensorStore:
    """Build a :class:`SparseTensorStore` from observed cells (see :func:`as_coo`)."""
    coo = as_coo(data, len(mode_lengths))
    return store_from_arrays(coo.idx, coo.values, mode_lengths)


@dataclass
class FactorModel:
    """Rank-K factor matrices, one (I_n, K) matrix per mode."""

    rank: int
    lam: float
    matrices: list[np.ndarray]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        for n, mat in enumerate(self.matrices):
            if mat.ndim != 2 or mat.shape[1] != self.rank:
                raise ValueError(f"factor {n} is not (I_n, {self.rank})")
            if not np.isfinite(mat).all():
                raise ValueError(f"factor {n} has non-finite entries")

    @property
    def n_modes(self) -> int:
        return len(self.matrices)

    def copy(self) -> "FactorModel":
        return FactorModel(self.rank, self.lam, [m.copy() for m in self.matrices])


def take_rows(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``a[index]`` along the first axis, as a new array.

    Every row gather on the solver paths goes through here.  numpy's fancy
    indexing of a 2-D array by rows takes a generic path several times
    slower than ``np.take`` on a contiguous index; on a strided index (a
    column of an index matrix) ``np.take`` is slower than fancy indexing,
    so the index is made contiguous first.  ``a`` should be contiguous too:
    ``np.take`` copies a strided ``a`` whole before gathering.  Out-of-range
    indices raise ``IndexError`` as with fancy indexing.
    """
    return np.take(a, np.ascontiguousarray(index), axis=0)


def subset_products(slabs: Sequence[np.ndarray], idx: np.ndarray) -> np.ndarray:
    """Sum over the subset columns of the full mode product, per entry.

    ``slabs[n]`` is the (I_n, C) slice of factor n restricted to the active
    columns.  Products multiply modes left to right so every execution path
    produces identical floating-point results.
    """
    prod = take_rows(slabs[0], idx[:, 0])  # a gather copies, safe to mutate
    for n in range(1, len(slabs)):
        prod *= take_rows(slabs[n], idx[:, n])
    return prod.sum(axis=1)


def predict_entries(model: FactorModel, idx: np.ndarray) -> np.ndarray:
    """Model reconstruction for a batch of 0-based index rows."""
    idx = np.asarray(idx, dtype=np.int64).reshape(-1, model.n_modes)
    return subset_products(model.matrices, idx)


def regularization_penalty(
    model: FactorModel, store: SparseTensorStore | None = None,
    regularization: str = "plain",
) -> float:
    """lambda * sum of squared factor norms, plain or row-weighted by |Omega^(n)_i|.

    lambda is ``model.lam``.
    """
    if regularization not in ("plain", "weighted"):
        raise ValueError(f"unknown regularization {regularization!r}")
    if regularization == "weighted" and store is None:
        raise ValueError("weighted regularization needs the store's row counts")
    return evaluate(0.0, [model.matrices], store, model.lam, regularization, None)[0]


def evaluate(
    resid_sq: float,
    blocks: Iterable[Sequence[np.ndarray]],
    store: SparseTensorStore | None,
    lam: float,
    regularization: str,
    test: Coo | None,
) -> tuple[float, float | None]:
    """Regularized loss and test RMSE of a model given as column blocks.

    ``resid_sq`` is the squared norm of the residual over the observed set.
    ``blocks`` yields every factor's slab over disjoint column sets that
    cover all K columns: the whole model at once in memory, C columns at a
    time out of core.  The penalty and the test prediction fold over them.
    ``store`` supplies the row counts of weighted regularization.
    """
    penalty = 0.0
    pred = None if test is None else np.zeros(test.values.size)
    for slabs in blocks:
        for n, slab in enumerate(slabs):
            sq = slab * slab
            if regularization == "weighted":
                penalty += float((sq.sum(axis=1) * store.bucket_sizes(n)).sum())
            else:
                penalty += float(sq.sum())
        if pred is not None:
            pred += subset_products(slabs, test.idx)
    total = resid_sq + lam * penalty
    if test is None:
        return total, None
    err = test.values - pred
    return total, float(np.sqrt((err @ err) / err.size))


def loss(
    model: FactorModel, store: SparseTensorStore, regularization: str = "plain"
) -> float:
    """Squared error over the observed set plus the regularization penalty.

    The penalty's lambda is ``model.lam``; a model with lambda = 0 (such as
    the ground truth of :func:`sals.generate_synthetic`) scores the bare
    squared error.  To compare with a run's loss, use a copy of the model
    carrying the run's lambda.
    """
    if model.n_modes != store.n_modes:
        raise ValueError("model and store dimensions differ")
    err = store.values - predict_entries(model, store.idx)
    return float(err @ err) + regularization_penalty(model, store, regularization)


def rmse(model: FactorModel, test: Coo) -> float:
    """Root mean square error of the model on held-out cells (see :func:`as_coo`)."""
    idx, vals = as_coo(test, model.n_modes, [m.shape[0] for m in model.matrices])
    err = vals - predict_entries(model, idx)
    return float(np.sqrt((err @ err) / err.size))
