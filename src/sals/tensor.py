"""Sparse tensor storage, factor models, and evaluation metrics.

An N-dimensional partially observed tensor is kept in coordinate form: one
shared entry list (sorted lexicographically by index tuple, the *canonical
order*, its indices kept column by column) plus, for every mode, a grouped
index that lists the positions of each row's entries and a copy of the other
modes' index columns in that order, which the row kernel slices.  Observed
cells have one in-memory form, a :class:`Coo` of 0-based arrays, from file
to store, test set and evaluator; indices are 1-based only in text files
and in the error messages that quote them.
A subset-ALS run holds its factors in one :class:`ColumnStore`, column-major
in memory or mapped from disk, and works on C-ordered slabs of C columns.
:func:`evaluate` is the one loss and RMSE evaluator of every solver path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np


class RowGroups(NamedTuple):
    """Rows of one mode with their buckets laid out back to back.

    Row ``rows[r]``'s entry positions are ``order[ptr[r]:ptr[r + 1]]``, in
    canonical order, and ``cols[m]`` holds those entries' mode-m indices in
    the same order; the mode's own entry is ``None``.  ``order`` is ``None``
    where the positions are ``ptr[r]:ptr[r + 1]`` themselves, the entries
    already in the residual's own order (mode 0's whole-mode groups and
    streaming chunks).  Every bucket in ``ptr`` has entries: the rows of the
    set whose buckets are empty are ``empty``.  This is the input layout of
    the row kernel: a batch of rows reads its entries' index columns as
    slices.
    """

    rows: np.ndarray
    order: np.ndarray | None
    ptr: np.ndarray
    cols: tuple[np.ndarray | None, ...]
    empty: np.ndarray


class Coo(NamedTuple):
    """Observed cells: 0-based (nnz, N) indices of any integer type, float64 values."""

    idx: np.ndarray
    values: np.ndarray


def _check_range(idx: np.ndarray, mode_lengths: Sequence[int], what: str = "entry") -> None:
    """One ``min`` and ``max`` per column; only a rejected column is scanned,
    for its first bad entry, which the message names."""
    for n, length in enumerate(mode_lengths):
        col = idx[:, n]
        if col.size and (col.min() < 0 or col.max() >= length):
            p = int(np.argmax((col < 0) | (col >= length)))
            raise ValueError(f"{what} {p}: mode {n} index {int(col[p]) + 1} outside [1, {length}]")


def as_coo(data: Coo, n_modes: int, mode_lengths: Sequence[int] | None = None) -> Coo:
    """``data`` checked as observed cells: (nnz, ``n_modes``) indices of an
    integer type (any type while nnz is 0), nnz finite values.

    A test set gives its model's ``mode_lengths``: it must then be nonempty
    and every index in range.  A bad value or index is named by its entry
    (its test entry in a test set).
    """
    if not isinstance(data, Coo):
        raise TypeError(f"expected observed cells as a Coo, got {type(data).__name__}")
    if data.idx.ndim != 2 or data.idx.shape[1] != n_modes:
        raise ValueError(f"expected (nnz, {n_modes}) indices, got {data.idx.shape}")
    if data.idx.size and data.idx.dtype.kind not in "iu":
        raise ValueError(f"indices must be of an integer type, not {data.idx.dtype}")
    if data.values.shape != (data.idx.shape[0],):
        raise ValueError(f"{data.idx.shape[0]} index rows but {data.values.size} values")
    what = "entry" if mode_lengths is None else "test entry"
    bad = np.flatnonzero(~np.isfinite(data.values))
    if bad.size:
        p = int(bad[0])
        raise ValueError(f"{what} {p}: value {data.values[p]} is not finite")
    if mode_lengths is not None:
        if data.values.size == 0:
            raise ValueError("empty test set")
        _check_range(data.idx, mode_lengths, what)
    return data


@dataclass(frozen=True)
class SparseTensorStore:
    """Immutable observed-entry set with per-mode row indexes.

    ``idx`` holds 0-based indices, shape (nnz, n_modes), canonical order,
    column-major (each mode's column is contiguous), in :func:`column_dtype`
    of the mode lengths; positions are in that of nnz.  ``sq_norm`` is
    ||x||^2, ``values @ values`` (inf if it overflows).  ``mode_perm[n]`` lists
    entry positions sorted by (row in mode n, canonical order) and
    ``mode_ptr[n]`` delimits each row's slice, so the bucket of row ``i`` in
    mode ``n`` is ``mode_perm[n][mode_ptr[n][i]:mode_ptr[n][i+1]]``.  Bucket
    positions are ascending, which keeps every accumulation in canonical
    entry order.  ``mode_cols[n][m]`` is ``idx[mode_perm[n], m]``, the
    other modes' indices in mode n's bucket order (``None`` at m = n);
    mode 0's bucket order is the canonical order, so its columns are
    ``idx``'s own.
    """

    mode_lengths: tuple[int, ...]
    idx: np.ndarray
    values: np.ndarray
    sq_norm: float
    mode_perm: tuple[np.ndarray, ...] = field(repr=False)
    mode_ptr: tuple[np.ndarray, ...] = field(repr=False)
    mode_cols: tuple[tuple[np.ndarray | None, ...], ...] = field(repr=False)

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
        """The buckets of ``rows`` of ``mode`` (default: every row, in order),
        the rows whose buckets are empty split out into ``empty``.  Asked for
        every row, ``order`` and ``cols`` are the store's own arrays, not
        copies, and mode 0's ``order`` is ``None``: its bucket order is the
        canonical order."""
        whole = rows is None
        rows, empty, sub_ptr = self.split_rows(mode, rows)
        if whole:
            return RowGroups(rows, self.mode_perm[mode] if mode else None, sub_ptr,
                             self.mode_cols[mode], empty)
        ptr = self.mode_ptr[mode]
        at = np.arange(sub_ptr[-1]) + np.repeat(ptr[rows] - sub_ptr[:-1], np.diff(sub_ptr))
        return RowGroups(rows, self.mode_perm[mode][at], sub_ptr,
                         tuple(None if c is None else take_rows(c, at)
                               for c in self.mode_cols[mode]), empty)

    def split_rows(self, mode: int, rows: np.ndarray | None = None):
        """``(filled, empty, ptr)``: ``rows`` of ``mode`` (default: every row,
        in order) whose buckets have entries, those whose buckets are empty,
        and the offsets of the filled rows' buckets laid back to back."""
        ptr = self.mode_ptr[mode]
        rows = np.arange(self.mode_lengths[mode]) if rows is None else np.asarray(rows, np.int64)
        sizes = ptr[rows + 1] - ptr[rows]
        filled = sizes > 0
        return rows[filled], rows[~filled], np.concatenate([[0], np.cumsum(sizes[filled])])

    def bucket_sizes(self, mode: int) -> np.ndarray:
        """|Omega^(n)_i| for every row i of ``mode``."""
        return np.diff(self.mode_ptr[mode])


def column_dtype(mode_lengths: Sequence[int]) -> np.dtype:
    """Index type of a store's index columns: int32 while every mode is
    shorter than 2^31 rows, else int64.  Entry positions take the type of
    one mode of length nnz."""
    return np.dtype(np.int32 if max(mode_lengths, default=0) < 1 << 31 else np.int64)


def take_columns(idx: np.ndarray, positions: np.ndarray, dtype=None) -> np.ndarray:
    """``idx[positions]`` as a column-major array, of ``idx``'s type unless
    ``dtype`` is given; an out-of-range position raises ``IndexError``.

    A column at a time, each made contiguous and of the result's type
    first, so a strided ``idx`` never costs a whole copy.  The positions
    are checked once and gathered in ``mode="wrap"``, as ``np.take`` into
    ``out=`` buffers the whole result in ``mode="raise"``.
    """
    dtype = idx.dtype if dtype is None else np.dtype(dtype)
    out = np.empty((positions.size, idx.shape[1]), dtype, order="F")
    nnz = idx.shape[0]
    if positions.size and not (-nnz <= positions.min() and positions.max() < nnz):
        raise IndexError(f"positions outside [{-nnz}, {nnz})")
    for n in range(idx.shape[1]):
        np.take(np.ascontiguousarray(idx[:, n], dtype=dtype), positions, out=out[:, n],
                mode="wrap")
    return out


def _digits(col: np.ndarray, length: int) -> list[np.ndarray]:
    """An in-range index column of a mode of ``length`` rows as 16-bit
    digits, least significant first: ``np.lexsort`` of them is the stable
    ascending order of ``col``.  numpy radix-sorts keys of 16 bits or fewer
    in its stable sorts, so each digit's pass is linear, where an int64
    key takes a comparison sort."""
    return [(col >> s if s else col).astype(np.uint16)
            for s in range(0, max(length - 1, 1).bit_length(), 16)]


def store_from_arrays(
    idx: np.ndarray, values: np.ndarray, mode_lengths: Sequence[int]
) -> SparseTensorStore:
    """Build a store from 0-based index/value arrays.

    Sorts into canonical order, rejects what :func:`as_coo` rejects,
    out-of-range indices and duplicate tuples, and builds the per-mode
    grouped indexes and index columns.  No second full copy of the indices is made: the
    canonical columns are gathered from ``idx`` one at a time.
    """
    mode_lengths = tuple(int(length) for length in mode_lengths)
    n_modes = len(mode_lengths)
    if any(length < 0 for length in mode_lengths):
        raise ValueError("mode lengths must be nonnegative")
    idx, values = as_coo(Coo(np.asarray(idx), np.asarray(values, dtype=np.float64)), n_modes)
    _check_range(idx, mode_lengths)
    idx = idx.astype(np.int64, copy=False)

    nnz = idx.shape[0]
    order = np.lexsort([d for n in range(n_modes - 1, -1, -1)
                        for d in _digits(idx[:, n], mode_lengths[n])])
    idx = take_columns(idx, order, column_dtype(mode_lengths))
    values = values[order]
    del order
    if nnz > 1:
        same = idx[1:, 0] == idx[:-1, 0]
        for n in range(1, n_modes):
            same &= idx[1:, n] == idx[:-1, n]
        dup = np.flatnonzero(same)
        if dup.size:
            tup = tuple(int(i) + 1 for i in idx[int(dup[0])])
            raise ValueError(f"duplicate index tuple {tup}")

    # Positions are indices below nnz.  Mode 0 leads the canonical order,
    # so its buckets are in it and its columns are idx's own.
    position = column_dtype((nnz,))
    perms = [np.arange(nnz, dtype=position)] + [
        np.lexsort(_digits(idx[:, n], mode_lengths[n])).astype(position)
        for n in range(1, n_modes)]
    cols = [tuple(None if m == n else idx[:, m] if n == 0 else np.take(idx[:, m], perms[n])
                  for m in range(n_modes)) for n in range(n_modes)]
    ptrs = [np.concatenate([[0], np.cumsum(np.bincount(idx[:, n], minlength=length))])
            for n, length in enumerate(mode_lengths)]
    with np.errstate(over="ignore"):  # such data fails in the row kernel
        sq_norm = float(values @ values)
    return SparseTensorStore(mode_lengths, idx, values, sq_norm, tuple(perms), tuple(ptrs),
                             tuple(cols))


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


class ColumnStore:
    """The factors of a subset-ALS run, one column-major (I_n, K) float64 array per mode.

    Loading or storing the active subset touches exactly C * I_n values per
    mode.  Loads hand out C-ordered (I_n, C) slabs, which :func:`take_rows`
    gathers from without copying them whole.  With a ``directory``, factor n
    is mapped from ``factor_<n>.bin``: its raw little-endian column-major
    values, no header.  The constructor makes every factor (and its file,
    anew) unset, for :meth:`write_full` to fill.  ``resident`` counts the
    loaded slabs' values and ``peak`` its highest count.
    """

    def __init__(self, mode_lengths: Sequence[int], rank: int, directory=None):
        self.mode_lengths, self.rank = tuple(mode_lengths), rank
        self.directory = None if directory is None else Path(directory)
        self.resident = self.peak = 0
        self.factors: list[np.ndarray] = []
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        for mode, length in enumerate(self.mode_lengths):
            shape = (length, rank)
            if self.directory is not None:
                path = self.directory / f"factor_{mode}.bin"
                path.unlink(missing_ok=True)  # an earlier run's mapping keeps its own file
                path.touch()
            if self.directory is None or not length:  # numpy maps an empty file only by writing it
                self.factors.append(np.empty(shape, order="F"))
            else:
                self.factors.append(np.memmap(path, "<f8", "r+", shape=shape, order="F"))

    def write_full(self, mode: int, matrix: np.ndarray, start: int = 0) -> None:
        """Set factor ``mode``'s rows from ``start`` on to ``matrix`` (init only;
        ``matrix`` counts resident transiently)."""
        self.peak = max(self.peak, self.resident + matrix.size)
        self.factors[mode][start:start + matrix.shape[0]] = matrix

    def load_columns(self, mode: int, columns: np.ndarray) -> np.ndarray:
        factor = self.factors[mode]
        slab = np.empty((factor.shape[0], columns.size))
        for j, k in enumerate(columns):  # contiguous column copies beat a strided cut
            slab[:, j] = factor[:, k]
        self.resident += slab.size
        self.peak = max(self.peak, self.resident)
        return slab

    def store_columns(self, mode: int, columns: np.ndarray, slab: np.ndarray) -> None:
        self.factors[mode][:, columns] = slab

    def release(self, slab: np.ndarray) -> None:
        self.resident -= slab.size

    def blocks(self, width: int):
        """Yield every factor's slab ``width`` columns at a time, released after use."""
        for start in range(0, self.rank, width):
            cols = np.arange(start, min(start + width, self.rank))
            slabs = [self.load_columns(n, cols) for n in range(len(self.mode_lengths))]
            yield slabs
            for slab in slabs:
                self.release(slab)

    def read_model(self, lam: float) -> FactorModel:
        """The model as row-major copies; meant for use after the metered loop."""
        return FactorModel(self.rank, lam, [np.array(f, order="C") for f in self.factors])


def take_rows(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``a[index]`` along the first axis, as a new array.

    Every row gather on the solver paths goes through here.  numpy's fancy
    indexing of a 2-D array by rows takes a generic path several times
    slower than ``np.take`` on a contiguous index.  The solvers' indices are
    contiguous columns: the store's column-major ``idx``, its per-mode
    copies and the columns of a streaming cache chunk, read straight into an
    F-ordered array, whose int16 or int32 values ``np.take`` casts to intp.
    A strided index (a column of a caller's row-major index matrix) is made
    contiguous first, as ``np.take`` is slower than fancy indexing on it.
    ``a`` should be contiguous too: ``np.take`` copies a strided ``a``
    whole before gathering.  Out-of-range indices raise ``IndexError`` as
    with fancy indexing.
    """
    return np.take(a, np.ascontiguousarray(index), axis=0)


_BLOCK_VALUES = 1 << 16  # (entries, C) values per block of a pass over entries


def _entry_blocks(nnz: int, c_cols: int) -> Iterator[slice]:
    """Slices of ``_BLOCK_VALUES // C`` entries (at least one) covering ``nnz``: every
    :func:`subset_products` caller's blocks, whose (entries, C) gathers stay near
    512 KB, in a core's L2 cache, at any C.  An entry's bits never depend on its block.
    """
    step = max(1, _BLOCK_VALUES // c_cols)
    for start in range(0, nnz, step):
        yield slice(start, start + step)


def subset_products(slabs: Sequence[np.ndarray], idx: np.ndarray,
                    own: tuple[int, np.ndarray] | None = None) -> np.ndarray:
    """Sum over the subset columns of the full mode product, per entry.

    ``slabs[n]`` is the (I_n, C) slice of factor n restricted to the active
    columns.  Products multiply modes left to right so every execution path
    produces identical floating-point results.  ``own = (mode, rows)`` gives
    that mode's factor rows per entry, (entries, C), in place of a gather;
    ``idx`` then holds the other modes' columns only, in mode order (a
    streaming cache chunk, which stores no own column).

    ``prod.sum(axis=1)`` pays one numpy inner-loop call per entry, so the
    row sums are taken column by column instead, with its bits (see
    :func:`_row_sums`).
    """
    mode, rows = (-1, None) if own is None else own
    cols = iter(idx.T)
    prod = rows.copy() if mode == 0 else take_rows(slabs[0], next(cols))  # safe to mutate
    for n in range(1, len(slabs)):
        prod *= rows if n == mode else take_rows(slabs[n], next(cols))
    return _row_sums(prod)


_ACCUMULATE_BELOW = 32  # at most 129: above 128 columns numpy sums a row in halves


def _row_sums(prod: np.ndarray) -> np.ndarray:
    """``prod.sum(axis=1)`` of a C-ordered (entries, C) array, bit for bit.

    Numpy adds each row's pairwise sum onto the identity 0.0.  Below 8
    terms that sum adds the row in order; from 8 to 128 terms it keeps eight
    accumulators r_j over columns j, j + 8, ..., combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and then adds the
    last C mod 8 columns in order.  Below ``_ACCUMULATE_BELOW`` columns the
    same sums run here column by column, one numpy call per column instead
    of one per entry; wider rows keep numpy's row sum, which is faster there.
    """
    width = prod.shape[1]
    if width < 8:
        total = 0.0 + prod[:, 0]
        for j in range(1, width):
            total += prod[:, j]
        return total
    if width >= _ACCUMULATE_BELOW:
        return prod.sum(axis=1)
    stop = width - width % 8
    acc = [prod[:, j] + prod[:, j + 8] if stop > 8 else prod[:, j] for j in range(8)]
    for i in range(16, stop, 8):
        for j in range(8):
            acc[j] += prod[:, i + j]
    total = acc[0] + acc[1]
    total += acc[2] + acc[3]
    half = acc[4] + acc[5]
    half += acc[6] + acc[7]
    total += half
    for j in range(stop, width):
        total += prod[:, j]
    total += 0.0  # onto numpy's identity: -0.0 becomes +0.0
    return total


def predict_entries(model: FactorModel, idx: np.ndarray) -> np.ndarray:
    """Model reconstruction for (m, N) 0-based index rows, or for one length-N cell.

    The indices must be of an integer type and inside the model's mode
    lengths; a bad cell is named with its mode and 1-based index.  It is
    filled in :func:`_entry_blocks`, so no temporary grows with the cells.
    """
    idx = np.asarray(idx)
    if idx.ndim not in (1, 2) or idx.shape[-1] != model.n_modes:
        raise ValueError(f"expected (m, {model.n_modes}) indices, got {idx.shape}")
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"indices must be of an integer type, not {idx.dtype}")
    idx = idx.reshape(-1, model.n_modes)
    _check_range(idx, [m.shape[0] for m in model.matrices], "cell")
    pred = np.empty(idx.shape[0])
    for block in _entry_blocks(idx.shape[0], model.rank):
        pred[block] = subset_products(model.matrices, idx[block].astype(np.int64, copy=False))
    return pred


def regularization_penalty(
    model: FactorModel, store: SparseTensorStore, regularization: str
) -> float:
    """lambda * sum of squared factor norms, plain or row-weighted by the store's
    |Omega^(n)_i|.  lambda is ``model.lam``.
    """
    if regularization not in ("plain", "weighted"):
        raise ValueError(f"unknown regularization {regularization!r}")
    weights = None if regularization == "plain" else [
        store.bucket_sizes(n) for n in range(store.n_modes)]
    return evaluate(0.0, [model.matrices], model.lam, weights, None)[0]


def evaluate(
    resid_sq: float,
    blocks: Iterable[Sequence[np.ndarray]],
    lam: float,
    weights: Sequence[np.ndarray] | None,
    test: Coo | None,
) -> tuple[float, float | None]:
    """Regularized loss and test RMSE of a model given as column blocks.

    ``resid_sq`` is the squared norm of the residual over the observed set.
    ``blocks`` yields every factor's slab over disjoint column sets that
    cover all K columns: C columns at a time on every subset-ALS path, a
    whole model at once otherwise.  The penalty and the test prediction fold over them.
    ``weights[n]`` weighs mode n's rows in the penalty; ``None`` is plain.
    """
    penalty = 0.0
    pred = None if test is None else np.zeros(test.values.size)
    for slabs in blocks:
        for n, slab in enumerate(slabs):
            sq = slab * slab
            if weights is None:
                penalty += float(sq.sum())
            else:
                penalty += float((sq.sum(axis=1) * weights[n]).sum())
        if pred is not None:
            for block in _entry_blocks(pred.size, slabs[0].shape[1]):
                pred[block] += subset_products(slabs, test.idx[block])
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
    err = predict_entries(model, store.idx)
    np.subtract(store.values, err, out=err)  # in place: the one nnz-long buffer
    return float(err @ err) + regularization_penalty(model, store, regularization)


def rmse(model: FactorModel, test: Coo) -> float:
    """Root mean square error of the model on held-out cells (see :func:`as_coo`)."""
    test = as_coo(test, model.n_modes, [m.shape[0] for m in model.matrices])
    return evaluate(0.0, [model.matrices], 0.0, None, test)[1]
