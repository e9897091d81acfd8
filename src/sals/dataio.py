"""Tensor file formats, synthetic data, and the binary residual cache.

COO text files carry one entry per line: N integer indices then a value,
whitespace separated, 0- or 1-based.  The streaming cache of one mode holds
that mode's residual entries grouped by row, as an (index file, value file)
pair read in lockstep.  Each file is little-endian binary: a header (magic,
version, words per record, bytes per word, record count), fixed-width
records and a CRC32 trailer.  An index record is N indices in the store's
column type (int32 while every mode is shorter than 2^31 rows, else int64),
a value record one float64.  The index file is written once; the value
file, the mode's one residual copy, is rewritten in place (into r-hat and
back), so it keeps its size and no file is created after set-up.  Every
read checks both files' lengths, and the record counts and CRCs their
writers returned.
"""
from __future__ import annotations

import math
import os
import struct
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .tensor import (
    Coo,
    FactorModel,
    SparseTensorStore,
    as_coo,
    column_dtype,
    predict_entries,
    store_from_arrays,
)


class DataFormatError(ValueError):
    """Malformed input file."""


@dataclass(frozen=True)
class CooFileSpec:
    """Shape of a COO text file: mode count and index base (0 or 1)."""

    n_modes: int
    index_base: int = 1

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.index_base not in (0, 1):
            raise ValueError("index_base must be 0 or 1")


def read_coo(path, spec: CooFileSpec) -> tuple[Coo, tuple[int, ...]]:
    """Parse a COO file; returns its cells as a :class:`Coo` and inferred mode lengths.

    One ``np.loadtxt`` call parses the file.  When that call fails, or its
    result holds an index below the base or a non-finite value, the
    line-by-line reference parser reads the file again and decides the
    result, so every error names its line.
    """
    dtype = [("i", "<i8", (spec.n_modes,)), ("v", "<f8")]
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rec = np.loadtxt(path, dtype=dtype, comments=None, encoding="utf-8", ndmin=1)
    except (ValueError, OSError):
        rec = None
    if rec is None or (rec["i"] < spec.index_base).any() or not np.isfinite(rec["v"]).all():
        idx, values = _read_coo_lines(path, spec)
    else:
        idx, values = rec["i"] - spec.index_base, np.ascontiguousarray(rec["v"])
    return Coo(idx, values), tuple(int(m) + 1 for m in idx.max(axis=0, initial=-1))


def _read_coo_lines(path, spec: CooFileSpec) -> Coo:
    """Reference parser of :func:`read_coo`, one line at a time, and its error path."""
    rows, vals = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != spec.n_modes + 1:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {spec.n_modes + 1} fields, got {len(parts)}"
                )
            try:
                raw = [int(p) for p in parts[:-1]]
                value = float(parts[-1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            if not np.isfinite(value):
                raise DataFormatError(f"{path}:{lineno}: non-finite value {parts[-1]}")
            for n, r in enumerate(raw):
                if r < spec.index_base:
                    raise DataFormatError(
                        f"{path}:{lineno}: mode {n + 1} index {r} below base {spec.index_base}"
                    )
                if r > np.iinfo(np.int64).max:
                    raise DataFormatError(
                        f"{path}:{lineno}: mode {n + 1} index {r} above the int64 maximum"
                    )
            rows.append(raw)
            vals.append(value)
    idx = np.asarray(rows, dtype=np.int64).reshape(-1, spec.n_modes) - spec.index_base
    return Coo(idx, np.asarray(vals, dtype=np.float64))


def write_coo(path, data: Coo, spec: CooFileSpec) -> None:
    """Write cells as COO text in ``spec``'s index base, shortest round-trip floats."""
    idx, values = as_coo(data, spec.n_modes)
    line = "{} " * spec.n_modes + "{!r}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(line.format, *(idx + spec.index_base).T.tolist(), values.tolist()))


DESK_SCALE_VALUES = 50_000_000


@dataclass(frozen=True)
class SyntheticPlan:
    """Validated generator parameters plus a desk-scale flag."""

    mode_lengths: tuple[int, ...]
    nnz: int
    rank: int
    noise_sigma: float
    test_fraction: float
    seed: int
    beyond_desk_scale: bool


def _feasible(mode_lengths: Sequence[int], nnz: int) -> tuple[int, ...]:
    """``mode_lengths`` as ints, checked positive and with room for ``nnz`` distinct cells."""
    mode_lengths = tuple(int(length) for length in mode_lengths)
    if any(length < 1 for length in mode_lengths):
        raise ValueError("mode lengths must be positive")
    cells = math.prod(mode_lengths)
    if not 0 <= nnz <= cells:
        raise ValueError(f"nnz={nnz} infeasible for {cells} cells")
    return mode_lengths


def plan_synthetic(
    mode_lengths: Sequence[int],
    nnz: int,
    rank: int,
    noise_sigma: float = 0.0,
    test_fraction: float = 0.0,
    seed: int = 0,
) -> SyntheticPlan:
    """Validate generator parameters without generating anything."""
    mode_lengths = _feasible(mode_lengths, nnz)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not 0 <= noise_sigma < np.inf:
        raise ValueError("noise_sigma must be finite and nonnegative")
    if not 0 <= test_fraction < 1:
        raise ValueError("test_fraction must be in [0, 1)")
    footprint = nnz * (len(mode_lengths) + 1) + rank * sum(mode_lengths)
    return SyntheticPlan(
        mode_lengths, nnz, rank, noise_sigma, test_fraction, seed,
        beyond_desk_scale=footprint > DESK_SCALE_VALUES,
    )


def _distinct_rows(
    draw: Callable[[int], np.ndarray], count: int, min_batch: int, width: int
) -> np.ndarray:
    """The first ``count`` distinct rows of repeated ``draw(batch)`` calls, as (count, width)."""
    seen: set[tuple[int, ...]] = set()
    rows: list[tuple[int, ...]] = []
    while len(rows) < count:
        for row in map(tuple, draw(max(count - len(rows), min_batch)).tolist()):
            if row not in seen:
                seen.add(row)
                rows.append(row)
                if len(rows) == count:
                    break
    return np.array(rows, dtype=np.int64).reshape(count, width)


def _sample_tuples(rng: np.random.Generator, lengths: tuple[int, ...], count: int) -> np.ndarray:
    """``count`` distinct index tuples, uniform over the cell space."""
    cells = math.prod(lengths)
    if cells > 1 << 63:  # cell ids overflow int64: draw each mode's index instead
        return _distinct_rows(lambda b: np.stack(
            [rng.integers(0, length, size=b) for length in lengths], axis=1,
        ), count, 1024, len(lengths))
    if cells <= 1 << 24:
        flat = rng.choice(cells, size=count, replace=False)
    else:
        flat = _distinct_rows(lambda b: rng.integers(0, cells, size=(b, 1)), count, 1024, 1)[:, 0]
    idx = np.empty((count, len(lengths)), dtype=np.int64)
    for n in range(len(lengths) - 1, -1, -1):
        idx[:, n] = flat % lengths[n]
        flat = flat // lengths[n]
    return idx


def generate_synthetic(
    mode_lengths: Sequence[int],
    nnz: int,
    rank: int,
    noise_sigma: float = 0.0,
    test_fraction: float = 0.0,
    seed: int = 0,
) -> tuple[SparseTensorStore, Coo, FactorModel]:
    """Sample a low-rank tensor with Gaussian noise and a train/test split.

    Ground-truth factors are uniform [0,1); the observed set is sampled
    uniformly without replacement.  Returns (train store, test cells,
    ground-truth model); everything is a pure function of the seed.  The
    ground-truth model has ``lam = 0``, so :func:`sals.loss` of it is the
    bare squared error; rebuild it with a run's lambda to compare losses.
    """
    plan = plan_synthetic(mode_lengths, nnz, rank, noise_sigma, test_fraction, seed)
    if plan.beyond_desk_scale:
        warnings.warn(
            f"synthetic request needs ~{nnz * (len(plan.mode_lengths) + 1)} stored values; "
            "beyond desk-scale defaults",
            ResourceWarning,
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    truth = FactorModel(
        rank, 0.0, [rng.random((length, rank)) for length in plan.mode_lengths]
    )
    idx = _sample_tuples(rng, plan.mode_lengths, nnz)
    values = predict_entries(truth, idx)
    if noise_sigma > 0:
        values = values + rng.normal(0.0, noise_sigma, size=nnz)
    n_test = int(round(nnz * test_fraction))
    test_pos = rng.choice(nnz, size=n_test, replace=False)
    test_mask = np.zeros(nnz, dtype=bool)
    test_mask[test_pos] = True
    train_store = store_from_arrays(idx[~test_mask], values[~test_mask], plan.mode_lengths)
    return train_store, Coo(idx[test_mask], values[test_mask]), truth


def generate_zipf(
    mode_lengths: Sequence[int],
    nnz: int,
    exponent: float = 1.2,
    seed: int = 0,
) -> SparseTensorStore:
    """Skewed benchmark tensor: per-mode row popularity follows a Zipf law."""
    mode_lengths = _feasible(mode_lengths, nnz)
    rng = np.random.default_rng(seed)
    cdfs = []
    for length in mode_lengths:
        weights = 1.0 / np.arange(1, length + 1) ** exponent
        cdf = np.cumsum(weights) / weights.sum()
        cdf[-1] = 1.0  # guard the top bucket against rounding below 1
        cdfs.append(cdf)
    idx = _distinct_rows(lambda b: np.stack(
        [np.searchsorted(cdf, rng.random(b)) for cdf in cdfs], axis=1,
    ), nnz, 4096, len(mode_lengths))
    values = rng.uniform(1.0, 5.0, size=nnz)
    return store_from_arrays(idx, values, mode_lengths)


# --- binary residual cache ------------------------------------------------

CACHE_MAGIC = b"RTCACHE1"
CACHE_VERSION = 3
# magic, version, words per record, bytes per word, record count
_HEADER = struct.Struct("<8sIHHQ")
_TRAILER = struct.Struct("<I")  # CRC32 of the records
_INDEX_TYPES = {4: np.dtype("<i4"), 8: np.dtype("<i8")}  # index word types by size
_VALUE_TYPE = np.dtype("<f8")


class CacheError(ValueError):
    """Corrupt or inconsistent cache file."""


class _CacheFile:
    """One cache file open for writing, records of ``width`` words of ``dtype``.

    The records go after the header's place; :meth:`close` appends the CRC32
    trailer and writes the header last, so each byte is written once.
    """

    def __init__(self, path: Path, width: int, dtype: np.dtype, mode: str):
        self.path = path
        self.width = width
        self.dtype = dtype
        self._fh = open(path, mode)
        self._fh.seek(_HEADER.size)
        self._crc = 0
        self.count = 0

    def write(self, records: np.ndarray) -> None:
        words = np.ascontiguousarray(records, dtype=self.dtype).reshape(-1, self.width)
        self._crc = zlib.crc32(words, self._crc)
        self._fh.write(words)
        self.count += words.shape[0]

    def close(self) -> dict:
        self._fh.write(_TRAILER.pack(self._crc))
        self._fh.seek(0)
        self._fh.write(_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, self.width,
                                    self.dtype.itemsize, self.count))
        self._fh.close()
        return {"records": self.count, "crc32": self._crc}

    def drop(self) -> None:
        """Close the file unfinished; nothing happens after :meth:`close`."""
        self._fh.close()


class CacheWriter:
    """Sequential writer of one cache: a value file and, when new, its index file.

    :meth:`create` makes both files of an (index, value) pair anew and
    :meth:`append` writes each record's N indices, as ``dtype``, and its
    value.  :meth:`rewrite` opens an existing value file in place
    (``r+b``), so no file is created and the file keeps its size; its
    :meth:`append` writes the values only, and takes ``None`` for the
    indices, which the pair's index file already holds.  Used as a context
    manager, the writer closes on leaving every file that :meth:`close` did
    not finish, so a pass that raises leaves no file open.
    """

    def __init__(self, values: _CacheFile, index: _CacheFile | None = None):
        self._files = [values] if index is None else [index, values]

    @classmethod
    def create(cls, pair, n_modes: int, dtype=np.int64) -> "CacheWriter":
        dtype = np.dtype(dtype)
        if dtype.kind != "i" or dtype.itemsize not in _INDEX_TYPES:
            raise ValueError(f"index records must be int32 or int64, not {dtype}")
        index_path, value_path = map(Path, pair)
        return cls(_CacheFile(value_path, 1, _VALUE_TYPE, "wb"),
                   _CacheFile(index_path, n_modes, _INDEX_TYPES[dtype.itemsize], "wb"))

    @classmethod
    def rewrite(cls, path) -> "CacheWriter":
        return cls(_CacheFile(Path(path), 1, _VALUE_TYPE, "r+b"))

    def append(self, idx: np.ndarray | None, values: np.ndarray) -> None:
        if len(self._files) == 2:  # a new pair: its index file comes first
            self._files[0].write(idx)
        self._files[-1].write(values)

    def close(self) -> dict[Path, dict]:
        """Finish every file written; returns its writer record by path."""
        return {f.path: f.close() for f in self._files}

    def __enter__(self) -> "CacheWriter":
        return self

    def __exit__(self, *exc) -> None:
        for f in self._files:
            f.drop()


def _read_header(fh, path: Path) -> tuple[int, int, int]:
    """Check a cache file's header and exact length; returns (width, word size, count)."""
    head = fh.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise CacheError(f"{path}: truncated header")
    magic, version, width, word, count = _HEADER.unpack(head)
    if magic != CACHE_MAGIC or version != CACHE_VERSION:
        raise CacheError(f"{path}: bad magic or version")
    if word not in _INDEX_TYPES:
        raise CacheError(f"{path}: {word}-byte words")
    size = _HEADER.size + count * width * word + _TRAILER.size
    actual = os.fstat(fh.fileno()).st_size
    if actual != size:
        raise CacheError(f"{path}: {actual} bytes, but {count} records of {width} words "
                         f"take {size}")
    return width, word, count


def stream_pass(
    path,
    visitor: Callable,
    *,
    expected: dict | None = None,
    chunk_records: int = 1 << 16,
):
    """Fold ``visitor(idx_chunk, values_chunk, acc)`` over a cache pair.

    ``path`` is an (index file, value file) pair, read in lockstep in the
    same chunks; records are visited in stored order exactly once, the
    indices as a (records, N) array of the index file's word type.  Both
    files' lengths, CRCs and record counts are verified against their
    headers and trailers, their counts against each other and, when
    ``expected`` is given, each file against its writer's record there
    (a mapping from path to the :meth:`CacheWriter.close` result).
    Returns the final accumulator (None for an empty cache).
    """
    index_path, value_path = map(Path, path)
    acc = None
    with open(index_path, "rb") as ifh, open(value_path, "rb") as vfh:
        n_modes, word, count = _read_header(ifh, index_path)
        width, value_word, value_count = _read_header(vfh, value_path)
        if width != 1 or value_word != _VALUE_TYPE.itemsize:
            what = f"{width} words per record" if width != 1 else f"{value_word}-byte words"
            raise CacheError(f"{value_path}: {what}, not a value file")
        if value_count != count:
            raise CacheError(
                f"{index_path} holds {count} records but {value_path} holds {value_count}")
        index_type = _INDEX_TYPES[word]
        icrc = vcrc = 0
        for start in range(0, count, chunk_records):
            take = min(chunk_records, count - start)
            raw_idx, raw_values = ifh.read(take * n_modes * word), vfh.read(take * 8)
            icrc, vcrc = zlib.crc32(raw_idx, icrc), zlib.crc32(raw_values, vcrc)
            idx = np.frombuffer(raw_idx, dtype=index_type).reshape(take, n_modes)
            acc = visitor(idx, np.frombuffer(raw_values, dtype=_VALUE_TYPE), acc)
        for fh, file, crc in ((ifh, index_path, icrc), (vfh, value_path, vcrc)):
            (stored_crc,) = _TRAILER.unpack(fh.read(_TRAILER.size))
            if stored_crc != crc:
                raise CacheError(f"{file}: checksum mismatch")
            if expected is not None and expected.get(file) != {"records": count, "crc32": crc}:
                raise CacheError(f"{file}: does not match its writer's record")
    return acc


def cache_pair(directory: Path, mode: int) -> tuple[Path, Path]:
    """The (index file, value file) pair of mode ``mode``'s cache."""
    return directory / f"idx_m{mode}.bin", directory / f"r_m{mode}.bin"


def write_residual_caches(
    store: SparseTensorStore,
    directory: Path,
    written: dict[Path, dict],
    chunk_records: int = 1 << 16,
) -> None:
    """Cache the initial residual (= x) per mode, grouped by that mode's rows.

    Both files of every mode's :func:`cache_pair` are created anew: the
    index file ``idx_m<n>.bin`` (written here only), its records in the
    store's column type, and the value file ``r_m<n>.bin``.  Each file's
    writer record goes into ``written`` under its path, for
    :func:`stream_pass` to check on every read.
    """
    directory.mkdir(parents=True, exist_ok=True)
    dtype = column_dtype(store.mode_lengths)
    for n in range(store.n_modes):
        perm, cols = store.mode_perm[n], store.mode_cols[n]
        with CacheWriter.create(cache_pair(directory, n), store.n_modes, dtype) as writer:
            for start in range(0, perm.size, chunk_records):
                sel = perm[start:start + chunk_records]
                idx = np.empty((sel.size, store.n_modes), dtype)
                for m, col in enumerate(cols):  # the other modes' columns are in this order
                    idx[:, m] = (np.take(store.idx[:, m], sel) if col is None
                                 else col[start:start + sel.size])
                writer.append(idx, np.take(store.values, sel))
            written.update(writer.close())
