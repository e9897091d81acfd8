"""Tensor file formats, synthetic data, and the binary residual cache.

COO text files carry one entry per line: N integer indices then a value,
whitespace separated, 0- or 1-based.  The streaming cache of one mode holds
that mode's residual entries grouped by row: one index column file per
other mode and one value file, read in lockstep.  Each file is
little-endian binary (``CACHE_VERSION`` 4): a header (magic, version, kind,
bytes per word, record count), one word per record and a CRC32 trailer.
An index column file holds one other mode's index of every entry,
contiguous across the file, so its bytes do not depend on the chunks it is
written or read in; its words are int16 while every mode is shorter than
2^15 rows (so every index fits), else int32 below 2^31 rows, else int64.
An entry's indices thus take 2 (N - 1) bytes on int16.  The mode's own
index is not stored: the entries are grouped by its rows, and the bucket
sizes fix which row each entry has.  A value is one float64.  The column
files are written once; the value file, the mode's one residual copy, is
rewritten in place (into r-hat and back), so it keeps its size and no file
is created after set-up.  Every read checks each file's length and kind,
and the record counts and CRCs their writers returned.
"""
from __future__ import annotations

import math
import os
import struct
import warnings
import zlib
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

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


def _feasible(mode_lengths: Sequence[int], nnz: int) -> tuple[int, ...]:
    """``mode_lengths`` as ints, checked positive and with room for ``nnz`` distinct cells."""
    mode_lengths = tuple(int(length) for length in mode_lengths)
    if any(length < 1 for length in mode_lengths):
        raise ValueError("mode lengths must be positive")
    cells = math.prod(mode_lengths)
    if not 0 <= nnz <= cells:
        raise ValueError(f"nnz={nnz} infeasible for {cells} cells")
    return mode_lengths


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
    mode_lengths = _feasible(mode_lengths, nnz)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not 0 <= noise_sigma < np.inf:
        raise ValueError("noise_sigma must be finite and nonnegative")
    if not 0 <= test_fraction < 1:
        raise ValueError("test_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    truth = FactorModel(rank, 0.0, [rng.random((length, rank)) for length in mode_lengths])
    idx = _sample_tuples(rng, mode_lengths, nnz)
    values = predict_entries(truth, idx)
    if noise_sigma > 0:
        values = values + rng.normal(0.0, noise_sigma, size=nnz)
    n_test = int(round(nnz * test_fraction))
    test_pos = rng.choice(nnz, size=n_test, replace=False)
    test_mask = np.zeros(nnz, dtype=bool)
    test_mask[test_pos] = True
    train_store = store_from_arrays(idx[~test_mask], values[~test_mask], mode_lengths)
    return train_store, Coo(idx[test_mask], values[test_mask]), truth


def generate_zipf(
    mode_lengths: Sequence[int],
    nnz: int,
    exponent: float = 1.2,
    seed: int = 0,
) -> SparseTensorStore:
    """A store of ``nnz`` distinct cells, values uniform in [1, 5), whose rows follow
    a Zipf law in every mode: row i is drawn with weight 1 / (i + 1)^``exponent``."""
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
CACHE_VERSION = 4
# magic, version, kind (b"i" index column, b"f" values), bytes per word, record count
_HEADER = struct.Struct("<8sIcxHQ")
_TRAILER = struct.Struct("<I")  # CRC32 of the records
_WORDS = {b"i": {2: np.dtype("<i2"), 4: np.dtype("<i4"), 8: np.dtype("<i8")},  # by kind, size
          b"f": {8: np.dtype("<f8")}}
_KINDS = {b"i": "an index column file", b"f": "a value file"}
_VALUE_TYPE = _WORDS[b"f"][8]


class CacheError(ValueError):
    """Corrupt or inconsistent cache file."""


class _CacheFile:
    """One cache file open for writing, one word of ``dtype`` per record.

    The records go after the header's place; :meth:`close` appends the CRC32
    trailer and writes the header last, so each byte is written once.
    """

    def __init__(self, path: Path, dtype: np.dtype, mode: str):
        self.path = path
        self.dtype = dtype
        self._fh = open(path, mode)
        self._fh.seek(_HEADER.size)
        self._crc = 0
        self.count = 0

    def write(self, words: np.ndarray) -> None:
        words = np.ascontiguousarray(words, dtype=self.dtype)
        self._crc = zlib.crc32(words, self._crc)
        self._fh.write(words)
        self.count += words.size

    def close(self) -> dict:
        self._fh.write(_TRAILER.pack(self._crc))
        self._fh.seek(0)
        self._fh.write(_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, self.dtype.kind.encode(),
                                    self.dtype.itemsize, self.count))
        self._fh.close()
        return {"records": self.count, "crc32": self._crc}

    def drop(self) -> None:
        """Close the file unfinished; nothing happens after :meth:`close`."""
        self._fh.close()


class CacheWriter:
    """Sequential writer of one cache: a value file and, when new, its index column files.

    :meth:`create` makes every file of a cache anew, as :func:`cache_files`
    lists them: one index column file per other mode, then the value file.
    Its :meth:`append` takes a (records, N - 1) array of the records'
    indices, writes column j, as ``dtype``, to column file j, and writes the
    values.  :meth:`rewrite` opens an existing value file in place
    (``r+b``), so no file is created and the file keeps its size; its
    :meth:`append` writes the values only, and takes ``None`` for the
    indices, which the column files already hold.  Used as a context
    manager, the writer closes on leaving every file that :meth:`close` did
    not finish, so a pass that raises leaves no file open.
    """

    def __init__(self, files: list[_CacheFile]):
        self._files = files  # the index column files, then the value file

    @classmethod
    def create(cls, paths, dtype) -> "CacheWriter":
        dtype = np.dtype(dtype)
        if dtype.kind != "i" or dtype.itemsize not in _WORDS[b"i"]:
            raise ValueError(f"index records must be int16, int32 or int64, not {dtype}")
        *columns, values = map(Path, paths)
        words = [_WORDS[b"i"][dtype.itemsize]] * len(columns) + [_VALUE_TYPE]
        files = []
        try:
            for path, word in zip([*columns, values], words):
                files.append(_CacheFile(path, word, "wb"))
        except BaseException:  # no file stays open when a later one fails to open
            for f in files:
                f.drop()
            raise
        return cls(files)

    @classmethod
    def rewrite(cls, path) -> "CacheWriter":
        return cls([_CacheFile(Path(path), _VALUE_TYPE, "r+b")])

    def append(self, idx: np.ndarray | None, values: np.ndarray) -> None:
        for j, f in enumerate(self._files[:-1]):  # a new cache: its column files first
            f.write(idx[:, j])
        self._files[-1].write(values)

    def close(self) -> dict[Path, dict]:
        """Finish every file written; returns its writer record by path."""
        return {f.path: f.close() for f in self._files}

    def __enter__(self) -> "CacheWriter":
        return self

    def __exit__(self, *exc) -> None:
        for f in self._files:
            f.drop()


def _read_header(fh, path: Path, kind: bytes) -> tuple[np.dtype, int]:
    """Check a cache file's header, kind and exact length; returns (word type, count)."""
    head = fh.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise CacheError(f"{path}: truncated header")
    magic, version, file_kind, word, count = _HEADER.unpack(head)
    if magic != CACHE_MAGIC or version != CACHE_VERSION:
        raise CacheError(f"{path}: bad magic or version")
    if file_kind != kind:
        raise CacheError(f"{path}: {_KINDS.get(file_kind, f'kind {file_kind!r}')}, "
                         f"not {_KINDS[kind]}")
    if word not in _WORDS[kind]:
        raise CacheError(f"{path}: {word}-byte words")
    size = _HEADER.size + count * word + _TRAILER.size
    actual = os.fstat(fh.fileno()).st_size
    if actual != size:
        raise CacheError(f"{path}: {actual} bytes, but {count} records of {word} bytes "
                         f"take {size}")
    return _WORDS[kind][word], count


def stream_pass(path, visitor: Callable, *, expected: dict, chunks: Sequence[int]):
    """Fold ``visitor(idx_chunk, values_chunk, acc)`` over :func:`stream_chunks`;
    returns the final accumulator (None for an empty cache)."""
    acc = None
    for idx, values in stream_chunks(path, expected=expected, chunks=chunks):
        acc = visitor(idx, values, acc)
    return acc


def stream_chunks(path, *, expected: dict, chunks: Sequence[int]) -> Iterator:
    """Yield a cache's ``(idx_chunk, values_chunk)``: ``path`` lists its
    files as :func:`cache_files` does, the index column files in mode order
    and the value file last, read in lockstep in chunks of ``chunks``
    records each, which must add up to the files' record count; records are
    yielded in stored order exactly once.  Each chunk is read straight into
    fresh, writable arrays: the indices into an F-ordered (records, N - 1)
    array of the column files' word type, one contiguous column per file,
    and the values into a float64 vector.  Every file's length, CRC and
    record count are verified against its header and trailer, the counts
    against each other, and each file against its writer's record in
    ``expected`` (a mapping from path to the :meth:`CacheWriter.close`
    result), once the last chunk is consumed.
    """
    *columns, values_path = paths = [Path(p) for p in path]
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "rb")) for p in paths]
        value_type, count = _read_header(files[-1], values_path, b"f")
        index_type = np.dtype(np.intp)  # of the (records, 0) chunks of a 1-mode cache
        for j, (fh, column) in enumerate(zip(files, columns)):
            word_type, records = _read_header(fh, column, b"i")
            if records != count:
                raise CacheError(f"{column} holds {records} records but {values_path} "
                                 f"holds {count}")
            if j and word_type != index_type:
                raise CacheError(f"{column}: {word_type.itemsize}-byte words, but {columns[0]} "
                                 f"holds {index_type.itemsize}-byte words")
            index_type = word_type
        if sum(chunks) != count:
            raise CacheError(f"{paths[0]}: {count} records, but the chunks hold {sum(chunks)}")
        crcs = [0] * len(paths)
        for take in chunks:
            idx = np.empty((take, len(columns)), index_type, order="F")
            values = np.empty(take, value_type)
            for j, buf in enumerate([*idx.T, values]):  # each column is contiguous
                if files[j].readinto(buf) != buf.nbytes:
                    raise CacheError(f"{paths[j]}: truncated")
                crcs[j] = zlib.crc32(buf, crcs[j])
            yield idx, values
        for fh, file, crc in zip(files, paths, crcs):
            (stored_crc,) = _TRAILER.unpack(fh.read(_TRAILER.size))
            if stored_crc != crc:
                raise CacheError(f"{file}: checksum mismatch")
            if expected.get(file) != {"records": count, "crc32": crc}:
                raise CacheError(f"{file}: does not match its writer's record")


def cache_files(directory: Path, mode: int, n_modes: int) -> tuple[Path, ...]:
    """Mode ``mode``'s cache files: the index column file ``idx_m<mode>_<m>.bin``
    of every other mode m, in mode order, then the value file ``r_m<mode>.bin``."""
    return (*(directory / f"idx_m{mode}_{m}.bin" for m in range(n_modes) if m != mode),
            directory / f"r_m{mode}.bin")


def write_residual_caches(
    store: SparseTensorStore,
    directory: Path,
    written: dict[Path, dict],
    chunks: Sequence[Sequence[int]],
) -> None:
    """Cache the initial residual (= x) per mode, grouped by that mode's rows.

    Every file of every mode's :func:`cache_files` is created anew: the
    index column files (written here only), each a slice-by-slice copy of
    one of the store's columns in the mode's bucket order
    (``store.mode_cols``), int16 while every mode is shorter than 2^15 rows
    (so every index fits) and else the store's column type, and the value
    file ``r_m<n>.bin``, all written in chunks of ``chunks[n]`` records.
    The mode's own column is not stored: its rows and bucket sizes fix it.
    Each file's writer record goes into ``written`` under its path, for
    :func:`stream_pass` to check on every read.
    """
    directory.mkdir(parents=True, exist_ok=True)
    short = max(store.mode_lengths, default=0) < 1 << 15
    dtype = np.dtype(np.int16) if short else column_dtype(store.mode_lengths)
    for n in range(store.n_modes):
        perm = store.mode_perm[n]
        cols = [col for col in store.mode_cols[n] if col is not None]
        with CacheWriter.create(cache_files(directory, n, store.n_modes), dtype) as writer:
            start = 0
            for take in chunks[n]:
                sel = slice(start, start + take)
                idx = np.empty((take, len(cols)), dtype, order="F")
                for j, col in enumerate(cols):
                    idx[:, j] = col[sel]
                writer.append(idx, np.take(store.values, perm[sel]))
                start += take
            written.update(writer.close())
