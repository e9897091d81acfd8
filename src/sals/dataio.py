"""Tensor file formats, synthetic data, and the binary residual cache.

COO text files carry one entry per line: N integer indices then a value,
whitespace separated, 0- or 1-based.  The streaming cache is a fixed-width
little-endian binary format (one record = N int64 indices + one float64
value) with a magic header and a trailing CRC32.  One file holds the residual
entries of one mode grouped by row, so a sequential pass serves that mode's
updates; every read checks the record count and CRC its writer returned.
"""
from __future__ import annotations

import struct
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .tensor import (
    Coo,
    FactorModel,
    SparseTensorStore,
    TensorEntry,
    as_coo,
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


def write_coo(path, data: Coo | Iterable[TensorEntry], spec: CooFileSpec) -> None:
    """Write cells (see :func:`sals.tensor.as_coo`) as COO text, shortest round-trip floats."""
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


def plan_synthetic(
    mode_lengths: Sequence[int],
    nnz: int,
    rank: int,
    noise_sigma: float = 0.0,
    test_fraction: float = 0.0,
    seed: int = 0,
) -> SyntheticPlan:
    """Validate generator parameters without generating anything."""
    mode_lengths = tuple(int(length) for length in mode_lengths)
    if any(length < 1 for length in mode_lengths):
        raise ValueError("mode lengths must be positive")
    cells = 1
    for length in mode_lengths:
        cells *= length
    if not 0 <= nnz <= cells:
        raise ValueError(f"nnz={nnz} infeasible for {cells} cells")
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


def _sample_tuples(rng: np.random.Generator, lengths: tuple[int, ...], count: int) -> np.ndarray:
    """``count`` distinct index tuples, uniform over the cell space."""
    cells = 1
    for length in lengths:
        cells *= length
    if cells <= 1 << 24:
        flat = rng.choice(cells, size=count, replace=False)
    else:
        seen: set[int] = set()
        flat_list: list[int] = []
        while len(flat_list) < count:
            draw = rng.integers(0, cells, size=max(count - len(flat_list), 1024))
            for f in draw.tolist():
                if f not in seen:
                    seen.add(f)
                    flat_list.append(f)
                    if len(flat_list) == count:
                        break
        flat = np.asarray(flat_list, dtype=np.int64)
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
    mode_lengths = tuple(int(length) for length in mode_lengths)
    rng = np.random.default_rng(seed)
    cdfs = []
    for length in mode_lengths:
        weights = 1.0 / np.arange(1, length + 1) ** exponent
        cdf = np.cumsum(weights) / weights.sum()
        cdf[-1] = 1.0  # guard the top bucket against rounding below 1
        cdfs.append(cdf)
    seen: set[tuple[int, ...]] = set()
    rows: list[tuple[int, ...]] = []
    while len(rows) < nnz:
        batch = max(nnz - len(rows), 4096)
        draw = np.empty((batch, len(mode_lengths)), dtype=np.int64)
        for n, cdf in enumerate(cdfs):
            draw[:, n] = np.searchsorted(cdf, rng.random(batch))
        for tup in map(tuple, draw.tolist()):
            if tup not in seen:
                seen.add(tup)
                rows.append(tup)
                if len(rows) == nnz:
                    break
    idx = np.asarray(rows, dtype=np.int64)
    values = rng.uniform(1.0, 5.0, size=nnz)
    return store_from_arrays(idx, values, mode_lengths)


# --- binary residual cache ------------------------------------------------

CACHE_MAGIC = b"RTCACHE1"
CACHE_VERSION = 1
_HEADER = struct.Struct("<8sIIQ")  # magic, version, n_modes, record count


class CacheError(ValueError):
    """Corrupt or inconsistent cache file."""


class CacheWriter:
    """Sequential writer for one cache file; records are (indices, value)."""

    def __init__(self, path, n_modes: int):
        self.path = Path(path)
        self.n_modes = n_modes
        self._fh = open(self.path, "wb")
        self._fh.write(_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, n_modes, 0))
        self._crc = 0
        self.count = 0

    def append(self, idx: np.ndarray, values: np.ndarray) -> None:
        idx = np.asarray(idx, dtype="<i8").reshape(-1, self.n_modes)
        values = np.asarray(values, dtype="<f8").reshape(-1)
        rec = np.empty((idx.shape[0], self.n_modes + 1), dtype="<i8")
        rec[:, : self.n_modes] = idx
        rec[:, self.n_modes] = values.view("<i8")  # bit-preserving
        raw = rec.tobytes()
        self._crc = zlib.crc32(raw, self._crc)
        self._fh.write(raw)
        self.count += idx.shape[0]

    def close(self) -> dict:
        self._fh.write(struct.pack("<I", self._crc))
        self._fh.seek(0)
        self._fh.write(_HEADER.pack(CACHE_MAGIC, CACHE_VERSION, self.n_modes, self.count))
        self._fh.close()
        return {"records": self.count, "crc32": self._crc}


def stream_pass(
    path,
    visitor: Callable,
    *,
    expected: dict | None = None,
    chunk_records: int = 1 << 16,
):
    """Fold ``visitor(idx_chunk, values_chunk, acc)`` over a cache file.

    Records are visited in stored order exactly once; the CRC and record
    count are verified against the trailer and, when ``expected`` is given,
    against the writer's :meth:`CacheWriter.close` result (the file's
    manifest entry).  Returns the final accumulator (None for an empty
    cache).
    """
    path = Path(path)
    acc = None
    crc = 0
    seen = 0
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise CacheError(f"{path}: truncated header")
        magic, version, n_modes, count = _HEADER.unpack(head)
        if magic != CACHE_MAGIC or version != CACHE_VERSION:
            raise CacheError(f"{path}: bad magic or version")
        rec_width = (n_modes + 1) * 8
        while seen < count:
            take = min(chunk_records, count - seen)
            raw = fh.read(take * rec_width)
            if len(raw) != take * rec_width:
                raise CacheError(f"{path}: truncated records")
            crc = zlib.crc32(raw, crc)
            rec = np.frombuffer(raw, dtype="<i8").reshape(take, n_modes + 1)
            idx = rec[:, :n_modes]
            values = rec[:, n_modes].view("<f8")
            acc = visitor(idx, values, acc)
            seen += take
        trailer = fh.read(4)
        if len(trailer) != 4:
            raise CacheError(f"{path}: missing checksum trailer")
        (stored_crc,) = struct.unpack("<I", trailer)
    if stored_crc != crc:
        raise CacheError(f"{path}: checksum mismatch")
    if expected is not None:
        if expected.get("records") != count or expected.get("crc32") != crc:
            raise CacheError(f"{path}: does not match manifest entry")
    return acc


def cache_name(kind: str, mode: int) -> str:
    return f"{kind}_m{mode}.bin"


def write_residual_caches(
    store: SparseTensorStore,
    directory: Path,
    written: dict[Path, dict],
    chunk_records: int = 1 << 16,
) -> None:
    """Cache the initial residual (= x) per mode, grouped by that mode's rows.

    Each file's :meth:`CacheWriter.close` result goes into ``written``
    under its path, for :func:`stream_pass` to check on every read.
    """
    directory.mkdir(parents=True, exist_ok=True)
    for n in range(store.n_modes):
        perm = store.mode_perm[n]
        path = directory / cache_name("r", n)
        writer = CacheWriter(path, store.n_modes)
        for start in range(0, perm.size, chunk_records):
            sel = perm[start:start + chunk_records]
            writer.append(store.idx[sel], store.values[sel])
        written[path] = writer.close()
