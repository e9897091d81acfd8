"""Seeded benchmark inputs, generated with numpy alone.

The generators here deliberately do not call ``sals.generate_*``: the
benchmark writes plain COO text files before the timed process starts, so
the program under test receives only files and a change to ``sals.dataio``
cannot change what is measured.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

TEST_FRACTION = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                     # "lowrank" or "zipf"
    mode_lengths: tuple[int, ...]
    n_entries: int                # train + test, before the hold-out split
    outer_iters: int              # T_out of every subset-ALS path
    rmse_ceiling: float           # serial sals test RMSE must stay below this


WORKLOADS = {
    w.name: w
    for w in (
        # ~900 entries per row: per-row Python overhead is amortised and the
        # time goes to vectorised r-hat build, write-back, gathers and cache
        # bytes.  A kernel change must show no slowdown here.
        Workload(
            "dense", "~900 entries per row: vectorised r-hat, gathers and cache "
            "bytes dominate; a row-kernel change must not slow it",
            "lowrank", (200, 200, 200), 200_000, 2, 0.30,
        ),
        # ~20 entries per row: run time is almost all per-row overhead, and
        # cluster traffic (K * sum(I_n) per worker) is 12.5x that of dense.
        # A batched row kernel shows here.  Half the mode lengths of the
        # (5000,)^3 sizing keep the per-row shape but give twice the samples
        # per run, which the run-to-run spread needs on a shared machine.
        Workload(
            "sparse", "~20 entries per row: per-row solve overhead and cluster "
            "traffic dominate; a batched row kernel must win here",
            "lowrank", (2500, 2500, 2500), 55_000, 1, 1.50,
        ),
        # Heavy-tailed buckets, N = 4, greedy imbalance, rows that span
        # streaming chunk boundaries: catches wins on uniform rows only.
        Workload(
            "skewed", "Zipf(1.2), 4 modes: heavy-tailed buckets, one more product "
            "per gather, partition imbalance, rows spanning stream chunks",
            "zipf", (2000, 2000, 2000, 50), 200_000, 1, 2.00,
        ),
    )
}


def _distinct_flat(rng: np.random.Generator, draw, count: int) -> np.ndarray:
    """First ``count`` distinct values of repeated ``draw(size)`` batches."""
    got = np.empty(0, dtype=np.int64)
    while got.size < count:
        batch = np.concatenate([got, draw(max(count - got.size, 4096) * 2)])
        _, first = np.unique(batch, return_index=True)
        got = batch[np.sort(first)]
    return got[:count]


def _to_tuples(flat: np.ndarray, lengths: tuple[int, ...]) -> np.ndarray:
    idx = np.empty((flat.size, len(lengths)), dtype=np.int64)
    for n in range(len(lengths) - 1, -1, -1):
        idx[:, n] = flat % lengths[n]
        flat = flat // lengths[n]
    return idx


def lowrank(seed: int, lengths, count: int, rank: int = 5, sigma: float = 0.1):
    """Rank-``rank`` tensor of uniform [0,1) factors plus N(0, sigma) noise."""
    rng = np.random.default_rng(seed)
    factors = [rng.random((length, rank)) for length in lengths]
    cells = int(np.prod(lengths, dtype=np.int64))
    flat = _distinct_flat(rng, lambda size: rng.integers(0, cells, size=size), count)
    idx = _to_tuples(flat, tuple(lengths))
    prod = factors[0][idx[:, 0]].copy()
    for n in range(1, len(lengths)):
        prod *= factors[n][idx[:, n]]
    values = prod.sum(axis=1) + rng.normal(0.0, sigma, size=count)
    return idx, values, rng


def zipf(seed: int, lengths, count: int, exponent: float = 1.2):
    """Per-mode Zipf row popularity, distinct tuples, uniform [1, 5) values."""
    rng = np.random.default_rng(seed)
    lengths = tuple(lengths)
    cdfs = []
    for length in lengths:
        w = 1.0 / np.arange(1, length + 1) ** exponent
        cdf = np.cumsum(w) / w.sum()
        cdf[-1] = 1.0
        cdfs.append(cdf)
    strides = np.cumprod((1,) + lengths[:0:-1])[::-1]

    def draw(size):
        flat = np.zeros(size, dtype=np.int64)
        for n, cdf in enumerate(cdfs):
            flat += np.searchsorted(cdf, rng.random(size)) * strides[n]
        return flat

    idx = _to_tuples(_distinct_flat(rng, draw, count), lengths)
    values = rng.uniform(1.0, 5.0, size=count)
    return idx, values, rng


def write_coo(path: Path, idx: np.ndarray, values: np.ndarray) -> None:
    """1-based COO text with shortest round-trip float values."""
    lines = (
        " ".join(map(str, row)) + f" {v!r}\n"
        for row, v in zip((idx + 1).tolist(), values.tolist())
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def generate(workload: Workload, seed: int, out_dir: Path) -> None:
    """Write ``train.coo`` and ``test.coo`` for one workload and seed."""
    if workload.kind == "lowrank":
        idx, values, rng = lowrank(seed, workload.mode_lengths, workload.n_entries)
    else:
        idx, values, rng = zipf(seed, workload.mode_lengths, workload.n_entries)
    test = np.zeros(idx.shape[0], dtype=bool)
    test[rng.permutation(idx.shape[0])[: int(round(idx.shape[0] * TEST_FRACTION))]] = True
    out_dir.mkdir(parents=True, exist_ok=True)
    write_coo(out_dir / "train.coo", idx[~test], values[~test])
    write_coo(out_dir / "test.coo", idx[test], values[test])


# Used only by ``run.py --self-test``: every path on a seconds-long instance.
TINY = Workload(
    "tiny", "self-test instance: every path in seconds", "lowrank",
    (12, 10, 8), 700, 2, 1.0,
)
ALL_WORKLOADS = {**WORKLOADS, TINY.name: TINY}
