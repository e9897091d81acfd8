import os
from pathlib import Path

import numpy as np
import pytest

from sals import solver
from sals.solver import NormalEq, compute_rhat, normal_eq_arrays, update_rows
from sals.tensor import FactorModel, SparseTensorStore, store_from_arrays

# Tests that start ``python -m sals`` need the source tree importable there
# too; pyproject's ``pythonpath`` only covers the pytest process itself.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def random_store(
    rng: np.random.Generator,
    mode_lengths,
    nnz: int,
    value_scale: float = 1.0,
) -> SparseTensorStore:
    """Store with ``nnz`` distinct uniform tuples and normal values."""
    cells = int(np.prod(mode_lengths))
    flat = rng.choice(cells, size=min(nnz, cells), replace=False)
    idx = np.empty((flat.size, len(mode_lengths)), dtype=np.int64)
    rem = flat
    for n in range(len(mode_lengths) - 1, -1, -1):
        idx[:, n] = rem % mode_lengths[n]
        rem = rem // mode_lengths[n]
    values = rng.normal(0.0, value_scale, size=flat.size)
    return store_from_arrays(idx, values, mode_lengths)


# Mode-0 bucket sizes of kernel_store: they straddle the row kernel's limits
# between segmented sums and per-row BLAS products, 64 entries above C = 2.
KERNEL_SIZES = (0, 1, 2, 63, 64, 65, 80, 0, 5)
# ... and also the 512 entries at C = 2.
LIMIT_SIZES = KERNEL_SIZES + (511, 512, 600)


def kernel_store(rng, n_modes, sizes=KERNEL_SIZES) -> SparseTensorStore:
    """Store whose mode-0 buckets hold ``sizes`` entries; other modes get random sizes."""
    if n_modes == 1:
        sizes = [0, 1, 1, 0, 1]
    others = {1: (), 2: (81,), 3: (9, 9), 4: (5, 4, 5)}[n_modes]
    if max(sizes) > np.prod(others):  # room for the largest bucket
        others = (max(sizes),) + others[1:]
    cells = int(np.prod(others))
    idx = []
    for row, size in enumerate(sizes):
        flat = rng.choice(cells, size=size, replace=False)
        tail = np.stack(np.unravel_index(flat, others), axis=1) if others else np.empty((size, 0))
        idx.append(np.column_stack([np.full(size, row), tail]))
    idx = np.concatenate(idx).astype(np.int64)
    return store_from_arrays(idx, rng.normal(size=len(idx)), (len(sizes), *others))


def shrink_batches(monkeypatch, cap: int) -> None:
    """Cap every row-kernel batch at ``cap`` entries, whatever C is."""
    monkeypatch.setattr(solver, "_BATCH_ENTRIES", cap)
    monkeypatch.setattr(solver, "_BATCH_VALUES", cap)


def random_model(
    rng: np.random.Generator, store: SparseTensorStore, rank: int, lam: float = 0.0
) -> FactorModel:
    """Dense random factors for oracle-style tests (first factor nonzero)."""
    mats = [rng.normal(0.0, 1.0, size=(length, rank)) for length in store.mode_lengths]
    return FactorModel(rank, lam, mats)


def augmented(store, residual, model, columns) -> np.ndarray:
    """r-hat for ``columns``: a copy of ``residual`` augmented by compute_rhat."""
    rhat = residual.copy()
    compute_rhat(rhat, [m[:, columns] for m in model.matrices], store.idx)
    return rhat


def refit_mode(store, rhat, model, mode, columns, params, stats=None) -> int:
    """Refit every row of one mode's active columns against r-hat; returns rows skipped.

    The row kernel's slab is written back into ``model``, as the solvers'
    write-back step does.
    """
    slabs = [m[:, columns] for m in model.matrices]
    skipped = update_rows(
        slabs, rhat, mode, store.groups(mode),
        params.lam, params.regularization == "weighted", stats,
    )
    model.matrices[mode][:, columns] = slabs[mode]
    return skipped


def row_normal_eq(store, rhat, model, mode, row, columns) -> NormalEq:
    """The normal equations of one row over ``columns``, as a stack of one."""
    pos = store.bucket(mode, row)
    slabs = [m[:, columns] for m in model.matrices]
    cols = store.idx[pos].T
    return normal_eq_arrays(slabs, cols, rhat[pos], np.array([0, pos.size]), mode)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
