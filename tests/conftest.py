import os
from pathlib import Path

import numpy as np
import pytest

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


def random_model(
    rng: np.random.Generator, store: SparseTensorStore, rank: int, lam: float = 0.0
) -> FactorModel:
    """Dense random factors for oracle-style tests (first factor nonzero)."""
    mats = [rng.normal(0.0, 1.0, size=(length, rank)) for length in store.mode_lengths]
    return FactorModel(rank, lam, mats)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
