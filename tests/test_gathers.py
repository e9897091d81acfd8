"""Every row gather on the solver paths reads a C-contiguous source.

``np.take`` copies a strided source whole before it gathers (see
:func:`sals.tensor.take_rows`), so one F-ordered slab turns each gather of
a refit into a copy of all I_n rows.  Each test wraps every module binding
of ``take_rows`` for one run of a path.  The check lives here, not in the
library: tests elsewhere feed ``take_rows`` strided input on purpose.
"""
from dataclasses import replace

import numpy as np
import pytest

from sals import cluster, partition, solver, streaming, tensor
from sals.tensor import Coo
from conftest import random_store

STORE = random_store(np.random.default_rng(9), (50, 50, 50), 3000)
TEST = Coo(np.random.default_rng(10).integers(0, 50, (200, 3)),
           np.random.default_rng(11).normal(size=200))
PARAMS = solver.SolverParams(rank=6, n_columns=4, outer_iters=2, lam=0.05, seed=4)
HOOKED = dict(test_entries=TEST, on_iteration=lambda record: None)


@pytest.fixture
def sources(monkeypatch):
    """(shape, C-contiguous) of the source of every ``take_rows`` call made while
    the test runs."""
    seen = []
    real = tensor.take_rows

    def recording(a, index):
        seen.append((a.shape, a.flags.c_contiguous))
        return real(a, index)

    for module in (tensor, solver, cluster, partition):
        monkeypatch.setattr(module, "take_rows", recording)
    return seen


def _stream():
    run = streaming.stream_factorize(STORE, PARAMS, chunk_records=500, **HOOKED)
    try:
        return run.load_model()
    finally:
        run.cleanup()


RUNS = {
    "sals": lambda: solver.factorize(STORE, PARAMS, **HOOKED),
    "cdtf": lambda: solver.factorize_cdtf(STORE, replace(PARAMS, n_columns=1), **HOOKED),
    "cluster": lambda: cluster.run_distributed(
        STORE, PARAMS, partition.greedy_assign(STORE, 3), check_replicas=True, **HOOKED)[0],
    "streaming": _stream,
}


@pytest.mark.parametrize("path", sorted(RUNS))
def test_path_gathers_from_c_contiguous_sources(sources, path):
    RUNS[path]()
    assert sources
    assert [shape for shape, contiguous in sources if not contiguous] == []


def test_rmse_gathers_from_c_contiguous_sources(sources):
    model = solver.factorize(STORE, PARAMS)
    sources.clear()
    tensor.rmse(model, TEST)
    assert sources
    assert [shape for shape, contiguous in sources if not contiguous] == []
