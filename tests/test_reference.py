"""An independent whole-run reference for subset-ALS, written from the update rule.

The three execution paths share one row kernel, so a wrong kernel would
still agree with itself.  This reference shares only the schedule with the
library (``init_columns``, ``choose_columns``, ``rng_streams``): per column
subset it builds r-hat densely from the factors, and it solves each row's
(sum g g^T + lambda' I) a = sum r-hat g with ``np.linalg.solve``, skipping
exactly the rows that :func:`sals.solver.update_rows` says it skips.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sals.solver import SolverParams, choose_columns, factorize, init_columns, rng_streams
from sals.tensor import store_from_arrays
from conftest import random_store


def reference_factorize(store, params) -> list[np.ndarray]:
    """The factor matrices of a subset-ALS run, one row solve at a time."""
    mats = init_columns(store.mode_lengths, params).read_model(params.lam).matrices
    idx, n_modes = store.idx, store.n_modes
    weighted = params.regularization == "weighted"
    _, order_rng = rng_streams(params.seed)
    for _ in range(params.outer_iters):
        for cols in choose_columns(params, order_rng):
            rest = np.setdiff1d(np.arange(params.rank), cols)
            # r-hat: x less the reconstruction of the columns outside the subset
            rhat = store.values - sum(
                np.prod([mats[n][idx[:, n], k] for n in range(n_modes)], axis=0) for k in rest)
            for _ in range(params.inner_iters):
                for n in range(n_modes):
                    g_all = np.ones((store.nnz, cols.size))
                    for m in range(n_modes):
                        if m != n:
                            g_all *= mats[m][idx[:, m]][:, cols]
                    for row in range(store.mode_lengths[n]):
                        mine = idx[:, n] == row
                        g, r = g_all[mine], rhat[mine]
                        lam = params.lam * (mine.sum() if weighted else 1)
                        if lam == 0 and np.count_nonzero(g.any(axis=1)) < cols.size:
                            continue  # sum g g^T has rank below C: the row keeps its values
                        system = g.T @ g + lam * np.eye(cols.size)
                        try:
                            mats[n][row, cols] = np.linalg.solve(system, g.T @ r)
                        except np.linalg.LinAlgError:
                            pass  # singular: the row keeps its values
    return mats


@st.composite
def cases(draw):
    """Stores with more entries than a rank-K model has parameters, so that no
    run fits them to rounding level, where lambda = 0 would solve for the
    rounding noise.  Each mode then gets 0 to 2 more rows of 0 or 1 entries:
    empty rows, and rows that the rank test skips at C > 1 and solves exactly
    at C = 1 (at larger C such a solve's bits hang on its conditioning)."""
    n_modes = draw(st.integers(2, 4))
    lengths = tuple(draw(st.lists(st.integers(3, 6), min_size=n_modes, max_size=n_modes)))
    cells = int(np.prod(lengths))
    nnz = draw(st.integers(cells // 2, cells * 3 // 4))
    rank = draw(st.integers(2, 4))
    assume(nnz > rank * sum(lengths))
    params = SolverParams(
        rank=rank,
        n_columns=draw(st.integers(1, rank)),
        outer_iters=draw(st.integers(1, 3)),
        inner_iters=draw(st.integers(1, 2)),
        lam=draw(st.sampled_from([0.0, 0.05, 0.5])),
        regularization=draw(st.sampled_from(["plain", "weighted"])),
        column_order=draw(st.sampled_from(["fixed", "random_per_outer"])),
        seed=draw(st.integers(0, 1000)),
    )
    few = draw(st.lists(st.lists(st.integers(0, 1), max_size=2),
                        min_size=n_modes, max_size=n_modes))
    return lengths, nnz, few, params, draw(st.integers(0, 1000))


def case_store(lengths, nnz, few, seed):
    """A random store over ``lengths`` plus, per mode n, rows of ``few[n]`` entries."""
    rng = np.random.default_rng(seed)
    dense = random_store(rng, lengths, nnz)
    idx, values = [dense.idx], [dense.values]
    for n, sizes in enumerate(few):
        other = [length for m, length in enumerate(lengths) if m != n]
        for j, size in enumerate(sizes):
            cell = np.unravel_index(rng.choice(int(np.prod(other)), size, replace=False), other)
            idx.append(np.insert(np.column_stack(cell), n, lengths[n] + j, axis=1))
            values.append(rng.normal(size=size))
    padded = [length + len(sizes) for length, sizes in zip(lengths, few)]
    return store_from_arrays(np.concatenate(idx), np.concatenate(values), padded)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(cases())
def test_factors_match_the_reference(case):
    *shape, params, seed = case
    store = case_store(*shape, seed)
    got = factorize(store, params).matrices
    for a, b in zip(got, reference_factorize(store, params)):
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-9 * max(1.0, np.max(np.abs(b)))
