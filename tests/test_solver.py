import dataclasses
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sals import solver, tensor
from sals.accounting import SolveStats
from sals.solver import (
    SolverParams,
    choose_columns,
    compute_rhat,
    factorize,
    factorize_cdtf,
    init_model,
    solve_row,
    update_residual,
    update_rows,
)
from sals.tensor import (
    Coo,
    FactorModel,
    predict_entries,
    regularization_penalty,
    store_from_arrays,
    subset_products,
)
from conftest import (
    KERNEL_SIZES, LIMIT_SIZES, augmented, kernel_store, random_model, random_store, refit_mode,
    row_normal_eq, shrink_batches, shrink_blocks,
)


def subset_loss(store, rhat, model, columns, regularization):
    """Regularized loss evaluated mid-subset from the augmented residual."""
    slabs = [m[:, columns] for m in model.matrices]
    prod = slabs[0][store.idx[:, 0]].copy()
    for n in range(1, store.n_modes):
        prod *= slabs[n][store.idx[:, n]]
    err = rhat - prod.sum(axis=1)
    return float(err @ err) + regularization_penalty(model, store, regularization)


def residual_error(residual, store, model):
    """Max absolute deviation of ``residual`` from x - reconstruction."""
    expected = store.values - predict_entries(model, store.idx)
    return float(np.max(np.abs(residual - expected), initial=0.0))


def one(B, c):
    """A single system as a stack of one."""
    return np.asarray(B)[np.newaxis], np.asarray(c)[np.newaxis]


class TestSolverParams:
    @pytest.mark.parametrize("kwargs, message", [
        ({"rank": 0}, "rank must be >= 1"),
        ({"rank": 2, "n_columns": 3}, r"n_columns must satisfy 1 <= C <= rank"),
        ({"rank": 2, "inner_iters": 0}, "iteration counts must be >= 1"),
        ({"rank": 2, "lam": -0.5}, "lam must be nonnegative"),
        ({"rank": 2, "column_order": "shuffled"}, "unknown column order 'shuffled'"),
    ])
    def test_bad_field_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SolverParams(**kwargs)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be finite"):
            SolverParams(rank=2, lam=lam)


class TestInitModel:
    def test_residual_equals_data(self, rng):
        store = random_store(rng, (5, 6, 7), 60)
        params = SolverParams(rank=3, seed=4)
        model, residual = init_model(store, params)
        assert residual_error(residual, store, model) == 0.0
        assert residual is not store.values

    def test_deterministic(self, rng):
        store = random_store(rng, (5, 6), 15)
        params = SolverParams(rank=3, seed=9)
        m1, _ = init_model(store, params)
        m2, _ = init_model(store, params)
        assert all(np.array_equal(a, b) for a, b in zip(m1.matrices, m2.matrices))

    def test_first_zero_rest_uniform(self, rng):
        store = random_store(rng, (4, 5, 6), 30)
        model, _ = init_model(store, SolverParams(rank=3, seed=0))
        assert not model.matrices[0].any()
        for mat in model.matrices[1:]:
            assert ((mat >= 0.0) & (mat < 1.0)).all()
            assert mat.any()


class TestChooseColumns:
    def test_fixed_chunks(self):
        subsets = choose_columns(SolverParams(rank=4, n_columns=2, column_order="fixed"))
        assert [s.tolist() for s in subsets] == [[0, 1], [2, 3]]

    def test_remainder_chunk(self):
        subsets = choose_columns(SolverParams(rank=5, n_columns=2, column_order="fixed"))
        assert [len(s) for s in subsets] == [2, 2, 1]

    def test_random_partition_reproducible(self):
        params = SolverParams(rank=100, n_columns=10)
        a = choose_columns(params, np.random.default_rng(7))
        b = choose_columns(params, np.random.default_rng(7))
        assert len(a) == 10
        assert sorted(np.concatenate(a).tolist()) == list(range(100))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_random_needs_rng(self):
        with pytest.raises(ValueError):
            choose_columns(SolverParams(rank=4, n_columns=2))


class TestComputeRhat:
    def test_zero_columns_leave_residual(self, rng):
        store = random_store(rng, (5, 6), 20)
        params = SolverParams(rank=3, n_columns=2, seed=1)
        model, residual = init_model(store, params)  # first factor all zero
        rhat = augmented(store, residual, model, np.array([0, 1]))
        assert np.array_equal(rhat, residual)

    def test_full_rank_recovers_data(self, rng):
        store = random_store(rng, (5, 6, 4), 40)
        model = random_model(rng, store, rank=3)
        residual = store.values - predict_entries(model, store.idx)
        rhat = augmented(store, residual, model, np.arange(3))
        scale = np.max(np.abs(store.values))
        assert np.max(np.abs(rhat - store.values)) <= 1e-9 * max(scale, 1.0)

    def test_single_entry_manual(self):
        store = store_from_arrays([[0, 0]], [9.0], (1, 1))
        residual = np.array([1.0])
        stats = SolveStats()
        compute_rhat(residual, [np.array([[2.0]]), np.array([[3.0]])], store.idx, stats)
        assert residual[0] == 7.0  # in place
        assert stats.flops == 2  # nnz * C * N


class TestEntryBlocks:
    """compute_rhat, update_residual and predict_entries take entries in
    blocks of ``_BLOCK_VALUES // C``; the bits must not depend on the blocks."""

    @pytest.mark.parametrize("values, nnz", [(1, 700), (7, 2000), (None, 70000)])
    @pytest.mark.parametrize("c_cols", [1, 3, 4, 8])
    def test_blocks_do_not_change_bits(self, monkeypatch, values, nnz, c_cols):
        rng = np.random.default_rng(nnz + c_cols)
        store = random_store(rng, (50, 40, 40), nnz)
        model = random_model(rng, store, rank=8)
        slabs = [m[:, :c_cols] for m in model.matrices]
        products = subset_products(slabs, store.idx)  # the whole pass as one block
        residual = rng.normal(size=store.nnz)
        residual[::5] = -products[::5]  # sums of exactly zero, whose sign must hold too
        if values is not None:
            shrink_blocks(monkeypatch, values)
        assert store.nnz > tensor._BLOCK_VALUES // c_cols  # more than one block
        rhat = residual.copy()
        compute_rhat(rhat, slabs, store.idx)
        assert rhat.tobytes() == (residual + products).tobytes()
        back = rhat.copy()
        update_residual(back, slabs, store.idx)
        assert back.tobytes() == (rhat - products).tobytes()
        full = FactorModel(c_cols, 0.0, slabs)
        for idx in (store.idx, np.ascontiguousarray(store.idx, dtype=np.int64)):
            assert predict_entries(full, idx).tobytes() == products.tobytes()

    @pytest.mark.parametrize("c_cols", [1, 4, 8])
    def test_one_pass_calls_subset_products_once_per_block(self, monkeypatch, c_cols):
        # perfbench's solver.subset_products span must see every block.
        rng = np.random.default_rng(c_cols)
        nnz = 100_000
        idx = np.asfortranarray(rng.integers(0, 50, size=(nnz, 3), dtype=np.int32))
        slabs = [rng.random((50, c_cols)) for _ in range(3)]
        calls, original = [], solver.subset_products

        def spy(slabs, idx, own):
            calls.append(idx.shape[0])
            return original(slabs, idx, own)

        monkeypatch.setattr(solver, "subset_products", spy)
        for step in (compute_rhat, update_residual):
            calls.clear()
            step(np.zeros(nnz), slabs, idx)
            assert len(calls) == math.ceil(nnz / (2**16 // c_cols)), step.__name__
            assert sum(calls) == nnz and max(calls) == 2**16 // c_cols

    def test_rhat_peak_does_not_grow_with_nnz(self):
        peaks = []
        for nnz in (1 << 18, 1 << 19):
            rng = np.random.default_rng(nnz)
            idx = np.asfortranarray(rng.integers(0, 1000, size=(nnz, 3), dtype=np.int32))
            slabs = [rng.random((1000, 4)) for _ in range(3)]
            residual = np.zeros(nnz)
            tracemalloc.start()
            try:
                compute_rhat(residual, slabs, idx)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one block's gathers at C = 4 are about 2^16 values, 512 KB
        assert peaks[1] <= peaks[0] + 4096, peaks
        assert peaks[1] <= 4 * tensor._BLOCK_VALUES * 8, peaks


class TestBuildNormalEq:
    def test_single_entry_manual(self):
        store = store_from_arrays([[0, 0]], [9.0], (1, 1))
        model = FactorModel(1, 0.0, [np.array([[2.0]]), np.array([[3.0]])])
        B, c, _ = row_normal_eq(store, np.array([6.0]), model, 0, 0, np.array([0]))
        assert B[0, 0, 0] == 9.0
        assert c[0, 0] == 18.0

    def test_empty_row_zero_system(self, rng):
        store = store_from_arrays([[0, 0]], [2.0], (2, 1))
        model = random_model(rng, store, rank=2)
        B, c, _ = row_normal_eq(store, np.array([2.0]), model, 0, 1, np.array([0, 1]))
        assert not B.any() and not c.any()

    def test_matches_brute_force(self, rng):
        store = random_store(rng, (6, 5, 7), 90)
        model = random_model(rng, store, rank=4)
        columns = np.array([0, 2, 3])
        residual = store.values - predict_entries(model, store.idx)
        rhat = augmented(store, residual, model, columns)
        for mode in range(3):
            for row in range(store.mode_lengths[mode]):
                got_B, got_c, _ = row_normal_eq(store, rhat, model, mode, row, columns)
                B = np.zeros((3, 3))
                c = np.zeros(3)
                for pos in store.bucket(mode, row):
                    ind = store.idx[pos]
                    g = [
                        np.prod([model.matrices[l][ind[l], k] for l in range(3) if l != mode])
                        for k in columns
                    ]
                    for c1 in range(3):
                        for c2 in range(3):
                            B[c1, c2] += g[c1] * g[c2]
                        c[c1] += rhat[pos] * g[c1]
                assert np.allclose(got_B[0], B, rtol=1e-12, atol=1e-12)
                assert np.allclose(got_c[0], c, rtol=1e-12, atol=1e-12)


class TestSolveRow:
    def test_identity_zero_rhs(self):
        x, ok = solve_row(*one(np.eye(3), np.zeros(3)), 0.0)
        assert ok.tolist() == [True] and not x.any()

    def test_scalar_with_ridge(self):
        x, ok = solve_row(*one([[1.0]], [1.0]), 1.0)
        assert ok.tolist() == [True] and x[0, 0] == pytest.approx(0.5)

    def test_matches_inverse_oracle(self, rng):
        for _ in range(20):
            half = rng.normal(size=(8, 5))
            B = half.T @ half + 0.05 * np.eye(5)
            c = rng.normal(size=5)
            lam = float(rng.choice([0.0, 0.1, 1.0]))
            x, ok = solve_row(*one(B, c), lam)
            assert ok.tolist() == [True]
            expected = np.linalg.inv(B + lam * np.eye(5)) @ c
            assert np.linalg.norm(x[0] - expected) <= 1e-10 * max(np.linalg.norm(expected), 1e-30)

    def test_singular_flagged(self):
        x, ok = solve_row(*one(np.zeros((2, 2)), np.ones(2)), 0.0)
        assert ok.tolist() == [False] and not x.any()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite normal equations"):
            solve_row(*one([[np.nan]], [1.0]), 0.1)

    @pytest.mark.parametrize("lam", [-0.1, np.array([0.1, -1e-300])])
    def test_negative_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lam_eff must be nonnegative"):
            solve_row(np.stack([np.eye(2)] * 2), np.ones((2, 2)), lam)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("c_cols", [1, 2, 3])
    def test_non_finite_system_names_mode_and_row(self, rng, c_cols):
        # update_rows checks each batch once and solves unchecked; the check
        # names the first row whose system is not finite.
        store = kernel_store(rng, 3)
        slabs = [rng.normal(size=(length, c_cols)) for length in store.mode_lengths]
        rhat = rng.normal(size=store.nnz)
        entry = store.bucket(0, 3)[0]
        rhat[entry] = np.inf
        for mode in (0, 1):
            row = int(store.idx[entry, mode])
            with pytest.raises(ValueError,
                               match=rf"^mode {mode}, row {row}: non-finite normal equations$"):
                update_rows(slabs, rhat, mode, store.groups(mode), 0.1, False)

    def test_update_rows_rejects_negative_lambda(self, rng):
        store = kernel_store(rng, 3)
        slabs = [rng.normal(size=(length, 2)) for length in store.mode_lengths]
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            update_rows(slabs, rng.normal(size=store.nnz), 0, store.groups(0), -0.1, False)


class TestUpdateMode:
    def test_single_entry_exact_fit(self):
        store = store_from_arrays([[0, 0]], [2.0], (1, 1))
        params = SolverParams(rank=1, n_columns=1, lam=0.0, seed=0)
        model = FactorModel(1, 0.0, [np.zeros((1, 1)), np.array([[3.0]])])
        rhat = augmented(store, store.values, model, np.array([0]))
        refit_mode(store, rhat, model, 0, np.array([0]), params)
        assert model.matrices[0][0, 0] == pytest.approx(2.0 / 3.0)

    def test_huge_lambda_shrinks_to_zero(self, rng):
        store = random_store(rng, (4, 5), 15)
        params = SolverParams(rank=2, n_columns=2, lam=1e12, seed=0)
        model = random_model(rng, store, rank=2, lam=1e12)
        residual = store.values - predict_entries(model, store.idx)
        cols = np.arange(2)
        rhat = augmented(store, residual, model, cols)
        refit_mode(store, rhat, model, 0, cols, params)
        assert np.max(np.abs(model.matrices[0])) < 1e-9

    def test_rows_match_least_squares_oracle(self, rng):
        store = random_store(rng, (5, 4, 6), 70)
        params = SolverParams(rank=2, n_columns=2, lam=0.2, seed=0)
        model = random_model(rng, store, rank=2, lam=0.2)
        cols = np.arange(2)
        residual = store.values - predict_entries(model, store.idx)
        rhat = augmented(store, residual, model, cols)
        fixed = [m.copy() for m in model.matrices]
        refit_mode(store, rhat, model, 1, cols, params)
        for row in range(store.mode_lengths[1]):
            pos = store.bucket(1, row)
            G = np.array(
                [
                    [
                        np.prod([fixed[l][store.idx[p, l], k] for l in (0, 2)])
                        for k in cols
                    ]
                    for p in pos
                ]
            ).reshape(len(pos), 2)
            expected = np.linalg.solve(G.T @ G + 0.2 * np.eye(2), G.T @ rhat[pos])
            assert np.allclose(model.matrices[1][row], expected, rtol=1e-10, atol=1e-12)

    def test_monotone_loss_per_update(self, rng):
        store = random_store(rng, (8, 7, 6), 150)
        for reg in ("plain", "weighted"):
            params = SolverParams(
                rank=4, n_columns=2, lam=0.05, regularization=reg, seed=3
            )
            model, residual = init_model(store, params)
            cols = np.array([1, 3])
            rhat = augmented(store, residual, model, cols)
            prev = subset_loss(store, rhat, model, cols, reg)
            for _ in range(2):
                for n in range(3):
                    refit_mode(store, rhat, model, n, cols, params)
                    cur = subset_loss(store, rhat, model, cols, reg)
                    assert cur <= prev * (1 + 1e-9)
                    prev = cur

    def test_weighted_uses_row_counts(self, rng):
        # one observation, weighted lam' = lam * 1 -> same as plain here;
        # an empty row under weighted gets lam' = 0 and is skipped.
        store = store_from_arrays([[0, 0]], [2.0], (2, 1))
        params = SolverParams(
            rank=1, n_columns=1, lam=0.5, regularization="weighted", seed=0
        )
        model = FactorModel(1, 0.5, [np.ones((2, 1)), np.array([[3.0]])])
        residual = store.values - predict_entries(model, store.idx)
        rhat = augmented(store, residual, model, np.array([0]))
        stats = SolveStats()
        skipped = refit_mode(store, rhat, model, 0, np.array([0]), params, stats)
        assert skipped == 1  # the empty row
        assert model.matrices[0][1, 0] == 1.0  # retained
        assert model.matrices[0][0, 0] == pytest.approx(2.0 * 3.0 / (9.0 + 0.5))


def row_oracle(store, slabs, rhat, mode, row, lam_eff):
    """(B + lambda' I)^-1 c of one row, from a per-entry G."""
    pos = store.bucket(mode, row)
    G = np.ones((pos.size, slabs[mode].shape[1]))
    for n, slab in enumerate(slabs):
        if n != mode:
            G = G * slab[store.idx[pos, n]]
    A = G.T @ G + lam_eff * np.eye(G.shape[1])
    return np.linalg.solve(A, G.T @ rhat[pos])


class TestRowKernel:
    @pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
    @pytest.mark.parametrize("c_cols", [1, 2, 3, 8])
    def test_batching_does_not_change_bits(self, monkeypatch, n_modes, c_cols):
        rng = np.random.default_rng(10 * n_modes + c_cols)
        store = kernel_store(rng, n_modes, LIMIT_SIZES if c_cols == 2 else KERNEL_SIZES)
        slabs = [rng.normal(size=(length, c_cols)) for length in store.mode_lengths]
        rhat = rng.normal(size=store.nnz)
        weighted = c_cols == 3

        def refit(mode, groups):
            out = [s.copy() for s in slabs]
            stats = SolveStats()
            for g in groups:
                update_rows(out, rhat, mode, g, 0.1, weighted, stats)
            return out[mode], (stats.flops, stats.rows_updated, stats.rows_skipped)

        for mode in range(n_modes):
            whole, counts = refit(mode, [store.groups(mode)])
            variants = []
            for cap in (1, 7, 61):  # one row per batch, then prime caps
                with monkeypatch.context() as mp:
                    shrink_batches(mp, cap)
                    variants.append(refit(mode, [store.groups(mode)]))
            perm = rng.permutation(store.mode_lengths[mode])
            variants.append(refit(mode, [store.groups(mode, p) for p in np.array_split(perm, 3)]))
            for got, got_counts in variants:
                assert np.array_equal(got, whole)
                assert got_counts == counts
            for row in range(store.mode_lengths[mode]):
                lam_eff = 0.1 * store.bucket_sizes(mode)[row] if weighted else 0.1
                if lam_eff == 0:  # empty bucket under weighted: kept
                    assert np.array_equal(whole[row], slabs[mode][row])
                else:
                    expected = row_oracle(store, slabs, rhat, mode, row, lam_eff)
                    assert np.allclose(whole[row], expected, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("cap", [1, 1 << 15])
    def test_singular_rows_keep_values_at_lambda_zero(self, monkeypatch, cap):
        shrink_batches(monkeypatch, cap)
        # mode-1 factor rows seen by the mode-0 rows below
        other = np.array(
            [[1.0, 2.0], [1.0, 0.0], [0.0, 1.0], [0.5, -1.0], [2.0, 3.0], [3.0, 0.0]]
        )
        entries = {
            0: [],         # empty bucket
            1: [0],        # g = (1, 2): rank one
            2: [1],        # g = (1, 0): rank one
            3: [1, 2],     # B = I
            4: [0, 3, 4],  # well posed
            5: [],         # empty bucket
            6: [1, 5],     # C nonzero g rows, but parallel: Cholesky fails at C = 2
        }
        idx = [(row, j) for row, cols in entries.items() for j in cols]
        store = store_from_arrays(idx, np.arange(1.0, len(idx) + 1.0), (7, 6))
        for c_cols, singular in ((2, [0, 1, 2, 5, 6]), (1, [0, 5])):
            slabs = [np.full((7, c_cols), 7.0), other[:, :c_cols].copy()]
            stats = SolveStats()
            skipped = update_rows(
                slabs, store.values, 0, store.groups(0), 0.0, False, stats,
            )
            assert skipped == stats.rows_skipped == len(singular)
            assert stats.rows_updated == 7 - len(singular)
            for row in range(7):
                if row in singular:
                    assert (slabs[0][row] == 7.0).all()
                else:
                    expected = row_oracle(store, slabs, store.values, 0, row, 0.0)
                    assert np.allclose(slabs[0][row], expected, rtol=1e-12, atol=1e-12)

    def test_lambda_zero_skips_rank_deficient_rows_exactly(self):
        # The second of the stores drawn in turn from default_rng(7): at
        # lambda = 0 some buckets hold fewer than C entries.
        rng = np.random.default_rng(7)
        random_store(rng, (60, 50), 300)
        store = random_store(rng, (60, 50), 300)
        params = SolverParams(
            rank=4, n_columns=4, outer_iters=2, inner_iters=2, lam=0.0, seed=3,
        )
        stats = SolveStats()
        model = factorize(store, params, stats=stats)
        init, _ = init_model(store, params)
        small = [store.bucket_sizes(n) < params.n_columns for n in range(2)]
        # Mode 0 starts at zero, so its small rows stay zero, and a mode-1
        # row meeting fewer than C nonzero mode-0 rows has a singular B too.
        support = np.zeros(store.mode_lengths[1], dtype=np.int64)
        np.add.at(support, store.idx[:, 1], ~small[0][store.idx[:, 0]])
        deficient = [small[0], support < params.n_columns]
        assert (deficient[1] & ~small[1]).sum() == 1
        sweeps = params.outer_iters * params.inner_iters
        for n in range(2):  # every such row update was skipped
            assert np.array_equal(model.matrices[n][deficient[n]], init.matrices[n][deficient[n]])
        assert stats.rows_skipped == sweeps * sum(int(d.sum()) for d in deficient)
        assert stats.rows_updated == sweeps * sum(int((~d).sum()) for d in deficient)

    def test_weighted_empty_bucket_skipped(self, rng):
        store = kernel_store(rng, 3)
        slabs = [rng.normal(size=(length, 3)) for length in store.mode_lengths]
        before = slabs[0].copy()
        rhat = rng.normal(size=store.nnz)
        stats = SolveStats()
        skipped = update_rows(slabs, rhat, 0, store.groups(0), 0.5, True, stats)
        empty = np.flatnonzero(store.bucket_sizes(0) == 0)
        assert skipped == stats.rows_skipped == empty.size == 2
        assert stats.rows_updated == store.mode_lengths[0] - empty.size
        assert np.array_equal(slabs[0][empty], before[empty])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_lambda_zero_builds_products_once_per_batch(self, monkeypatch, weighted):
        # The rank test counts nonzero product rows from the G that the
        # normal equations are built from, so no batch builds G twice.
        calls = {"products": 0, "batches": 0}
        products, normal_eq = solver._products, solver.normal_eq_arrays

        def counting_products(*args):
            calls["products"] += 1
            return products(*args)

        def counting_normal_eq(*args, **kwargs):
            calls["batches"] += 1
            return normal_eq(*args, **kwargs)

        monkeypatch.setattr(solver, "_products", counting_products)
        monkeypatch.setattr(solver, "normal_eq_arrays", counting_normal_eq)
        shrink_batches(monkeypatch, 61)
        rng = np.random.default_rng(4)
        store = kernel_store(rng, 3)
        for c_cols in (1, 2, 3):
            slabs = [rng.normal(size=(length, c_cols)) for length in store.mode_lengths]
            for mode in range(3):
                update_rows(slabs, rng.normal(size=store.nnz), mode, store.groups(mode),
                            0.0, weighted)
        assert calls["batches"] > 9
        assert calls["products"] == calls["batches"]

    @pytest.mark.parametrize("c_cols", [1, 2, 3])
    def test_empty_buckets_get_positive_zero_without_a_batch(self, rng, c_cols):
        store = kernel_store(rng, 3)
        empty = np.flatnonzero(store.bucket_sizes(0) == 0)
        filled = np.flatnonzero(store.bucket_sizes(0) > 0)
        slabs = [rng.normal(size=(length, c_cols)) for length in store.mode_lengths]
        slabs[0][:] = -7.0
        rhat = rng.normal(size=store.nnz)
        stats, alone = SolveStats(), SolveStats()
        skipped = update_rows(slabs, rhat, 0, store.groups(0), 0.5, False, stats)
        rest = [s.copy() for s in slabs]
        rest[0][:] = -7.0
        update_rows(rest, rhat, 0, store.groups(0, filled), 0.5, False, alone)
        assert skipped == 0 and empty.size == 2
        assert (slabs[0][empty] == 0.0).all() and not np.signbit(slabs[0][empty]).any()
        assert np.array_equal(slabs[0][filled], rest[0][filled])
        # counted as updated rows; no flops, as nothing is solved
        assert stats.rows_updated == alone.rows_updated + empty.size
        assert stats.flops == alone.flops

    def test_stacked_solve_matches_single_solves(self, rng):
        half = rng.normal(size=(6, 9, 4))
        B = np.einsum("rpi,rpj->rij", half, half)
        B[2] = 0.0  # singular at lambda' = 0
        c = rng.normal(size=(6, 4))
        lam = np.array([0.1, 0.0, 0.0, 1.0, 0.0, 0.3])
        x, ok = solve_row(B, c, lam)
        assert ok.tolist() == [True, True, False, True, True, True]
        for r in range(6):
            single, solved = solve_row(*one(B[r], c[r]), lam[r])
            assert solved[0] == ok[r] and np.array_equal(single[0], x[r])

    @pytest.mark.parametrize("c_cols", range(1, 9))
    def test_kernel_bits_match_the_strided_formulas(self, c_cols):
        # The kernel's bits are pinned to the formulas over (P, C) columns,
        # which no cross-path test can see as every path shares the kernel:
        # the axis-0 segmented sums of G_a * G_a: and G * r-hat, and the
        # substitution over (R, C) rows.  Buckets fall on both sides of C's
        # limit, so the summed ones are compressed out of the batch; C = 1
        # and C = 2 add buckets long enough for numpy's pairwise recursion.
        rng = np.random.default_rng(2800 + c_cols)
        limit = solver._SEGMENTED_BELOW.get(c_cols, solver._SMALL_BUCKET)
        sizes = [0, 1, 2, 3, 8, 9, 17, 0, 40, 63, 64, 65, 130, 5]
        sizes += {1: [1500, 4, 6000, 1], 2: [511, 512, 600, 3]}.get(c_cols, [limit - 1, limit])
        ptr = np.concatenate([[0], np.cumsum(sizes)])

        def spread(shape):  # signed magnitudes across 1e+-8, with zeros and -0.0
            x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
            x[rng.random(shape) < 0.05] = 0.0
            x[rng.random(shape) < 0.05] = -0.0
            return x

        slabs = [spread((300, c_cols)) for _ in range(3)]
        cols = [None] + [rng.integers(0, 300, ptr[-1]).astype(np.int32) for _ in range(2)]
        rhat = spread(ptr[-1])
        got_B, got_c, _ = solver.normal_eq_arrays(slabs, cols, rhat, ptr, 0)

        G = solver._products(slabs, cols, 0)
        sizes = np.diff(ptr)
        small = sizes < limit
        summed = np.flatnonzero(small & (sizes > 0))
        keep = np.repeat(small, sizes)
        Gs, rs = G[keep], rhat[keep]
        starts = (np.cumsum(sizes * small) - sizes * small)[summed]
        B = np.zeros((sizes.size, c_cols, c_cols))
        c = np.zeros((sizes.size, c_cols))
        for a in range(c_cols):
            sums = np.add.reduceat(Gs[:, a:a + 1] * Gs[:, a:], starts, axis=0)
            B[summed, a, a:] = sums
            B[summed, a + 1:, a] = sums[:, 1:]
        c[summed] = np.add.reduceat(Gs * rs[:, None], starts, axis=0)
        for r in np.flatnonzero(~small):
            g = G[ptr[r]:ptr[r + 1]]
            B[r], c[r] = g.T @ g, g.T @ rhat[ptr[r]:ptr[r + 1]]

        def bits(a):
            return np.ascontiguousarray(a).view(np.uint64)

        assert np.array_equal(bits(got_B), bits(B)) and np.array_equal(bits(got_c), bits(c))

        lam = 0.05 * np.maximum(sizes, 1)
        x, ok = solve_row(got_B, got_c, lam)
        A = B.copy()
        A[:, range(c_cols), range(c_cols)] += lam[:, None]
        L, chol_ok = solver._cholesky(A)
        assert np.array_equal(ok, chol_ok) and ok.any()
        ref = np.zeros_like(c)
        if c_cols == 1:
            ref[ok] = c[ok] / A[ok, 0]
        else:
            y = c[ok]
            for j in range(c_cols):
                y[:, j] /= L[ok, j, j]
                y[:, j + 1:] -= L[ok, j + 1:, j] * y[:, j:j + 1]
            for j in reversed(range(c_cols)):
                y[:, j] /= L[ok, j, j]
                y[:, :j] -= L[ok, j, :j] * y[:, j:j + 1]
            ref[ok] = y
        assert np.array_equal(bits(x), bits(ref))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNumericalErrorContext:
    PATTERN = r"Stamp\(outer=1, subset=\d+, inner=0, mode=(\d)\): mode \1, row \d+: non-finite"

    @pytest.mark.parametrize("path", ["serial", "cluster", "streaming"])
    def test_overflow_names_stamp_mode_and_row(self, rng, path):
        from sals import cluster, streaming
        from sals.partition import greedy_assign

        store = random_store(rng, (6, 5, 4), 60, value_scale=1e300)
        params = SolverParams(rank=2, n_columns=1, outer_iters=2, lam=0.1, seed=1)
        if path == "serial":
            with pytest.raises(ValueError, match=self.PATTERN):
                factorize(store, params)
        elif path == "cluster":
            with pytest.raises(cluster.ClusterError) as info:
                cluster.run_distributed(store, params, greedy_assign(store, 2))
            assert re.search(self.PATTERN, str(info.value))
        else:
            with pytest.raises(ValueError, match=self.PATTERN):
                streaming.stream_factorize(store, params)


class TestUpdateResidual:
    def test_round_trip_identity(self, rng):
        store = random_store(rng, (5, 6, 4), 50)
        model = random_model(rng, store, rank=3)
        before = store.values - predict_entries(model, store.idx)
        cols = np.array([0, 2])
        back = augmented(store, before, model, cols)
        update_residual(back, [m[:, cols] for m in model.matrices], store.idx)
        assert np.max(np.abs(back - before)) <= 1e-12 * max(
            1.0, np.max(np.abs(before))
        )

    def test_zero_columns_identity(self, rng):
        store = random_store(rng, (5, 6), 20)
        params = SolverParams(rank=2, n_columns=1, seed=1)
        model, residual = init_model(store, params)
        rhat = augmented(store, residual, model, np.array([0]))
        snapshot = rhat.copy()
        stats = SolveStats()
        update_residual(rhat, [m[:, [0]] for m in model.matrices], store.idx, stats)
        assert np.array_equal(rhat, snapshot)  # first factor is zero
        assert stats.flops == store.nnz * 1 * 2  # nnz * C * N

    def test_residual_invariant_after_updates(self, rng, monkeypatch):
        store = random_store(rng, (8, 7, 6), 150)
        params = SolverParams(rank=4, n_columns=2, lam=0.1, outer_iters=3, seed=5)
        # factorize writes back through the module's update_residual, so the
        # residual it maintains is the first argument of each call
        seen, original = [], solver.update_residual

        def spy(rhat, *args):
            original(rhat, *args)
            seen.append(rhat)

        monkeypatch.setattr(solver, "update_residual", spy)
        model = factorize(store, params)
        assert len(seen) == params.outer_iters * 2 and all(r is seen[0] for r in seen)
        scale = max(1.0, float(np.max(np.abs(store.values))))
        assert residual_error(seen[-1], store, model) <= 1e-9 * scale


class TestFactorize:
    def test_zero_outer_rejected(self):
        with pytest.raises(ValueError):
            SolverParams(rank=2, outer_iters=0)

    def test_single_exact_step_reduces_loss(self, rng):
        store = random_store(rng, (4, 5), 15)
        params = SolverParams(rank=2, n_columns=2, outer_iters=1, lam=0.01, seed=8)
        model0, _ = init_model(store, params)
        from sals.tensor import loss

        before = loss(model0, store)
        model = factorize(store, params)
        assert loss(model, store) <= before * (1 + 1e-12)

    def test_bitwise_deterministic(self, rng):
        store = random_store(rng, (6, 5, 4), 60)
        params = SolverParams(rank=4, n_columns=3, outer_iters=3, inner_iters=2,
                              lam=0.05, seed=13)
        m1 = factorize(store, params)
        m2 = factorize(store, params)
        assert all(np.array_equal(a, b) for a, b in zip(m1.matrices, m2.matrices))

    def test_loss_non_increasing_over_iterations(self, rng):
        store = random_store(rng, (7, 6, 5), 100)
        params = SolverParams(rank=3, n_columns=1, outer_iters=5, lam=0.02, seed=2)
        records = []
        factorize(store, params, on_iteration=records.append)
        losses = [r.loss for r in records]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(losses, losses[1:]))

    def test_gradient_zero_at_solution(self, rng):
        # after refitting a mode the subset loss gradient in the updated
        # entries vanishes; checked by central differences
        store = random_store(rng, (5, 4, 3), 40, value_scale=0.5)
        params = SolverParams(rank=2, n_columns=2, lam=0.1, seed=6)
        model = random_model(rng, store, rank=2, lam=0.1)
        cols = np.arange(2)
        residual = store.values - predict_entries(model, store.idx)
        rhat = augmented(store, residual, model, cols)
        refit_mode(store, rhat, model, 0, cols, params)

        def subset_objective(mat0):
            saved = model.matrices[0]
            model.matrices[0] = mat0
            val = subset_loss(store, rhat, model, cols, "plain")
            model.matrices[0] = saved
            return val

        h = 1e-5
        for row in range(store.mode_lengths[0]):
            for k in cols:
                up = model.matrices[0].copy()
                dn = model.matrices[0].copy()
                up[row, k] += h
                dn[row, k] -= h
                grad = (subset_objective(up) - subset_objective(dn)) / (2 * h)
                assert abs(grad) <= 1e-8 * max(1.0, abs(subset_objective(model.matrices[0])))

    def test_hook_records_have_rmse_with_test_set(self, rng):
        store = random_store(rng, (6, 6), 20)
        test = Coo(store.idx[:5], store.values[:5])
        params = SolverParams(rank=2, n_columns=2, outer_iters=2, lam=0.01, seed=0)
        records = []
        factorize(store, params, test_entries=test, on_iteration=records.append)
        assert len(records) == 2
        assert all(r.test_rmse is not None and r.seconds >= 0 for r in records)
        assert records[0].flops > 0


class TestFactorizeCdtf:
    def test_matches_general_path(self, rng):
        store = random_store(rng, (6, 5, 4), 70)
        params = SolverParams(rank=3, n_columns=1, outer_iters=4, inner_iters=2,
                              lam=0.03, column_order="fixed", seed=21)
        general = factorize(store, params)
        fused = factorize_cdtf(store, params)
        for a, b in zip(general.matrices, fused.matrices):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_peak_memory_grows_only_by_the_residual_copy(self):
        # The residual is the one nnz-sized buffer a run allocates: r-hat is
        # built and written back in place, in fixed-size chunks, and the row
        # kernel gathers fixed-size batches.  So doubling nnz at fixed mode
        # lengths may raise the peak by the residual's 8 bytes per added
        # entry, plus slack, but not by an unchunked pass's temporaries.
        stores = [random_store(np.random.default_rng(n), (100, 100, 100), 1 << n)
                  for n in (17, 18)]
        added = stores[1].nnz - stores[0].nnz
        for run, c_cols in ((factorize, 1), (factorize, 4), (factorize_cdtf, 1)):
            params = SolverParams(rank=4, n_columns=c_cols, outer_iters=1,
                                  lam=0.05, column_order="fixed", seed=3)
            peaks = []
            for store in stores:
                tracemalloc.start()
                try:
                    run(store, params)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert (peaks[1] - peaks[0]) / added <= 12, (run.__name__, c_cols, peaks)

    def test_rank_one_trivial(self, rng):
        store = random_store(rng, (4, 4), 10)
        params = SolverParams(rank=1, n_columns=1, outer_iters=3, lam=0.05,
                              column_order="fixed", seed=1)
        a = factorize(store, params)
        b = factorize_cdtf(store, params)
        assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))

    def test_requires_single_column(self, rng):
        store = random_store(rng, (4, 4), 10)
        with pytest.raises(ValueError):
            factorize_cdtf(store, SolverParams(rank=2, n_columns=2))


class TestIterationTiming:
    SLEEP = 0.125  # a binary fraction, so the fake clock's sums are exact

    @pytest.mark.parametrize("path", ["serial", "cluster", "streaming", "psgd"])
    def test_seconds_exclude_evaluation(self, rng, monkeypatch, path):
        from sals import cluster, sgd, solver, streaming
        from sals.partition import greedy_assign

        # The solver-loop clock stands still except while evaluating, which
        # advances it by exactly SLEEP: any evaluation time counted in
        # ``seconds`` shows up as a nonzero reading.
        now = [0.0]
        clock = SimpleNamespace(perf_counter=lambda: now[0])
        monkeypatch.setattr(solver, "time", clock)
        original = solver.evaluate

        def slow_evaluate(*args):
            now[0] += self.SLEEP
            return original(*args)

        monkeypatch.setattr(solver, "evaluate", slow_evaluate)
        store = random_store(rng, (6, 5, 4), 60)
        test = Coo(store.idx[:5], store.values[:5])
        params = SolverParams(rank=2, n_columns=1, outer_iters=2, lam=0.1, seed=1)
        records = []
        kwargs = dict(test_entries=test, on_iteration=records.append)
        if path == "serial":
            factorize(store, params, **kwargs)
        elif path == "cluster":
            cluster.run_distributed(store, params, greedy_assign(store, 2), **kwargs)
        elif path == "streaming":
            streaming.stream_factorize(store, params, **kwargs).cleanup()
        else:
            sgd.factorize_psgd(store, sgd.SgdParams(rank=2, outer_iters=2), **kwargs)
        assert len(records) == 2
        assert all(r.eval_seconds == self.SLEEP for r in records)
        assert all(r.seconds == 0.0 for r in records)


class TestIterationFlops:
    @pytest.mark.parametrize("path", ["serial", "cluster", "streaming", "psgd"])
    def test_records_sum_to_run_total(self, rng, path):
        from sals import cluster, sgd, streaming
        from sals.accounting import SolveStats
        from sals.partition import greedy_assign

        store = random_store(rng, (9, 8, 7), 160)
        params = SolverParams(rank=4, n_columns=2, outer_iters=3, lam=0.1, seed=2)
        records, stats = [], SolveStats()
        kwargs = dict(on_iteration=records.append, stats=stats)
        if path == "serial":
            factorize(store, params, **kwargs)
        elif path == "cluster":
            cluster.run_distributed(store, params, greedy_assign(store, 3), **kwargs)
        elif path == "streaming":
            streaming.stream_factorize(store, params, **kwargs).cleanup()
        else:  # one update of 7NK operations per entry and epoch
            sgd.factorize_psgd(store, sgd.SgdParams(rank=4, outer_iters=3, seed=2),
                               on_iteration=records.append)
            stats.flops = 3 * store.nnz * 7 * store.n_modes * 4
        assert len(records) == 3
        assert all(r.flops > 0 for r in records)
        assert sum(r.flops for r in records) == stats.flops


class TestExactCost:
    """At lambda > 0 an outer iteration costs, summed over its column subsets
    of c columns, c * [2 H N + T_in * sum_n (nnz (max(N - 2, 0) + c + 1)
    + c^2 R_n)] flops: augment and write-back over the H entries the path
    holds, the normal equations over every mode's entries and one c^3 solve
    per non-empty row (R_n of them in mode n)."""

    @staticmethod
    def predicted(store, params, held):
        n_modes, nnz = store.n_modes, store.nnz
        nonempty = [int(np.count_nonzero(store.bucket_sizes(n))) for n in range(n_modes)]
        total = 0
        for start in range(0, params.rank, params.n_columns):
            c = min(params.n_columns, params.rank - start)
            total += c * (2 * held * n_modes + params.inner_iters * sum(
                nnz * (max(n_modes - 2, 0) + c + 1) + c * c * r for r in nonempty))
        return total

    @pytest.mark.parametrize("path", ["serial", "cluster", "streaming"])
    @pytest.mark.parametrize("regularization", ["plain", "weighted"])
    @pytest.mark.parametrize("lengths,nnz,rank,n_columns", [
        ((40,), 25, 4, 3), ((12, 30), 60, 6, 2), ((9, 8, 30), 60, 5, 2),
        ((6, 5, 4, 60), 60, 4, 4),
    ])
    def test_flops_per_outer_iteration(self, rng, path, regularization, lengths, nnz, rank,
                                       n_columns):
        from sals import cluster, streaming
        from sals.partition import greedy_assign

        store = random_store(rng, lengths, nnz)  # the last mode keeps empty rows
        assert any((store.bucket_sizes(n) == 0).any() for n in range(store.n_modes))
        params = SolverParams(rank=rank, n_columns=n_columns, outer_iters=2, inner_iters=2,
                              lam=0.1, regularization=regularization, seed=4)
        records = []
        if path == "serial":
            factorize(store, params, on_iteration=records.append)
            held = store.nnz
        elif path == "cluster":
            assignment = greedy_assign(store, 3)
            cluster.run_distributed(store, params, assignment, on_iteration=records.append)
            held = int(assignment.union_loads.sum())
        else:  # every value pass rewrites all N modes' value caches
            streaming.stream_factorize(store, params, on_iteration=records.append).cleanup()
            held = store.n_modes * store.nnz
        assert [r.flops for r in records] == [self.predicted(store, params, held)] * 2


class TestLossRiseFlag:
    PATHS = ["serial", "cluster", "streaming"]

    @staticmethod
    def run(path, store, params):
        from sals import cluster, sgd, streaming
        from sals.partition import greedy_assign

        records = []
        if path == "serial":
            factorize(store, params, on_iteration=records.append)
        elif path == "cluster":
            cluster.run_distributed(
                store, params, greedy_assign(store, 2), on_iteration=records.append
            )
        elif path == "streaming":
            with pytest.MonkeyPatch.context() as mp:
                shrink_batches(mp, 17)
                streaming.stream_factorize(store, params, on_iteration=records.append).cleanup()
        else:
            sgd_params = sgd.SgdParams(rank=params.rank, outer_iters=params.outer_iters)
            sgd.factorize_psgd(store, sgd_params, on_iteration=records.append)
        return records

    @pytest.mark.parametrize("path", PATHS + ["psgd"])
    def test_rising_loss_is_flagged(self, rng, monkeypatch, path):
        losses = iter([5.0, 4.0, 4.0 * (1 + 2e-9), 4.0 * (1 + 2e-9) * (1 + 5e-10)])
        monkeypatch.setattr(solver, "evaluate", lambda *args: (next(losses), None))
        store = random_store(rng, (6, 5, 4), 60)
        params = SolverParams(rank=2, n_columns=1, outer_iters=4, lam=0.1, seed=1)
        records = self.run(path, store, params)
        # falls, rises by 2e-9 relative, rises by 5e-10 relative (tolerated);
        # PSGD's loss may rise, so its records are never flagged
        expected = [False] * 4 if path == "psgd" else [False, False, True, False]
        assert [r.loss_rose for r in records] == expected

    @pytest.mark.parametrize("path", PATHS)
    def test_rounding_noise_at_an_exact_fit_is_not_flagged(self, path):
        # a rank-2 fit of a 2 x 2 matrix is exact: the losses are rounding
        # noise (around 1e-28) that may rise from one iteration to the next
        store = store_from_arrays([[0, 0], [1, 1], [0, 1], [1, 0]], [1.0, 2.0, 0.5, 0.25], (2, 2))
        records = self.run(path, store, SolverParams(rank=2, n_columns=2, outer_iters=4))
        assert max(r.loss for r in records) < 1e-20
        assert not any(r.loss_rose for r in records)

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("lam, regularization, c_cols", [
        (0.0, "plain", 3), (0.05, "plain", 1), (0.1, "weighted", 2),
    ])
    def test_real_runs_are_never_flagged(self, rng, path, lam, regularization, c_cols):
        store = random_store(rng, (9, 8, 7), 150)
        params = SolverParams(
            rank=3, n_columns=c_cols, outer_iters=5, inner_iters=2, lam=lam,
            regularization=regularization, seed=2,
        )
        records = self.run(path, store, params)
        assert len(records) == 5
        assert not any(r.loss_rose for r in records)


class TestTestSetRange:
    PATHS = ["serial", "cdtf", "cluster", "streaming", "psgd"]

    @staticmethod
    def run(path, test_entries):
        from sals import cluster, sgd, streaming
        from sals.partition import greedy_assign

        store = random_store(np.random.default_rng(0), (2, 2), 4)
        params = SolverParams(rank=2, n_columns=1, outer_iters=2)
        records = []
        kwargs = dict(test_entries=test_entries, on_iteration=records.append)
        try:
            if path == "serial":
                factorize(store, params, **kwargs)
            elif path == "cdtf":
                factorize_cdtf(store, params, **kwargs)
            elif path == "cluster":
                cluster.run_distributed(store, params, greedy_assign(store, 2), **kwargs)
            elif path == "streaming":
                streaming.stream_factorize(store, params, **kwargs)
            else:
                sgd.factorize_psgd(store, sgd.SgdParams(rank=2, outer_iters=2), **kwargs)
        finally:
            assert records == []

    @pytest.mark.parametrize("path", PATHS)
    def test_out_of_range_test_entry_fails_before_solving(self, path):
        test = Coo(np.array([[0, 0], [2, 0]]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match=r"test entry 1: mode 0 index 3 outside \[1, 2\]"):
            self.run(path, test)

    @pytest.mark.parametrize("path", PATHS)
    def test_count_mismatch_fails_before_solving(self, path):
        idx = np.array([[0, 0], [1, 1], [0, 1]])
        for test, message in [
            (Coo(idx[:1], np.ones(3)), "1 index rows but 3 values"),
            (Coo(idx, np.ones(1)), "3 index rows but 1 values"),
        ]:
            with pytest.raises(ValueError, match=message):
                self.run(path, test)
        with pytest.raises(TypeError, match="expected observed cells as a Coo, got list"):
            self.run(path, [((1, 1), 1.0)])


class TestPublicApi:
    RETIRED = (
        "RESIDUAL", "AUGMENTED", "ResidualState", "verify_residual",
        "build_normal_eq", "update_mode", "TensorEntry", "reconstruct",
        "read_assignment", "entry_residual", "sgd_update_entry", "close_iteration",
    )

    def test_every_export_resolves(self):
        import sals

        assert [name for name in sals.__all__ if not hasattr(sals, name)] == []

    def test_retired_step_api_is_gone(self):
        import sals
        from sals import dataio, partition, sgd, tensor

        for module in (sals, solver, tensor, dataio, partition, sgd):
            assert [name for name in self.RETIRED if hasattr(module, name)] == []
        assert not hasattr(SolveStats(), "rhat_buffers")
        assert not hasattr(tensor.SparseTensorStore, "entries")
        assert "records" not in {f.name for f in dataclasses.fields(sals.StreamingRun)}
