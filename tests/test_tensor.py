import numpy as np
import pytest

from sals.tensor import (
    FactorModel,
    ResidualState,
    TensorEntry,
    build_store,
    loss,
    reconstruct,
    regularization_penalty,
    rmse,
    store_from_arrays,
    verify_residual,
)
from conftest import random_model, random_store


def small_matrix_store():
    entries = [
        TensorEntry((1, 1), 5.0),
        TensorEntry((1, 2), 3.0),
        TensorEntry((2, 2), 1.0),
    ]
    return build_store(entries, (2, 2))


class TestBuildStore:
    def test_three_entries_of_2x2(self):
        store = small_matrix_store()
        assert store.nnz == 3
        # row 1 of mode 1 holds the first two canonical positions
        assert store.bucket(0, 0).tolist() == [0, 1]
        assert store.bucket(0, 1).tolist() == [2]
        assert store.bucket(1, 1).tolist() == [1, 2]

    def test_empty(self):
        store = build_store([], (3, 4))
        assert store.nnz == 0
        assert store.bucket(0, 1).size == 0

    def test_bucket_recount_matches_brute_force(self, rng):
        store = random_store(rng, (11, 7, 9), 1000 if 11 * 7 * 9 >= 1000 else 500)
        n = store.nnz
        for mode in range(3):
            counts = {}
            for row in store.idx[:, mode]:
                counts[int(row)] = counts.get(int(row), 0) + 1
            sizes = store.bucket_sizes(mode)
            assert int(sizes.sum()) == n
            for i in range(store.mode_lengths[mode]):
                assert sizes[i] == counts.get(i, 0)

    def test_bucket_positions_are_canonical(self, rng):
        store = random_store(rng, (6, 5, 4), 80)
        for mode in range(3):
            seen = []
            for i in range(store.mode_lengths[mode]):
                b = store.bucket(mode, i)
                assert (np.diff(b) > 0).all()  # ascending = canonical order
                seen.extend(b.tolist())
            assert sorted(seen) == list(range(store.nnz))

    def test_out_of_range_rejected_with_mode_and_position(self):
        entries = [TensorEntry((1, 1), 1.0), TensorEntry((3, 1), 1.0)]
        with pytest.raises(ValueError, match=r"entry 1: mode 0 index 3"):
            build_store(entries, (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_with_position(self, bad):
        idx = np.array([[0, 0], [1, 1], [0, 1]])
        with pytest.raises(ValueError, match=rf"entry 2: value {bad} is not finite"):
            store_from_arrays(idx, np.array([1.0, 2.0, bad]), (2, 2))

    def test_duplicate_rejected(self):
        entries = [TensorEntry((1, 2), 1.0), TensorEntry((1, 2), 4.0)]
        with pytest.raises(ValueError, match="duplicate"):
            build_store(entries, (2, 2))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="indices"):
            build_store([TensorEntry((1, 1, 1), 1.0)], (2, 2))

    def test_entries_round_trip(self, rng):
        store = random_store(rng, (6, 7, 5), 60)
        again = build_store(store.entries(), store.mode_lengths)
        assert np.array_equal(again.idx, store.idx)
        assert np.array_equal(again.values, store.values)


class TestReconstruct:
    def test_all_ones_k2(self):
        mats = [np.ones((2, 2)) for _ in range(3)]
        model = FactorModel(2, 0.0, mats)
        assert reconstruct(model, (1, 2, 1)) == 2.0

    def test_zero_first_factor(self, rng):
        model = FactorModel(2, 0.0, [np.zeros((2, 2)), rng.random((3, 2))])
        assert reconstruct(model, (2, 3)) == 0.0

    def test_matches_dense_oracle(self, rng):
        model = random_model(rng, random_store(rng, (2, 2, 2), 4), rank=2)
        dense = np.einsum("ik,jk,lk->ijl", *model.matrices)
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    assert reconstruct(model, (i + 1, j + 1, l + 1)) == pytest.approx(
                        dense[i, j, l], rel=1e-12, abs=1e-15
                    )

    def test_multilinear_column_rescale(self, rng):
        store = random_store(rng, (5, 6, 7), 30)
        model = random_model(rng, store, rank=3)
        scaled = model.copy()
        alpha = 1.7
        scaled.matrices[0][:, 1] *= alpha
        scaled.matrices[1][:, 1] /= alpha
        for entry_idx in store.idx[:10]:
            ind = tuple(int(i) + 1 for i in entry_idx)
            a, b = reconstruct(model, ind), reconstruct(scaled, ind)
            assert b == pytest.approx(a, rel=1e-12)

    def test_bounds_checked(self, rng):
        model = random_model(rng, random_store(rng, (2, 2), 2), rank=1)
        with pytest.raises(ValueError):
            reconstruct(model, (3, 1))


class TestLoss:
    def test_zero_first_factor_gives_sum_of_squares(self, rng):
        store = random_store(rng, (4, 5), 12)
        model = FactorModel(2, 0.0, [np.zeros((4, 2)), rng.random((5, 2))])
        assert loss(model, store) == pytest.approx(float(store.values @ store.values))

    def test_perfect_model_zero(self, rng):
        model = random_model(rng, random_store(rng, (3, 4, 2), 10), rank=2)
        dense = np.einsum("ik,jk,lk->ijl", *model.matrices)
        idx = np.argwhere(np.ones((3, 4, 2), dtype=bool))[:10]
        store = store_from_arrays(idx, dense[tuple(idx.T)], (3, 4, 2))
        assert loss(model, store) == pytest.approx(0.0, abs=1e-18)

    def test_matches_brute_force(self, rng):
        store = random_store(rng, (4, 3, 5), 25)
        model = random_model(rng, store, rank=2, lam=0.3)
        total = 0.0
        for pos in range(store.nnz):
            ind = tuple(int(i) + 1 for i in store.idx[pos])
            total += (store.values[pos] - reconstruct(model, ind)) ** 2
        total += 0.3 * sum(float((m ** 2).sum()) for m in model.matrices)
        assert loss(model, store) == pytest.approx(total, rel=1e-12)

    def test_lower_bound_is_penalty(self, rng):
        store = random_store(rng, (4, 4), 10)
        model = random_model(rng, store, rank=2, lam=0.7)
        assert loss(model, store) >= regularization_penalty(model) - 1e-12

    def test_lower_bound_tight_iff_residuals_zero(self, rng):
        # equality exactly when every residual is zero
        model = random_model(rng, random_store(rng, (3, 4, 2), 6), rank=2, lam=0.4)
        dense = np.einsum("ik,jk,lk->ijl", *model.matrices)
        idx = np.argwhere(np.ones((3, 4, 2), dtype=bool))[:6]
        store = store_from_arrays(idx, dense[tuple(idx.T)], (3, 4, 2))
        assert loss(model, store) == regularization_penalty(model)
        bumped = store_from_arrays(idx, dense[tuple(idx.T)] + 0.5, (3, 4, 2))
        assert loss(model, bumped) > regularization_penalty(model)

    def test_weighted_penalty(self, rng):
        store = random_store(rng, (4, 3), 8)
        model = random_model(rng, store, rank=2, lam=0.5)
        expected = 0.0
        for n, mat in enumerate(model.matrices):
            sizes = store.bucket_sizes(n)
            for i in range(store.mode_lengths[n]):
                expected += 0.5 * sizes[i] * float(mat[i] @ mat[i])
        got = regularization_penalty(model, store, "weighted")
        assert got == pytest.approx(expected, rel=1e-12)


class TestRmse:
    def test_perfect_model(self, rng):
        model = random_model(rng, random_store(rng, (3, 3), 4), rank=2)
        entries = [
            TensorEntry((i + 1, j + 1), reconstruct(model, (i + 1, j + 1)))
            for i in range(3) for j in range(3)
        ]
        assert rmse(model, entries) == pytest.approx(0.0, abs=1e-12)

    def test_constant_error_one(self):
        model = FactorModel(1, 0.0, [np.zeros((2, 1)), np.zeros((2, 1))])
        entries = [TensorEntry((i + 1, j + 1), 1.0) for i in range(2) for j in range(2)]
        assert rmse(model, entries) == 1.0

    def test_matches_formula(self, rng):
        store = random_store(rng, (5, 4), 10)
        model = random_model(rng, store, rank=2)
        entries = store.entries()
        direct = np.sqrt(
            np.mean(
                [(e.value - reconstruct(model, e.indices)) ** 2 for e in entries]
            )
        )
        assert rmse(model, entries) == pytest.approx(float(direct), rel=1e-12)

    def test_empty_rejected(self, rng):
        model = random_model(rng, random_store(rng, (2, 2), 2), rank=1)
        with pytest.raises(ValueError, match="empty"):
            rmse(model, [])


class TestVerifyResidual:
    def test_fresh_init_zero(self, rng):
        store = random_store(rng, (4, 5), 12)
        model = FactorModel(2, 0.0, [np.zeros((4, 2)), rng.random((5, 2))])
        residual = ResidualState(store.values.copy())
        assert verify_residual(residual, store, model) == 0.0

    def test_corruption_detected(self, rng):
        store = random_store(rng, (4, 5), 12)
        model = FactorModel(2, 0.0, [np.zeros((4, 2)), rng.random((5, 2))])
        values = store.values.copy()
        values[3] += 1.0
        assert verify_residual(ResidualState(values), store, model) >= 1.0

    def test_requires_plain_kind(self, rng):
        store = random_store(rng, (4, 5), 12)
        model = random_model(rng, store, rank=2)
        state = ResidualState(store.values.copy(), "augmented", (0,))
        with pytest.raises(ValueError):
            verify_residual(state, store, model)
