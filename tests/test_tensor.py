import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sals.tensor import (
    Coo,
    FactorModel,
    _digits,
    as_coo,
    build_store,
    column_dtype,
    loss,
    predict_entries,
    regularization_penalty,
    rmse,
    store_from_arrays,
    subset_products,
    take_rows,
)
from conftest import random_model, random_store


def cells(idx, values):
    """A :class:`Coo` of literal 0-based index rows and values."""
    return Coo(np.array(idx, dtype=np.int64), np.array(values, dtype=np.float64))


def small_matrix_store():
    return build_store(cells([[0, 0], [0, 1], [1, 1]], [5.0, 3.0, 1.0]), (2, 2))


class TestBuildStore:
    def test_three_entries_of_2x2(self):
        store = small_matrix_store()
        assert store.nnz == 3
        # row 1 of mode 1 holds the first two canonical positions
        assert store.bucket(0, 0).tolist() == [0, 1]
        assert store.bucket(0, 1).tolist() == [2]
        assert store.bucket(1, 1).tolist() == [1, 2]

    def test_empty(self):
        store = build_store(cells(np.empty((0, 2)), []), (3, 4))
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
        with pytest.raises(ValueError, match=r"entry 1: mode 0 index 3"):
            build_store(cells([[0, 0], [2, 0]], [1.0, 1.0]), (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_with_position(self, bad):
        idx = np.array([[0, 0], [1, 1], [0, 1]])
        with pytest.raises(ValueError, match=rf"entry 2: value {bad} is not finite"):
            store_from_arrays(idx, np.array([1.0, 2.0, bad]), (2, 2))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate index tuple \(1, 2\)"):
            build_store(cells([[0, 1], [0, 1]], [1.0, 4.0]), (2, 2))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="indices"):
            build_store(cells([[0, 0, 0]], [1.0]), (2, 2))

    @pytest.mark.parametrize("idx", [
        [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]],  # (6, 2) would reshape to (4, 3)
        [0, 1, 2],
        [[[0, 1, 2]]],
    ], ids=["narrow", "flat", "3-d"])
    def test_arrays_of_wrong_shape_rejected(self, idx):
        shape = np.shape(idx)
        with pytest.raises(ValueError, match=re.escape(f"expected (nnz, 3) indices, got {shape}")):
            store_from_arrays(idx, np.ones(4), (3, 3, 3))

    def test_strided_index_view_builds_the_same_store(self, rng):
        # an index that is neither C- nor F-contiguous: the first three
        # columns of a wider integer table, in reverse row order
        store = random_store(rng, (6, 7, 5), 60)
        table = np.concatenate([store.idx, store.idx[:, :1]], axis=1)[::-1]
        view = table[:, :3]
        assert not (view.flags.c_contiguous or view.flags.f_contiguous)
        again = build_store(Coo(view, store.values[::-1]), store.mode_lengths)
        assert np.array_equal(again.idx, store.idx) and again.idx.flags.f_contiguous
        assert np.array_equal(again.values, store.values)
        for n in range(3):
            assert np.array_equal(again.mode_perm[n], store.mode_perm[n])
            assert np.array_equal(again.mode_ptr[n], store.mode_ptr[n])
            for a, b in zip(again.mode_cols[n], store.mode_cols[n]):
                assert (a is None and b is None) or np.array_equal(a, b)

    def test_entries_round_trip(self, rng):
        # a store's cells, shuffled, rebuild the same canonical store
        store = random_store(rng, (6, 7, 5), 60)
        perm = rng.permutation(store.nnz)
        again = build_store(Coo(store.idx[perm], store.values[perm]), store.mode_lengths)
        assert np.array_equal(again.idx, store.idx)
        assert np.array_equal(again.values, store.values)

    def test_sq_norm_is_the_values_squared_norm(self, rng):
        store = random_store(rng, (6, 7, 5), 60)
        assert type(store.sq_norm) is float
        assert store.sq_norm == float(store.values @ store.values)
        assert store_from_arrays(np.empty((0, 2)), [], (2, 3)).sq_norm == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sq_norm_overflows_to_inf_without_a_warning(self, rng):
        store = random_store(rng, (6, 7, 5), 60, value_scale=1e300)
        assert store.sq_norm == np.inf
        with pytest.warns(RuntimeWarning, match="overflow"):  # the guard is needed
            store.values @ store.values


@st.composite
def layout_cases(draw):
    n_modes = draw(st.integers(1, 5))
    lengths = tuple(draw(st.lists(st.integers(1, 6), min_size=n_modes, max_size=n_modes)))
    nnz = draw(st.integers(0, min(int(np.prod(lengths)), 60)))
    return lengths, nnz, draw(st.integers(0, 1000))


class TestLayout:
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(layout_cases())
    def test_index_columns_follow_each_modes_bucket_order(self, case):
        lengths, nnz, seed = case
        rng = np.random.default_rng(seed)
        store = random_store(rng, lengths, nnz)
        n_modes = len(lengths)
        assert store.idx.shape == (nnz, n_modes) and store.idx.flags.f_contiguous
        assert store.idx.dtype == column_dtype(lengths)
        assert np.array_equal(store.mode_perm[0], np.arange(nnz))
        assert all(p.dtype == column_dtype((nnz,)) for p in store.mode_perm)
        for n in range(n_modes):
            cols = store.mode_cols[n]
            assert len(cols) == n_modes and cols[n] is None
            rows = rng.permutation(lengths[n])[:rng.integers(0, lengths[n] + 1)]
            whole, some = store.groups(n), store.groups(n, rows)
            # mode 0's buckets are in canonical order: no positions to gather through
            assert whole.cols is cols and whole.order is (store.mode_perm[n] if n else None)
            sizes = store.bucket_sizes(n)
            for g, asked in ((whole, np.arange(lengths[n])), (some, rows)):
                # rows and empty partition the asked rows, in their order
                assert np.array_equal(g.empty, asked[sizes[asked] == 0])
                assert np.array_equal(g.rows, asked[sizes[asked] > 0])
                assert np.array_equal(np.diff(g.ptr), sizes[g.rows])
            for m in range(n_modes):
                if m == n:
                    continue
                assert cols[m].flags.c_contiguous
                # mode 0 reads the canonical columns themselves
                assert cols[m].dtype == column_dtype(lengths)
                assert np.shares_memory(cols[m], store.idx) == (n == 0 and nnz > 0)
                assert np.array_equal(cols[m], store.idx[store.mode_perm[n], m])
                assert np.array_equal(some.cols[m], store.idx[some.order, m])

    def test_column_dtype_is_int32_below_two_to_the_31(self):
        assert column_dtype((2**31 - 1,)) == np.int32
        assert column_dtype((5, 2**31 - 1, 7)) == np.int32
        assert column_dtype((2**31,)) == np.int64
        assert column_dtype((5, 2**31)) == np.int64

    @pytest.mark.parametrize("layout, lengths", [
        pytest.param(layout, lengths, id=layout + suffix)
        for lengths, suffix in (((300, 200, 100, 50), ""), ((70_000, 80_000, 90_000), "-two-digits"))
        for layout in ("C", "F", "strided")])
    def test_build_memory(self, layout, lengths):
        # The store holds at most HEAD's row-major layout (int64 indices,
        # values and every mode's int64 permutation) plus the column copies,
        # 4 (N-1)^2 nnz bytes, and the pointers: its indices and positions
        # are int32 here.  Above that, the build's peak is its transients:
        # the canonical columns are gathered one at a time, so no second
        # (nnz, N) int64 copy of the indices is ever held, whatever the
        # input's layout.  A sort's keys are 16-bit digits, one per 16 bits
        # of its mode's length (two per mode in the second case), and its
        # output is one int64 column; the transients stay within two int64
        # columns.
        nnz = 200_000
        n_modes = len(lengths)
        rng = np.random.default_rng(0)
        flat = rng.choice(int(np.prod(lengths)), nnz, replace=False)
        idx = np.stack(np.unravel_index(flat, lengths), axis=1)
        if layout == "F":
            idx = np.asfortranarray(idx)
        elif layout == "strided":
            idx = np.concatenate([idx, idx[:, :1]], axis=1)[:, :n_modes]
        coo = Coo(idx, rng.normal(size=nnz))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            store = build_store(coo, lengths)
            held, peak = (b - base for b in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        row_major = (8 * n_modes + 8 + 8 * n_modes) * nnz
        kept = [store.idx, store.values, *store.mode_perm,
                *(c for cols in store.mode_cols[1:] for c in cols if c is not None)]
        assert sum(a.nbytes for a in kept) == (4 * n_modes + 8 + 4 * n_modes) * nnz \
            + 4 * (n_modes - 1) ** 2 * nnz <= row_major + 4 * (n_modes - 1) ** 2 * nnz
        pointers = 8 * (sum(lengths) + n_modes)
        assert held <= sum(a.nbytes for a in kept) + pointers + (1 << 14), held
        assert peak - held <= 2 * 8 * nnz + (1 << 16) < 8 * n_modes * nnz, peak - held


def reference_store_arrays(idx, values, lengths):
    """A store's arrays built with int64 sort keys: ``np.lexsort`` of the
    index columns, then a stable ``argsort`` of each mode's column."""
    order = np.lexsort(idx.T[::-1])
    canon = np.asfortranarray(idx[order].astype(column_dtype(lengths)))
    perms = [np.argsort(canon[:, n].astype(np.int64), kind="stable")
             .astype(column_dtype((len(values),))) for n in range(len(lengths))]
    ptrs = [np.searchsorted(np.sort(canon[:, n]), np.arange(length + 1)).astype(np.int64)
            for n, length in enumerate(lengths)]
    cols = [None if m == n else np.ascontiguousarray(canon[perms[n], m])
            for n in range(len(lengths)) for m in range(len(lengths))]
    return [canon, values[order], *perms, *ptrs, *cols]


class TestSortKeys:
    @pytest.mark.parametrize("length", [1, 2, 256, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**62])
    def test_digit_order_is_the_stable_argsort(self, rng, length):
        # few distinct values, so most keys tie, plus both ends of the range
        distinct = np.concatenate([[0, length - 1], rng.integers(0, length, 300)])
        col = rng.choice(distinct, 5000)
        want = np.argsort(col, kind="stable")
        for dtype in {np.dtype(np.int64), column_dtype((length,))}:
            keys = _digits(col.astype(dtype), length)
            assert all(k.dtype == np.uint16 for k in keys)
            assert len(keys) == -(-max(length - 1, 1).bit_length() // 16)
            assert np.array_equal(np.lexsort(keys), want)

    @pytest.mark.parametrize("lengths", [
        (65_537, 3, 65_536), (2**16 - 1, 2**17 + 3, 5, 2**16 + 1), (7, 200_003), (2**16,)])
    def test_store_matches_int64_sort_reference(self, rng, lengths):
        cells = int(np.prod(lengths))
        nnz = min(cells, 20_000)
        # both corner cells, the rest distinct and in random order
        flat = np.concatenate([[cells - 1, 0], rng.choice(cells - 2, nnz - 2, replace=False) + 1])
        idx = np.stack(np.unravel_index(rng.permutation(flat), lengths), axis=1).astype(np.int64)
        values = rng.normal(size=nnz)
        store = store_from_arrays(idx, values, lengths)
        got = [store.idx, store.values, *store.mode_perm, *store.mode_ptr,
               *(c for cols in store.mode_cols for c in cols)]
        want = reference_store_arrays(idx, values, lengths)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g.dtype == w.dtype and np.array_equal(g, w)
        assert store.idx.flags.f_contiguous


class TestAsCoo:
    def test_coo_passes_through(self, rng):
        store = random_store(rng, (6, 7, 5), 60)
        coo = Coo(store.idx, store.values)
        assert as_coo(coo, 3) is coo
        again = build_store(coo, store.mode_lengths)
        assert np.array_equal(again.idx, store.idx)
        assert np.array_equal(again.values, store.values)

    def test_coo_of_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match=r"expected \(nnz, 3\) indices"):
            as_coo(Coo(np.zeros((4, 2), dtype=np.int64), np.zeros(4)), 3)

    def test_test_set_checked_against_mode_lengths(self):
        test = cells([[0, 0], [1, 2]], [1.0, 1.0])
        with pytest.raises(ValueError, match=r"test entry 1: mode 1 index 3 outside \[1, 2\]"):
            as_coo(test, 2, (2, 2))
        with pytest.raises(ValueError, match="empty test set"):
            as_coo(cells(np.empty((0, 2)), []), 2, (2, 2))

    def test_count_mismatch_rejected(self):
        idx = np.zeros((4, 2), dtype=np.int64)
        for values in (np.zeros(3), np.zeros(5), np.zeros((4, 1))):
            with pytest.raises(ValueError, match=rf"4 index rows but {values.size} values"):
                as_coo(Coo(idx, values), 2)


class TestTakeRows:
    @pytest.mark.parametrize("c_cols", [1, 2, 4, 8])
    def test_bitwise_equal_to_fancy_indexing(self, rng, c_cols):
        n_modes = 3
        table = rng.normal(size=(50, c_cols))
        idx = rng.integers(0, 50, size=(300, n_modes))
        # a record array: index columns and values interleaved per record
        rec = np.empty((300, n_modes + 1), dtype=np.int64)
        rec[:, :n_modes] = idx
        chunk = rec[:, :n_modes]
        cases = [
            (table, np.ascontiguousarray(idx[:, 1])),  # contiguous index
            (table, idx[:, 1]),                        # strided index column
            (table, chunk[:, 2]),                      # column of a record view
            (table, np.empty(0, dtype=np.int64)),      # empty index
            (table, -idx[:, 0] - 1),                   # negative indices
            (chunk, rng.permutation(300)[:120]),       # rows of a strided source
            (table[:, 0], idx[:, 0]),                  # one-dimensional source
        ]
        for a, index in cases:
            got = take_rows(a, index)
            want = a[index]
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous and not np.shares_memory(got, a)

    def test_out_of_range_raises_index_error(self, rng):
        table = rng.normal(size=(5, 3))
        for bad in ([0, 5], [-6]):
            with pytest.raises(IndexError):
                table[np.array(bad)]
            with pytest.raises(IndexError):
                take_rows(table, np.array(bad))

    def test_predict_entries_past_mode_length_raises(self, rng):
        store = random_store(rng, (4, 5, 6), 30)
        model = random_model(rng, store, rank=2)
        for n in range(3):
            idx = np.zeros((3, 3), dtype=np.int64)
            idx[1, n] = store.mode_lengths[n]
            with pytest.raises(IndexError):
                predict_entries(model, idx)


class TestSubsetProducts:
    @pytest.mark.parametrize("c_cols", range(1, 10))
    def test_bytes_equal_numpy_row_sum(self, rng, c_cols):
        # Below C = 8 the sum runs column by column; that gives the same bits
        # only while numpy adds a short row in order onto 0.0.
        slabs = []
        for length in (40, 30):
            scale = rng.choice([1e-100, 1.0, 1e100], size=(length, c_cols))
            slab = rng.normal(size=(length, c_cols)) * scale  # order-sensitive sums
            slab[rng.random(slab.shape) < 0.2] = 0.0
            slab[rng.random(slab.shape) < 0.2] = -0.0
            slabs.append(slab)
        slabs[0][0], slabs[1][0] = -0.0, 1.0    # row of -0.0 products
        slabs[0][1], slabs[1][1] = 1.0, 2.0     # products cancel to +0.0 ...
        slabs[1][1, 1::2] = -2.0                # ... in pairs, at even C
        idx = np.column_stack([rng.integers(0, 40, 3000), rng.integers(0, 30, 3000)])
        idx[:4] = [[0, 0], [1, 1], [0, 1], [1, 0]]
        want = (take_rows(slabs[0], idx[:, 0]) * take_rows(slabs[1], idx[:, 1])).sum(axis=1)
        got = subset_products(slabs, idx)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[0])  # -0.0 terms sum onto numpy's identity +0.0


class TestReconstruct:
    def test_all_ones_k2(self):
        mats = [np.ones((2, 2)) for _ in range(3)]
        model = FactorModel(2, 0.0, mats)
        assert predict_entries(model, [0, 1, 0]).tolist() == [2.0]

    def test_zero_first_factor(self, rng):
        model = FactorModel(2, 0.0, [np.zeros((2, 2)), rng.random((3, 2))])
        assert predict_entries(model, [1, 2]).tolist() == [0.0]

    def test_matches_dense_oracle(self, rng):
        model = random_model(rng, random_store(rng, (2, 2, 2), 4), rank=2)
        dense = np.einsum("ik,jk,lk->ijl", *model.matrices)
        idx = np.argwhere(np.ones((2, 2, 2), dtype=bool))
        assert predict_entries(model, idx) == pytest.approx(
            dense[tuple(idx.T)], rel=1e-12, abs=1e-15
        )

    def test_multilinear_column_rescale(self, rng):
        store = random_store(rng, (5, 6, 7), 30)
        model = random_model(rng, store, rank=3)
        scaled = model.copy()
        alpha = 1.7
        scaled.matrices[0][:, 1] *= alpha
        scaled.matrices[1][:, 1] /= alpha
        a, b = predict_entries(model, store.idx[:10]), predict_entries(scaled, store.idx[:10])
        assert b == pytest.approx(a, rel=1e-12)

    def test_bounds_checked(self, rng):
        model = random_model(rng, random_store(rng, (2, 2), 2), rank=1)
        with pytest.raises(IndexError):
            predict_entries(model, [2, 0])

    @pytest.mark.parametrize("shape", [(3, 2), (2,), (6,), (), (1, 3, 1), (2, 4)])
    def test_cells_of_wrong_shape_rejected(self, shape):
        model = FactorModel(2, 0.0, [np.ones((3, 2)) for _ in range(3)])
        with pytest.raises(ValueError, match=re.escape(f"expected (m, 3) indices, got {shape}")):
            predict_entries(model, np.zeros(shape, dtype=np.int64))
        assert predict_entries(model, np.zeros((0, 3), dtype=np.int64)).shape == (0,)


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
            total += (store.values[pos] - predict_entries(model, store.idx[pos])[0]) ** 2
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
        idx = np.argwhere(np.ones((3, 3), dtype=bool))
        assert rmse(model, Coo(idx, predict_entries(model, idx))) == pytest.approx(0.0, abs=1e-12)

    def test_constant_error_one(self):
        model = FactorModel(1, 0.0, [np.zeros((2, 1)), np.zeros((2, 1))])
        assert rmse(model, cells([[0, 0], [0, 1], [1, 0], [1, 1]], [1.0] * 4)) == 1.0

    def test_matches_formula(self, rng):
        store = random_store(rng, (5, 4), 10)
        model = random_model(rng, store, rank=2)
        direct = np.sqrt(np.mean([
            (v - predict_entries(model, row)[0]) ** 2 for row, v in zip(store.idx, store.values)
        ]))
        assert rmse(model, Coo(store.idx, store.values)) == pytest.approx(float(direct), rel=1e-12)

    def test_empty_rejected(self, rng):
        model = random_model(rng, random_store(rng, (2, 2), 2), rank=1)
        with pytest.raises(ValueError, match="empty"):
            rmse(model, cells(np.empty((0, 2)), []))

    def test_out_of_range_rejected(self, rng):
        model = random_model(rng, random_store(rng, (2, 2), 2), rank=1)
        with pytest.raises(ValueError, match=r"test entry 0: mode 0 index 3 outside \[1, 2\]"):
            rmse(model, cells([[2, 0]], [1.0]))

    def test_accepts_coo(self, rng):
        # a Coo only, with as many values as index rows
        store = random_store(rng, (6, 5, 4), 30)
        model = random_model(rng, store, rank=2)
        err = store.values - predict_entries(model, store.idx)
        assert rmse(model, Coo(store.idx, store.values)) == float(np.sqrt(err @ err / err.size))
        for bad in (Coo(store.idx[:1], store.values), Coo(store.idx, store.values[:1])):
            with pytest.raises(ValueError, match="index rows but"):
                rmse(model, bad)
        with pytest.raises(TypeError, match="as a Coo"):
            rmse(model, list(zip(store.idx.tolist(), store.values.tolist())))

