import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sals.sgd import (
    SgdParams,
    entry_residual,
    factorize_psgd,
    init_sgd_model,
    learning_rate,
    psgd_epoch,
    sgd_update_entry,
    wavefront_levels,
)
from sals.tensor import FactorModel, loss, predict_entries, store_from_arrays
from conftest import random_model, random_store


class TestLearningRate:
    def test_epoch_zero_is_twice_eta0(self):
        assert learning_rate(0.05, 0) == 0.1

    def test_strictly_decreasing(self):
        rates = [learning_rate(0.05, t) for t in range(10)]
        assert all(b < a for a, b in zip(rates, rates[1:]))


class TestSgdUpdateEntry:
    def test_zero_residual_zero_lambda_no_move(self, rng):
        store = random_store(rng, (4, 4, 4), 10)
        model = random_model(rng, store, rank=2)
        before = [m.copy() for m in model.matrices]
        ind = tuple(int(i) for i in store.idx[0])
        sgd_update_entry(model, ind, 0.0, 0.1, 0.0, (3, 3, 3))
        assert all(np.array_equal(a, b) for a, b in zip(before, model.matrices))

    def test_perfect_rank_one_entry_unchanged(self):
        model = FactorModel(1, 0.0, [np.ones((1, 1)), np.ones((1, 1))])
        r = entry_residual(model.matrices, (0, 0), 1.0)
        assert r == 0.0
        sgd_update_entry(model, (0, 0), r, 0.5, 0.0, (1, 1))
        assert model.matrices[0][0, 0] == 1.0
        assert model.matrices[1][0, 0] == 1.0

    def test_matches_finite_difference_gradient(self, rng):
        # loss term of one entry with its apportioned regularizer
        mats = [rng.random((4, 2)) + 0.1 for _ in range(3)]
        model = FactorModel(2, 0.0, [m.copy() for m in mats])
        ind = (1, 2, 3)
        x = 1.3
        degs = (5, 7, 2)
        lam, eta = 0.3, 1e-3
        r = entry_residual(mats, ind, x)
        sgd_update_entry(model, ind, r, eta, lam, degs)

        def single_loss(ms):
            rec = sum(np.prod([ms[n][ind[n], k] for n in range(3)]) for k in range(2))
            reg = sum(
                lam * ms[n][ind[n], k] ** 2 / degs[n] for n in range(3) for k in range(2)
            )
            return (x - rec) ** 2 + reg

        h = 1e-6
        for n in range(3):
            for k in range(2):
                up = [m.copy() for m in mats]
                dn = [m.copy() for m in mats]
                up[n][ind[n], k] += h
                dn[n][ind[n], k] -= h
                fd = (single_loss(up) - single_loss(dn)) / (2 * h)
                step = model.matrices[n][ind[n], k] - mats[n][ind[n], k]
                assert abs(-step / eta - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_zero_parameter_falls_back_to_direct_product(self, rng):
        mats = [np.zeros((2, 1)), rng.random((2, 1)), rng.random((2, 1))]
        model = FactorModel(1, 0.0, [m.copy() for m in mats])
        r = 2.0
        sgd_update_entry(model, (0, 0, 0), r, 0.1, 0.0, (1, 1, 1))
        g = mats[1][0, 0] * mats[2][0, 0]
        assert model.matrices[0][0, 0] == pytest.approx(0.2 * r * g)


class TestPsgdEpoch:
    def test_single_shard_matches_straight_line(self, rng):
        store = random_store(rng, (6, 5, 4), 60)
        params = SgdParams(rank=2, lam=0.05, eta0=0.02, n_shards=1, seed=7)
        from sals.sgd import _epoch_rng

        order = _epoch_rng(params.seed, 0).permutation(store.nnz)
        degrees = [store.bucket_sizes(n) for n in range(3)]
        eta = learning_rate(params.eta0, 0)
        zeroed = init_sgd_model(store, params)
        zeroed.matrices[1][::2] = 0.0  # exact zeros take the sweep's product fallback
        zeroed.matrices[2][1, 0] = 0.0
        for model in (init_sgd_model(store, params), zeroed):
            epoch_model = psgd_epoch(store, model, params, epoch=0)
            # straight-line reference: same visit order, public single-entry op
            ref = model.copy()
            for p in order:
                ind = tuple(int(i) for i in store.idx[p])
                degs = tuple(int(degrees[n][ind[n]]) for n in range(3))
                r = entry_residual(ref.matrices, ind, float(store.values[p]))
                sgd_update_entry(ref, ind, r, eta, params.lam, degs)
            for a, b in zip(epoch_model.matrices, ref.matrices):
                assert np.array_equal(a, b)

    def test_vanishing_rate_freezes_model(self, rng):
        store = random_store(rng, (5, 5), 15)
        params = SgdParams(rank=2, lam=0.1, eta0=1e-18, n_shards=2, seed=3)
        model = init_sgd_model(store, params)
        out = psgd_epoch(store, model, params, epoch=0)
        for a, b in zip(model.matrices, out.matrices):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_identical_shards_average_to_either(self, rng):
        # perfect rank-1 fit and lam=0: every step is a no-op, so both shard
        # models stay at the start model and the average equals either
        a = rng.random((6, 1)) + 0.5
        b = rng.random((5, 1)) + 0.5
        idx = np.array([(i, j) for i in range(6) for j in range(5)])
        model = FactorModel(1, 0.0, [a, b])
        values = predict_entries(model, idx)
        store = store_from_arrays(idx, values, (6, 5))
        params = SgdParams(rank=1, lam=0.0, eta0=0.05, n_shards=2, seed=1)
        halves = [np.arange(0, 15), np.arange(15, 30)]
        out = psgd_epoch(store, model, params, epoch=0, partition=halves)
        for x, y in zip(out.matrices, model.matrices):
            assert np.array_equal(x, y)

    def test_average_finite_when_shards_finite(self, rng):
        store = random_store(rng, (6, 6), 30)
        params = SgdParams(rank=3, lam=0.05, eta0=0.05, n_shards=3, seed=5)
        model = init_sgd_model(store, params)
        out = psgd_epoch(store, model, params, epoch=0)
        assert all(np.isfinite(m).all() for m in out.matrices)


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_average_names_epoch_mode_and_row(self, rng):
        store = random_store(rng, (6, 5, 4), 60)
        params = SgdParams(rank=2, lam=0.05, eta0=0.02, n_shards=2, seed=7)
        model = init_sgd_model(store, params)
        model.matrices[1][3, 1] = 1e308  # two empty shards sum it past the float range
        model.matrices[2][0, 0] = 1e308
        empty = [np.zeros(0, dtype=np.int64)] * 2
        with pytest.raises(ValueError, match=r"^epoch 3: mode 1, row 3: non-finite factor"):
            psgd_epoch(store, model, params, epoch=2, partition=empty)

class TestFactorizePsgd:
    def test_deterministic(self, rng):
        store = random_store(rng, (6, 5), 40)
        params = SgdParams(rank=2, lam=0.02, eta0=0.05, outer_iters=3, n_shards=2, seed=9)
        m1 = factorize_psgd(store, params)
        m2 = factorize_psgd(store, params)
        assert all(np.array_equal(a, b) for a, b in zip(m1.matrices, m2.matrices))

    def test_improves_fit_and_reports(self, rng):
        store, test, _ = _toy_problem(rng)
        params = SgdParams(rank=2, lam=0.01, eta0=0.05, outer_iters=10, n_shards=2, seed=2)
        records = []
        factorize_psgd(store, params, test_entries=test, on_iteration=records.append)
        assert len(records) == 10
        assert records[-1].loss < records[0].loss
        assert records[-1].test_rmse is not None

    def test_last_record_loss_is_the_final_models_loss(self, rng):
        store = random_store(rng, (9, 8, 7), 300)
        params = SgdParams(rank=3, lam=0.05, eta0=0.02, outer_iters=3, n_shards=2, seed=4)
        records = []
        model = factorize_psgd(store, params, on_iteration=records.append)
        assert model.lam == params.lam
        assert records[-1].loss == loss(model, store)


def _toy_problem(rng):
    from sals.dataio import generate_synthetic

    return generate_synthetic((10, 10, 10), 500, 2, 0.05, 0.1, seed=17)


class TestSgdParams:
    @pytest.mark.parametrize("field", ["lam", "eta0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            SgdParams(rank=2, **{field: value})


class TestExplicitPartition:
    @pytest.mark.parametrize("bad", [-1, 15])
    def test_position_outside_store_rejected(self, rng, bad):
        store = random_store(rng, (5, 5), 15)
        params = SgdParams(rank=2, lam=0.1, eta0=0.05, n_shards=2, seed=3)
        model = init_sgd_model(store, params)
        with pytest.raises(ValueError, match=rf"shard 1: position {bad} outside \[0, 15\)"):
            psgd_epoch(store, model, params, 0, partition=[np.arange(15), np.array([3, bad])])
        with pytest.raises(ValueError, match="no shards"):
            psgd_epoch(store, model, params, 0, partition=[])


def straight_line_epoch(store, model, partition, eta, lam):
    """Per shard, the scalar single-entry ops in visit order; then the average."""
    degrees = [store.bucket_sizes(n) for n in range(store.n_modes)]
    shards = []
    for order in partition:
        ref = model.copy()
        for p in order:
            ind = tuple(int(i) for i in store.idx[p])
            degs = tuple(int(degrees[n][ind[n]]) for n in range(store.n_modes))
            r = entry_residual(ref.matrices, ind, float(store.values[p]))
            sgd_update_entry(ref, ind, r, eta, lam, degs)
        shards.append(ref.matrices)
    averaged = []
    for n in range(store.n_modes):
        acc = shards[0][n].copy()
        for mats in shards[1:]:
            acc += mats[n]
        acc /= len(shards)
        averaged.append(acc)
    return averaged


@st.composite
def explicit_epochs(draw):
    n_modes = draw(st.integers(1, 5))
    lengths = tuple(draw(st.lists(st.integers(1, 4), min_size=n_modes, max_size=n_modes)))
    nnz = draw(st.integers(1, min(int(np.prod(lengths)), 30)))
    rank = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    store = random_store(rng, lengths, nnz)
    mats = [rng.normal(0.0, 1.0, size=(length, rank)) for length in lengths]
    for mat in mats:  # exact zeros take the product fallback
        mat[rng.random(mat.shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = -0.0
        mat[rng.random(mat.shape) < 0.1] = 0.0
    partition = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["any", "empty", "one row", "disjoint"]))
        if kind == "any":
            order = draw(st.lists(st.integers(0, nnz - 1), max_size=2 * nnz))
        elif kind == "empty":
            order = []
        elif kind == "one row":  # one entry per level
            mode = draw(st.integers(0, n_modes - 1))
            order = rng.permutation(store.bucket(mode, int(store.idx[0, mode]))).tolist()
        else:  # pairwise-disjoint rows: a single level
            order, used = [], set()
            for p in rng.permutation(nnz).tolist():
                rows = set(enumerate(store.idx[p].tolist()))
                if not rows & used:
                    order.append(p)
                    used |= rows
        partition.append(np.asarray(order, dtype=np.int64))
    params = SgdParams(rank=rank, lam=draw(st.sampled_from([0.0, 0.05, 0.5])),
                       eta0=draw(st.sampled_from([0.001, 0.02])), n_shards=len(partition))
    return store, FactorModel(rank, params.lam, mats), params, partition, draw(st.integers(0, 3))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(explicit_epochs())
def test_epoch_equals_straight_line(case):
    store, model, params, partition, epoch = case
    got = psgd_epoch(store, model, params, epoch, partition=partition)
    want = straight_line_epoch(
        store, model, partition, learning_rate(params.eta0, epoch), params.lam)
    for a, b in zip(got.matrices, want):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n_modes: st.lists(
    st.tuples(*[st.integers(0, 3)] * n_modes), max_size=40)))
def test_wavefront_levels_keep_row_order(entries):
    n_modes = len(entries[0]) if entries else 1
    rows = np.array(entries, dtype=np.int64).reshape(-1, n_modes) + 4 * np.arange(n_modes)
    levels = wavefront_levels(rows).tolist()
    for k in range(len(rows)):
        sharing = [j for j in range(k) if np.any(rows[j] == rows[k])]
        # no level holds two entries that share a row, and sharing entries keep their order
        assert all(levels[j] < levels[k] for j in sharing)
        assert levels[k] == 1 + max((levels[j] for j in sharing), default=0)
