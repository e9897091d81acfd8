import tracemalloc
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sals import sgd
from sals.dataio import generate_zipf
from sals.sgd import (
    SgdParams,
    factorize_psgd,
    init_sgd_model,
    layered_levels,
    learning_rate,
    psgd_epoch,
    wavefront_levels,
)
from sals.tensor import FactorModel, loss, predict_entries, store_from_arrays
from conftest import random_model, random_store


# The scalar one-entry SGD step: the reference that psgd_epoch's wavefront
# sweep must reproduce bitwise.
def entry_residual(matrices: Sequence, indices0: Sequence[int], value: float) -> float:
    """x minus the full reconstruction at one cell, as scalar arithmetic.

    Works on numpy matrices or nested lists; the scalar operation sequence
    is fixed so both storage forms produce bitwise-equal results.
    """
    rank = len(matrices[0][0])
    r = value
    for k in range(rank):
        p = 1.0
        for n, i in enumerate(indices0):
            p *= matrices[n][i][k]
        r -= p
    return r


def sgd_update_entry(
    model: FactorModel,
    indices0: Sequence[int],
    r: float,
    eta: float,
    lam: float,
    degrees: Sequence[int],
) -> None:
    """One SGD step on all N*K parameters touched by a single entry.

    ``r`` is the residual computed before the step and ``degrees[n]`` the
    entry count |Omega^(n)_i| of the touched row, which apportions the
    regularizer across a row's entries.  All NK parameters move
    simultaneously: gradients use only pre-step values.  The cross-mode
    product divides the full product by the mode's own factor, falling back
    to a direct product when that factor is exactly zero.
    """
    mats = model.matrices
    n_modes = len(mats)
    rank = model.rank
    old = [[float(mats[n][indices0[n]][k]) for k in range(rank)] for n in range(n_modes)]
    full = [1.0] * rank
    for k in range(rank):
        p = 1.0
        for n in range(n_modes):
            p *= old[n][k]
        full[k] = p
    for n in range(n_modes):
        row = mats[n][indices0[n]]
        deg = degrees[n]
        for k in range(rank):
            a = old[n][k]
            if a != 0.0:
                g = full[k] / a
            else:
                g = 1.0
                for l in range(n_modes):
                    if l != n:
                        g *= old[l][k]
            row[k] = a - 2.0 * eta * (lam * a / deg - r * g)


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
        out = explicit_epoch(store, model, params, 0, halves)
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
            explicit_epoch(store, model, params, 2, empty)

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
    @pytest.mark.parametrize("kwargs, message", [
        ({"rank": 0}, "rank must be >= 1"),
        ({"lam": -0.1}, "lam must be nonnegative"),
        ({"eta0": 0.0}, "eta0 must be positive"),
        ({"outer_iters": 0}, "outer_iters must be >= 1"),
        ({"n_shards": 0}, "n_shards must be >= 1"),
    ])
    def test_bad_field_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SgdParams(**{"rank": 2, **kwargs})

    @pytest.mark.parametrize("field", ["lam", "eta0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            SgdParams(rank=2, **{field: value})


class TestExplicitPartition:
    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_windows_of_whole_levels(self, rng, monkeypatch, chunk):
        # The sweep gathers its entries one window of whole levels at a time;
        # with windows of a few entries, levels wider than a window, a long
        # chain and empty shards between full ones, it still equals the
        # straight line bitwise.
        store = random_store(rng, (4, 3, 5), 40)
        mats = [rng.normal(size=(length, 3)) for length in store.mode_lengths]
        mats[1][0] = 0.0
        model = FactorModel(3, 0.05, mats)
        chain = np.tile(store.bucket(1, 1), 3)
        partition = [np.arange(store.nnz), np.zeros(0, np.int64), chain,
                     np.zeros(0, np.int64), rng.permutation(store.nnz)[:7]]
        params = SgdParams(rank=3, lam=0.05, eta0=0.02, n_shards=len(partition))
        monkeypatch.setattr(sgd, "_LEVEL_CHUNK", chunk)
        want = straight_line_epoch(store, model, partition, learning_rate(0.02, 1), 0.05)
        for wide in PASSES:
            monkeypatch.setattr(sgd, "_WIDE", wide)
            got = explicit_epoch(store, model, params, 1, partition)
            for a, b in zip(got.matrices, want):
                assert np.array_equal(a, b)

    def test_peak_memory_grows_only_by_the_model_copies(self, monkeypatch):
        # All shards run in one sweep over M stacked model copies; the other
        # per-entry arrays it holds are the same for any M, and the entries'
        # row ids, degrees and values are gathered one bounded window at a
        # time.  Gathering them for every entry up front would add
        # 16N + 8(K + 1) = 88 B per entry here.
        store = random_store(np.random.default_rng(5), (300, 200, 100), 40_000)
        rank = 4
        excess = {}
        taken = spy_level_passes(monkeypatch)
        for n_shards in (1, 4):
            params = SgdParams(rank=rank, lam=0.05, eta0=0.01, n_shards=n_shards, seed=2)
            model = init_sgd_model(store, params)
            tracemalloc.start()
            try:
                psgd_epoch(store, model, params, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            copies = (n_shards + 1) * sum(store.mode_lengths) * rank * 8
            excess[n_shards] = peak - copies
        assert taken == ["layered_levels"] * 2  # the bound covers the layering
        assert excess[4] <= excess[1] + 64 * 1024, excess
        assert excess[4] / store.nnz < 80, excess

    @pytest.mark.parametrize("kind,want", [
        ("uniform", "layered_levels"), ("zipf", "wavefront_levels")])
    def test_level_pass_follows_the_width(self, monkeypatch, kind, want):
        # Uniform rows make levels of about 20 entries; a Zipf mode of 50
        # rows puts about a quarter of the entries on one row, a chain of
        # levels of a few entries each.
        if kind == "uniform":
            store = random_store(np.random.default_rng(3), (60, 60, 60), 10_000)
        else:
            store = generate_zipf((200, 200, 200, 50), 5_000, seed=3)
        params = SgdParams(rank=2, lam=0.05, eta0=0.01, n_shards=2, seed=4)
        taken = spy_level_passes(monkeypatch)
        psgd_epoch(store, init_sgd_model(store, params), params, 0)
        assert taken == [want]


# _WIDE values that force the sweep's level pass: layering, then the Python one
PASSES = (0, float("inf"))


def spy_level_passes(monkeypatch) -> list[str]:
    """The names of the level passes that the sweep calls, in call order."""
    taken = []
    for name in ("wavefront_levels", "layered_levels"):
        def spy(rows, real=getattr(sgd, name), name=name):
            taken.append(name)
            return real(rows)
        monkeypatch.setattr(sgd, name, spy)
    return taken


def explicit_epoch(store, model, params, epoch, partition):
    """:func:`psgd_epoch`'s sweep and average over explicit shards: shard j
    visits ``partition[j]``, positions of the store's entries, in order."""
    shards = [np.asarray(order, dtype=np.int64) for order in partition]
    return sgd._sharded_epoch(store, model, params, epoch, np.concatenate(shards),
                              [shard.size for shard in shards])


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
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["any", "empty", "one row", "disjoint", "long chain"]))
        if kind == "any":
            order = draw(st.lists(st.integers(0, nnz - 1), max_size=2 * nnz))
        elif kind == "empty":
            order = []
        elif kind == "one row":  # one entry per level
            mode = draw(st.integers(0, n_modes - 1))
            order = rng.permutation(store.bucket(mode, int(store.idx[0, mode]))).tolist()
        elif kind == "long chain":  # one row's bucket revisited: outlasts the other shards
            mode = draw(st.integers(0, n_modes - 1))
            bucket = store.bucket(mode, int(np.argmax(store.bucket_sizes(mode))))
            order = rng.permutation(np.tile(bucket, draw(st.integers(2, 4)))).tolist()
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
    want = straight_line_epoch(
        store, model, partition, learning_rate(params.eta0, epoch), params.lam)
    for wide in PASSES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sgd, "_WIDE", wide)
            got = explicit_epoch(store, model, params, epoch, partition)
        for a, b in zip(got.matrices, want):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n_modes: st.lists(
    st.tuples(*[st.integers(0, 3)] * n_modes), max_size=40)),
    st.sampled_from([wavefront_levels, layered_levels]))
def test_wavefront_levels_keep_row_order(entries, level_pass):
    n_modes = len(entries[0]) if entries else 1
    rows = np.array(entries, dtype=np.int64).reshape(-1, n_modes) + 4 * np.arange(n_modes)
    levels = level_pass(rows).tolist()
    for k in range(len(rows)):
        sharing = [j for j in range(k) if np.any(rows[j] == rows[k])]
        # no level holds two entries that share a row, and sharing entries keep their order
        assert all(levels[j] < levels[k] for j in sharing)
        assert levels[k] == 1 + max((levels[j] for j in sharing), default=0)


def test_wavefront_levels_span_conversion_chunks():
    # The row ids are turned into Python ints a chunk at a time; on a shard
    # longer than one chunk the levels are those of converting it at once.
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 40, size=(2 * sgd._LEVEL_CHUNK + 123, 3)) + 40 * np.arange(3)
    last = [0] * 120
    want = []
    for row in rows.tolist():
        want.append(max(last[g] for g in row) + 1)
        for g in row:
            last[g] = want[-1]
    assert max(want) > 100  # rows chain across the chunk boundaries
    assert wavefront_levels(rows).tolist() == want


@st.composite
def sharded_rows(draw):
    """Several shards' entries as row ids distinct across modes and shards.

    Entries repeat (the same entry twice in a row, or later) and share two
    rows with their predecessor, so one entry can reach the next by several
    edges; shards may be empty, and so may the whole input."""
    n_modes = draw(st.integers(1, 5))
    length = draw(st.integers(1, 4))
    entry = st.tuples(*[st.integers(0, length - 1)] * n_modes)
    shards = []
    for _ in range(draw(st.integers(0, 4))):
        shard = []
        for _ in range(draw(st.integers(0, 30))):
            how = draw(st.sampled_from(["new", "repeat", "share two"])) if shard else "new"
            if how == "new":
                shard.append(draw(entry))
            elif how == "repeat":
                shard.append(shard[draw(st.integers(0, len(shard) - 1))])
            else:
                row = list(draw(entry))
                row[:2] = shard[-1][:2]
                shard.append(tuple(row))
        shards.append(np.array(shard, dtype=np.int64).reshape(-1, n_modes))
    mode_offsets = length * np.arange(n_modes)
    return np.concatenate(
        [np.empty((0, n_modes), np.int64)]
        + [shard + mode_offsets + j * n_modes * length for j, shard in enumerate(shards)])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(sharded_rows())
def test_level_passes_agree(rows):
    levels = layered_levels(rows)
    assert np.array_equal(levels, wavefront_levels(rows))
    assert levels.shape == (rows.shape[0],)
