import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sals.dataio import (
    CacheError,
    CacheWriter,
    CooFileSpec,
    DataFormatError,
    cache_name,
    generate_synthetic,
    generate_zipf,
    plan_synthetic,
    read_coo,
    stream_pass,
    write_coo,
    write_residual_caches,
)
from sals.dataio import _read_coo_lines
from sals.tensor import build_store, predict_entries
from conftest import random_store


class TestCooFiles:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("1 1 5.0\n2 2 3.0\n")
        (idx, values), lengths = read_coo(path, CooFileSpec(2, 1))
        assert idx.tolist() == [[0, 0], [1, 1]] and idx.dtype == np.int64
        assert values.tolist() == [5.0, 3.0] and values.dtype == np.float64
        assert lengths == (2, 2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("")
        (idx, values), lengths = read_coo(path, CooFileSpec(3, 1))
        assert idx.shape == (0, 3) and values.shape == (0,) and lengths == (0, 0, 0)

    def test_round_trip(self, rng, tmp_path):
        store = random_store(rng, (9, 8, 7), 60)
        spec = CooFileSpec(3, 1)
        path = tmp_path / "t.coo"
        write_coo(path, store.entries(), spec)
        (idx, values), lengths = read_coo(path, spec)
        assert np.array_equal(idx, store.idx)
        assert np.array_equal(values.view(np.int64), store.values.view(np.int64))

    def test_zero_based_round_trip(self, rng, tmp_path):
        store = random_store(rng, (5, 5), 12)
        spec = CooFileSpec(2, 0)
        path = tmp_path / "t.coo"
        write_coo(path, store.entries(), spec)
        first = path.read_text().splitlines()[0].split()
        assert int(first[0]) == store.idx[0, 0]  # 0-based on disk
        (idx, values), _ = read_coo(path, spec)
        assert np.array_equal(idx, store.idx)
        assert np.array_equal(values.view(np.int64), store.values.view(np.int64))

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("1 1 5.0\n2 oops 3.0\n")
        with pytest.raises(DataFormatError, match=r"t\.coo:2"):
            read_coo(path, CooFileSpec(2, 1))

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("1 1 1 5.0\n")
        with pytest.raises(DataFormatError, match="expected 3 fields"):
            read_coo(path, CooFileSpec(2, 1))

    def test_index_below_base(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("0 1 5.0\n")
        with pytest.raises(DataFormatError, match="below base"):
            read_coo(path, CooFileSpec(2, 1))

    def test_index_above_int64(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("1 1 1.0\n2 99999999999999999999 2.0\n")
        with pytest.raises(DataFormatError, match=r"t.coo:2: mode 2 index 9+ above the int64"):
            read_coo(path, CooFileSpec(2, 1))

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "t.coo"
        path.write_text("1 1 nan\n")
        with pytest.raises(DataFormatError, match="non-finite"):
            read_coo(path, CooFileSpec(2, 1))


_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([".5", "5.", "-0", "+2.5E3", "1e-400", "0.1", "7e22"]),
)
_BAD_TOKENS = st.sampled_from(
    ["oops", "1_0", "1.0", "nan", "-inf", "inf", "1e400", "0x1", "#", "1e3", "+", "\u0661",
     "\uff13", "\x00"]
)


@st.composite
def coo_texts(draw):
    """COO text with blank lines, tabs, CRLF, an optional final newline and faults."""
    n_modes = draw(st.integers(1, 5))
    base = draw(st.sampled_from([0, 1]))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["record"] * 5 + ["blank", "spaces", "fault"]))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", " \t  "])))
            continue
        tokens = [str(draw(st.integers(base, base + 9))) for _ in range(n_modes)]
        tokens.append(draw(_VALUES))
        if kind == "fault":
            fault = draw(st.sampled_from(
                ["missing", "extra", "comment", "token", "non-finite", "below base"]
            ))
            if fault == "missing":
                tokens.pop(draw(st.integers(0, n_modes)))
            elif fault == "extra":
                tokens.append("1")
            elif fault == "comment":
                tokens.append("#1")
            elif fault == "token":
                tokens[draw(st.integers(0, n_modes))] = draw(_BAD_TOKENS)
            elif fault == "non-finite":
                tokens[-1] = draw(st.sampled_from(["nan", "-inf", "inf", "1e400", "-1E999"]))
            else:
                tokens[draw(st.integers(0, n_modes - 1))] = str(base - draw(st.integers(1, 3)))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t", "\x0c", "\xa0"]))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(pad + sep.join(tokens) + draw(st.sampled_from(["", " ", "\t"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if lines and draw(st.booleans()) else "")
    return CooFileSpec(n_modes, base), text


def _parse_outcome(parse, path, spec):
    try:
        idx, values = parse(path, spec)
    except DataFormatError as exc:
        return str(exc)
    return idx.dtype, idx.shape, idx.tolist(), values.dtype, values.view(np.int64).tolist()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(coo_texts())
def test_read_coo_matches_line_reference(tmp_path_factory, case):
    """The array parse equals the line-by-line reference bitwise, or both raise alike."""
    spec, text = case
    path = tmp_path_factory.mktemp("coo") / "t.coo"
    path.write_bytes(text.encode("utf-8"))
    fast = _parse_outcome(lambda *a: read_coo(*a)[0], path, spec)
    assert fast == _parse_outcome(_read_coo_lines, path, spec)


class TestGenerateSynthetic:
    def test_noiseless_values_match_truth(self):
        store, test, truth = generate_synthetic((6, 7, 8), 100, 3, 0.0, 0.2, seed=5)
        assert np.array_equal(store.values, predict_entries(truth, store.idx))
        assert np.array_equal(test.values, predict_entries(truth, test.idx))

    def test_no_duplicates_and_disjoint_split(self):
        store, test, _ = generate_synthetic((8, 8, 8), 400, 2, 0.1, 0.25, seed=9)
        train = {tuple(r) for r in store.idx.tolist()}
        testset = {tuple(r) for r in test.idx.tolist()}
        assert len(train) == store.nnz
        assert len(testset) == test.values.size
        assert not (train & testset)
        assert store.nnz + test.values.size == 400

    def test_reproducible_bytes(self, tmp_path):
        spec = CooFileSpec(3, 1)
        paths = []
        for tag in ("a", "b"):
            store, test, _ = generate_synthetic((10, 10, 10), 200, 3, 0.05, 0.1, seed=77)
            p = tmp_path / f"{tag}.coo"
            write_coo(p, store.entries(), spec)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_large_scale_accepted_but_flagged(self):
        # the default synthetic scale from the scaled-up benchmark family:
        # accepted as parameters, flagged as beyond desk scale
        plan = plan_synthetic((10**6,) * 3, 10**8, 100, 0.1, 0.0, seed=1)
        assert plan.beyond_desk_scale

    def test_infeasible_nnz_rejected(self):
        with pytest.raises(ValueError, match="infeasible"):
            plan_synthetic((3, 3), 10, 2)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1])
    def test_bad_noise_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma must be finite and nonnegative"):
            plan_synthetic((3, 3), 4, 2, noise_sigma=sigma)

    def test_desk_scale_not_flagged(self):
        plan = plan_synthetic((50, 50, 50), 40000, 5, 0.1, 0.1, seed=0)
        assert not plan.beyond_desk_scale


class TestGenerateZipf:
    def test_shape_and_determinism(self):
        a = generate_zipf((40, 40, 40), 500, 1.2, seed=3)
        b = generate_zipf((40, 40, 40), 500, 1.2, seed=3)
        assert a.nnz == 500
        assert np.array_equal(a.idx, b.idx)
        assert np.array_equal(a.values, b.values)

    def test_skewed_head(self):
        store = generate_zipf((200, 200), 3000, 1.2, seed=1)
        sizes = store.bucket_sizes(0)
        assert sizes[0] > sizes[100:].mean() * 3


class TestResidualCache:
    def test_write_read_round_trip(self, rng, tmp_path):
        store = random_store(rng, (7, 6, 5), 80)
        written = {}
        write_residual_caches(store, tmp_path / "cache", written)
        path = tmp_path / "cache" / cache_name("r", 1)
        assert sorted(written) == [tmp_path / "cache" / cache_name("r", n) for n in range(3)]

        chunks = []

        def visit(idx, values, acc):
            chunks.append((idx.copy(), values.copy()))
            return (0 if acc is None else acc) + idx.shape[0]

        total = stream_pass(path, visit, expected=written[path], chunk_records=17)
        assert total == store.nnz
        idx = np.concatenate([c[0] for c in chunks])
        values = np.concatenate([c[1] for c in chunks])
        perm = store.mode_perm[1]
        assert np.array_equal(idx, store.idx[perm])
        assert np.array_equal(values, store.values[perm])
        # grouped by the mode's rows in ascending order
        assert (np.diff(idx[:, 1]) >= 0).all()

    def test_empty_cache_never_visits(self, tmp_path):
        writer = CacheWriter(tmp_path / "empty.bin", 2)
        info = writer.close()
        called = []
        out = stream_pass(tmp_path / "empty.bin", lambda i, v, a: called.append(1), expected=info)
        assert out is None and not called

    def test_checksum_detects_corruption(self, tmp_path):
        writer = CacheWriter(tmp_path / "c.bin", 2)
        writer.append(np.array([[0, 1], [1, 0]]), np.array([1.5, -2.5]))
        writer.close()
        raw = bytearray((tmp_path / "c.bin").read_bytes())
        raw[len(raw) - 12] ^= 0xFF  # flip a bit inside the last record
        (tmp_path / "c.bin").write_bytes(bytes(raw))
        with pytest.raises(CacheError, match="checksum"):
            stream_pass(tmp_path / "c.bin", lambda i, v, a: a)

    def test_manifest_mismatch_detected(self, tmp_path):
        writer = CacheWriter(tmp_path / "c.bin", 2)
        writer.append(np.array([[0, 0]]), np.array([3.0]))
        info = writer.close()
        wrong = dict(info, records=2)
        with pytest.raises(CacheError, match="manifest"):
            stream_pass(tmp_path / "c.bin", lambda i, v, a: a, expected=wrong)

    def test_truncated_file_detected(self, tmp_path):
        writer = CacheWriter(tmp_path / "c.bin", 2)
        writer.append(np.array([[0, 0]]), np.array([3.0]))
        writer.close()
        raw = (tmp_path / "c.bin").read_bytes()
        (tmp_path / "c.bin").write_bytes(raw[:-5])
        with pytest.raises(CacheError):
            stream_pass(tmp_path / "c.bin", lambda i, v, a: a)

    def test_values_bit_exact(self, tmp_path):
        writer = CacheWriter(tmp_path / "c.bin", 1)
        vals = np.array([np.pi, -0.0, 1e-300, 2.0 ** 1000])
        writer.append(np.arange(4).reshape(-1, 1), vals)
        writer.close()

        def visit(idx, values, acc):
            return values.copy()

        out = stream_pass(tmp_path / "c.bin", visit)
        assert np.array_equal(out, vals)
        assert np.signbit(out[1])
