import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sals.dataio import (
    CacheError,
    CacheWriter,
    CooFileSpec,
    DataFormatError,
    cache_pair,
    generate_synthetic,
    generate_zipf,
    read_coo,
    stream_pass,
    write_coo,
    write_residual_caches,
)
from sals.dataio import _read_coo_lines
from sals.tensor import Coo, predict_entries
from conftest import random_store


class TestCooFiles:
    @pytest.mark.parametrize("n_modes, index_base, message", [
        (0, 1, "n_modes must be >= 1"), (2, 2, "index_base must be 0 or 1")])
    def test_bad_spec_rejected(self, n_modes, index_base, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CooFileSpec(n_modes, index_base)

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
        write_coo(path, Coo(store.idx, store.values), spec)
        (idx, values), lengths = read_coo(path, spec)
        assert np.array_equal(idx, store.idx)
        assert np.array_equal(values.view(np.int64), store.values.view(np.int64))

    def test_zero_based_round_trip(self, rng, tmp_path):
        store = random_store(rng, (5, 5), 12)
        spec = CooFileSpec(2, 0)
        path = tmp_path / "t.coo"
        write_coo(path, Coo(store.idx, store.values), spec)
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
            write_coo(p, Coo(store.idx, store.values), spec)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("lengths, digest", [
        ((5000, 5000, 5000), "f877b22ac6673105"),
        ((2**16, 2**16, 2**16, 2**15), "96ea88db819be31d"),  # 2**63 cells, the most as cell ids
    ])
    def test_sampled_cells_are_pinned(self, lengths, digest):
        store, test, _ = generate_synthetic(lengths, 300, 2, 0.1, 0.2, seed=11)
        # the cells as int64 rows: the store keeps its indices as int32 columns
        cells = np.ascontiguousarray(store.idx, dtype=np.int64)
        data = cells.tobytes() + store.values.tobytes() + test.idx.tobytes()
        assert hashlib.sha256(data + test.values.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("lengths", [(10**5,) * 4, (2**16, 2**16, 2**16, 2**15 + 1)])
    def test_cell_space_beyond_int64(self, lengths):
        store, test, truth = generate_synthetic(lengths, 1000, 2, 0.0, 0.1, seed=3)
        idx = np.concatenate([store.idx, test.idx])
        assert len({tuple(row) for row in idx.tolist()}) == 1000
        assert ((idx >= 0) & (idx < np.array(lengths))).all()
        assert np.array_equal(store.values, predict_entries(truth, store.idx))
        again, _, _ = generate_synthetic(lengths, 1000, 2, 0.0, 0.1, seed=3)
        assert np.array_equal(again.idx, store.idx)

    @pytest.mark.parametrize("lengths, nnz, rank, sigma, fraction, message", [
        ((3, 3), 10, 2, 0.0, 0.0, "nnz=10 infeasible for 9 cells"),
        ((3, 0), 0, 2, 0.0, 0.0, "mode lengths must be positive"),
        ((3, 3), 4, 0, 0.0, 0.0, "rank must be >= 1"),
        ((3, 3), 4, 2, np.nan, 0.0, "noise_sigma must be finite and nonnegative"),
        ((3, 3), 4, 2, np.inf, 0.0, "noise_sigma must be finite and nonnegative"),
        ((3, 3), 4, 2, -0.1, 0.0, "noise_sigma must be finite and nonnegative"),
        ((3, 3), 4, 2, 0.0, -0.1, r"test_fraction must be in \[0, 1\)"),
        ((3, 3), 4, 2, 0.0, 1.0, r"test_fraction must be in \[0, 1\)"),
    ], ids=["nnz", "length", "rank", "noise-nan", "noise-inf", "noise-negative",
            "fraction-negative", "fraction-one"])
    def test_bad_arguments_rejected(self, lengths, nnz, rank, sigma, fraction, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_synthetic(lengths, nnz, rank, sigma, fraction)


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

    @pytest.mark.parametrize("nnz", [5, -1])
    def test_infeasible_nnz_rejected(self, nnz):
        # 5 distinct cells among 4 would be drawn for ever
        with pytest.raises(ValueError, match=f"nnz={nnz} infeasible for 4 cells"):
            generate_zipf((2, 2), nnz)

    def test_every_cell(self):
        assert generate_zipf((2, 2), 4).nnz == 4


def _write_pair(tmp_path, idx, values):
    """A two-file cache in ``tmp_path``: returns its (index, value) pair and writer records."""
    pair = (tmp_path / "i.bin", tmp_path / "v.bin")
    writer = CacheWriter.create(pair, idx.shape[1], np.int64)
    writer.append(idx, values)
    return pair, writer.close()


def _visit_nothing(idx, values, acc):
    return acc


def _runs(count, size):
    """Chunks of ``size`` records, the last one shorter, that cover ``count`` records."""
    return [min(size, count - start) for start in range(0, count, size)]


class TestResidualCache:
    def test_write_read_round_trip(self, rng, tmp_path):
        store = random_store(rng, (7, 6, 5), 80)
        written = {}
        cache = tmp_path / "cache"
        write_residual_caches(store, cache, written, [_runs(store.nnz, 17)] * 3)
        pair = cache_pair(cache, 1)
        assert pair == (cache / "idx_m1.bin", cache / "r_m1.bin")
        assert sorted(written) == sorted(p for n in range(3) for p in cache_pair(cache, n))
        assert sorted(cache.iterdir()) == sorted(written)

        chunks = []

        def visit(idx, values, acc):
            chunks.append((idx.copy(), values.copy()))
            return (0 if acc is None else acc) + idx.shape[0]

        total = stream_pass(pair, visit, expected=written, chunks=_runs(store.nnz, 17))
        assert total == store.nnz
        idx = np.concatenate([c[0] for c in chunks])
        values = np.concatenate([c[1] for c in chunks])
        perm = store.mode_perm[1]
        assert np.array_equal(idx, store.idx[perm])
        assert np.array_equal(values, store.values[perm])
        # grouped by the mode's rows in ascending order
        assert (np.diff(idx[:, 1]) >= 0).all()
        # a value file holds 8 bytes a record, an index file N int16 indices
        # (every mode is shorter than 2^15 rows)
        assert idx.dtype == np.int16
        assert pair[1].stat().st_size == 24 + 8 * store.nnz + 4
        assert pair[0].stat().st_size == 24 + 2 * 3 * store.nnz + 4

    @pytest.mark.parametrize("dtype, top", [(np.int32, 2**31 - 1), (np.int64, 2**63 - 1),
                                            (np.int16, 2**15 - 1)])
    def test_index_records_round_trip_in_their_type(self, tmp_path, dtype, top):
        idx = np.array([[0, top, 5], [top, 1, top - 7], [3, 0, 2]], dtype=dtype)
        values = np.array([np.pi, -0.0, 2.0 ** -1074])
        pair = (tmp_path / "i.bin", tmp_path / "v.bin")
        writer = CacheWriter.create(pair, 3, dtype)
        writer.append(idx[:2], values[:2])
        writer.append(idx[2:], values[2:])
        info = writer.close()
        word = np.dtype(dtype).itemsize
        assert pair[0].stat().st_size == 24 + word * 3 * 3 + 4

        def visit(i, v, acc):
            return [*(acc or []), (i.copy(), v.copy())]

        chunks = stream_pass(pair, visit, expected=info, chunks=[2, 1])
        got_idx = np.concatenate([c[0] for c in chunks])
        got_values = np.concatenate([c[1] for c in chunks])
        assert [c[0].shape for c in chunks] == [(2, 3), (1, 3)]
        assert got_idx.dtype == np.dtype(dtype) and np.array_equal(got_idx, idx)
        assert got_values.tobytes() == values.tobytes()

    def test_index_records_take_only_int16_int32_or_int64(self, tmp_path):
        for dtype in (np.uint32, np.int8, np.float64):
            with pytest.raises(ValueError, match="int16, int32 or int64"):
                CacheWriter.create((tmp_path / "i.bin", tmp_path / "v.bin"), 2, dtype)
        for dtype in (np.int16, np.int32, np.int64):
            CacheWriter.create((tmp_path / "i.bin", tmp_path / "v.bin"), 2, dtype).close()

    def test_version_2_file_rejected(self, tmp_path):
        pair, info = _write_pair(tmp_path, np.array([[0, 1]]), np.array([3.0]))
        # the version 2 header: magic, version, 8-byte words per record, count
        raw = pair[0].read_bytes()
        pair[0].write_bytes(struct.pack("<8sIIQ", b"RTCACHE1", 2, 2, 1) + raw[24:])
        with pytest.raises(CacheError, match="i.bin: bad magic or version"):
            stream_pass(pair, _visit_nothing, expected=info, chunks=[1])

    @pytest.mark.parametrize("word", [1, 3, 16])
    def test_header_word_size_outside_2_4_8_rejected(self, tmp_path, word):
        pair, info = _write_pair(tmp_path, np.array([[0, 1]]), np.array([3.0]))
        raw = pair[0].read_bytes()
        magic, version, width, _, count = struct.unpack("<8sIHHQ", raw[:24])
        pair[0].write_bytes(struct.pack("<8sIHHQ", magic, version, width, word, count) + raw[24:])
        with pytest.raises(CacheError, match=f"i.bin: {word}-byte words$"):
            stream_pass(pair, _visit_nothing, expected=info, chunks=[1])

    def test_empty_cache_never_visits(self, tmp_path):
        pair = (tmp_path / "i.bin", tmp_path / "v.bin")
        info = CacheWriter.create(pair, 2, np.int64).close()
        called = []
        out = stream_pass(pair, lambda i, v, a: called.append(1), expected=info, chunks=[])
        assert out is None and not called

    @pytest.mark.parametrize("chunks", [[], [1], [1, 1], [2, 2], [4]])
    def test_chunks_must_add_up_to_the_record_count(self, tmp_path, chunks):
        pair, info = _write_pair(tmp_path, np.array([[0, 1], [2, 3], [4, 5]]),
                                 np.array([1.0, 2.0, 3.0]))
        called = []
        match = f"i.bin: 3 records, but the chunks hold {sum(chunks)}$"
        with pytest.raises(CacheError, match=match):
            stream_pass(pair, lambda i, v, a: called.append(1), expected=info, chunks=chunks)
        assert not called

    def test_chunkings_visit_the_same_records_in_stored_order(self, rng, tmp_path):
        idx, values = rng.integers(0, 1000, (40, 3)), rng.normal(size=40)
        pair, info = _write_pair(tmp_path, idx, values)

        def visit(i, v, acc):
            return [*(acc or []), (i.copy(), v.copy())]

        for chunks in ([40], [7, 1, 30, 2], [1] * 40):
            seen = stream_pass(pair, visit, expected=info, chunks=chunks)
            assert [v.size for _, v in seen] == chunks
            assert np.array_equal(np.concatenate([i for i, _ in seen]), idx)
            assert np.concatenate([v for _, v in seen]).tobytes() == values.tobytes()

    def test_cache_files_do_not_depend_on_the_write_chunks(self, rng, tmp_path):
        store = random_store(rng, (7, 6, 5), 80)
        files = []
        for name, size in (("whole", 80), ("split", 9)):
            write_residual_caches(store, tmp_path / name, {}, [_runs(store.nnz, size)] * 3)
            files.append(sorted((f.name, f.read_bytes()) for f in (tmp_path / name).iterdir()))
        assert files[0] == files[1]

    def test_checksum_detects_corruption(self, tmp_path):
        for k, offset in ((0, 8), (1, 12)):  # a bit inside the last record of each file
            pair, info = _write_pair(tmp_path, np.array([[0, 1], [1, 0]]), np.array([1.5, -2.5]))
            raw = bytearray(pair[k].read_bytes())
            raw[len(raw) - offset] ^= 0xFF
            pair[k].write_bytes(bytes(raw))
            with pytest.raises(CacheError, match=f"{pair[k].name}: checksum"):
                stream_pass(pair, _visit_nothing, expected=info, chunks=[1, 1])

    def test_manifest_mismatch_detected(self, tmp_path):
        pair, info = _write_pair(tmp_path, np.array([[0, 0]]), np.array([3.0]))
        stream_pass(pair, _visit_nothing, expected=info, chunks=[1])
        for path in pair:
            for wrong in (dict(info[path], records=2), dict(info[path], crc32=0)):
                with pytest.raises(CacheError,
                                   match=f"{path.name}: does not match its writer's record"):
                    stream_pass(pair, _visit_nothing, expected={**info, path: wrong},
                                chunks=[1])
            with pytest.raises(CacheError, match=f"{path.name}: does not match"):
                stream_pass(pair, _visit_nothing, chunks=[1],
                            expected={p: r for p, r in info.items() if p != path})

    def test_truncated_file_detected(self, tmp_path):
        for k in range(2):
            pair, info = _write_pair(tmp_path, np.array([[0, 0]]), np.array([3.0]))
            raw = pair[k].read_bytes()
            for cut in (5, len(raw) - 10):
                pair[k].write_bytes(raw[:-cut])
                with pytest.raises(CacheError, match=pair[k].name):
                    stream_pass(pair, _visit_nothing, expected=info, chunks=[1])

    def test_junk_after_trailer_detected(self, tmp_path):
        for k in range(2):
            pair, info = _write_pair(tmp_path, np.array([[0, 0]]), np.array([3.0]))
            with open(pair[k], "ab") as fh:
                fh.write(b"\0" * 8)
            with pytest.raises(CacheError, match=rf"{pair[k].name}: \d+ bytes, but 1 records"):
                stream_pass(pair, _visit_nothing, expected=info, chunks=[1])

    def test_index_and_value_counts_must_agree(self, tmp_path):
        pair, info = _write_pair(tmp_path, np.array([[0, 0], [1, 1]]), np.array([3.0, 4.0]))
        (tmp_path / "one").mkdir()
        (_, one_value), _ = _write_pair(tmp_path / "one", np.array([[0, 0]]), np.array([3.0]))
        pair[1].write_bytes(one_value.read_bytes())
        with pytest.raises(CacheError, match="i.bin holds 2 records but .*v.bin holds 1"):
            stream_pass(pair, _visit_nothing, expected=info, chunks=[2])

    def test_index_file_is_not_a_value_file(self, tmp_path):
        pair, info = _write_pair(tmp_path, np.array([[0, 0]]), np.array([3.0]))
        with pytest.raises(CacheError, match="i.bin: 2 words per record, not a value file"):
            stream_pass((pair[1], pair[0]), _visit_nothing, expected=info, chunks=[1])

    def test_rewrite_in_place_keeps_size_and_indices(self, tmp_path):
        pair, info = _write_pair(tmp_path, np.array([[0, 1], [2, 3]]), np.array([1.0, 2.0]))
        index_bytes, size = pair[0].read_bytes(), pair[1].stat().st_size
        writer = CacheWriter.rewrite(pair[1])
        writer.append(None, np.array([5.0]))
        writer.append(None, np.array([-6.0]))
        info.update(writer.close())
        assert pair[1].stat().st_size == size and pair[0].read_bytes() == index_bytes

        def visit(idx, values, acc):
            return idx.copy(), values.copy()

        idx, values = stream_pass(pair, visit, expected=info, chunks=[2])
        assert np.array_equal(idx, [[0, 1], [2, 3]]) and np.array_equal(values, [5.0, -6.0])

    def test_values_bit_exact(self, tmp_path):
        vals = np.array([np.pi, -0.0, 1e-300, 2.0 ** 1000])
        pair, info = _write_pair(tmp_path, np.arange(4).reshape(-1, 1), vals)

        def visit(idx, values, acc):
            return values.copy()

        out = stream_pass(pair, visit, expected=info, chunks=[4])
        assert np.array_equal(out, vals)
        assert np.signbit(out[1])
