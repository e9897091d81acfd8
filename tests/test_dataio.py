import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sals.dataio import (
    CacheError,
    CacheWriter,
    CooFileSpec,
    DataFormatError,
    cache_files,
    generate_synthetic,
    generate_zipf,
    read_coo,
    stream_pass,
    write_coo,
    write_residual_caches,
)
from sals.dataio import _read_coo_lines
from sals import solver
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


def _files(directory, n_columns):
    """A cache's files in ``directory``: index columns i.bin, i1.bin, ..., then v.bin."""
    return (*(directory / f"i{j or ''}.bin" for j in range(n_columns)), directory / "v.bin")


def _write_cache(tmp_path, idx, values):
    """A cache of ``idx``'s columns in ``tmp_path``: returns its files and writer records."""
    files = _files(tmp_path, idx.shape[1])
    writer = CacheWriter.create(files, np.int64)
    writer.append(idx, values)
    return files, writer.close()


def _visit_nothing(idx, values, acc):
    return acc


def _runs(count, size):
    """Chunks of ``size`` records, the last one shorter, that cover ``count`` records."""
    return [min(size, count - start) for start in range(0, count, size)]


def _kernel_chunks(store, width):
    """Every mode's cache chunks at slab width ``width``: the row kernel's batches."""
    chunks = []
    for n in range(store.n_modes):
        sizes = store.bucket_sizes(n)
        ptr = np.append(0, np.cumsum(sizes[sizes > 0]))
        chunks.append([int(ptr[r1] - ptr[r0]) for r0, r1 in solver._batches(ptr, width)])
    return chunks


def _read_all(files, written, chunks):
    """A cache's (indices, values) read whole through :func:`stream_pass` in ``chunks``."""
    def visit(idx, values, acc):
        assert idx.flags.f_contiguous and values.flags.writeable
        return [*(acc or []), (idx.copy(), values.copy())]

    seen = stream_pass(files, visit, expected=written, chunks=chunks) or []
    return (np.concatenate([i for i, _ in seen]), np.concatenate([v for _, v in seen]))


class TestResidualCache:
    def test_write_read_round_trip(self, rng, tmp_path):
        store = random_store(rng, (7, 6, 5), 80)
        written = {}
        cache = tmp_path / "cache"
        write_residual_caches(store, cache, written, [_runs(store.nnz, 17)] * 3)
        files = cache_files(cache, 1, 3)
        assert files == (cache / "idx_m1_0.bin", cache / "idx_m1_2.bin", cache / "r_m1.bin")
        assert sorted(written) == sorted(p for n in range(3) for p in cache_files(cache, n, 3))
        assert sorted(cache.iterdir()) == sorted(written)

        idx, values = _read_all(files, written, _runs(store.nnz, 17))
        perm = store.mode_perm[1]
        assert np.array_equal(idx, store.idx[perm][:, [0, 2]])
        assert np.array_equal(values, store.values[perm])
        # a value file holds 8 bytes a record, an index column file one int16
        # index (every mode is shorter than 2^15 rows): 2 (N - 1) bytes an entry
        assert idx.dtype == np.int16
        assert files[-1].stat().st_size == 24 + 8 * store.nnz + 4
        assert [f.stat().st_size for f in files[:-1]] == [24 + 2 * store.nnz + 4] * 2

    @pytest.mark.parametrize("lengths", [(7, 6, 5), (5, 4, 3, 3)])
    def test_each_mode_holds_the_other_modes_columns(self, rng, tmp_path, lengths):
        store = random_store(rng, lengths, 70)
        written = {}
        write_residual_caches(store, tmp_path, written, [_runs(store.nnz, 9)] * len(lengths))
        for n in range(len(lengths)):
            *columns, values = cache_files(tmp_path, n, len(lengths))
            others = [m for m in range(len(lengths)) if m != n]
            assert [c.name for c in columns] == [f"idx_m{n}_{m}.bin" for m in others]
            order = store.mode_perm[n]  # the mode's bucket order
            for m, column in zip(others, columns):
                raw = column.read_bytes()
                want = store.idx[order, m].astype("<i2").tobytes()
                assert raw[24:-4] == want
                assert struct.unpack("<I", raw[-4:])[0] == written[column]["crc32"]
            assert values.read_bytes()[24:-4] == store.values[order].tobytes()
        assert len(list(tmp_path.iterdir())) == len(lengths) ** 2  # N - 1 columns and values

    @pytest.mark.parametrize("dtype, top", [(np.int32, 2**31 - 1), (np.int64, 2**63 - 1),
                                            (np.int16, 2**15 - 1)])
    def test_index_records_round_trip_in_their_type(self, tmp_path, dtype, top):
        idx = np.array([[0, top, 5], [top, 1, top - 7], [3, 0, 2]], dtype=dtype)
        values = np.array([np.pi, -0.0, 2.0 ** -1074])
        files = _files(tmp_path, 3)
        writer = CacheWriter.create(files, dtype)
        writer.append(idx[:2], values[:2])
        writer.append(idx[2:], values[2:])
        info = writer.close()
        word = np.dtype(dtype).itemsize
        assert [f.stat().st_size for f in files[:-1]] == [24 + word * 3 + 4] * 3

        def visit(i, v, acc):
            return [*(acc or []), (i.copy(), v.copy())]

        chunks = stream_pass(files, visit, expected=info, chunks=[2, 1])
        got_idx = np.concatenate([c[0] for c in chunks])
        got_values = np.concatenate([c[1] for c in chunks])
        assert [c[0].shape for c in chunks] == [(2, 3), (1, 3)]
        assert got_idx.dtype == np.dtype(dtype) and np.array_equal(got_idx, idx)
        assert got_values.tobytes() == values.tobytes()

    def test_index_records_take_only_int16_int32_or_int64(self, tmp_path):
        for dtype in (np.uint32, np.int8, np.float64):
            with pytest.raises(ValueError, match="int16, int32 or int64"):
                CacheWriter.create(_files(tmp_path, 2), dtype)
        for dtype in (np.int16, np.int32, np.int64):
            CacheWriter.create(_files(tmp_path, 2), dtype).close()

    def test_version_2_file_rejected(self, tmp_path):
        files, info = _write_cache(tmp_path, np.array([[0, 1]]), np.array([3.0]))
        # the version 2 header: magic, version, 8-byte words per record, count
        raw = files[0].read_bytes()
        files[0].write_bytes(struct.pack("<8sIIQ", b"RTCACHE1", 2, 2, 1) + raw[24:])
        with pytest.raises(CacheError, match="i.bin: bad magic or version"):
            stream_pass(files, _visit_nothing, expected=info, chunks=[1])

    def test_version_3_file_rejected(self, tmp_path):
        # version 3 kept an entry's N indices as one record of an (index, value) pair:
        # magic, version, words per record, bytes per word, count
        records = np.array([[0, 1]], "<i8").tobytes()
        v3 = struct.pack("<8sIHHQ", b"RTCACHE1", 3, 2, 8, 1) + records + struct.pack(
            "<I", zlib.crc32(records))
        for k in range(2):
            files, info = _write_cache(tmp_path, np.array([[0]]), np.array([3.0]))
            files[k].write_bytes(v3)
            with pytest.raises(CacheError, match=rf"{files[k].name}: bad magic or version$"):
                stream_pass(files, _visit_nothing, expected=info, chunks=[1])

    @pytest.mark.parametrize("word", [1, 3, 16])
    def test_header_word_size_outside_2_4_8_rejected(self, tmp_path, word):
        files, info = _write_cache(tmp_path, np.array([[0, 1]]), np.array([3.0]))
        raw = files[0].read_bytes()
        magic, version, kind, _, count = struct.unpack("<8sIcxHQ", raw[:24])
        files[0].write_bytes(struct.pack("<8sIcxHQ", magic, version, kind, word, count)
                             + raw[24:])
        with pytest.raises(CacheError, match=f"i.bin: {word}-byte words$"):
            stream_pass(files, _visit_nothing, expected=info, chunks=[1])

    def test_empty_cache_never_visits(self, tmp_path):
        files = _files(tmp_path, 2)
        info = CacheWriter.create(files, np.int64).close()
        called = []
        out = stream_pass(files, lambda i, v, a: called.append(1), expected=info, chunks=[])
        assert out is None and not called

    @pytest.mark.parametrize("chunks", [[], [1], [1, 1], [2, 2], [4]])
    def test_chunks_must_add_up_to_the_record_count(self, tmp_path, chunks):
        files, info = _write_cache(tmp_path, np.array([[0, 1], [2, 3], [4, 5]]),
                                  np.array([1.0, 2.0, 3.0]))
        called = []
        match = f"i.bin: 3 records, but the chunks hold {sum(chunks)}$"
        with pytest.raises(CacheError, match=match):
            stream_pass(files, lambda i, v, a: called.append(1), expected=info, chunks=chunks)
        assert not called

    def test_chunkings_visit_the_same_records_in_stored_order(self, rng, tmp_path):
        idx, values = rng.integers(0, 1000, (40, 3)), rng.normal(size=40)
        files, info = _write_cache(tmp_path, idx, values)

        def visit(i, v, acc):
            return [*(acc or []), (i.copy(), v.copy())]

        for chunks in ([40], [7, 1, 30, 2], [1] * 40):
            seen = stream_pass(files, visit, expected=info, chunks=chunks)
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

    def test_kernel_chunks_of_either_slab_width_read_what_the_other_wrote(
            self, tmp_path, monkeypatch):
        # With K = 5 and C = 3, the last subset reads at width 2.  The caches
        # written in either width's chunks are the same bytes, and each reads
        # back whole in the other width's chunks.
        store = generate_zipf((40, 30, 20), 900, seed=3)
        monkeypatch.setattr(solver, "_BATCH_ENTRIES", 16)  # batches of 32 entries at C = 3,
        monkeypatch.setattr(solver, "_BATCH_VALUES", 96)   # 48 at C = 2
        widths = {w: _kernel_chunks(store, w) for w in (3, 2)}
        assert widths[3] != widths[2]
        written = {w: {} for w in widths}
        for w, chunks in widths.items():
            write_residual_caches(store, tmp_path / str(w), written[w], chunks)
        assert [f.read_bytes() for f in sorted((tmp_path / "3").iterdir())] == \
            [f.read_bytes() for f in sorted((tmp_path / "2").iterdir())]
        for w, other in ((3, 2), (2, 3)):
            for n in range(store.n_modes):
                idx, values = _read_all(cache_files(tmp_path / str(w), n, 3), written[w],
                                        widths[other][n])
                order, others = store.mode_perm[n], [m for m in range(3) if m != n]
                assert np.array_equal(idx, store.idx[order][:, others])
                assert values.tobytes() == store.values[order].tobytes()

    def test_checksum_detects_corruption(self, tmp_path):
        for k in range(3):  # a bit inside the last record of each file
            files, info = _write_cache(tmp_path, np.array([[0, 1], [1, 0]]),
                                      np.array([1.5, -2.5]))
            raw = bytearray(files[k].read_bytes())
            raw[len(raw) - 8] ^= 0xFF
            files[k].write_bytes(bytes(raw))
            with pytest.raises(CacheError, match=f"{files[k].name}: checksum"):
                stream_pass(files, _visit_nothing, expected=info, chunks=[1, 1])

    def test_manifest_mismatch_detected(self, tmp_path):
        files, info = _write_cache(tmp_path, np.array([[0, 0]]), np.array([3.0]))
        stream_pass(files, _visit_nothing, expected=info, chunks=[1])
        assert len(files) == 3
        for path in files:
            for wrong in (dict(info[path], records=2), dict(info[path], crc32=0)):
                with pytest.raises(CacheError,
                                   match=f"{path.name}: does not match its writer's record"):
                    stream_pass(files, _visit_nothing, expected={**info, path: wrong},
                                chunks=[1])
            with pytest.raises(CacheError, match=f"{path.name}: does not match"):
                stream_pass(files, _visit_nothing, chunks=[1],
                            expected={p: r for p, r in info.items() if p != path})

    def test_truncated_file_detected(self, tmp_path):
        for k in range(3):
            files, info = _write_cache(tmp_path, np.array([[0, 0]]), np.array([3.0]))
            raw = files[k].read_bytes()
            for cut in (5, len(raw) - 10):
                files[k].write_bytes(raw[:-cut])
                with pytest.raises(CacheError, match=files[k].name):
                    stream_pass(files, _visit_nothing, expected=info, chunks=[1])

    def test_junk_after_trailer_detected(self, tmp_path):
        for k in range(3):
            files, info = _write_cache(tmp_path, np.array([[0, 0]]), np.array([3.0]))
            with open(files[k], "ab") as fh:
                fh.write(b"\0" * 8)
            with pytest.raises(CacheError, match=rf"{files[k].name}: \d+ bytes, but 1 records"):
                stream_pass(files, _visit_nothing, expected=info, chunks=[1])

    def test_index_and_value_counts_must_agree(self, tmp_path):
        (tmp_path / "one").mkdir()
        ones, _ = _write_cache(tmp_path / "one", np.array([[0, 0]]), np.array([3.0]))
        for k in range(3):  # any one file of the set holds one record, the others two
            files, info = _write_cache(tmp_path, np.array([[0, 0], [1, 1]]),
                                      np.array([3.0, 4.0]))
            files[k].write_bytes(ones[k].read_bytes())
            holds = (f"{files[k].name} holds 1 records but .*v.bin holds 2" if k < 2
                     else "i.bin holds 2 records but .*v.bin holds 1")
            with pytest.raises(CacheError, match=holds):
                stream_pass(files, _visit_nothing, expected=info, chunks=[2])

    def test_index_file_is_not_a_value_file(self, tmp_path):
        files, info = _write_cache(tmp_path, np.array([[0]]), np.array([3.0]))
        with pytest.raises(CacheError, match="i.bin: an index column file, not a value file$"):
            stream_pass(files[::-1], _visit_nothing, expected=info, chunks=[1])
        with pytest.raises(CacheError, match="v.bin: a value file, not an index column file$"):
            stream_pass((files[1], files[1]), _visit_nothing, expected=info, chunks=[1])

    def test_index_columns_must_share_a_word_type(self, tmp_path):
        files, info = _write_cache(tmp_path, np.array([[0, 1]]), np.array([3.0]))
        (tmp_path / "short").mkdir()
        short = CacheWriter.create(_files(tmp_path / "short", 2), np.int16)
        short.append(np.array([[0, 1]]), np.array([3.0]))
        info.update({files[1]: short.close()[tmp_path / "short" / "i1.bin"]})
        files[1].write_bytes((tmp_path / "short" / "i1.bin").read_bytes())
        with pytest.raises(CacheError, match="i1.bin: 2-byte words, but .*i.bin holds 8-byte"):
            stream_pass(files, _visit_nothing, expected=info, chunks=[1])

    def test_rewrite_in_place_keeps_size_and_indices(self, tmp_path):
        files, info = _write_cache(tmp_path, np.array([[0, 1], [2, 3]]), np.array([1.0, 2.0]))
        index_bytes = [f.read_bytes() for f in files[:-1]]
        size = files[-1].stat().st_size
        writer = CacheWriter.rewrite(files[-1])
        writer.append(None, np.array([5.0]))
        writer.append(None, np.array([-6.0]))
        info.update(writer.close())
        assert files[-1].stat().st_size == size
        assert [f.read_bytes() for f in files[:-1]] == index_bytes

        def visit(idx, values, acc):
            return idx.copy(), values.copy()

        idx, values = stream_pass(files, visit, expected=info, chunks=[2])
        assert np.array_equal(idx, [[0, 1], [2, 3]]) and np.array_equal(values, [5.0, -6.0])

    def test_values_bit_exact(self, tmp_path):
        vals = np.array([np.pi, -0.0, 1e-300, 2.0 ** 1000])
        files, info = _write_cache(tmp_path, np.arange(4).reshape(-1, 1), vals)

        def visit(idx, values, acc):
            return values.copy()

        out = stream_pass(files, visit, expected=info, chunks=[4])
        assert np.array_equal(out, vals)
        assert np.signbit(out[1])
