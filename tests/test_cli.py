import csv
import re
import subprocess
import sys

import numpy as np
import pytest

from sals.cli import EXIT_IO, EXIT_USAGE, load_model, main, save_model
from sals.dataio import CooFileSpec, write_coo
from sals.tensor import FactorModel
from conftest import random_model, random_store


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "sals", *map(str, args)],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = main(
        [
            "generate", "--out", str(out), "--lengths", "12,11,10",
            "--nnz", "600", "--k-true", "3", "--noise", "0.05",
            "--test-fraction", "0.1", "--seed", "99",
        ]
    )
    assert code == 0
    return out


class TestGenerate:
    def test_same_seed_identical_bytes(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = main(
                [
                    "generate", "--out", str(out), "--lengths", "8,8",
                    "--nnz", "40", "--k-true", "2", "--noise", "0.1",
                    "--test-fraction", "0.2", "--seed", "5",
                ]
            )
            assert code == 0
            outs.append(out)
        for name in ("train.coo", "test.coo"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestFactorize:
    def test_als_equals_sals_full_rank(self, dataset, tmp_path):
        common = [
            "factorize", "--train", str(dataset / "train.coo"),
            "--test", str(dataset / "test.coo"),
            "-K", "4", "--t-out", "3", "--lambda", "0.05", "--seed", "3",
        ]
        code = main([*common, "--alg", "als", "--out", str(tmp_path / "als")])
        assert code == 0
        code = main(
            [*common, "--alg", "sals", "-C", "4", "--t-in", "1",
             "--out", str(tmp_path / "sals")]
        )
        assert code == 0
        a = read_csv(tmp_path / "als" / "convergence.csv")
        b = read_csv(tmp_path / "sals" / "convergence.csv")
        assert [r["loss"] for r in a] == [r["loss"] for r in b]
        assert [r["rmse"] for r in a] == [r["rmse"] for r in b]

    def test_convergence_csv_appends_eval_seconds(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["factorize", "--train", str(dataset / "train.coo"),
             "--test", str(dataset / "test.coo"), "--alg", "sals", "-K", "2",
             "--t-out", "2", "--out", str(out)]
        )
        assert code == 0
        header = (out / "convergence.csv").read_text().splitlines()[0]
        assert header == "iteration,seconds,loss,rmse,sent,received,flops,eval_seconds"
        assert all(float(r["eval_seconds"]) > 0 for r in read_csv(out / "convergence.csv"))

    def test_streaming_matches_in_memory_model_files(self, dataset, tmp_path):
        common = [
            "factorize", "--train", str(dataset / "train.coo"),
            "--alg", "sals", "-K", "4", "-C", "2", "--t-out", "2",
            "--lambda", "0.02", "--seed", "8",
        ]
        assert main([*common, "--mode", "in-memory", "--out", str(tmp_path / "mem")]) == 0
        assert main([*common, "--mode", "streaming", "--out", str(tmp_path / "str")]) == 0
        for n in (1, 2, 3):
            mem = (tmp_path / "mem" / "model" / f"factor_{n}.txt").read_bytes()
            str_ = (tmp_path / "str" / "model" / f"factor_{n}.txt").read_bytes()
            assert mem == str_

    def test_distributed_csv_reconciles_with_comm_log(self, dataset, tmp_path):
        out = tmp_path / "dist"
        code = main(
            [
                "factorize", "--train", str(dataset / "train.coo"),
                "--alg", "sals", "-K", "4", "-C", "2", "--t-out", "2",
                "--lambda", "0.05", "--seed", "1", "-M", "3", "--assign", "greedy",
                "--out", str(out),
            ]
        )
        assert code == 0
        conv = read_csv(out / "convergence.csv")
        comm = read_csv(out / "comm.csv")
        for row in conv:
            it = row["iteration"]
            sent = sum(int(c["sent"]) for c in comm if c["iteration"] == it)
            received = sum(int(c["received"]) for c in comm if c["iteration"] == it)
            assert int(row["sent"]) == sent
            assert int(row["received"]) == received

    def test_distributed_matches_serial_model(self, dataset, tmp_path):
        common = [
            "factorize", "--train", str(dataset / "train.coo"),
            "--alg", "cdtf", "-K", "3", "--t-out", "2", "--lambda", "0.1",
            "--seed", "4",
        ]
        assert main([*common, "--out", str(tmp_path / "serial")]) == 0
        assert main([*common, "-M", "2", "--assign", "random", "--out", str(tmp_path / "dist")]) == 0
        a = load_model(tmp_path / "serial" / "model")
        b = load_model(tmp_path / "dist" / "model")
        for x, y in zip(a.matrices, b.matrices):
            assert np.array_equal(x, y)

    def test_psgd_runs(self, dataset, tmp_path):
        code = main(
            [
                "factorize", "--train", str(dataset / "train.coo"),
                "--test", str(dataset / "test.coo"),
                "--alg", "psgd", "-K", "3", "--t-out", "2", "--lambda", "0.05",
                "--eta0", "0.02", "-M", "2", "--seed", "6",
                "--out", str(tmp_path / "psgd"),
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "psgd" / "convergence.csv")
        assert len(rows) == 2 and rows[0]["rmse"]

    def test_missing_train_is_usage_error(self, tmp_path):
        assert main(["factorize", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_nonexistent_train_is_io_error(self, tmp_path):
        code = main(
            ["factorize", "--train", str(tmp_path / "nope.coo"),
             "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_IO

    def test_als_with_wrong_c_is_usage_error(self, dataset, tmp_path):
        code = main(
            ["factorize", "--train", str(dataset / "train.coo"), "--alg", "als",
             "-K", "4", "-C", "2", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USAGE

    def test_streaming_with_machines_is_usage_error(self, dataset, tmp_path):
        code = main(
            ["factorize", "--train", str(dataset / "train.coo"),
             "--mode", "streaming", "-M", "2", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USAGE

    def test_config_file_with_flag_override(self, dataset, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "alg=sals\nk=4\nc=2\nt_out=2\nlambda=0.05\nseed=3\n"
            f"train={dataset / 'train.coo'}\n"
        )
        out1 = tmp_path / "from_conf"
        assert main(["factorize", "--config", str(conf), "--out", str(out1)]) == 0
        # explicit flag overrides the config's seed
        out2 = tmp_path / "override"
        assert main(
            ["factorize", "--config", str(conf), "--seed", "4", "--out", str(out2)]
        ) == 0
        a = read_csv(out1 / "convergence.csv")
        b = read_csv(out2 / "convergence.csv")
        assert a[0]["loss"] != b[0]["loss"]

    def test_unknown_config_key_is_usage_error(self, dataset, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("wibble=1\n")
        code = main(
            ["factorize", "--config", str(conf),
             "--train", str(dataset / "train.coo"), "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USAGE


class TestEvaluate:
    def test_perfect_model_scores_zero(self, rng, tmp_path):
        store = random_store(rng, (6, 5), 20)
        model = random_model(rng, store, rank=2)
        from sals.tensor import reconstruct, TensorEntry

        entries = [
            TensorEntry(e.indices, reconstruct(model, e.indices))
            for e in store.entries()
        ]
        write_coo(tmp_path / "test.coo", entries, CooFileSpec(2, 1))
        save_model(tmp_path / "model", model)
        code, out, _ = 0, "", ""
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(
                ["evaluate", "--model", str(tmp_path / "model"),
                 "--test", str(tmp_path / "test.coo")]
            )
        assert code == 0
        assert float(buf.getvalue().split()[-1]) < 1e-10

    def test_empty_test_file_is_io_error(self, rng, tmp_path):
        store = random_store(rng, (4, 4), 6)
        model = random_model(rng, store, rank=2)
        save_model(tmp_path / "model", model)
        (tmp_path / "empty.coo").write_text("")
        code = main(
            ["evaluate", "--model", str(tmp_path / "model"),
             "--test", str(tmp_path / "empty.coo")]
        )
        assert code == EXIT_IO


class TestExitCodes:
    def test_numerical_failure_exit_code(self, dataset, tmp_path):
        from sals.cli import EXIT_NUMERIC

        code = main(
            ["factorize", "--train", str(dataset / "train.coo"),
             "--alg", "sals", "-K", "4", "-C", "2", "--t-out", "2",
             "--lambda", "-1", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_NUMERIC

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_reports_schedule_position(self, tmp_path, capsys):
        from sals.cli import EXIT_NUMERIC

        store = random_store(np.random.default_rng(4), (6, 5, 4), 60, value_scale=1e300)
        write_coo(tmp_path / "huge.coo", store.entries(), CooFileSpec(3, 1))
        code = main(
            ["factorize", "--train", str(tmp_path / "huge.coo"), "--alg", "sals",
             "-K", "2", "-C", "1", "--t-out", "2", "--lambda", "0.1",
             "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.search(
            r"numerical error: Stamp\(outer=1, subset=\d+, inner=0, mode=(\d)\): "
            r"mode \1, row \d+: non-finite normal equations", err
        ), err

    def test_psgd_rejects_weighted_regularization(self, dataset, tmp_path):
        code = main(
            ["factorize", "--train", str(dataset / "train.coo"),
             "--alg", "psgd", "-K", "3", "--t-out", "1", "--reg", "weighted",
             "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USAGE

    def test_zero_based_files_round_trip(self, tmp_path):
        out = tmp_path / "zb"
        assert main(
            ["generate", "--out", str(out), "--lengths", "6,6", "--nnz", "20",
             "--k-true", "2", "--seed", "1", "--index-base", "0"]
        ) == 0
        first = (out / "train.coo").read_text().splitlines()[0].split()
        assert int(first[0]) >= 0
        code = main(
            ["factorize", "--train", str(out / "train.coo"), "--index-base", "0",
             "--alg", "als", "-K", "2", "--t-out", "2", "--lambda", "0.01",
             "--out", str(tmp_path / "run")]
        )
        assert code == 0


class TestPartitionStats:
    def test_single_machine_report_equals_global_counts(self, dataset, capsys):
        code = main(
            ["partition-stats", "--train", str(dataset / "train.coo"), "-M", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # every strategy reports the full entry count as the max load
        assert out.count("max|mOmega|=540") >= 3  # 600 nnz * 0.9 train split

    def test_prints_tables_and_writes_assignments(self, dataset, tmp_path, capsys):
        code = main(
            ["partition-stats", "--train", str(dataset / "train.coo"),
             "-M", "3", "--out", str(tmp_path / "parts")]
        )
        assert code == 0
        captured = capsys.readouterr().out
        for strategy in ("sequential", "random", "greedy"):
            assert f"# {strategy}" in captured
            assert (tmp_path / "parts" / f"assignment_{strategy}.txt").exists()
        assert "imbalance" in captured


class TestModelFiles:
    def test_save_load_round_trip(self, rng, tmp_path):
        store = random_store(rng, (5, 4, 3), 20)
        model = random_model(rng, store, rank=3)
        save_model(tmp_path / "m", model)
        back = load_model(tmp_path / "m")
        assert back.rank == 3
        for a, b in zip(model.matrices, back.matrices):
            assert np.array_equal(a, b)  # repr round-trips doubles exactly

    def test_console_entry_point(self):
        code, out, err = run_cli("--help")
        assert code == 0
        assert "factorize" in out
