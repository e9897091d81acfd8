import csv
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sals.cli import EXIT_IO, EXIT_USAGE, load_model, main, save_model
from sals.dataio import CooFileSpec, write_coo
from sals.tensor import Coo, FactorModel, predict_entries
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

    def test_cell_space_beyond_int64(self, tmp_path):
        out = tmp_path / "g"
        code = main(["generate", "--out", str(out), "--lengths", "100000,100000,100000,100000",
                     "--nnz", "1000", "--k-true", "2"])
        assert code == 0
        assert len((out / "train.coo").read_text().splitlines()) == 1000

    def test_failed_generation_leaves_no_directory(self, tmp_path, monkeypatch):
        from sals import dataio

        def fail(*args):
            raise ValueError("no cells")

        monkeypatch.setattr(dataio, "generate_synthetic", fail)
        code = main(["generate", "--out", str(tmp_path / "g"), "--lengths", "5,5", "--nnz", "10"])
        assert code != 0
        assert list(tmp_path.iterdir()) == []


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

    def test_loss_rise_warns_naming_the_iteration(self, dataset, tmp_path, capsys, monkeypatch):
        from sals import solver

        args = ["factorize", "--train", str(dataset / "train.coo"), "--alg", "sals",
                "-K", "2", "--t-out", "3", "--out", str(tmp_path / "run")]
        assert main(args) == 0
        assert "loss rose" not in capsys.readouterr().err
        losses = iter([3.0, 2.0, 2.5])
        monkeypatch.setattr(solver, "evaluate", lambda *a: (next(losses), None))
        assert main(args) == 0
        warnings = [l for l in capsys.readouterr().err.splitlines() if "loss rose" in l]
        assert warnings == ["warning: loss rose at outer iteration 3 (to 2.5)"]

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
        # cdtf runs one column order on every path, so the model files match
        common = [
            "factorize", "--train", str(dataset / "train.coo"),
            "--alg", "cdtf", "-K", "3", "--t-out", "2", "--lambda", "0.1",
            "--seed", "4",
        ]
        runs = {"serial": [], "dist": ["-M", "2", "--assign", "random"],
                "stream": ["--mode", "streaming"]}
        for name, extra in runs.items():
            assert main([*common, *extra, "--out", str(tmp_path / name)]) == 0
        for n in (1, 2, 3):
            models = {(tmp_path / name / "model" / f"factor_{n}.txt").read_bytes() for name in runs}
            assert len(models) == 1

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

    @pytest.mark.parametrize("extra", [[], ["-M", "2"], ["--mode", "streaming"]])
    def test_skipped_rows_noted_on_every_path(self, tmp_path, capsys, extra):
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data), "--lengths", "30,30,30",
                     "--nnz", "40", "--k-true", "2", "--seed", "3"]) == 0
        code = main(
            ["factorize", "--train", str(data / "train.coo"), "-K", "2", "-C", "2",
             "--t-out", "2", "--lambda", "0", "--seed", "9", "--out", str(tmp_path / "x"),
             *extra]
        )
        assert code == 0
        assert "note: 122 singular row updates skipped" in capsys.readouterr().err

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


class TestConfigValues:
    @pytest.mark.parametrize("line", [
        "alg=foo", "mode=bogus", "k=abc", "lam=x", "lambda=x", "reg=foo",
        "index_base=2", "assign=bogus", "t-out=1.5", "lambda=inf", "eta0=nan",
    ])
    def test_bad_value_is_usage_error_naming_the_key(self, dataset, tmp_path, capsys, line):
        conf = tmp_path / "bad.conf"
        conf.write_text(line + "\n")
        code = main(
            ["factorize", "--config", str(conf),
             "--train", str(dataset / "train.coo"), "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USAGE
        key = line.split("=")[0]
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--lambda", "inf"), ("--lambda", "nan"), ("--eta0", "nan"), ("--eta0", "-inf"),
    ])
    def test_non_finite_flag_is_usage_error(self, dataset, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["factorize", "--train", str(dataset / "train.coo"), "--alg", "psgd",
                  f"{flag}={value}", "--out", str(tmp_path / "x")])
        assert exc.value.code == EXIT_USAGE
        assert f"argument {flag}: must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command,flag", [
        ("factorize", "-K"), ("factorize", "-C"), ("factorize", "-M"),
        ("factorize", "--t-in"), ("factorize", "--t-out"), ("partition-stats", "-M"),
    ])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_count_below_one_is_usage_error(self, dataset, tmp_path, capsys,
                                            command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--train", str(dataset / "train.coo"), f"{flag}={value}",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == EXIT_USAGE
        assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("line", ["k=0", "c=0", "m=-1", "t_in=0", "t-out=0"])
    def test_count_below_one_in_config_names_the_key(self, dataset, tmp_path, capsys, line):
        conf = tmp_path / "bad.conf"
        conf.write_text(line + "\n")
        code = main(
            ["factorize", "--config", str(conf),
             "--train", str(dataset / "train.coo"), "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USAGE
        key = line.split("=")[0]
        assert f"config key {key!r}: must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--k-true", "0"), ("--noise", "nan"), ("--noise", "inf"), ("--test-fraction", "nan"),
    ])
    def test_bad_generate_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", str(tmp_path / "g"), "--lengths", "5,5",
                  "--nnz", "10", f"{flag}={value}"])
        assert exc.value.code == EXIT_USAGE
        assert f"argument {flag}: must be a" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("lengths,nnz,flag", [
        ("0,5", "3", "--lengths"), ("a,b", "3", "--lengths"), ("5,,5", "3", "--lengths"),
        ("5,5", "-1", "--nnz"), ("5,5", "30", "--nnz"),
    ])
    def test_bad_generate_size_is_usage_error(self, tmp_path, capsys, lengths, nnz, flag):
        argv = ["generate", "--out", str(tmp_path / "g"), "--lengths", lengths, "--nnz", nnz]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value itself
            code = exc.code
        assert code == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--noise", "-0.1"), ("--test-fraction", "1.5"), ("--test-fraction", "1"),
    ])
    def test_out_of_range_generate_value_is_usage_error(self, tmp_path, capsys, flag, value):
        code = main(["generate", "--out", str(tmp_path / "g"), "--lengths", "5,5",
                     "--nnz", "10", f"{flag}={value}"])
        assert code == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_generate_accepts_zero_nnz(self, tmp_path):
        out = tmp_path / "g"
        assert main(["generate", "--out", str(out), "--lengths", "5,5", "--nnz", "0"]) == 0
        assert (out / "train.coo").read_text() == ""

    def test_generate_precedence_flag_config_default(self, tmp_path):
        conf = tmp_path / "gen.conf"
        conf.write_text("k_true=2\nnoise=0.5\ntest_fraction=0.5\n")
        common = ["generate", "--lengths", "6,6", "--nnz", "20", "--seed", "1"]

        def written(out):
            rank = (out / "truth" / "factor_1.txt").read_text().splitlines()[0]
            return rank, len((out / "test.coo").read_text().splitlines())

        assert main([*common, "--config", str(conf), "--out", str(tmp_path / "conf")]) == 0
        assert written(tmp_path / "conf") == ("6 2", 10)
        assert main([*common, "--config", str(conf), "--out", str(tmp_path / "flags"),
                     "--k-true", "3", "--noise", "0", "--test-fraction", "0.25"]) == 0
        assert written(tmp_path / "flags") == ("6 3", 5)
        assert main([*common, "--out", str(tmp_path / "plain")]) == 0
        assert written(tmp_path / "plain") == ("6 5", 0)
        # noise 0 from a flag writes what the noise-free default writes
        assert main([*common, "--config", str(conf), "--out", str(tmp_path / "quiet"),
                     "--k-true", "5", "--noise", "0", "--test-fraction", "0"]) == 0
        for name in ("train.coo", "test.coo"):
            assert ((tmp_path / "quiet" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())

    def test_values_are_typed_like_flags(self, tmp_path):
        conf = tmp_path / "gen.conf"
        conf.write_text("seed=5\nindex_base=0\nnoise=0.5\n")
        out = tmp_path / "g"
        assert main(
            ["generate", "--config", str(conf), "--out", str(out),
             "--lengths", "4,4", "--nnz", "6"]
        ) == 0
        rows = [line.split() for line in (out / "train.coo").read_text().splitlines()]
        assert min(int(r[0]) for r in rows) >= 0 and max(int(r[0]) for r in rows) <= 3


class TestRunParameters:
    @pytest.mark.parametrize("argv,message", [
        (["factorize", "-K", "3", "-C", "5"], "-C 5 exceeds -K 3"),
        (["factorize", "--lambda", "-1"], "--lambda -1.0 is negative"),
        (["factorize", "--alg", "psgd", "--eta0", "0"], "--eta0 0.0 is not positive"),
        (["factorize", "--alg", "psgd", "--mode", "streaming"],
         "--alg psgd supports only --mode in-memory"),
        (["factorize", "--alg", "cdtf", "--column-order", "random"],
         "--alg cdtf requires --column-order fixed"),
        (["factorize", "--seed", "-1"], "--seed -1 is negative"),
        (["partition-stats", "--seed", "-2"], "--seed -2 is negative"),
        (["generate", "--lengths", "5,5", "--nnz", "10", "--seed", "-3"],
         "--seed -3 is negative"),
    ], ids=["c-above-k", "lambda", "eta0", "psgd-streaming", "cdtf-random",
            "factorize-seed", "partition-stats-seed", "generate-seed"])
    def test_bad_value_is_usage_error_before_any_file(self, tmp_path, capsys, argv, message):
        # the training file does not exist: reading it first would exit 3
        train = [] if argv[0] == "generate" else ["--train", str(tmp_path / "missing.coo")]
        assert main([*argv, *train, "--out", str(tmp_path / "x")]) == EXIT_USAGE
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


PATHS = [[], ["--mode", "streaming"], ["-M", "2"], ["--alg", "psgd"]]


class TestTestFileRange:
    # train: a 2 x 2 matrix; the test cell (3, 1) lies outside it
    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "train.coo").write_text("1 1 1.0\n2 2 2.0\n1 2 0.5\n2 1 0.25\n")
        (tmp_path / "test.coo").write_text("3 1 1.0\n")
        (tmp_path / "empty.coo").write_text("")
        return tmp_path

    @pytest.mark.parametrize("extra", PATHS)
    def test_factorize_rejects_before_solving(self, files, capsys, extra):
        code = main(
            ["factorize", "--train", str(files / "train.coo"),
             "--test", str(files / "test.coo"),
             "-K", "2", "--t-out", "2", "--out", str(files / "out"), *extra]
        )
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "test.coo: mode 1 index 3 outside the model's 2 rows" in err
        assert not (files / "out" / "convergence.csv").exists()

    @pytest.mark.parametrize("extra", PATHS)
    def test_factorize_rejects_empty_test_file(self, files, capsys, extra):
        code = main(
            ["factorize", "--train", str(files / "train.coo"),
             "--test", str(files / "empty.coo"),
             "-K", "2", "--t-out", "1", "--out", str(files / "out"), *extra]
        )
        assert code == EXIT_IO
        assert "empty.coo: empty test file" in capsys.readouterr().err

    def test_evaluate_rejects(self, files, capsys):
        save_model(files / "model", FactorModel(1, 0.0, [np.ones((2, 1)), np.ones((2, 1))]))
        code = main(
            ["evaluate", "--model", str(files / "model"), "--test", str(files / "test.coo")]
        )
        assert code == EXIT_IO
        assert "test.coo: mode 1 index 3 outside the model's 2 rows" in capsys.readouterr().err


class TestEvaluate:
    def test_perfect_model_scores_zero(self, rng, tmp_path):
        store = random_store(rng, (6, 5), 20)
        model = random_model(rng, store, rank=2)
        perfect = Coo(store.idx, predict_entries(model, store.idx))
        write_coo(tmp_path / "test.coo", perfect, CooFileSpec(2, 1))
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

    def test_n_modes_is_not_an_option(self, rng, tmp_path, capsys):
        # the first data line fixes the mode count on every subcommand
        store = random_store(rng, (4, 4), 6)
        save_model(tmp_path / "model", random_model(rng, store, rank=2))
        write_coo(tmp_path / "cells.coo", Coo(store.idx, store.values), CooFileSpec(2, 1))
        conf = tmp_path / "n.conf"
        conf.write_text("n_modes=7\n")
        cells = str(tmp_path / "cells.coo")
        for argv in (
            ["evaluate", "--model", str(tmp_path / "model"), "--test", cells],
            ["factorize", "--train", cells, "-K", "2", "--out", str(tmp_path / "x")],
            ["partition-stats", "--train", cells],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--n-modes", "7"])
            assert exc.value.code == EXIT_USAGE
            assert main([*argv, "--config", str(conf)]) == EXIT_USAGE
            assert "config key 'n_modes' is not a recognized option" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("body,message", [
        ("2 x\n1.0 2.0\n", "invalid literal for int()"),
        ("1 2\n1.0 abc\n", "could not convert string"),
        ("1 2\n1.0 inf\n", "non-finite value"),
    ], ids=["header", "value", "non-finite"])
    def test_malformed_model_file_is_io_error_naming_it(self, tmp_path, capsys, body, message):
        save_model(tmp_path / "model", FactorModel(2, 0.0, [np.ones((1, 2)), np.ones((1, 2))]))
        (tmp_path / "model" / "factor_2.txt").write_text(body)
        (tmp_path / "test.coo").write_text("1 1 1.0\n")
        code = main(["evaluate", "--model", str(tmp_path / "model"),
                     "--test", str(tmp_path / "test.coo")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert f"factor_2.txt: {message}" in err, err

    @pytest.mark.parametrize("files,stray", [
        (("factor_1.txt", "factor_3.txt"), "factor_3.txt"),
        (("factor_1.txt", "factor_2.txt", "factor_3.txt", "factor_notes.txt"), "factor_notes.txt"),
        (("factor_0.txt", "factor_1.txt", "factor_2.txt", "factor_3.txt"), "factor_0.txt"),
    ], ids=["gap", "notes", "zero"])
    def test_factor_files_must_be_one_to_n(self, tmp_path, capsys, files, stray):
        (tmp_path / "model").mkdir()
        for name in files:
            (tmp_path / "model" / name).write_text("2 1\n1.0\n1.0\n")
        (tmp_path / "test.coo").write_text("1 1 1 1.0\n")
        code = main(["evaluate", "--model", str(tmp_path / "model"),
                     "--test", str(tmp_path / "test.coo")])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert f"{stray}: not in factor_1.txt..factor_{len(files)}.txt" in err, err

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
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        from sals.cli import EXIT_NUMERIC

        store = random_store(np.random.default_rng(4), (6, 5, 4), 60, value_scale=1e300)
        write_coo(tmp_path / "huge.coo", Coo(store.idx, store.values), CooFileSpec(3, 1))
        for extra in (["-M", "2"], ["--alg", "psgd"]):
            code = main(
                ["factorize", "--train", str(tmp_path / "huge.coo"), "-K", "2", "-C", "1",
                 "--t-out", "2", "--lambda", "0.1", "--out", str(tmp_path / "x"), *extra]
            )
            assert code == EXIT_NUMERIC
            assert "numerical error: " in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_reports_schedule_position(self, tmp_path, capsys):
        from sals.cli import EXIT_NUMERIC

        store = random_store(np.random.default_rng(4), (6, 5, 4), 60, value_scale=1e300)
        write_coo(tmp_path / "huge.coo", Coo(store.idx, store.values), CooFileSpec(3, 1))
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_psgd_divergence_names_epoch_mode_and_row(self, tmp_path, capsys):
        from sals.cli import EXIT_NUMERIC

        store = random_store(np.random.default_rng(4), (6, 5, 4), 60, value_scale=1e300)
        write_coo(tmp_path / "huge.coo", Coo(store.idx, store.values), CooFileSpec(3, 1))
        code = main(
            ["factorize", "--train", str(tmp_path / "huge.coo"), "--alg", "psgd",
             "-K", "2", "--t-out", "2", "--lambda", "0.1", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.search(
            r"numerical error: epoch 1: mode [0-2], row \d+: non-finite factor entries", err
        ), err

    @pytest.mark.parametrize("extra", [
        [], ["-M", "2"], ["--mode", "streaming", "--workdir", "wd"], ["--alg", "psgd"],
    ], ids=["serial", "cluster", "streaming", "psgd"])
    def test_overflowing_data_fails_with_one_line_and_no_files(self, tmp_path, capsys,
                                                               monkeypatch, extra):
        from sals.cli import EXIT_NUMERIC

        # Finite values whose squares overflow.
        (tmp_path / "t.coo").write_text("1 1 1e300\n1 2 -1e300\n2 1 -1e300\n2 2 1e300\n")
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code = main(["factorize", "--train", "t.coo", "-K", "2", "--t-out", "2",
                         "--out", "o", *extra])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("numerical error: "), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.coo"]

    def test_index_beyond_int64_is_io_error(self, tmp_path, capsys):
        (tmp_path / "big.coo").write_text("99999999999999999999 1 1.0\n")
        code = main(
            ["factorize", "--train", str(tmp_path / "big.coo"),
             "-K", "2", "--t-out", "1", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_IO
        assert "big.coo:1: mode 1 index 99999999999999999999 above" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["factorize", "-K", "2", "--t-out", "1"], ["partition-stats", "-M", "2"],
    ], ids=["factorize", "partition-stats"])
    @pytest.mark.parametrize("lines,message", [
        ("1 1 1.0\n1 1 2.0\n", "bad.coo: duplicate index tuple (1, 1)"),
        ("9000000000000000000 1 1.0\n1 1 2.0\n", "bad.coo: array is too big"),
    ], ids=["duplicate", "length-9e18"])
    def test_bad_training_data_is_io_error_naming_the_file(self, tmp_path, capsys,
                                                           command, lines, message):
        (tmp_path / "bad.coo").write_text(lines)
        code = main([*command, "--train", str(tmp_path / "bad.coo"),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_IO
        assert message in capsys.readouterr().err

    def test_out_of_memory_building_the_store_is_io_error(self, tmp_path, capsys,
                                                          monkeypatch):
        import sals.cli

        def no_memory(*args):
            raise MemoryError("Unable to allocate 67.1 GiB")

        monkeypatch.setattr(sals.cli, "build_store", no_memory)
        (tmp_path / "big.coo").write_text("9000000000 1 1.0\n1 1 2.0\n")
        code = main(["partition-stats", "--train", str(tmp_path / "big.coo")])
        assert code == EXIT_IO
        assert "big.coo: Unable to allocate 67.1 GiB" in capsys.readouterr().err

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
