"""Command-line frontend.

Subcommands: ``generate`` (synthetic datasets), ``factorize`` (any solver,
serial / distributed / streaming), ``partition-stats`` (row-assignment load
tables), and ``evaluate`` (RMSE of a saved model on a test file).  Flags can
come from a ``key=value`` config file via ``--config``; explicit flags win.

Exit codes: 0 success, 2 usage error, 3 I/O or data-format error,
4 numerical/solver failure.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import cluster, dataio, partition, sgd, solver, streaming
from .accounting import SolveStats
from .tensor import FactorModel, build_store, rmse

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


def save_model(directory, model: FactorModel) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for n, mat in enumerate(model.matrices):
        with open(directory / f"factor_{n + 1}.txt", "w", encoding="utf-8") as fh:
            fh.write(f"{mat.shape[0]} {mat.shape[1]}\n")
            for row in mat:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_model(directory) -> FactorModel:
    directory = Path(directory)
    paths = sorted(directory.glob("factor_*.txt"), key=lambda p: int(p.stem.split("_")[1]))
    if not paths:
        raise dataio.DataFormatError(f"no factor files in {directory}")
    mats = []
    rank = None
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            head = fh.readline().split()
            if len(head) != 2:
                raise dataio.DataFormatError(f"{path}: bad header")
            length, k = int(head[0]), int(head[1])
            if rank is None:
                rank = k
            elif k != rank:
                raise dataio.DataFormatError(f"{path}: rank {k} != {rank}")
            mat = np.loadtxt(fh, ndmin=2)
            if mat.shape != (length, k):
                raise dataio.DataFormatError(f"{path}: expected {(length, k)}, got {mat.shape}")
            mats.append(mat)
    return FactorModel(rank, 0.0, mats)


def write_convergence_csv(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration", "seconds", "loss", "rmse", "sent", "received", "flops", "eval_seconds"]
        )
        for r in records:
            writer.writerow(
                [
                    r.iteration,
                    repr(r.seconds),
                    repr(r.loss),
                    "" if r.test_rmse is None else repr(r.test_rmse),
                    r.params_sent,
                    r.params_received,
                    r.flops,
                    repr(r.eval_seconds),
                ]
            )


def _sniff_n_modes(path) -> int:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts:
                if len(parts) < 2:
                    raise dataio.DataFormatError(f"{path}: too few fields")
                return len(parts) - 1
    raise dataio.DataFormatError(f"{path}: empty file, cannot infer dimension")


def _load_store(path, index_base: int, n_modes: int | None, lengths=None):
    if n_modes is None:
        n_modes = _sniff_n_modes(path)
    spec = dataio.CooFileSpec(n_modes, index_base)
    entries, inferred = dataio.read_coo(path, spec)
    if lengths is None:
        lengths = inferred
    return build_store(entries, lengths), spec


def _read_config(path) -> dict[str, str]:
    conf = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise dataio.DataFormatError(f"{path}:{lineno}: expected key=value")
            key, value = body.split("=", 1)
            conf[key.strip()] = value.strip()
    return conf


_DEFAULTS = {
    "alg": "sals",
    "k": 10,
    "c": None,  # resolved per algorithm
    "t_in": 1,
    "t_out": 10,
    "lam": 0.0,
    "reg": "plain",
    "eta0": 0.01,
    "m": 1,
    "assign": "greedy",
    "mode": "in-memory",
    "seed": 0,
    "index_base": 1,
}

_CASTS = {
    "k": int, "c": int, "t_in": int, "t_out": int, "lam": float, "eta0": float,
    "m": int, "seed": int, "index_base": int, "n_modes": int,
    "nnz": int, "k_true": int, "noise": float, "test_fraction": float,
}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    if getattr(args, "config", None):
        conf = _read_config(args.config)
        for key, raw in conf.items():
            attr = key.replace("-", "_")
            if attr == "lambda":
                attr = "lam"
            if not hasattr(args, attr):
                raise UsageError(f"config key {key!r} is not a recognized option")
            if getattr(args, attr) is None:
                cast = _CASTS.get(attr, str)
                setattr(args, attr, cast(raw))
    for key, default in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, default)
    return args


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sals", description="Sparse tensor factorization toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--lengths", required=True, help="comma-separated mode lengths")
    gen.add_argument("--nnz", type=int, required=True)
    gen.add_argument("--k-true", dest="k_true", type=int, default=5)
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--test-fraction", dest="test_fraction", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--index-base", dest="index_base", type=int, choices=(0, 1), default=None)
    gen.add_argument("--config", default=None)

    fac = sub.add_parser("factorize", help="factorize a COO tensor file")
    fac.add_argument("--train", default=None)
    fac.add_argument("--test", default=None)
    fac.add_argument("--out", default=None, help="output directory")
    fac.add_argument("--alg", choices=("cdtf", "sals", "als", "psgd"), default=None)
    fac.add_argument("-K", dest="k", type=int, default=None, help="rank")
    fac.add_argument("-C", dest="c", type=int, default=None, help="columns per subset")
    fac.add_argument("--t-in", dest="t_in", type=int, default=None)
    fac.add_argument("--t-out", dest="t_out", type=int, default=None)
    fac.add_argument("--lambda", dest="lam", type=float, default=None)
    fac.add_argument("--reg", choices=("plain", "weighted"), default=None)
    fac.add_argument("--eta0", type=float, default=None)
    fac.add_argument("-M", dest="m", type=int, default=None, help="machines (or PSGD shards)")
    fac.add_argument("--assign", choices=("greedy", "sequential", "random"), default=None)
    fac.add_argument("--mode", choices=("in-memory", "streaming"), default=None)
    fac.add_argument("--seed", type=int, default=None)
    fac.add_argument("--index-base", dest="index_base", type=int, choices=(0, 1), default=None)
    fac.add_argument("--n-modes", dest="n_modes", type=int, default=None)
    fac.add_argument("--column-order", dest="column_order",
                     choices=("fixed", "random"), default=None)
    fac.add_argument("--workdir", default=None, help="scratch directory for streaming mode")
    fac.add_argument("--config", default=None)

    par = sub.add_parser("partition-stats", help="compare row-assignment strategies")
    par.add_argument("--train", default=None)
    par.add_argument("-M", dest="m", type=int, default=None)
    par.add_argument("--seed", type=int, default=None)
    par.add_argument("--index-base", dest="index_base", type=int, choices=(0, 1), default=None)
    par.add_argument("--n-modes", dest="n_modes", type=int, default=None)
    par.add_argument("--out", default=None, help="directory for serialized assignments")
    par.add_argument("--config", default=None)

    ev = sub.add_parser("evaluate", help="RMSE of a saved model on a test file")
    ev.add_argument("--model", required=True, help="model directory")
    ev.add_argument("--test", default=None)
    ev.add_argument("--index-base", dest="index_base", type=int, choices=(0, 1), default=None)
    ev.add_argument("--n-modes", dest="n_modes", type=int, default=None)
    ev.add_argument("--config", default=None)
    return parser


def _cmd_generate(args) -> int:
    lengths = tuple(int(s) for s in str(args.lengths).split(","))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_store, test_entries, truth = dataio.generate_synthetic(
        lengths, args.nnz, args.k_true, args.noise, args.test_fraction, args.seed
    )
    spec = dataio.CooFileSpec(len(lengths), args.index_base)
    dataio.write_coo(out / "train.coo", train_store.entries(), spec)
    dataio.write_coo(out / "test.coo", test_entries, spec)
    save_model(out / "truth", truth)
    print(f"wrote {train_store.nnz} train / {len(test_entries)} test entries to {out}")
    return EXIT_OK


def _solver_params(args) -> solver.SolverParams:
    k = args.k
    c = args.c
    t_in = args.t_in
    if args.alg == "als":
        if c is not None and c != k:
            raise UsageError("--alg als requires C == K")
        if t_in != 1:
            raise UsageError("--alg als requires --t-in 1")
        c = k
    elif args.alg == "cdtf":
        if c is not None and c != 1:
            raise UsageError("--alg cdtf requires C == 1")
        c = 1
    elif c is None:
        c = min(10, k)
    if args.column_order is not None:
        order = solver.FIXED if args.column_order == "fixed" else solver.RANDOM_PER_OUTER
    else:
        order = solver.FIXED if args.alg == "cdtf" else solver.RANDOM_PER_OUTER
    return solver.SolverParams(
        rank=k, n_columns=c, outer_iters=args.t_out, inner_iters=t_in,
        lam=args.lam, regularization=args.reg, column_order=order, seed=args.seed,
    )


def _cmd_factorize(args) -> int:
    if args.train is None:
        raise UsageError("--train is required")
    if args.out is None:
        raise UsageError("--out is required")
    if args.mode == "streaming" and args.m != 1:
        raise UsageError("--mode streaming supports only -M 1")
    store, _ = _load_store(args.train, args.index_base, args.n_modes)
    test_entries = None
    if args.test is not None:
        test_entries, _ = dataio.read_coo(
            args.test, dataio.CooFileSpec(store.n_modes, args.index_base)
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    hook = records.append

    if args.alg == "psgd":
        if args.reg == "weighted":
            raise UsageError("--alg psgd supports plain regularization only")
        params = sgd.SgdParams(
            rank=args.k, lam=args.lam, eta0=args.eta0,
            outer_iters=args.t_out, n_shards=args.m, seed=args.seed,
        )
        model = sgd.factorize_psgd(
            store, params, test_entries=test_entries, on_iteration=hook
        )
    else:
        params = _solver_params(args)
        if args.m > 1:
            assignment = partition.assign(store, args.assign, args.m, args.seed)
            model, log = cluster.run_distributed(
                store, params, assignment,
                test_entries=test_entries, on_iteration=hook,
            )
            cluster.export_comm_csv(log, out / "comm.csv")
        elif args.mode == "streaming":
            run = streaming.stream_factorize(
                store, params, workdir=args.workdir,
                test_entries=test_entries, on_iteration=hook,
            )
            try:
                model = run.load_model()
            finally:
                run.cleanup()
            print(f"peak resident factor values: {run.peak_resident_values}")
        else:
            stats = SolveStats()
            run_fn = solver.factorize_cdtf if args.alg == "cdtf" else solver.factorize
            model = run_fn(
                store, params, test_entries=test_entries,
                on_iteration=hook, stats=stats,
            )
            _report_skips(stats)

    save_model(out / "model", model)
    write_convergence_csv(out / "convergence.csv", records)
    if records:
        last = records[-1]
        line = f"iter {last.iteration}: loss {last.loss:.6g}"
        if last.test_rmse is not None:
            line += f", test RMSE {last.test_rmse:.6g}"
        print(line)
    return EXIT_OK


def _report_skips(stats) -> None:
    if stats.rows_skipped:
        print(f"note: {stats.rows_skipped} singular row updates skipped", file=sys.stderr)


def _cmd_partition_stats(args) -> int:
    if args.train is None:
        raise UsageError("--train is required")
    store, _ = _load_store(args.train, args.index_base, args.n_modes)
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    for strategy in ("sequential", "random", "greedy"):
        assignment = partition.assign(store, strategy, args.m, args.seed)
        report = partition.load_stats(store, assignment)
        print(f"# {strategy} (M={args.m})")
        for line in report.lines():
            print(f"  {line}")
        if out:
            partition.write_assignment(out / f"assignment_{strategy}.txt", assignment)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    if args.test is None:
        raise UsageError("--test is required")
    model = load_model(args.model)
    n_modes = model.n_modes
    entries, _ = dataio.read_coo(args.test, dataio.CooFileSpec(n_modes, args.index_base))
    if not entries:
        raise dataio.DataFormatError(f"{args.test}: empty test file")
    value = rmse(model, entries)
    print(f"RMSE {value!r}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "factorize":
            return _cmd_factorize(args)
        if args.command == "partition-stats":
            return _cmd_partition_stats(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, dataio.DataFormatError, dataio.CacheError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError, cluster.ClusterError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
