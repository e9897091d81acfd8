"""Command-line frontend.

Subcommands: ``generate`` (synthetic datasets), ``factorize`` (any solver,
serial / distributed / streaming), ``partition-stats`` (row-assignment load
tables), and ``evaluate`` (RMSE of a saved model on a test file).  Flags can
come from a ``key=value`` config file via ``--config``: a flag on the command
line beats the file, and the file beats the flag's default.

Exit codes: 0 success, 2 usage error, 3 I/O or data-format error,
4 numerical/solver failure.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import cluster, dataio, partition, sgd, solver, streaming
from .accounting import SolveStats
from .tensor import Coo, FactorModel, build_store, rmse

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
            for row in mat.tolist():
                fh.write(" ".join(map(repr, row)) + "\n")


def load_model(directory) -> FactorModel:
    directory = Path(directory)
    found = {path.name for path in directory.glob("factor_*.txt")}
    if not found:
        raise dataio.DataFormatError(f"no factor files in {directory}")
    names = [f"factor_{n}.txt" for n in range(1, len(found) + 1)]
    stray = sorted(found.difference(names))
    if stray:
        raise dataio.DataFormatError(f"{directory / stray[0]}: not in {names[0]}..{names[-1]}")
    mats = []
    rank = None
    for path in (directory / name for name in names):
        with open(path, encoding="utf-8") as fh:
            head = fh.readline().split()
            if len(head) != 2:
                raise dataio.DataFormatError(f"{path}: bad header")
            try:
                length, k = int(head[0]), int(head[1])
                mat = np.loadtxt(fh, ndmin=2)
            except ValueError as exc:
                raise dataio.DataFormatError(f"{path}: {exc}") from None
        if rank is None:
            rank = k
        elif k != rank:
            raise dataio.DataFormatError(f"{path}: rank {k} != {rank}")
        if mat.shape != (length, k):
            raise dataio.DataFormatError(f"{path}: expected {(length, k)}, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise dataio.DataFormatError(f"{path}: non-finite value")
        mats.append(mat)
    return FactorModel(rank, 0.0, mats)


def write_convergence_csv(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration", "seconds", "loss", "rmse", "sent", "received", "flops", "eval_seconds"]
        )
        for r in records:
            writer.writerow([r.iteration, repr(r.seconds), repr(r.loss),
                             "" if r.test_rmse is None else repr(r.test_rmse),
                             r.params_sent, r.params_received, r.flops, repr(r.eval_seconds)])


def _sniff_n_modes(path) -> int:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts:
                if len(parts) < 2:
                    raise dataio.DataFormatError(f"{path}: too few fields")
                return len(parts) - 1
    raise dataio.DataFormatError(f"{path}: empty file, cannot infer dimension")


def _load_store(path, index_base: int):
    data, lengths = dataio.read_coo(path, dataio.CooFileSpec(_sniff_n_modes(path), index_base))
    try:
        return build_store(data, lengths)
    except (ValueError, MemoryError) as exc:  # duplicates, lengths too large to index
        raise dataio.DataFormatError(f"{path}: {exc}") from exc


def _read_test(path, index_base: int, lengths) -> Coo:
    """A test file's cells; every index must fall inside the model's ``lengths``."""
    data, maxima = dataio.read_coo(path, dataio.CooFileSpec(len(lengths), index_base))
    for n, (top, length) in enumerate(zip(maxima, lengths)):
        if top > length:
            raise dataio.DataFormatError(
                f"{path}: mode {n + 1} index {top - 1 + index_base} outside the "
                f"model's {length} rows"
            )
    if data.values.size == 0:
        raise dataio.DataFormatError(f"{path}: empty test file")
    return data


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


def _finite_float(raw: str) -> float:
    """A float flag's value; nan and infinities are usage errors too."""
    try:
        value = float(raw)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {raw!r}")
    return value


def _positive_int(raw: str) -> int:
    """A count flag's value; zero and negatives are usage errors too."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return value


def _mode_lengths(raw: str) -> tuple[int, ...]:
    """Comma-separated mode lengths, each a positive integer."""
    return tuple(_positive_int(part) for part in raw.split(","))


def _config_value(action: argparse.Action, key: str, raw: str):
    """``raw`` checked by its flag's own type and choices, as on the command line."""
    try:
        value = raw if action.type is None else action.type(raw)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"config key {key!r}: {exc}") from None
    except (TypeError, ValueError):
        raise UsageError(f"config key {key!r}: invalid value {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"config key {key!r}: {raw!r} is not one of {list(action.choices)}")
    return value


def _with_config(args: argparse.Namespace, command: argparse.ArgumentParser, argv):
    """``--config`` values (checked like the flags), completed by ``command``'s
    own parse of ``argv``: a flag beats the file, which beats the flag's default."""
    actions = {a.dest: a for a in command._actions if a.dest != "help"}
    conf = argparse.Namespace(command=args.command)
    for key, raw in _read_config(args.config).items():
        attr = key.replace("-", "_")
        if attr == "lambda":
            attr = "lam"
        if attr not in actions:
            raise UsageError(f"config key {key!r} is not a recognized option")
        setattr(conf, attr, _config_value(actions[attr], key, raw))
    return command.parse_args(argv[argv.index(args.command) + 1:], namespace=conf)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="sals", description="Sparse tensor factorization toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--lengths", type=_mode_lengths, required=True,
                     help="comma-separated mode lengths")
    gen.add_argument("--nnz", type=int, required=True)
    gen.add_argument("--k-true", dest="k_true", type=_positive_int, default=5)
    gen.add_argument("--noise", type=_finite_float, default=0.0)
    gen.add_argument("--test-fraction", dest="test_fraction", type=_finite_float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)

    fac = sub.add_parser("factorize", help="factorize a COO tensor file")
    fac.add_argument("--train", default=None)
    fac.add_argument("--test", default=None)
    fac.add_argument("--out", default=None, help="output directory")
    fac.add_argument("--alg", choices=("cdtf", "sals", "als", "psgd"), default="sals")
    fac.add_argument("-K", dest="k", type=_positive_int, default=10, help="rank")
    fac.add_argument("-C", dest="c", type=_positive_int, default=None, help="columns per subset")
    fac.add_argument("--t-in", dest="t_in", type=_positive_int, default=1)
    fac.add_argument("--t-out", dest="t_out", type=_positive_int, default=10)
    fac.add_argument("--lambda", dest="lam", type=_finite_float, default=0.0)
    fac.add_argument("--reg", choices=("plain", "weighted"), default="plain")
    fac.add_argument("--eta0", type=_finite_float, default=0.01)
    fac.add_argument("-M", dest="m", type=_positive_int, default=1,
                     help="machines (or PSGD shards)")
    fac.add_argument("--assign", choices=("greedy", "sequential", "random"), default="greedy")
    fac.add_argument("--mode", choices=("in-memory", "streaming"), default="in-memory")
    fac.add_argument("--seed", type=int, default=0)
    fac.add_argument("--column-order", dest="column_order",
                     choices=("fixed", "random"), default=None)
    fac.add_argument("--workdir", default=None, help="scratch directory for streaming mode")

    par = sub.add_parser("partition-stats", help="compare row-assignment strategies")
    par.add_argument("--train", default=None)
    par.add_argument("-M", dest="m", type=_positive_int, default=1)
    par.add_argument("--seed", type=int, default=0)
    par.add_argument("--out", default=None, help="directory for serialized assignments")

    ev = sub.add_parser("evaluate", help="RMSE of a saved model on a test file")
    ev.add_argument("--model", required=True, help="model directory")
    ev.add_argument("--test", default=None)
    for command in sub.choices.values():
        command.add_argument("--index-base", dest="index_base", type=int, choices=(0, 1),
                             default=1)
        command.add_argument("--config", default=None)
    return parser, sub.choices


def _cmd_generate(args) -> int:
    lengths = args.lengths
    cells = math.prod(lengths)
    if not 0 <= args.nnz <= cells:
        raise UsageError(f"--nnz {args.nnz} outside [0, {cells}], the cells of --lengths")
    if args.noise < 0:
        raise UsageError(f"--noise {args.noise} is negative")
    if not 0 <= args.test_fraction < 1:
        raise UsageError(f"--test-fraction {args.test_fraction} outside [0, 1)")
    train_store, test, truth = dataio.generate_synthetic(
        lengths, args.nnz, args.k_true, args.noise, args.test_fraction, args.seed
    )
    out = Path(args.out)  # made only now, so a failed run leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)
    spec = dataio.CooFileSpec(len(lengths), args.index_base)
    dataio.write_coo(out / "train.coo", Coo(train_store.idx, train_store.values), spec)
    if test.values.size:  # factorize --test and evaluate reject an empty file
        dataio.write_coo(out / "test.coo", test, spec)
        held_out = f"{test.values.size} test entries"
    else:
        held_out = "no test entries (no test.coo)"
    save_model(out / "truth", truth)
    print(f"wrote {train_store.nnz} train / {held_out} to {out}")
    return EXIT_OK


def _run_params(args) -> solver.SolverParams | sgd.SgdParams:
    """The run's parameters, checked before any file is read or written."""
    if args.lam < 0:
        raise UsageError(f"--lambda {args.lam} is negative")
    if args.alg == "psgd":
        if args.reg == "weighted":
            raise UsageError("--alg psgd supports plain regularization only")
        if args.mode == "streaming":
            raise UsageError("--alg psgd supports only --mode in-memory")
        if args.eta0 <= 0:
            raise UsageError(f"--eta0 {args.eta0} is not positive")
        return sgd.SgdParams(
            rank=args.k, lam=args.lam, eta0=args.eta0,
            outer_iters=args.t_out, n_shards=args.m, seed=args.seed,
        )
    k, c, t_in = args.k, args.c, args.t_in
    order = args.column_order or ("fixed" if args.alg == "cdtf" else "random")
    if args.alg == "als":
        if c is not None and c != k:
            raise UsageError("--alg als requires C == K")
        if t_in != 1:
            raise UsageError("--alg als requires --t-in 1")
        c = k
    elif args.alg == "cdtf":
        if c is not None and c != 1:
            raise UsageError("--alg cdtf requires C == 1")
        if order != "fixed":
            raise UsageError("--alg cdtf requires --column-order fixed")
        c = 1
    elif c is None:
        c = min(10, k)
    elif c > k:
        raise UsageError(f"-C {c} exceeds -K {k}")
    return solver.SolverParams(
        rank=k, n_columns=c, outer_iters=args.t_out, inner_iters=t_in,
        lam=args.lam, regularization=args.reg,
        column_order=solver.FIXED if order == "fixed" else solver.RANDOM_PER_OUTER,
        seed=args.seed,
    )


def _cmd_factorize(args) -> int:
    if args.train is None:
        raise UsageError("--train is required")
    if args.out is None:
        raise UsageError("--out is required")
    if args.mode == "streaming" and args.m != 1:
        raise UsageError("--mode streaming supports only -M 1")
    params = _run_params(args)
    store = _load_store(args.train, args.index_base)
    test_entries = None
    if args.test is not None:
        test_entries = _read_test(args.test, args.index_base, store.mode_lengths)
    records = []
    hook = records.append
    log = None

    if args.alg == "psgd":
        model = sgd.factorize_psgd(
            store, params, test_entries=test_entries, on_iteration=hook
        )
    else:
        stats = SolveStats()
        if args.m > 1:
            assignment = partition.assign(store, args.assign, args.m, args.seed)
            model, log = cluster.run_distributed(
                store, params, assignment,
                test_entries=test_entries, on_iteration=hook, stats=stats,
            )
        elif args.mode == "streaming":
            run = streaming.stream_factorize(
                store, params, workdir=args.workdir,
                test_entries=test_entries, on_iteration=hook, stats=stats,
            )
            try:
                model = run.load_model()
            finally:
                run.cleanup()
            print(f"peak resident factor values: {run.peak_resident_values}")
        else:
            model = solver.factorize(
                store, params, test_entries=test_entries,
                on_iteration=hook, stats=stats,
            )
        if stats.rows_skipped:
            print(f"note: {stats.rows_skipped} singular row updates skipped", file=sys.stderr)

    out = Path(args.out)  # made only now, so a failed run leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)
    if log is not None:
        cluster.export_comm_csv(log, out / "comm.csv")
    save_model(out / "model", model)
    write_convergence_csv(out / "convergence.csv", records)
    for r in records:
        if r.loss_rose:
            print(f"warning: loss rose at outer iteration {r.iteration} "
                  f"(to {r.loss:.6g})", file=sys.stderr)
    if records:
        last = records[-1]
        line = f"iter {last.iteration}: loss {last.loss:.6g}"
        if last.test_rmse is not None:
            line += f", test RMSE {last.test_rmse:.6g}"
        print(line)
    return EXIT_OK


def _cmd_partition_stats(args) -> int:
    if args.train is None:
        raise UsageError("--train is required")
    store = _load_store(args.train, args.index_base)
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
    test = _read_test(args.test, args.index_base, [m.shape[0] for m in model.matrices])
    print(f"RMSE {rmse(model, test)!r}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = _with_config(args, commands[args.command], argv)
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"--seed {args.seed} is negative")
        return {"generate": _cmd_generate, "factorize": _cmd_factorize,
                "partition-stats": _cmd_partition_stats,
                "evaluate": _cmd_evaluate}[args.command](args)
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
