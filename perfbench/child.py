"""The timed process of the benchmark.

``run.py`` generates the inputs and starts this script in a fresh process,
so peak RSS excludes input generation and BLAS is pinned before numpy
loads.  It imports ``sals`` from ``<root>/src`` and drives every solver
path through the public module-level functions:

* ``--trace 0``: set up ``SETUP_REPEATS`` times, then run rounds of all
  paths for about ``--seconds`` (at least one round); report the medians
  of the end-to-end metrics, times scaled to a reference speed (``Probe``).
* ``--trace 1``: set up once (traced), then run every path once untraced
  and once with every layer instrumented from outside (see ``spans.py``);
  report the per-layer metrics.

Each solver call together with its checks is one operation.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: with M = 2 worker threads on a
# small machine, more BLAS threads would oversubscribe the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Summary, Tracer  # noqa: E402
from workloads import ALL_WORKLOADS, Workload  # noqa: E402

RANK = 8            # K
LAM = 0.05          # plain regularization
SUBSET = 4          # C of the sals, cluster and streaming paths
MACHINES = 2        # M of the cluster path
SHARDS = 2          # PSGD shards
ETA0 = 0.01
PSGD_EPOCHS = 1
SETUP_REPEATS = 3
PROBE_REF_S = 0.050  # probe duration on a quiet machine: the reference speed
SERIAL = ("cdtf", "sals", "als")
PATHS = SERIAL + ("cluster", "streaming", "psgd")
E2E_OF_PATH = {
    "cdtf": "cdtf_iter_s", "sals": "sals_iter_s", "als": "als_iter_s",
    "cluster": "cluster_iter_s", "streaming": "stream_iter_s", "psgd": "psgd_epoch_s",
}
INJECTIONS = ("cluster-model", "exchange")


def import_sals(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import sals  # its __init__ imports every module the benchmark calls

    if Path(sals.__file__).resolve().parent != src / "sals":
        raise SystemExit(f"imported sals from {sals.__file__}, not from {src}")
    return sals


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),  # the timed process is pinned to one of them
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
    }


def same_model(a, b) -> bool:
    return len(a.matrices) == len(b.matrices) and all(
        np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices)
    )


def finite(model) -> bool:
    return all(np.isfinite(m).all() for m in model.matrices)


class Bench:
    """One workload's inputs, parameters, solver paths and checks."""

    def __init__(self, sals, workload: Workload, seed: int, inputs: Path,
                 workdir: Path, inject: str | None, log):
        self.sals = sals
        self.w = workload
        self.inputs = inputs
        self.workdir = workdir
        self.inject = inject
        self.log = log
        self.T = workload.outer_iters
        lengths = workload.mode_lengths
        self.closed_form = RANK * 1 * sum(lengths)        # K * T_in * sum(I_n)
        self.peak_bound = max(SUBSET * sum(lengths), RANK * max(lengths))
        P = sals.solver.SolverParams
        self.params = {
            "cdtf": P(RANK, 1, self.T, 1, LAM, seed=seed),
            "sals": P(RANK, SUBSET, self.T, 1, LAM, seed=seed),
            "als": P(RANK, RANK, self.T, 1, LAM, seed=seed),
        }
        self.params["cluster"] = self.params["streaming"] = self.params["sals"]
        self.sgd_params = sals.sgd.SgdParams(
            RANK, LAM, ETA0, PSGD_EPOCHS, SHARDS, seed=seed
        )
        self.attempted = 0
        self.failed = 0
        self.reference = None  # serial sals model of this run

    # -- set-up ----------------------------------------------------------
    def setup(self) -> float:
        dataio, tensor, partition = self.sals.dataio, self.sals.tensor, self.sals.partition
        spec = dataio.CooFileSpec(len(self.w.mode_lengths))
        t0 = time.perf_counter()
        train, maxima = dataio.read_coo(self.inputs / "train.coo", spec)
        test, _ = dataio.read_coo(self.inputs / "test.coo", spec)
        store = tensor.build_store(train, self.w.mode_lengths)
        assignment = partition.greedy_assign(store, MACHINES)
        elapsed = time.perf_counter() - t0
        if any(m > n for m, n in zip(maxima, self.w.mode_lengths)):
            raise SystemExit(f"train indices {maxima} exceed {self.w.mode_lengths}")
        self.store, self.test, self.assignment = store, test, assignment
        return elapsed

    # -- paths -------------------------------------------------------------
    def call(self, path: str, traced: Tracer | None = None):
        """Run one solver path; returns (wall seconds, model, extras)."""
        solver, sals = self.sals.solver, self.sals
        store, extras = self.store, {}
        hook = None
        if traced is not None and path in SERIAL:
            losses = extras["losses"] = []
            hook = lambda rec: losses.append(rec.loss)  # noqa: E731
        if traced is not None and path in SERIAL + ("streaming",):
            extras["stats"] = sals.accounting.SolveStats()
        stats = extras.get("stats")
        if path == "cluster" and traced is not None:
            steps = extras["steps"] = [0] * MACHINES

            def fault_hook(m, stamp):
                steps[m] += 1
        else:
            fault_hook = None
        workdir = self.workdir / f"stream-{path}-{time.monotonic_ns()}"
        try:
            t0 = time.perf_counter()
            if path == "cdtf":
                model = solver.factorize_cdtf(store, self.params[path], on_iteration=hook, stats=stats)
            elif path in ("sals", "als"):
                model = solver.factorize(store, self.params[path], on_iteration=hook, stats=stats)
            elif path == "cluster":
                model, extras["log"] = sals.cluster.run_distributed(
                    store, self.params[path], self.assignment, fault_hook=fault_hook,
                )
            elif path == "streaming":
                run = sals.streaming.stream_factorize(
                    store, self.params[path], workdir=workdir, stats=stats
                )
            else:
                model = sals.sgd.factorize_psgd(store, self.sgd_params)
            wall = time.perf_counter() - t0
            if path == "streaming":
                model = run.load_model()
                extras["peak"] = run.peak_resident_values
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return wall, model, extras

    # -- checks ------------------------------------------------------------
    def check(self, path: str, model, extras: dict) -> list[str]:
        """Failed checks of one operation (empty when it is correct)."""
        bad = []
        if not finite(model):
            bad.append("model not finite")
        if path == "sals":
            rmse = self.sals.tensor.rmse(model, self.test)
            if not rmse < self.w.rmse_ceiling:
                bad.append(f"test rmse {rmse} not below {self.w.rmse_ceiling}")
            extras["rmse"] = rmse
        if path in ("cluster", "streaming"):
            if self.reference is None or not same_model(model, self.reference):
                bad.append("model differs bitwise from serial sals")
        if path == "cluster":
            log = extras["log"]
            if len(log.iterations) != self.T:
                bad.append(f"{len(log.iterations)} iteration records, expected {self.T}")
            for rec in log.iterations:
                got = (rec["sent"] + rec["received"]).tolist()
                if got != [self.closed_form] * MACHINES:
                    bad.append(f"iteration {rec['iteration']}: exchange {got} "
                               f"!= closed form {self.closed_form}")
            if "steps" in extras:
                want = self.T * -(-RANK // SUBSET) * len(self.w.mode_lengths)
                if extras["steps"] != [want] * MACHINES:
                    bad.append(f"fault_hook stamps {extras['steps']}, expected {want} each")
        if path == "streaming" and not extras["peak"] <= self.peak_bound:
            bad.append(f"peak {extras['peak']} above bound {self.peak_bound}")
        if path == "psgd":
            rmse = self.sals.tensor.rmse(model, self.test)
            if not np.isfinite(rmse):
                bad.append(f"psgd test rmse {rmse}")
            extras["rmse"] = rmse
        if "losses" in extras:
            init, _ = self.sals.solver.init_model(self.store, self.params[path])
            seq = [self.sals.tensor.loss(init, self.store)] + extras["losses"]
            for a, b in zip(seq, seq[1:]):
                if b - a > 1e-9 * abs(a):
                    bad.append(f"loss rose from {a} to {b}")
        return bad

    def operation(self, path: str, traced: Tracer | None = None, expect=None):
        """Call + checks, counted as one operation; returns (wall, model, extras)."""
        self.attempted += 1
        try:
            wall, model, extras = self.call(path, traced)
            if self.inject == "cluster-model" and path == "cluster":
                m = model.matrices[1]
                m[0, 0] = np.nextafter(m[0, 0], np.inf)
            if self.inject == "exchange" and path == "cluster":
                extras["log"].iterations[0]["received"][0] += 1
            if path == "sals" and traced is None:
                self.reference = model
            bad = self.check(path, model, extras)
            if expect is not None and not same_model(model, expect):
                bad.append("traced model differs bitwise from untraced")
        except Exception:  # noqa: BLE001 - a failed operation is reported, not fatal
            self.log(traceback.format_exc())
            self.failed += 1
            return None, None, {}
        if bad:
            self.failed += 1
            self.log(f"{self.w.name} {path}: FAILED " + "; ".join(bad))
        return wall, model, extras

    def per_iter(self, path: str) -> int:
        return PSGD_EPOCHS if path == "psgd" else self.T


class Probe:
    """Fixed reference work timed between operations to track machine speed.

    On a shared machine the speed of the cores drifts by tens of percent
    over seconds to minutes.  Each operation's wall time is divided by the
    mean of the probe times just before and after it and multiplied by
    ``PROBE_REF_S``: a time in seconds at the probe's reference speed.  The
    probe mixes interpreter work (like per-row overhead) and numpy gathers
    (like the vectorised passes) in roughly equal parts.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.random((4096, 8))
        self.idx = rng.integers(0, 4096, size=(200_000, 3))
        self.last = self.measure()

    def measure(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc += i * i
        g = self.table[self.idx[:, 0]]
        g *= self.table[self.idx[:, 1]]
        g *= self.table[self.idx[:, 2]]
        g.sum(axis=1)
        return time.perf_counter() - t0

    def normalize(self, wall: float) -> float:
        """``wall`` at reference speed; call right after the timed work."""
        before, self.last = self.last, self.measure()
        return wall / (0.5 * (before + self.last)) * PROBE_REF_S


def run_untraced(bench: Bench, seconds: float) -> dict:
    probe = Probe()
    setups = []
    for _ in range(SETUP_REPEATS):
        wall = bench.setup()
        setups.append((wall, probe.normalize(wall)))
    gc.collect()
    gc.freeze()  # set-up objects stay alive; keep them out of later collections
    walls = {p: [] for p in PATHS}
    extras = {}
    start = time.perf_counter()
    rounds = 0
    # Whole rounds of every path, stopping at the round boundary nearest to
    # ``seconds``; at least one round.
    while not rounds or (time.perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
        rounds += 1
        for p in PATHS:
            wall, _, ex = bench.operation(p)
            if wall is not None:
                wall /= bench.per_iter(p)
                walls[p].append((wall, probe.normalize(wall)))
                extras[p] = ex
    samples = {"setup_s": setups, **{E2E_OF_PATH[p]: w for p, w in walls.items() if w}}
    values = {name: statistics.median(n for _, n in s) for name, s in samples.items()}
    raw = {name: statistics.median(w for w, _ in s) for name, s in samples.items()}
    bench.log(f"{rounds} rounds; unscaled wall medians: {json.dumps(raw)}")
    if "rmse" in extras.get("sals", {}):
        values["test_rmse"] = extras["sals"]["rmse"]
    if "rmse" in extras.get("psgd", {}):
        values["psgd_test_rmse"] = extras["psgd"]["rmse"]
    if "peak" in extras.get("streaming", {}):
        values["stream_peak_values"] = extras["streaming"]["peak"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def trace_targets(sals, T: Tracer) -> list:
    """(owner, attribute, make-replacement) for every instrumented name."""
    solver, cluster, streaming, dataio = sals.solver, sals.cluster, sals.streaming, sals.dataio

    def span(label, before=None):
        return lambda fn: T.wrap(fn, label, before)

    def subset_label(buf, args):
        parent = T.labels[buf.stack[-1][1]] if buf.stack else ""
        if parent == "solver.compute_rhat":
            return "solver.rhat_products"
        if parent == "solver.update_residual":
            return "solver.writeback_products"
        # Called by factorize_cdtf itself: augmenting in place until the
        # same slabs have been refit, writing back afterwards.
        return "solver.writeback_inplace" if args[0] is buf.refit_slabs else "solver.rhat_inplace"

    def note_refit(buf, args):
        buf.refit_slabs = args[0]

    def counter(name, amount):
        return lambda buf, args: T.count(name, amount(args))

    def traced_stream_pass(fn):
        traced = T.wrap(fn, "dataio.stream_pass")

        def stream_pass(path, visitor, **kwargs):
            visit = T.wrap(visitor, "streaming.visit")

            def counting(idx, values, acc):
                T.count("streaming.records_read", idx.shape[0])
                return visit(idx, values, acc)

            return traced(path, counting, **kwargs)

        return stream_pass

    column_values = counter(
        "streaming.column_values", lambda a: a[0].mode_lengths[a[1]] * len(a[2])
    )
    return [
        (dataio, "read_coo", span("dataio.read_coo")),
        (sals.tensor, "build_store", span("tensor.build_store")),
        (sals.partition, "greedy_assign", span("partition.greedy_assign")),
        (solver, "compute_rhat", span("solver.compute_rhat")),
        (solver, "update_residual", span("solver.update_residual")),
        (solver, "subset_products", span(subset_label)),
        (solver, "update_rows", span("solver.update_rows", note_refit)),
        (solver, "normal_eq_arrays", span("solver.normal_eq_arrays")),
        (solver, "solve_row", span("solver.solve_row")),
        (cluster, "distribute", span("cluster.distribute")),
        (cluster, "_worker_loop", span("cluster._worker_loop")),
        (cluster, "update_rows", span("cluster.update_rows")),
        (cluster, "subset_products", span("cluster.subset_products")),
        (streaming, "write_residual_caches", span("streaming.write_residual_caches")),
        (streaming, "_value_pass", span("streaming._value_pass")),
        (streaming, "_update_mode_streaming", span("streaming._update_mode_streaming")),
        (streaming, "normal_eq_arrays", span("streaming.normal_eq_arrays")),
        (streaming, "solve_row", span("streaming.solve_row")),
        (streaming, "subset_products", span("streaming.subset_products")),
        (streaming.ColumnStore, "load_columns", span("streaming.load_columns", column_values)),
        (streaming.ColumnStore, "store_columns", span("streaming.store_columns", column_values)),
        (streaming.ColumnStore, "write_full", span(
            "streaming.write_full", counter("streaming.column_values", lambda a: a[2].size))),
        (dataio, "stream_pass", traced_stream_pass),
        (dataio.CacheWriter, "append", span("dataio.CacheWriter.append", counter(
            "streaming.records_written", lambda a: np.asarray(a[2]).size))),
        (dataio.CacheWriter, "close", span(
            "dataio.CacheWriter.close", counter("streaming.cache_files", lambda a: 1))),
        (sals.sgd, "psgd_epoch", span("sgd.psgd_epoch")),
    ]


def run_traced(bench: Bench, trace_file: Path) -> dict:
    sals = bench.sals
    T = Tracer()
    targets = trace_targets(sals, T)
    originals = [(o, a, getattr(o, a)) for o, a, _ in targets]
    with T.patched(targets), T.span("setup", path="setup"):
        bench.setup()
    gc.collect()
    gc.freeze()
    # Each path runs untraced, then traced right after it, so the pair sees
    # the same machine state; the untraced sals model is the reference.
    untraced, traced, extras = {}, {}, {}
    for p in PATHS:
        untraced[p], model, _ = bench.operation(p)
        with T.patched(targets), T.span(p, path=p):
            traced[p], _, extras[p] = bench.operation(p, T, expect=model)
    if any(getattr(o, a) is not f for o, a, f in originals):
        raise SystemExit("tracer left an instrumented name rebound")
    T.write(trace_file)
    return layer_metrics(bench, Summary(T), T.counts, untraced, traced, extras)


def layer_metrics(bench: Bench, S: Summary, counts: dict, untraced: dict,
                  traced: dict, extras: dict) -> dict:
    sals, w, T = bench.sals, bench.w, bench.T
    store, asg = bench.store, bench.assignment
    n_modes = len(w.mode_lengths)
    v = {}
    v["dataio.read_coo_s"] = S.total(["setup"], "dataio.read_coo")
    v["tensor.build_store_s"] = S.total(["setup"], "tensor.build_store")
    v["partition.assign_s"] = S.total(["setup"], "partition.greedy_assign")
    v["partition.imbalance_max"] = float(sals.partition.load_stats(store, asg).imbalance.max())
    v["partition.replication"] = float(asg.union_loads.sum()) / store.nnz

    ser = SERIAL
    if all(extras.get(p) for p in ser):
        v["solver.rhat_s"] = (S.total(ser, "solver.compute_rhat")
                              + S.total(ser, "solver.rhat_inplace")) / T
        v["solver.writeback_s"] = (S.total(ser, "solver.update_residual")
                                   + S.total(ser, "solver.writeback_inplace")) / T
        v["solver.gather_s"] = S.total(ser, "solver.normal_eq_arrays") / T
        v["solver.solve_s"] = S.total(ser, "solver.solve_row") / T
        v["solver.refit_overhead_s"] = S.total(ser, "solver.update_rows", "self") / T
        solves = S.calls(ser, "solver.solve_row")
        v["solver.row_solves"] = solves
        v["solver.us_per_row"] = S.total(ser, "solver.update_rows") / max(solves, 1) * 1e6
        skipped = sum(extras[p]["stats"].rows_skipped for p in ser)
        v["solver.rows_skipped"] = skipped
        v["solver.skip_ratio"] = skipped / max(solves, 1)
        flops = sum(extras[p]["stats"].flops for p in ser)
        v["solver.flops"] = flops
        v["solver.flops_per_s"] = flops / sum(untraced[p] for p in ser)

    if extras.get("cluster"):
        c = ["cluster"]
        log = extras["cluster"]["log"]
        loops = S.per_thread(c, "cluster._worker_loop")
        busy = {t: 0.0 for t in loops}
        for label in ("cluster.update_rows", "cluster.subset_products"):
            for t, d in S.per_thread(c, label).items():
                busy[t] += d
        busy_it = [b / T for b in busy.values()]
        v["cluster.distribute_s"] = S.total(c, "cluster.distribute") / T
        v["cluster.wait_s"] = statistics.fmean((loops[t] - busy[t]) / T for t in loops)
        v["cluster.busy_s_max"] = max(busy_it)
        v["cluster.busy_s_mean"] = statistics.fmean(busy_it)
        v["cluster.busy_imbalance"] = max(busy_it) / statistics.fmean(busy_it)
        v["cluster.steps"] = sum(extras["cluster"]["steps"])
        v["cluster.messages"] = int(log.events.sum())
        v["cluster.params_sent"] = int(log.sent.sum())
        v["cluster.params_received"] = int(log.received.sum())
        v["cluster.exchange_ratio"] = (
            (v["cluster.params_sent"] + v["cluster.params_received"])
            / (MACHINES * T * bench.closed_form)
        )

    if extras.get("streaming"):
        s = ["streaming"]
        record = (n_modes + 1) * 8
        framing = 24 + 4  # header + CRC trailer per cache file
        passes = S.calls(s, "dataio.stream_pass")
        v["streaming.init_caches_s"] = S.total(s, "streaming.write_residual_caches") / T
        v["streaming.cache_passes"] = passes
        v["streaming.cache_bytes_read"] = counts.get("streaming.records_read", 0) * record + passes * framing
        v["streaming.cache_bytes_written"] = (
            counts.get("streaming.records_written", 0) * record
            + counts.get("streaming.cache_files", 0) * framing
        )
        v["streaming.io_s"] = (S.total(s, "dataio.stream_pass", "self")
                               + S.total(s, "dataio.CacheWriter.append", "self")) / T
        v["streaming.value_s"] = S.total(s, "streaming._value_pass") / T
        refit = S.total(s, "streaming._update_mode_streaming")
        v["streaming.refit_s"] = refit / T
        v["streaming.us_per_row"] = refit / max(S.calls(s, "streaming.solve_row"), 1) * 1e6
        v["streaming.column_bytes"] = counts.get("streaming.column_values", 0) * 8
        v["streaming.peak_bound_ratio"] = extras["streaming"]["peak"] / bench.peak_bound

    if extras.get("psgd"):
        epochs = S.total(["psgd"], "sgd.psgd_epoch")
        v["sgd.epoch_s"] = epochs / PSGD_EPOCHS
        v["sgd.updates_per_s"] = store.nnz * PSGD_EPOCHS / epochs

    done = [p for p in PATHS if traced.get(p) and untraced.get(p)]
    for p in done:
        v[f"trace.overhead_ratio.{p}"] = traced[p] / untraced[p]
    if done:
        v["trace.overhead_ratio"] = sum(traced[p] for p in done) / sum(untraced[p] for p in done)
    return v


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # One CPU for the timed process: the cluster simulation's worker threads
    # share the GIL, and across two cores their hand-offs swing its time by
    # up to 2x with whatever else runs on the second core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if argv == ["--environment"]:
        print(json.dumps(environment()))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--inject", choices=INJECTIONS)
    args = ap.parse_args(argv)

    sals = import_sals(args.root)
    env = environment()

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    log(f"environment: {json.dumps(env)}")
    workdir = args.out.parent
    bench = Bench(sals, ALL_WORKLOADS[args.workload], args.seed, args.inputs,
                  workdir, args.inject, log)
    if args.trace:
        values = run_traced(bench, workdir / "trace.npz")
    else:
        values = run_untraced(bench, args.seconds)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "values": values,
        "environment": env,
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
