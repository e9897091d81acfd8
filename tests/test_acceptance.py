"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Criterion 10 is a soft check: its outcome is logged, not asserted.
"""
import time

import numpy as np
import pytest

import sals
from sals.accounting import SolveStats
from sals.solver import (
    NormalEq,
    SolverParams,
    choose_columns,
    compute_rhat,
    factorize,
    factorize_cdtf,
    init_model,
    solve_row,
    update_residual,
)
from sals.tensor import predict_entries, regularization_penalty, store_from_arrays
from conftest import augmented, random_model, random_store, refit_mode, row_normal_eq


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {status} — {detail}", flush=True)


# --- criterion 1 -----------------------------------------------------------

def test_criterion_01_row_solve_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    failures = 0
    sizes = [1, 2, 5, 10]
    for trial in range(200):
        c_cols = sizes[trial % 4]
        half = rng.normal(size=(c_cols + 3, c_cols))
        B = half.T @ half + 0.05 * np.eye(c_cols)
        c = rng.normal(size=c_cols)
        lam = float([0.0, 0.1, 1.0][trial % 3])
        x, solved = solve_row(NormalEq(B[np.newaxis], c[np.newaxis]), lam)
        x = x[0]
        if not solved[0]:
            failures += 1
            continue
        expected = np.linalg.inv(B + lam * np.eye(c_cols)) @ c
        rel = np.linalg.norm(x - expected) / max(np.linalg.norm(expected), 1e-300)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and worst <= 1e-10 and elapsed < 5.0
    report(1, ok, f"200 solves, worst rel err {worst:.2e} (<=1e-10), {elapsed:.2f}s (<5s)")
    assert failures == 0
    assert worst <= 1e-10
    assert elapsed < 5.0


# --- criterion 2 -----------------------------------------------------------

def _brute_normal_eq(store, rhat_vals, mats, mode, row, columns):
    n_modes = len(mats)
    c_len = len(columns)
    B = [[0.0] * c_len for _ in range(c_len)]
    c = [0.0] * c_len
    for pos in store.bucket(mode, row):
        ind = store.idx[pos]
        g = []
        for k in columns:
            p = 1.0
            for l in range(n_modes):
                if l != mode:
                    p *= mats[l][ind[l], k]
            g.append(p)
        for c1 in range(c_len):
            for c2 in range(c_len):
                B[c1][c2] += g[c1] * g[c2]
            c[c1] += rhat_vals[pos] * g[c1]
    return np.asarray(B), np.asarray(c)


def test_criterion_02_normal_equation_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(50):
        n_modes = [2, 3, 4][trial % 3]
        lengths = tuple(int(rng.integers(4, 21)) for _ in range(n_modes))
        cells = int(np.prod(lengths))
        nnz = int(min(500, max(n_modes * 4, cells // 2)))
        store = random_store(rng, lengths, nnz)
        rank = 6
        model = random_model(rng, store, rank)
        c_cols = int(rng.integers(1, 5))
        columns = np.sort(rng.choice(rank, size=c_cols, replace=False))
        residual = store.values - predict_entries(model, store.idx)
        rhat = augmented(store, residual, model, columns)
        for mode in range(n_modes):
            for row in range(lengths[mode]):
                neq = row_normal_eq(store, rhat, model, mode, row, columns)
                Bo, co = _brute_normal_eq(store, rhat, model.matrices, mode, row, columns)
                scale = max(1.0, float(np.max(np.abs(Bo))), float(np.max(np.abs(co))))
                diff = max(
                    float(np.max(np.abs(neq.B[0] - Bo))), float(np.max(np.abs(neq.c[0] - co)))
                )
                worst = max(worst, diff / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    report(2, ok, f"50 instances, worst rel dev {worst:.2e} (<=1e-12), {elapsed:.2f}s (<10s)")
    assert worst <= 1e-12
    assert elapsed < 10.0


# --- criterion 3 -----------------------------------------------------------

def _subset_loss(store, rhat, model, columns, regularization):
    slabs = [m[:, columns] for m in model.matrices]
    prod = slabs[0][store.idx[:, 0]].copy()
    for n in range(1, store.n_modes):
        prod *= slabs[n][store.idx[:, n]]
    err = rhat - prod.sum(axis=1)
    return float(err @ err) + regularization_penalty(model, store, regularization)


def test_criterion_03_monotone_loss():
    t0 = time.perf_counter()
    grid = [(c, lam) for c in (1, 2, 4, 8) for lam in (0.01, 0.1)]
    worst_ratio = -np.inf
    for trial in range(20):
        c_cols, lam = grid[trial % len(grid)]
        rng = np.random.default_rng(3000 + trial)
        store = random_store(rng, (30, 30, 30), 5000)
        for reg in ("plain", "weighted"):
            params = SolverParams(
                rank=8, n_columns=c_cols, outer_iters=1, inner_iters=1,
                lam=lam, regularization=reg, seed=trial,
            )
            model, residual = init_model(store, params)
            _, order_rng = sals.solver.rng_streams(params.seed)
            for columns in choose_columns(params, order_rng):
                compute_rhat(residual, [m[:, columns] for m in model.matrices], store.idx)
                prev = _subset_loss(store, residual, model, columns, reg)
                for n in range(3):
                    refit_mode(store, residual, model, n, columns, params)
                    cur = _subset_loss(store, residual, model, columns, reg)
                    worst_ratio = max(worst_ratio, (cur - prev) / max(abs(prev), 1e-300))
                    prev = cur
                update_residual(residual, [m[:, columns] for m in model.matrices], store.idx)
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1e-9 and elapsed < 30.0
    report(
        3, ok,
        f"20 instances x plain/weighted, worst increase ratio {worst_ratio:.2e} "
        f"(<=1e-9), {elapsed:.2f}s (<30s)",
    )
    assert worst_ratio <= 1e-9
    assert elapsed < 30.0


# --- criterion 4 -----------------------------------------------------------

def _reference_als_sweep(store, mats, lam):
    """One full update of every factor by the closed-form row solve."""
    n_modes = store.n_modes
    rank = mats[0].shape[1]
    for n in range(n_modes):
        others = [l for l in range(n_modes) if l != n]
        for i in range(store.mode_lengths[n]):
            mask = store.idx[:, n] == i
            ind = store.idx[mask]
            vals = store.values[mask]
            G = np.ones((ind.shape[0], rank))
            for l in others:
                G *= mats[l][ind[:, l]]
            B = G.T @ G + lam * np.eye(rank)
            c = G.T @ vals
            mats[n][i] = np.linalg.solve(B, c)


def test_criterion_04_als_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(400 + trial)
        store = random_store(rng, (12, 11, 10), 600)
        rank = 4
        params = SolverParams(
            rank=rank, n_columns=rank, outer_iters=1, inner_iters=1,
            lam=0.1, column_order="fixed", seed=trial,
        )
        ref_model, _ = init_model(store, params)
        ref_mats = [m.copy() for m in ref_model.matrices]
        for t_out in (1, 2, 3):
            run = SolverParams(
                rank=rank, n_columns=rank, outer_iters=t_out, inner_iters=1,
                lam=0.1, column_order="fixed", seed=trial,
            )
            model = factorize(store, run)
            _reference_als_sweep(store, ref_mats, 0.1)
            diff = max(
                float(np.max(np.abs(a - b))) for a, b in zip(model.matrices, ref_mats)
            )
            worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    report(4, ok, f"10 instances x 3 iterations, worst entry diff {worst:.2e} "
                  f"(<=1e-12), {elapsed:.2f}s (<10s)")
    assert worst <= 1e-12
    assert elapsed < 10.0


# --- criteria 5 and 6 ------------------------------------------------------

C5_PARAMS = SolverParams(
    rank=10, n_columns=2, outer_iters=3, inner_iters=2, lam=0.05, seed=55
)


@pytest.fixture(scope="module")
def distributed_runs():
    store, _, _ = sals.generate_synthetic((40, 40, 40), 8000, 5, 0.1, 0.0, seed=5050)
    t0 = time.perf_counter()
    serial = factorize(store, C5_PARAMS)
    runs = {}
    for m in (1, 2, 4, 8):
        for strategy in ("greedy", "sequential", "random"):
            assignment = sals.assign(store, strategy, m, seed=7)
            model, log = sals.run_distributed(store, C5_PARAMS, assignment)
            runs[(m, strategy)] = (model, log)
    elapsed = time.perf_counter() - t0
    return store, serial, runs, elapsed


def test_criterion_05_distributed_equals_serial(distributed_runs):
    store, serial, runs, elapsed = distributed_runs
    mismatches = [
        key
        for key, (model, _) in runs.items()
        if not all(np.array_equal(a, b) for a, b in zip(model.matrices, serial.matrices))
    ]
    ok = not mismatches and elapsed < 60.0
    report(
        5, ok,
        f"12 runs (M in 1/2/4/8 x greedy/sequential/random) bitwise-identical "
        f"to serial: {not mismatches}, {elapsed:.1f}s (<60s)",
    )
    assert not mismatches
    assert elapsed < 60.0


def test_criterion_06_communication_exactness(distributed_runs):
    store, _, runs, _ = distributed_runs
    expected = C5_PARAMS.inner_iters * C5_PARAMS.rank * sum(store.mode_lengths)
    bad = []
    for (m, strategy), (_, log) in runs.items():
        for rec in log.iterations:
            total = int(rec["sent"].sum())
            want = 0 if m == 1 else expected
            if total != want:
                bad.append((m, strategy, rec["iteration"], total, want))
    ok = not bad
    report(
        6, ok,
        f"broadcast totals per outer iteration == T_in*K*sum(I_n) = {expected} "
        f"(0 at M=1) across all runs: {ok}",
    )
    assert not bad


# --- criterion 7 -----------------------------------------------------------

def test_criterion_07_streaming_equivalence(tmp_path):
    t0 = time.perf_counter()
    store, _, _ = sals.generate_synthetic((40, 40, 40), 8000, 5, 0.1, 0.0, seed=5050)
    serial = factorize(store, C5_PARAMS)
    run = sals.stream_factorize(store, C5_PARAMS, workdir=tmp_path)
    model = run.load_model()
    diff = max(float(np.max(np.abs(a - b))) for a, b in zip(model.matrices, serial.matrices))
    bound = C5_PARAMS.n_columns * sum(store.mode_lengths) + 1024
    elapsed = time.perf_counter() - t0
    ok = diff <= 1e-12 and run.peak_resident_values <= bound and elapsed < 60.0
    report(
        7, ok,
        f"streaming vs in-memory max diff {diff:.2e} (<=1e-12), peak resident "
        f"{run.peak_resident_values} <= {bound}, {elapsed:.1f}s (<60s)",
    )
    assert diff <= 1e-12
    assert run.peak_resident_values <= bound
    assert elapsed < 60.0


# --- criterion 8 -----------------------------------------------------------

def test_criterion_08_greedy_assignment():
    store = sals.generate_zipf((2000, 2000, 2000), 200000, 1.2, seed=88)
    greedy = sals.greedy_assign(store, 8)
    sequential = sals.sequential_assign(store, 8)
    rand = sals.random_assign(store, 8, seed=88)
    problems = []
    for name, a in (("greedy", greedy), ("sequential", sequential), ("random", rand)):
        for n in range(3):
            cap = -(-store.mode_lengths[n] // 8)
            rows = np.concatenate([a.rows(m, n) for m in range(8)])
            if sorted(rows.tolist()) != list(range(2000)):
                problems.append(f"{name}: mode {n} not a partition")
            if any(a.rows(m, n).size > cap for m in range(8)):
                problems.append(f"{name}: row cap exceeded in mode {n}")
    g = sals.load_stats(store, greedy)
    s = sals.load_stats(store, sequential)
    r = sals.load_stats(store, rand)
    if not (g.max_mode_load <= s.max_mode_load).all():
        problems.append("greedy exceeds sequential")
    if not (g.max_mode_load <= r.max_mode_load).all():
        problems.append("greedy exceeds random")

    # hand-derived 4-row example (mode-0 bucket sizes 5, 3, 2, 1, M=2)
    rows = []
    col = 0
    for row, cnt in enumerate([5, 3, 2, 1]):
        for _ in range(cnt):
            rows.append((row, col))
            col += 1
    tiny = store_from_arrays(np.asarray(rows), np.ones(len(rows)), (4, col))
    hand = sals.greedy_assign(tiny, 2)
    if hand.rows(0, 0).tolist() != [0, 3] or hand.rows(1, 0).tolist() != [1, 2]:
        problems.append(f"hand example mismatch: {hand.rows(0, 0)}, {hand.rows(1, 0)}")

    ok = not problems
    report(
        8, ok,
        "zipf(1.2) I=2000 M=8: invariants hold, greedy max load "
        f"{g.max_mode_load.tolist()} <= sequential {s.max_mode_load.tolist()} "
        f"and <= random {r.max_mode_load.tolist()}; hand example m1={{1,4}} m2={{2,3}}"
        if ok else f"problems: {problems}",
    )
    assert not problems


# --- criteria 9 and 10 -----------------------------------------------------

@pytest.fixture(scope="module")
def recovery_runs():
    # sals and cdtf minimise the paper's objective, squared error plus plain
    # lambda * sum_n ||A^(n)||_F^2, whose minimiser sits at the ground truth;
    # PSGD minimises the same objective.
    store, test, truth = sals.generate_synthetic((50, 50, 50), 40000, 5, 0.1, 0.1, seed=909)
    t0 = time.perf_counter()
    results = {}

    recs = []
    sals_params = SolverParams(
        rank=5, n_columns=5, outer_iters=30, inner_iters=1,
        lam=0.05, regularization="plain", seed=909,
    )
    factorize(store, sals_params, test_entries=test, on_iteration=recs.append)
    results["sals"] = [r.test_rmse for r in recs]
    results["sals_loss"] = recs[-1].loss

    recs = []
    cdtf_params = SolverParams(
        rank=5, n_columns=1, outer_iters=50, inner_iters=1,
        lam=0.05, regularization="plain", column_order="fixed", seed=909,
    )
    factorize_cdtf(store, cdtf_params, test_entries=test, on_iteration=recs.append)
    results["cdtf"] = [r.test_rmse for r in recs]
    results["train_seconds"] = time.perf_counter() - t0

    truth_model = sals.FactorModel(truth.rank, sals_params.lam, truth.matrices)
    results["truth_loss"] = sals.loss(truth_model, store, sals_params.regularization)

    recs = []
    psgd_params = sals.SgdParams(
        rank=5, lam=0.05, eta0=0.01, outer_iters=30, n_shards=4, seed=909
    )
    sals.factorize_psgd(store, psgd_params, test_entries=test, on_iteration=recs.append)
    results["psgd"] = [r.test_rmse for r in recs]
    return results


def test_criterion_09_synthetic_recovery(recovery_runs):
    sals_best = min(recovery_runs["sals"])
    cdtf_best = min(recovery_runs["cdtf"])
    sals_loss = recovery_runs["sals_loss"]
    truth_loss = recovery_runs["truth_loss"]
    elapsed = recovery_runs["train_seconds"]
    ok = (
        sals_best <= 0.13 and cdtf_best <= 0.15 and sals_loss <= truth_loss
        and elapsed < 120.0
    )
    report(
        9, ok,
        f"subset-ALS best test RMSE {sals_best:.4f} (<=0.13 required), "
        f"coordinate-descent best {cdtf_best:.4f} (<=0.15 required), "
        f"subset-ALS final loss {sals_loss:.2f} (<= ground truth {truth_loss:.2f} "
        f"required), {elapsed:.1f}s (<120s)",
    )
    assert elapsed < 120.0
    assert sals_best <= 0.13, (
        "subset-ALS under plain lambda=0.05 should recover the planted rank-5 "
        f"tensor to near its 0.1 noise floor (best test RMSE <= 0.13), got {sals_best:.4f}"
    )
    assert cdtf_best <= 0.15, (
        "coordinate descent under plain lambda=0.05 should reach best test RMSE "
        f"<= 0.15, got {cdtf_best:.4f}"
    )
    assert sals_loss <= truth_loss, (
        "subset-ALS stalled above the ground truth on its own objective: final "
        f"loss {sals_loss:.4f} > {truth_loss:.4f} at the true factors (plain lambda=0.05)"
    )


def test_criterion_10_psgd_ordering_soft_check(recovery_runs):
    sals_final = recovery_runs["sals"][-1]
    psgd_final = recovery_runs["psgd"][-1]
    ordered = psgd_final >= sals_final
    report(
        10, True,
        "soft check (logged, not asserted): both runs minimise plain lambda=0.05; "
        f"PSGD final test RMSE {psgd_final:.4f} "
        f"{'>=' if ordered else '<'} subset-ALS {sals_final:.4f}; expected ordering "
        f"{'holds' if ordered else 'does NOT hold'} at matched epoch budgets",
    )


# --- criterion 11 ----------------------------------------------------------

def test_criterion_11_cost_scaling():
    rng = np.random.default_rng(1111)
    store = random_store(rng, (30, 30, 30), 5000)
    t_in = 2
    rank = 8
    sum_lengths = sum(store.mode_lengths)
    measured = []
    t1 = []
    t2 = []
    for c_cols in (1, 2, 4, 8):
        params = SolverParams(
            rank=rank, n_columns=c_cols, outer_iters=1, inner_iters=t_in,
            lam=0.1, column_order="fixed", seed=0,
        )
        stats = SolveStats()
        factorize(store, params, stats=stats)
        measured.append(stats.flops)
        t1.append(store.nnz * 3 * t_in * rank * (3 + c_cols))
        t2.append(t_in * rank * c_cols ** 2 * sum_lengths)
    X = np.stack([t1, t2], axis=1).astype(float)
    y = np.asarray(measured, dtype=float)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ coef
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    ok = r2 >= 0.99
    report(
        11, ok,
        f"multiply-add counts over C in 1/2/4/8 fit the two predicted terms "
        f"with R^2 = {r2:.6f} (>=0.99), coefficients {coef.round(3).tolist()}",
    )
    assert r2 >= 0.99
