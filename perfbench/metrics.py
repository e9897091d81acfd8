"""Metric tables: every name the benchmark reports, with unit and direction.

End-to-end metrics come from untraced runs (``--trace 0``); ``bound`` is
the share of the parent's median by which a metric may worsen.  Their
times are medians over the run's samples, each scaled to the reference
speed of ``child.Probe`` so that drift in the machine's speed cancels.

Per-layer metrics come from the traced run (``--trace 1``) and are plain
wall times.  Layer times (``*_s``) are seconds per outer iteration (per
epoch for ``sgd``), one-off work such as ``distribute`` included, so they
add up like the end-to-end metric they belong to; ``solver.*`` sums the
three serial paths (cdtf, sals, als); the ``dataio``, ``tensor`` and
``partition`` times are one set-up.  The comment after each per-layer
metric names the end-to-end metric it should move.
"""
from __future__ import annotations

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),          # read_coo x2 + build_store + greedy_assign
    ("cdtf_iter_s", "s", "lower", 0.25),
    ("sals_iter_s", "s", "lower", 0.25),
    ("als_iter_s", "s", "lower", 0.25),
    ("cluster_iter_s", "s", "lower", 0.25),    # includes distribute
    ("stream_iter_s", "s", "lower", 0.25),     # includes the initial cache write
    ("psgd_epoch_s", "s", "lower", 0.25),
    ("test_rmse", "rmse", "lower", 0.2),      # serial sals model
    ("psgd_test_rmse", "rmse", "lower", 0.2),
    ("stream_peak_values", "count", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

# name, unit, better
PER_LAYER = [
    ("dataio.read_coo_s", "s", "lower"),              # setup_s, most on dense and skewed
    ("tensor.build_store_s", "s", "lower"),           # setup_s, most on dense and skewed
    ("partition.assign_s", "s", "lower"),             # setup_s on sparse
    ("partition.imbalance_max", "ratio", "lower"),    # cluster_iter_s, peak_rss_mb on skewed
    ("partition.replication", "ratio", "lower"),      # cluster_iter_s, peak_rss_mb on skewed
    ("solver.rhat_s", "s", "lower"),                  # sals_iter_s, als_iter_s on dense
    ("solver.writeback_s", "s", "lower"),             # sals_iter_s, als_iter_s on dense
    ("solver.gather_s", "s", "lower"),                # sals_iter_s on dense
    ("solver.solve_s", "s", "lower"),                 # cdtf/sals_iter_s on sparse
    ("solver.refit_overhead_s", "s", "lower"),        # cdtf/sals_iter_s on sparse
    ("solver.us_per_row", "us", "lower"),             # cdtf/sals_iter_s on sparse
    ("solver.row_solves", "count", "lower"),          # exact count
    ("solver.rows_skipped", "count", "lower"),        # exact count
    ("solver.skip_ratio", "ratio", "lower"),          # exact
    ("solver.flops", "count", "lower"),               # exact count
    ("solver.flops_per_s", "1/s", "higher"),          # every serial *_iter_s
    ("cluster.distribute_s", "s", "lower"),           # cluster_iter_s on sparse
    ("cluster.wait_s", "s", "lower"),                 # cluster_iter_s on sparse
    ("cluster.busy_s_max", "s", "lower"),             # cluster_iter_s on skewed
    ("cluster.busy_s_mean", "s", "lower"),            # cluster_iter_s on skewed
    ("cluster.busy_imbalance", "ratio", "lower"),     # cluster_iter_s on skewed
    ("cluster.steps", "count", "lower"),              # exact, from fault_hook stamps
    ("cluster.messages", "count", "lower"),           # exact
    ("cluster.params_sent", "count", "lower"),        # exact
    ("cluster.params_received", "count", "lower"),    # exact
    ("cluster.exchange_ratio", "ratio", "lower"),     # measured / K*T_in*sum(I_n), must be 1
    ("streaming.init_caches_s", "s", "lower"),        # stream_iter_s on dense (once per run)
    ("streaming.cache_passes", "count", "lower"),     # exact
    ("streaming.cache_bytes_read", "B.computed", "lower"),     # from record counts
    ("streaming.cache_bytes_written", "B.computed", "lower"),  # from record counts
    ("streaming.io_s", "s", "lower"),                 # stream_iter_s on dense
    ("streaming.value_s", "s", "lower"),              # stream_iter_s on dense
    ("streaming.refit_s", "s", "lower"),              # stream_iter_s on sparse
    ("streaming.us_per_row", "us", "lower"),          # stream_iter_s on sparse
    ("streaming.column_bytes", "B.computed", "lower"),  # stream_peak_values
    ("streaming.peak_bound_ratio", "ratio", "lower"),   # stream_peak_values
    ("sgd.epoch_s", "s", "lower"),                    # psgd_epoch_s on dense
    ("sgd.updates_per_s", "1/s", "higher"),           # psgd_epoch_s on dense
    ("trace.overhead_ratio", "ratio", "lower"),       # traced / untraced wall, all paths
] + [
    (f"trace.overhead_ratio.{path}", "ratio", "lower")
    for path in ("cdtf", "sals", "als", "cluster", "streaming", "psgd")
]
