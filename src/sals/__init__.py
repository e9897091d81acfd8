"""Sparse tensor completion by subset alternating least squares.

The serial solver sweeps factor columns in subsets of C, refitting one
mode's rows at a time against the augmented residual; C=1 gives the
coordinate-descent variant, C=K single-sweep gives classic ALS, and a
parallel-SGD baseline is included for comparison.  The cluster module runs
the same schedule on simulated workers with exact communication accounting,
and the streaming module runs it out of core.
"""

from .accounting import SolveStats
from .cluster import (
    ClusterError,
    CommLog,
    WorkerState,
    comm_report,
    distribute,
    export_comm_csv,
    run_distributed,
)
from .dataio import (
    CacheError,
    CacheWriter,
    CooFileSpec,
    DataFormatError,
    generate_synthetic,
    generate_zipf,
    read_coo,
    stream_pass,
    write_coo,
)
from .partition import (
    LoadReport,
    RowAssignment,
    assign,
    greedy_assign,
    load_stats,
    random_assign,
    sequential_assign,
)
from .sgd import SgdParams, factorize_psgd, learning_rate, psgd_epoch
from .solver import (
    IterationRecord,
    SolverParams,
    choose_columns,
    compute_rhat,
    factorize,
    factorize_cdtf,
    init_model,
    solve_row,
    update_residual,
)
from .streaming import StreamingRun, stream_factorize
from .tensor import (
    ColumnStore,
    Coo,
    FactorModel,
    SparseTensorStore,
    as_coo,
    build_store,
    loss,
    rmse,
    store_from_arrays,
)

__version__ = "0.1.0"

__all__ = [
    "CacheError",
    "CacheWriter",
    "ClusterError",
    "ColumnStore",
    "CommLog",
    "Coo",
    "CooFileSpec",
    "DataFormatError",
    "FactorModel",
    "IterationRecord",
    "LoadReport",
    "RowAssignment",
    "SgdParams",
    "SolveStats",
    "SolverParams",
    "SparseTensorStore",
    "StreamingRun",
    "WorkerState",
    "as_coo",
    "assign",
    "build_store",
    "choose_columns",
    "comm_report",
    "compute_rhat",
    "distribute",
    "export_comm_csv",
    "factorize",
    "factorize_cdtf",
    "factorize_psgd",
    "generate_synthetic",
    "generate_zipf",
    "greedy_assign",
    "init_model",
    "learning_rate",
    "load_stats",
    "loss",
    "psgd_epoch",
    "random_assign",
    "read_coo",
    "rmse",
    "run_distributed",
    "sequential_assign",
    "solve_row",
    "stream_factorize",
    "stream_pass",
    "store_from_arrays",
    "update_residual",
    "write_coo",
]
