"""Row-to-machine assignment strategies and load statistics.

For every mode, an owner array maps each factor row to one machine; those
arrays are the assignment.  A machine owns its rows' updates
(:meth:`RowAssignment.rows` reads them) and holds every observed entry whose
index touches one of them (:meth:`RowAssignment.held`).  The greedy strategy
balances per-mode entry counts under a cap of ceil(I_n / M) rows per machine;
sequential and random assignment are its baselines.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .tensor import SparseTensorStore, take_rows


@dataclass
class RowAssignment:
    """Per-mode owner arrays with derived load counts.

    ``owners[n]`` maps each row of mode ``n`` to its machine; it is the
    assignment, and :meth:`rows` reads a machine's rows from it.
    ``mode_loads[m, n]`` counts the entries of machine ``m``'s mode-``n``
    rows and ``union_loads[m]`` the distinct entries it holds overall.
    """

    n_machines: int
    owners: list[np.ndarray]
    mode_loads: np.ndarray
    union_loads: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.owners)

    def rows(self, machine: int, mode: int) -> np.ndarray:
        """Ascending 0-based rows that ``machine`` owns in ``mode``."""
        return np.flatnonzero(self.owners[mode] == machine)

    def held(self, store: SparseTensorStore, machine: int) -> np.ndarray:
        """Ascending positions of the entries that touch a row ``machine``
        owns in some mode: the entries that machine holds."""
        mask = np.zeros(store.nnz, dtype=bool)
        for n in range(store.n_modes):
            mask |= take_rows(self.owners[n] == machine, store.idx[:, n])
        return np.flatnonzero(mask)


def _finalize(store: SparseTensorStore, n_machines: int,
              owners: list[np.ndarray]) -> RowAssignment:
    mode_loads = np.zeros((n_machines, store.n_modes), dtype=np.int64)
    for n in range(store.n_modes):
        np.add.at(mode_loads[:, n], owners[n], store.bucket_sizes(n))
    assignment = RowAssignment(n_machines, owners, mode_loads,
                               np.zeros(n_machines, dtype=np.int64))
    assignment.union_loads[:] = [assignment.held(store, m).size for m in range(n_machines)]
    return assignment


def greedy_assign(store: SparseTensorStore, n_machines: int) -> RowAssignment:
    """Balance per-mode entry loads greedily under the row-count cap.

    Rows are handed out in decreasing bucket size (ties by ascending row).
    Each row goes to the machine with spare row capacity and the smallest
    per-mode load; ties prefer fewer rows so far, then the smaller running
    total across modes, then the lowest machine id.
    """
    if n_machines < 1:
        raise ValueError("n_machines must be >= 1")
    total_load = [0] * n_machines  # running sum of bucket sizes across modes
    owners = []
    for n in range(store.n_modes):
        length = store.mode_lengths[n]
        cap = -(-length // n_machines)
        sizes = store.bucket_sizes(n)
        order = np.lexsort((np.arange(length), -sizes))
        mode_load = [0] * n_machines
        row_count = [0] * n_machines
        owner = np.empty(length, dtype=np.int64)
        # heap keyed by the tie-break chain; stale items are lazily skipped
        heap = [(0, 0, total_load[m], m) for m in range(n_machines)]
        heapq.heapify(heap)
        for row in order:
            while True:
                load, count, total, m = heapq.heappop(heap)
                if load == mode_load[m] and count == row_count[m] and total == total_load[m]:
                    break
            owner[row] = m
            size = int(sizes[row])
            mode_load[m] += size
            row_count[m] += 1
            total_load[m] += size
            if row_count[m] < cap:
                heapq.heappush(heap, (mode_load[m], row_count[m], total_load[m], m))
        owners.append(owner)
    return _finalize(store, n_machines, owners)


def sequential_assign(store: SparseTensorStore, n_machines: int) -> RowAssignment:
    """Contiguous index ranges: machine m takes rows in (I_n*m/M, I_n*(m+1)/M]."""
    if n_machines < 1:
        raise ValueError("n_machines must be >= 1")
    owners = []
    for length in store.mode_lengths:
        bounds = length * np.arange(n_machines + 1, dtype=np.int64) // n_machines
        owners.append(np.repeat(np.arange(n_machines, dtype=np.int64), np.diff(bounds)))
    return _finalize(store, n_machines, owners)


def random_assign(store: SparseTensorStore, n_machines: int, seed: int) -> RowAssignment:
    """Deal a seeded row permutation round-robin across machines."""
    if n_machines < 1:
        raise ValueError("n_machines must be >= 1")
    rng = np.random.default_rng(seed)
    owners = [np.empty(length, dtype=np.int64) for length in store.mode_lengths]
    for owner in owners:
        owner[rng.permutation(owner.size)] = np.arange(owner.size) % n_machines
    return _finalize(store, n_machines, owners)


def assign(store: SparseTensorStore, strategy: str, n_machines: int, seed: int = 0) -> RowAssignment:
    """Run the strategy named ``greedy``, ``sequential`` or ``random``
    (``seed`` seeds the last)."""
    if strategy == "greedy":
        return greedy_assign(store, n_machines)
    if strategy == "sequential":
        return sequential_assign(store, n_machines)
    if strategy == "random":
        return random_assign(store, n_machines, seed)
    raise ValueError(f"unknown assignment strategy {strategy!r}")


@dataclass
class LoadReport:
    """Recomputed per-mode load maxima and imbalance ratios."""

    n_machines: int
    mode_loads: np.ndarray       # (M, N) entries per machine per mode
    max_mode_load: np.ndarray    # (N,)
    mean_mode_load: np.ndarray   # (N,)
    imbalance: np.ndarray        # (N,) max / mean (1.0 when empty)
    max_row_count: np.ndarray    # (N,)

    def lines(self) -> list[str]:
        out = []
        for n in range(self.mode_loads.shape[1]):
            out.append(
                f"mode {n + 1}: max|mOmega|={int(self.max_mode_load[n])} "
                f"mean={self.mean_mode_load[n]:.1f} "
                f"imbalance={self.imbalance[n]:.3f} "
                f"max|mS|={int(self.max_row_count[n])}"
            )
        return out


def load_stats(store: SparseTensorStore, assignment: RowAssignment) -> LoadReport:
    """Load statistics of the assignment's owner arrays and entry loads."""
    n_machines = assignment.n_machines
    mode_loads = assignment.mode_loads
    row_counts = [np.bincount(owner, minlength=n_machines) for owner in assignment.owners]
    max_mode = mode_loads.max(axis=0)
    mean_mode = np.full(store.n_modes, store.nnz / n_machines)
    with np.errstate(divide="ignore", invalid="ignore"):
        imbalance = np.where(mean_mode > 0, max_mode / mean_mode, 1.0)
    return LoadReport(
        n_machines, mode_loads, max_mode, mean_mode, imbalance, np.max(row_counts, axis=1),
    )


def write_assignment(path, assignment: RowAssignment) -> None:
    """Serialize as one line per (machine, mode): ids 1-based, rows 1-based."""
    with open(path, "w", encoding="utf-8") as fh:
        for m in range(assignment.n_machines):
            for n in range(assignment.n_modes):
                rows = " ".join(str(int(r) + 1) for r in assignment.rows(m, n))
                fh.write(f"{m + 1} {n + 1} {rows}\n".rstrip() + "\n")
