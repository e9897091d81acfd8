"""Row-to-machine assignment strategies and load statistics.

For every mode, each machine receives a subset of the factor rows; the
machine then owns those rows' updates and holds every observed entry whose
index touches one of them (:meth:`RowAssignment.held`, from each mode's
owner array).  The greedy strategy balances per-mode entry counts under a
hard cap of ceil(I_n / M) rows per machine; sequential and random
assignment are the baselines it is compared against.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .tensor import SparseTensorStore, take_rows


@dataclass
class RowAssignment:
    """Per-machine, per-mode row sets with derived load counts.

    ``sets[m][n]`` is the sorted 0-based row array of machine ``m`` in mode
    ``n`` and ``owners[n]`` maps each row of mode ``n`` to its machine.
    ``mode_loads[m, n]`` counts the entries of machine ``m``'s mode-``n``
    rows and ``union_loads[m]`` the distinct entries it holds overall.
    """

    n_machines: int
    sets: list[list[np.ndarray]]
    owners: list[np.ndarray]
    mode_loads: np.ndarray
    union_loads: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.sets[0])

    def held(self, store: SparseTensorStore, machine: int) -> np.ndarray:
        """Ascending positions of the entries that touch a row ``machine``
        owns in some mode: the entries that machine holds."""
        mask = np.zeros(store.nnz, dtype=bool)
        for n in range(store.n_modes):
            mask |= take_rows(self.owners[n] == machine, store.idx[:, n])
        return np.flatnonzero(mask)


def _finalize(store: SparseTensorStore, sets: list[list[np.ndarray]]) -> RowAssignment:
    n_machines = len(sets)
    mode_loads = np.zeros((n_machines, store.n_modes), dtype=np.int64)
    owners = []
    for n in range(store.n_modes):
        sizes = store.bucket_sizes(n)
        owner = np.full(store.mode_lengths[n], -1, dtype=np.int64)
        for m in range(n_machines):
            owner[sets[m][n]] = m
            mode_loads[m, n] = int(sizes[sets[m][n]].sum())
        owners.append(owner)
    assignment = RowAssignment(n_machines, sets, owners, mode_loads,
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
    sets: list[list[np.ndarray]] = [[] for _ in range(n_machines)]
    for n in range(store.n_modes):
        length = store.mode_lengths[n]
        cap = -(-length // n_machines)
        sizes = store.bucket_sizes(n)
        order = np.lexsort((np.arange(length), -sizes))
        mode_load = [0] * n_machines
        row_count = [0] * n_machines
        rows_of: list[list[int]] = [[] for _ in range(n_machines)]
        # heap keyed by the tie-break chain; stale items are lazily skipped
        heap = [(0, 0, total_load[m], m) for m in range(n_machines)]
        heapq.heapify(heap)
        for row in order:
            while True:
                load, count, total, m = heapq.heappop(heap)
                if load == mode_load[m] and count == row_count[m] and total == total_load[m]:
                    break
            rows_of[m].append(int(row))
            size = int(sizes[row])
            mode_load[m] += size
            row_count[m] += 1
            total_load[m] += size
            if row_count[m] < cap:
                heapq.heappush(heap, (mode_load[m], row_count[m], total_load[m], m))
        for m in range(n_machines):
            sets[m].append(np.sort(np.asarray(rows_of[m], dtype=np.int64)))
    return _finalize(store, sets)


def sequential_assign(store: SparseTensorStore, n_machines: int) -> RowAssignment:
    """Contiguous index ranges: machine m takes rows in (I_n*m/M, I_n*(m+1)/M]."""
    if n_machines < 1:
        raise ValueError("n_machines must be >= 1")
    sets: list[list[np.ndarray]] = [[] for _ in range(n_machines)]
    for n in range(store.n_modes):
        length = store.mode_lengths[n]
        for m in range(n_machines):
            lo = length * m // n_machines
            hi = length * (m + 1) // n_machines
            sets[m].append(np.arange(lo, hi, dtype=np.int64))
    return _finalize(store, sets)


def random_assign(store: SparseTensorStore, n_machines: int, seed: int) -> RowAssignment:
    """Deal a seeded row permutation round-robin across machines."""
    if n_machines < 1:
        raise ValueError("n_machines must be >= 1")
    rng = np.random.default_rng(seed)
    sets: list[list[np.ndarray]] = [[] for _ in range(n_machines)]
    for n in range(store.n_modes):
        perm = rng.permutation(store.mode_lengths[n])
        for m in range(n_machines):
            sets[m].append(np.sort(perm[m::n_machines]).astype(np.int64))
    return _finalize(store, sets)


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
    """Load statistics of the assignment's row sets and entry loads."""
    n_machines = assignment.n_machines
    mode_loads = assignment.mode_loads
    row_counts = np.array([[rows.size for rows in sets] for sets in assignment.sets],
                          dtype=np.int64)
    max_mode = mode_loads.max(axis=0)
    mean_mode = np.full(store.n_modes, store.nnz / n_machines)
    with np.errstate(divide="ignore", invalid="ignore"):
        imbalance = np.where(mean_mode > 0, max_mode / mean_mode, 1.0)
    return LoadReport(
        n_machines, mode_loads, max_mode, mean_mode, imbalance, row_counts.max(axis=0),
    )


def write_assignment(path, assignment: RowAssignment) -> None:
    """Serialize as one line per (machine, mode): ids 1-based, rows 1-based."""
    with open(path, "w", encoding="utf-8") as fh:
        for m in range(assignment.n_machines):
            for n in range(assignment.n_modes):
                rows = " ".join(str(int(r) + 1) for r in assignment.sets[m][n])
                fh.write(f"{m + 1} {n + 1} {rows}\n".rstrip() + "\n")
