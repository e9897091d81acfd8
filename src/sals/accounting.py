"""Operation, allocation, and memory instrumentation shared by the solvers.

Counters are plain objects passed explicitly.  In the multi-worker
simulation each worker owns a private ``SolveStats``, and
:func:`sals.cluster.run_distributed` merges them into the ``stats`` its
caller passes, as the serial and streaming paths fill it.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SolveStats:
    """Multiply-add and row-update accounting for one solver run."""

    flops: int = 0
    rows_updated: int = 0
    rows_skipped: int = 0  # singular normal equations at lambda=0; values retained

    def merge(self, other: "SolveStats") -> None:
        self.flops += other.flops
        self.rows_updated += other.rows_updated
        self.rows_skipped += other.rows_skipped


@dataclass
class ResidencyMeter:
    """Tracks how many factor values are resident at once.

    The streaming engine routes every factor-column load/release through
    one meter, so ``peak`` bounds the live factor-value footprint.
    """

    current: int = 0
    peak: int = 0

    def add(self, count: int) -> None:
        self.current += count
        if self.current > self.peak:
            self.peak = self.current

    def release(self, count: int) -> None:
        self.current -= count
