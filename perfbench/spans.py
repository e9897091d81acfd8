"""In-memory span tracer that instruments ``sals`` from outside.

``Tracer.patch`` rebinds module-level names (and a few class attributes)
of the ``sals`` modules to wrappers that record one span per call: name,
start, end, parent span and thread.  Nothing under ``src/sals`` changes;
``Tracer.patched`` restores every original binding on exit, also when the
traced code raises.  Spans go into per-thread arrays (no lock on the hot
path) and are merged, aggregated and optionally written out at the end.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class _Buffer:
    """Span records of one thread, as parallel typed arrays."""

    def __init__(self, thread: int):
        self.thread = thread
        self.sid = array("q")
        self.label = array("i")
        self.parent = array("q")
        self.path = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[tuple[int, int]] = []  # (span id, label id)
        self.refit_slabs = None  # slabs list last handed to update_rows


class Tracer:
    """Records spans and counts; aggregates self time per (path, label)."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.paths: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.path_id = -1      # path every new span is attributed to
        self.root_sid = -1     # parent of spans that start a new thread's stack
        self.counts: dict[str, int] = {}

    # -- recording -------------------------------------------------------
    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, label, before=None):
        """Wrapper of ``fn`` recording one span per call.

        ``label`` is a string or ``label(buf, args)`` returning one, for
        spans whose meaning depends on the caller; ``before(buf, args)``
        runs before the call (used to note state for later spans).
        """
        tracer = self
        fixed = None if callable(label) else self.label_id(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            lid = fixed if fixed is not None else tracer.label_id(label(buf, args))
            if before is not None:
                before(buf, args)
            stack = buf.stack
            parent = stack[-1][0] if stack else tracer.root_sid
            sid = next(tracer._ids)
            stack.append((sid, lid))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._record(buf, sid, lid, parent, t0, t1)

        return traced

    def _record(self, buf: _Buffer, sid, lid, parent, t0, t1) -> None:
        buf.sid.append(sid)
        buf.label.append(lid)
        buf.parent.append(parent)
        buf.path.append(self.path_id)
        buf.start.append(t0)
        buf.end.append(t1)

    @contextmanager
    def span(self, label: str, path: str | None = None):
        """A span around benchmark code; ``path`` starts a new path root."""
        saved = (self.path_id, self.root_sid)
        if path is not None:
            self.path_id = len(self.paths)
            self.paths.append(path)
        buf = self._buffer()
        parent = buf.stack[-1][0] if buf.stack else self.root_sid
        sid = next(self._ids)
        lid = self.label_id(label)
        buf.stack.append((sid, lid))
        self.root_sid = sid
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            buf.stack.pop()
            self._record(buf, sid, lid, parent, t0, t1)
            self.path_id, self.root_sid = saved

    @contextmanager
    def patched(self, targets):
        """Rebind ``owner.attribute`` to ``make(original)`` per target; restore on exit."""
        saved = []
        try:
            for owner, attr, make in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """All spans merged and ordered by span id, with self time."""
        cols = {k: [] for k in ("sid", "label", "parent", "path", "start", "end", "thread")}
        for buf in self._buffers:
            for k in ("sid", "label", "parent", "path", "start", "end"):
                cols[k].append(np.frombuffer(getattr(buf, k), dtype=getattr(buf, k).typecode))
            cols["thread"].append(np.full(len(buf.sid), buf.thread, dtype=np.int32))
        out = {k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()}
        order = np.argsort(out["sid"], kind="stable")
        out = {k: v[order] for k, v in out.items()}
        # Self time: duration minus the same-thread child spans it covers.
        dur = out["end"] - out["start"]
        pos = np.searchsorted(out["sid"], out["parent"])
        pos = np.clip(pos, 0, max(dur.size - 1, 0))
        has_parent = (
            (out["parent"] >= 0) & (out["sid"][pos] == out["parent"])
            & (out["thread"][pos] == out["thread"])
        )
        covered = np.bincount(pos[has_parent], weights=dur[has_parent], minlength=dur.size)
        out["duration"] = dur
        out["self"] = dur - covered[: dur.size]
        return out

    def write(self, path: Path) -> None:
        """Write the spans and the label/path tables as one ``.npz`` file."""
        data = self.arrays()
        np.savez(
            path, labels=np.asarray(self.labels), paths=np.asarray(self.paths),
            **{k: v for k, v in data.items() if k in ("sid", "label", "parent", "path", "start", "end", "thread")},
        )


class Summary:
    """Per-(path, label) totals over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.data = tracer.arrays()
        self.labels = tracer.labels
        self.paths = tracer.paths

    def _mask(self, paths, label: str) -> np.ndarray:
        if label not in self.labels:
            return np.zeros(self.data["label"].size, dtype=bool)
        pids = [i for i, p in enumerate(self.paths) if p in paths]
        return (self.data["label"] == self.labels.index(label)) & np.isin(self.data["path"], pids)

    def total(self, paths, label: str, field: str = "duration") -> float:
        return float(self.data[field][self._mask(paths, label)].sum())

    def calls(self, paths, label: str) -> int:
        return int(self._mask(paths, label).sum())

    def per_thread(self, paths, label: str, field: str = "duration") -> dict[int, float]:
        m = self._mask(paths, label)
        out: dict[int, float] = {}
        for t, v in zip(self.data["thread"][m].tolist(), self.data[field][m].tolist()):
            out[t] = out.get(t, 0.0) + v
        return out
