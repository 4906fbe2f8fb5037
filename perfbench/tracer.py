"""Span tracer for the benchmark's traced runs.

The program has no layer spans of its own yet, so the traced run wraps the
public functions of each layer from here: module attributes are replaced in
every loaded ``repro.*`` module that holds them, methods are replaced on
their class.  Each call records one span -- name, start, end, parent span,
task id, process, an optional size (elements drawn, bytes written) and an
optional key (the job number for service spans).

Spans live in memory as column arrays and are written out once, at the end.
Work done in forked children (supervisor shards, service job workers) is
recorded by the same wrappers, which the child inherits: an at-fork hook
gives the child fresh columns, and when the child's outermost wrapped call
returns its spans are spooled to a file that the parent loads afterwards.
"""

from __future__ import annotations

import functools
import os
import pickle
import threading
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

GID_SHIFT = 32  # span id = pid << 32 | row, unique across processes

_COLUMNS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "q"),
            ("task", "i"), ("size", "q"), ("key", "q"))


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []
        self._child_depth: Optional[int] = None
        self._flushes = 0
        self.pid = os.getpid()
        self._base = 0  # rows already spooled by this process
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ---------------------------------------------------------

    def _reset(self) -> None:
        self.cols = {name: array(code) for name, code in _COLUMNS}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def task(self) -> int:
        return getattr(self._local, "task", -1)

    @task.setter
    def task(self, value: int) -> None:
        self._local.task = value

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, nid: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        cols = self.cols
        with self._lock:
            row = len(cols["name"])
            cols["name"].append(nid)
            cols["start"].append(time.perf_counter())
            cols["end"].append(float("nan"))
            cols["parent"].append(parent)
            cols["task"].append(self.task)
            cols["size"].append(0)
            cols["key"].append(-1)
        stack.append((self.pid << GID_SHIFT) | (self._base + row))
        return row

    def end(self, row: int, size: int = 0, key: int = -1) -> None:
        self.cols["end"][row] = time.perf_counter()
        if size:
            self.cols["size"][row] = size
        if key >= 0:
            self.cols["key"][row] = key
        stack = self._stack()
        stack.pop()
        if self._child_depth is not None and len(stack) == self._child_depth:
            self._spool_child()

    # -- forked children ---------------------------------------------------

    def _after_fork(self) -> None:
        self._lock = threading.Lock()  # another thread may have held it
        self.pid = os.getpid()
        self._base = 0
        self._reset()
        self._child_depth = len(self._stack())

    def _spool_child(self) -> None:
        self._flushes += 1
        self.spool.mkdir(parents=True, exist_ok=True)
        target = self.spool / f"spans-{self.pid}-{self._flushes}.pkl"
        with open(target, "wb") as handle:
            pickle.dump({"pid": self.pid, "base": self._base, "cols": self.cols},
                        handle)
        self._base += len(self.cols["name"])
        self._reset()

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             info: Optional[Callable] = None) -> Callable:
        """A traced ``fn``; ``info(args, result) -> (size, key)`` annotates."""
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = tracer.begin(nid)
            size = key = -1
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    size, key = info(args, result)
                return result
            finally:
                tracer.end(row, max(size, 0), key)

        return traced

    def patch_function(self, module, attr: str, name: str,
                       info: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` in every loaded module that binds it."""
        import sys

        original = getattr(module, attr)
        traced = self.wrap(name, original, info)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str,
                     info: Optional[Callable] = None) -> None:
        original = getattr(cls, attr)
        self._patches.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, self.wrap(name, original, info))

    def patch_object(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- collection --------------------------------------------------------

    def collect(self) -> Dict[str, np.ndarray]:
        """All spans of this process and its spooled children, as arrays."""
        parts = [{"pid": self.pid, "base": self._base, "cols": self.cols}]
        for path in sorted(self.spool.glob("spans-*.pkl")):
            with open(path, "rb") as handle:
                parts.append(pickle.load(handle))
        out: Dict[str, list] = {name: [] for name, _ in _COLUMNS}
        out["pid"] = []
        for part in parts:
            count = len(part["cols"]["name"])
            for name, code in _COLUMNS:
                out[name].append(np.frombuffer(part["cols"][name], dtype=code)
                                 if count else np.empty(0, dtype=code))
            out["pid"].append(np.full(count, part["pid"], dtype=np.int64))
        spans = {name: np.concatenate(values) for name, values in out.items()}
        rows = np.concatenate([p["base"] + np.arange(len(p["cols"]["name"]))
                               for p in parts])
        spans["gid"] = (spans["pid"] << GID_SHIFT) | rows
        return spans

    def save(self, path: Path, spans: Dict[str, np.ndarray]) -> None:
        """Write the collected spans once, with the name table."""
        np.savez_compressed(path, names=np.array(self.names), **spans)


def union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total length of the union of ``[start, end)`` intervals."""
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    opens = np.ones(starts.size, dtype=bool)
    opens[1:] = starts[1:] > reach[:-1]
    first = np.flatnonzero(opens)
    last = np.r_[first[1:] - 1, starts.size - 1]
    return float(np.sum(reach[last] - starts[first]))
