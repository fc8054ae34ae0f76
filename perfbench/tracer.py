"""Span tracer installed from outside the package.

Wrappers replace each traced public function in every ``nla_weaksim`` module
namespace that binds it, so calls made through ``from .x import f`` aliases
are caught too.  A traced name the package no longer defines is reported as
absent (zero calls), never as an error.  Spans are kept in memory and written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "nla_weaksim"
# layer -> public names traced in it; "Class.method" patches the class
TARGETS = {
    "fock": ["lift_mode_transform", "permanent", "tensor", "project",
             "build_basis", "apply", "occupancy_probability"],
    "elements": ["LossChannel.apply", "LossChannel.kraus"],
    "protocol": ["run_nla", "prepare_signal", "gate_operator"],
    "experiment": ["measure_input_size", "state_size"],
    "io": ["json_text"],
    "cli": ["main"],
}
# called once per matrix element of a lift: counted without a span, so
# their time stays in the caller's self time and the span list stays small
COUNTED = {"fock.permanent"}


class Tracer:
    """Records (name, start, end, parent, op) spans and text bytes per op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.text_bytes: dict[int, int] = defaultdict(int)  # op -> bytes
        self.counts: dict[tuple[str, int], int] = defaultdict(int)  # (name, op)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self.op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.spans)
        self.spans.append((nid, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                           self.op))
        self._stack.append(idx)
        return idx

    def _end(self, idx: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        nid, _, _, parent, op = self.spans[idx]
        self.spans[idx] = (nid, start, end, parent, op)

    @contextmanager
    def span(self, name: str):
        idx = self._begin(self._name_id(name))
        start = time.perf_counter()
        try:
            yield
        finally:
            self._end(idx, start)

    def wrap(self, name: str, fn):
        if name in COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[name, self.op] += 1
                return fn(*args, **kwargs)

            return counted
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(nid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx, start)
            if isinstance(result, str):
                self.text_bytes[self.op] += len(result.encode("utf-8"))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        homes = {}
        for layer in TARGETS:
            try:
                homes[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                homes[layer] = None
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        undo: list[tuple[object, str, object]] = []
        self.absent = []
        for layer, names in TARGETS.items():
            home = homes[layer]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                fn = getattr(owner, attr, None) if owner is not None else None
                if not callable(fn):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self.wrap(f"{layer}.{name}", fn)
                if owner_name:
                    undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            undo.append((mod, key, fn))
                            setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for target, key, fn in reversed(undo):
                setattr(target, key, fn)

    def summary(self, ops: range) -> dict[str, dict[str, float]]:
        """Calls and self time (duration minus child spans) per span name,
        over the spans of the given op ids."""
        child_time = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (nid, start, end, _, op) in enumerate(self.spans):
            if op not in ops:
                continue
            entry = out.setdefault(self.names[nid], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[idx]
        for (name, op), calls in self.counts.items():
            if op in ops:
                out.setdefault(name, {"calls": 0, "self_s": 0.0})["calls"] += calls
        return out

    def dump(self, path, ops: range) -> None:
        """Write the spans of the given op ids, times relative to the first."""
        spans = [sp for sp in self.spans if sp[4] in ops]
        t0 = min((sp[1] for sp in spans), default=0.0)
        doc = {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[nid, round(s - t0, 7), round(e - t0, 7), p, op]
                      for nid, s, e, p, op in spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n",
                        encoding="utf-8")
