"""In-memory span recording around the program's public entry points.

The traced pass wraps each entry point listed in :mod:`layers` with a shim
that records one span per call: layer, entry point, start, end, parent span,
the op (problem, request or scenario) it belongs to, the thread, and an
optional summary of the call's result.  Shims are installed only for the
traced pass and removed after it; the untraced pass runs the program
unmodified.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, NamedTuple


_INHERITED = object()
_HERE = Path(__file__).resolve().parent


class Span(NamedTuple):
    sid: int
    layer: str
    name: str
    start: float
    end: float
    parent: int
    op: Any
    thread: int
    info: Any

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from shims around entry points; see :meth:`install`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._next_id = itertools.count().__next__
        self._patches: list[tuple[object, str, object]] = []
        self._restore: list[tuple[object, str, object]] = []
        #: Fingerprint -> op, so worker-thread spans find the request they
        #: serve (filled by the workload that submits the requests).
        self.fingerprint_ops: dict[str, Any] = {}

    # ------------------------------------------------------------ context
    def set_op(self, op: Any) -> None:
        """Attribute spans opened by this thread from now on to ``op``."""
        self._local.op = op

    def current_op(self) -> Any:
        return getattr(self._local, "op", None)

    # -------------------------------------------------------------- shims
    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        probe: Callable[[Any, tuple, dict], Any] | None = None,
        op_of: Callable[["Tracer", tuple, dict], Any] | None = None,
    ) -> Callable:
        """A shim recording one span per call of ``fn``.

        ``probe(result, args, kwargs)`` summarises the call for the layer
        metrics; ``op_of(tracer, args, kwargs)`` names the op the call works
        for when the calling thread does not know it (a service worker).
        """
        tracer = self
        local = self._local
        spans = self.spans
        next_id = self._next_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            sid = next_id()
            saved_op = getattr(local, "op", None)
            if op_of is not None:
                local.op = op_of(tracer, args, kwargs)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                op = getattr(local, "op", None)
                local.op = saved_op
            info = probe(result, args, kwargs) if probe is not None else None
            spans.append(
                Span(sid, layer, name, start, end, parent, op, threading.get_ident(), info)
            )
            return result

        return shim

    def install(self, entry_points) -> None:
        """Wrap every entry point ``(layer, "module:attr[.method]", probe, op_of)``.

        A method is replaced on its class.  A module-level function is
        replaced in every loaded ``repro`` module and benchmark module that
        bound it by name, so callers that imported it directly reach the shim
        as well.  The shims are built on the first call; later calls (a
        closed loop installs around every traced op) only put them back.
        """
        if not self._patches:
            self._patches = list(self._build_patches(entry_points))
        for owner, name, replacement in self._patches:
            self._restore.append((owner, name, vars(owner).get(name, _INHERITED)))
            setattr(owner, name, replacement)

    def uninstall(self) -> None:
        """Put every wrapped entry point back as it was."""
        while self._restore:
            owner, name, original = self._restore.pop()
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _build_patches(self, entry_points):
        callers = [module for name, module in list(sys.modules.items()) if _callers(name, module)]
        for layer, target, probe, op_of in entry_points:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, method = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                yield owner, method, self.wrap(layer, path, getattr(owner, method), probe, op_of)
                continue
            original = getattr(module, path)
            shim = self.wrap(layer, path, original, probe, op_of)
            for loaded in callers:
                if getattr(loaded, path, None) is original:
                    yield loaded, path, shim

    # ------------------------------------------------------------ outputs
    def by_layer(self) -> dict[str, list[Span]]:
        layers: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            layers[span.layer].append(span)
        return layers

    def self_seconds(self) -> dict[int, float]:
        """Each span's duration minus the time its child spans cover.

        Children run on the parent's thread inside the parent's interval and
        one after another, so their coverage is the sum of their durations.
        """
        child = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.seconds
        return {span.sid: span.seconds - child[span.sid] for span in self.spans}

    def write(self, path: Path, origin: float) -> None:
        """Write the spans as one JSON object per line, times relative to ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(
                    json.dumps(
                        {
                            "id": span.sid,
                            "layer": span.layer,
                            "name": span.name,
                            "start_us": round((span.start - origin) * 1e6, 1),
                            "end_us": round((span.end - origin) * 1e6, 1),
                            "parent": span.parent,
                            "op": span.op,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )


def _callers(name: str, module) -> bool:
    """Whether ``module`` belongs to the program or to this benchmark."""
    if name == "repro" or name.startswith("repro."):
        return True
    return Path(getattr(module, "__file__", None) or "/").resolve().parent == _HERE


def union_length(intervals, within=None) -> float:
    """Total length covered by ``intervals``, optionally clipped to the union
    of the ``within`` intervals."""
    merged = _merge(intervals)
    if within is None:
        return sum(end - start for start, end in merged)
    covered = 0.0
    outer = _merge(within)
    i = j = 0
    while i < len(merged) and j < len(outer):
        start = max(merged[i][0], outer[j][0])
        end = min(merged[i][1], outer[j][1])
        if end > start:
            covered += end - start
        if merged[i][1] < outer[j][1]:
            i += 1
        else:
            j += 1
    return covered


def _merge(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]
