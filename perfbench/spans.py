"""In-memory span tracer that wraps public functions of the program.

The benchmark installs these wrappers only in a traced run, in every
process it starts (the benchmark itself, the Looking Glass helper and
the API launcher). Nothing inside ``src/`` is changed: a wrapper
replaces a function or method on its class or module, times the call,
and records a span ``(name, start, end, span id, parent id, tag)``.

Nesting uses a per-thread stack, which is correct for ordinary calls.
Calls into the ``repro.net.aio`` event loop are generators that
interleave on one thread, so :meth:`Tracer.wrap_generator` records
their spans without touching the stack: such a span has no parent and
is never one (a ``threading.local`` stack is not coroutine-safe).

Spans stay in memory and are written as JSON by :meth:`Tracer.dump`
when the process is done.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: one span: name, start, end (perf_counter seconds), id, parent id
#: (0 = none), tag (free text set by an ``after`` hook, or "").
Span = Tuple[str, float, float, int, int, str]

#: ``after(tracer, args, kwargs, result) -> tag`` runs once the wrapped
#: call returned, outside the timed interval.
After = Callable[["Tracer", tuple, dict, Any], Optional[str]]


class Tracer:
    """Spans of one process in one traced run."""

    def __init__(self, run_id: str, process: str) -> None:
        self.run_id = run_id
        self.process = process
        self.spans: List[Span] = []
        #: objects a wrapper keeps for reading after the run (the aio
        #: connection pools, whose ``opened``/``reused`` are counters).
        self.pools: List[Any] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func: Callable,
             after: Optional[After] = None) -> Callable:
        """A synchronous wrapper recording one nested span per call."""
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            tag = after(tracer, args, kwargs, result) if after else None
            tracer.spans.append(
                (name, start, end, span_id, parent, tag or ""))
            return result
        return traced

    def wrap_generator(self, name: str, func: Callable) -> Callable:
        """A wrapper for a generator-based coroutine of the aio loop:
        the span runs from the first step to the return, waits
        included, and takes part in no nesting."""
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            span_id = next(tracer._ids)
            tag = "error"
            try:
                result = yield from func(*args, **kwargs)
                tag = ""
            finally:
                tracer.spans.append((name, start, time.perf_counter(),
                                     span_id, 0, tag))
            return result
        return traced

    # -- installing -----------------------------------------------------

    def patch_method(self, owner: type, attr: str, name: str,
                     after: Optional[After] = None) -> None:
        """Replace ``owner.attr`` (a function, classmethod or
        staticmethod found on the class or a base) with a traced one."""
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                raw = klass.__dict__[attr]
                break
        else:
            raise AttributeError(f"{owner.__name__}.{attr}")
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(self.wrap(name, raw.__func__, after)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr,
                    staticmethod(self.wrap(name, raw.__func__, after)))
        else:
            setattr(owner, attr, self.wrap(name, raw, after))

    def patch_function(self, module: Any, attr: str, name: str,
                       after: Optional[After] = None,
                       generator: bool = False) -> None:
        """Replace a module-level function everywhere it is bound:
        in its module and in every loaded module that imported it by
        name (``from x import f``)."""
        original = getattr(module, attr)
        traced = self.wrap_generator(name, original) if generator \
            else self.wrap(name, original, after)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if namespace is not None and namespace.get(attr) is original:
                setattr(loaded, attr, traced)

    # -- output ---------------------------------------------------------

    def dump(self, path: Path, extra: Optional[Dict[str, Any]] = None,
             ) -> Path:
        """Write the spans as JSON (atomic rename)."""
        payload = {
            "run_id": self.run_id,
            "process": self.process,
            "pid": os.getpid(),
            "spans": self.spans,
        }
        payload.update(extra or {})
        path = Path(path)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
        return path


def load_dumps(paths: List[Path]) -> Tuple[List[Span],
                                           List[Dict[str, Any]]]:
    """Merge span dumps of several processes. Span ids are made unique
    per dump by offsetting them; returns (spans, payloads)."""
    spans: List[Span] = []
    payloads = []
    for index, path in enumerate(sorted(paths)):
        payload = json.loads(Path(path).read_text())
        payloads.append(payload)
        offset = (index + 1) << 40
        for name, start, end, span_id, parent, tag in payload["spans"]:
            spans.append((name, start, end, span_id + offset,
                          parent + offset if parent else 0, tag))
    return spans, payloads


def layer_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus the time its child spans
    cover. Children of one span ran on the same thread, one after the
    other, so their durations add up without overlap.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for _name, start, end, _span_id, parent, _tag in spans:
        if parent:
            child_time[parent] += end - start
    table: Dict[str, Dict[str, float]] = {}
    for name, start, end, span_id, _parent, _tag in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time.get(span_id, 0.0)
    return table
