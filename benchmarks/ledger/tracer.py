"""In-memory span tracer for the traced benchmark run.

The tracer measures layers from outside: it replaces public methods of
the ``repro`` classes *at class level* with wrappers that record one span
per call — ``(name, start, end, parent, op id)`` in
``time.perf_counter`` seconds — and restores the originals on
:meth:`Tracer.uninstall`.  Module functions held in registries (the
``METRICS`` table of M1/M2/M3 callables) are bound by reference and
cannot be wrapped this way; their time shows up as the self time of the
span that calls them.

Spans nest through an explicit stack (one thread, one closed-loop
caller), so a span's *self time* is its duration minus the durations of
its direct children.  :func:`layer_metrics` folds the spans into the
per-layer metrics named in ``BENCHMARK.json``; :meth:`Tracer.write`
dumps the raw spans as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

__all__ = ["Tracer", "span_self_times", "layer_metrics"]

#: A hook sees the wrapped call's tracer, positional args and result.
Hook = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Records spans around wrapped methods and counts at the same
    boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: The serving operation spans are attributed to (-1: set-up or
        #: bookkeeping outside any operation).
        self.op_id = -1
        #: Wrapped calls record nothing while False (oracle work).
        self.active = True
        #: Whether any method is wrapped (the traced run).
        self.recording = False
        self._stack: list[int] = []
        self._installed: list[tuple[type, str, Any]] = []
        #: Patterns requested per estimator since its last clear_cache,
        #: for counting cold selectivity calls from outside.
        self.seen: weakref.WeakKeyDictionary[Any, set] = (
            weakref.WeakKeyDictionary()
        )

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        """Start a span; returns its index."""
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the span *index* (the innermost open one)."""
        self.ends[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")

    # -- method wrapping -----------------------------------------------------

    def wrap(
        self,
        cls: type,
        method: str,
        name: str,
        before: Optional[Hook] = None,
        after: Optional[Hook] = None,
    ) -> None:
        """Replace ``cls.method`` with a span-recording wrapper.

        *before* runs ahead of the span with the call's arguments, *after*
        once the call returned with its result; both are outside the span.
        """
        original = cls.__dict__[method]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            if before is not None:
                before(tracer, args, None)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(cls, method, wrapper)
        self._installed.append((cls, method, original))
        self.recording = True

    def timed(self, name: str, fn: Callable[..., Any], *args: Any) -> tuple[Any, float]:
        """Call *fn*; return its result and the wall seconds it took.

        In the traced run the call is also a root span named *name*, so
        the layer spans below it add up to the measured time.
        """
        index = self.open(name) if self.recording and self.active else -1
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            if index >= 0:
                self.close(index)
        return result, elapsed

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (oracles, bookkeeping)."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        while self._installed:
            cls, method, original = self._installed.pop()
            setattr(cls, method, original)
        self.recording = False

    # -- output ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        [
                            name,
                            self.starts[index],
                            self.ends[index],
                            self.parents[index],
                            self.ops[index],
                        ]
                    )
                )
                handle.write("\n")


def span_self_times(tracer: Tracer) -> list[float]:
    """Per span: its duration minus its direct children's durations."""
    self_times = [
        end - start for start, end in zip(tracer.starts, tracer.ends, strict=True)
    ]
    for index, parent in enumerate(tracer.parents):
        if parent >= 0:
            self_times[parent] -= tracer.ends[index] - tracer.starts[index]
    return self_times


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``.

    ``busy_s`` sums only the outermost span of each name, so a recursive
    or re-entrant layer is not counted twice; ``self_s`` sums every
    span's self time.
    """
    self_times = span_self_times(tracer)
    calls: dict[str, float] = defaultdict(float)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    names = tracer.names
    parents = tracer.parents
    for index, name in enumerate(names):
        calls[name] += 1
        own[name] += self_times[index]
        ancestor = parents[index]
        while ancestor >= 0 and names[ancestor] != name:
            ancestor = parents[ancestor]
        if ancestor < 0:
            busy[name] += tracer.ends[index] - tracer.starts[index]
    metrics: dict[str, float] = {}
    for name in calls:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.busy_s"] = busy[name]
        metrics[f"{name}.self_s"] = own[name]
    return metrics
