"""Per-layer tracing from outside the program.

:class:`Tracer` replaces a public entry point of a layer (a class method
or a module-level function) with a wrapper that records one span per
call: name, start, end, parent span and a key — the request id when the
call carries an :class:`~repro.ir.events.Event`, the current commit
batch id otherwise.  Spans live in flat in-memory arrays until
:meth:`Tracer.write` dumps them at the end of a run.  Self time (a span's
duration minus its children's) is folded into per-name totals as spans
close, so reporting needs no second pass.

:class:`GcWatch` times the interpreter's generation-2 collections through
``gc.callbacks``; they are the pauses that set the tail of every
latency distribution in this program.
"""

from __future__ import annotations

import gc
import time
from array import array
from typing import Any, Callable

_NS = time.perf_counter_ns


class SpanStats:
    """Aggregate of one span name: calls, summed self time, longest span."""

    __slots__ = ("calls", "self_ns", "max_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.max_ns = 0


class Tracer:
    """Span recorder plus call counters, installed by patching attributes.

    ``wrap`` records spans; ``count`` only counts calls (for entry points
    hit so often that a span each would distort what they measure).
    ``uninstall`` puts every original attribute back.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_key = array("q")
        self.stats: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        #: Commit batch currently in the coordinator's ordered region; the
        #: key of spans whose call carries no request.
        self.batch_id = -1
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        # ``None`` marks an attribute the class inherited: undo deletes
        # the override instead of pinning the base version on the class.
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str,
             key: Callable[..., int] | None = None) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = SpanStats()
        name_id = self._name_ids[name]
        stats = self.stats[name]
        stack, child_ns = self._stack, self._child_ns
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_key = self.span_parent, self.span_key
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(s_start)
            s_name.append(name_id)
            s_parent.append(stack[-1] if stack else -1)
            s_key.append(key(*args, **kwargs) if key is not None
                         else tracer.batch_id)
            stack.append(index)
            child_ns.append(0)
            started = _NS()
            s_start.append(started)
            s_end.append(0)
            try:
                return original(*args, **kwargs)
            finally:
                ended = _NS()
                s_end[index] = ended
                stack.pop()
                duration = ended - started
                stats.calls += 1
                stats.self_ns += duration - child_ns.pop()
                if duration > stats.max_ns:
                    stats.max_ns = duration
                if child_ns:
                    child_ns[-1] += duration

        self._patch(owner, attr, traced)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reporting ------------------------------------------------------
    def span_count(self) -> int:
        return len(self.span_start)

    def self_us(self, name: str) -> float:
        """Mean self time per call, in microseconds (0 when never called)."""
        stats = self.stats.get(name)
        if stats is None or not stats.calls:
            return 0.0
        return stats.self_ns / stats.calls / 1e3

    def calls(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.calls if stats is not None else 0

    def write(self, path: str) -> None:
        """Dump every span as CSV: name, start_ns, end_ns, parent, key."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_ns,end_ns,parent,key\n")
            names = self.names
            for index in range(len(self.span_start)):
                handle.write(
                    f"{index},{names[self.span_name[index]]},"
                    f"{self.span_start[index]},{self.span_end[index]},"
                    f"{self.span_parent[index]},{self.span_key[index]}\n")


class GcWatch:
    """Counts and times generation-2 collections via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.count = 0
        self.pause_ns = 0
        self.max_ns = 0
        self._started = 0

    def _callback(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._started = _NS()
            return
        pause = _NS() - self._started
        self.count += 1
        self.pause_ns += pause
        if pause > self.max_ns:
            self.max_ns = pause

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._callback)

    def reading(self) -> tuple[int, int, int]:
        return self.count, self.pause_ns, self.max_ns

    def reset_max(self) -> None:
        self.max_ns = 0
