"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: it wraps the public entry points of
each layer (module functions at every module that binds them, methods on
their classes) and records one span per call -- layer, name, thread,
start, end and parent -- in memory.  ``report()`` turns the spans into a
wall-time split by layer.

Wall-time split.  Every instant of a phase is given to the innermost open
span of each thread that is working at that instant; when several threads
work at once (the service runs batches on ``asyncio.to_thread`` workers
while its loop thread admits requests) the instant is shared equally.
A thread is not working while its innermost span is an ``idle`` span
(sleeping, the event loop blocked in ``select``) or a ``wait`` span (a
client blocked on another thread); an instant in which no thread works
goes to the innermost wait span if there is one, else to ``idle``.
Time in the benchmark's own ``bench`` spans is ``bench.unattributed_s``:
harness code plus program code outside every wrapped layer.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: the layer of spans in which a thread waits without working
IDLE = "idle"


class Span:
    """One call into a layer; ``parent`` indexes ``Tracer.spans``."""

    __slots__ = ("layer", "name", "thread", "start", "end", "parent", "wait")

    def __init__(self, layer, name, thread, start, parent, wait) -> None:
        self.layer, self.name, self.thread = layer, name, thread
        self.start, self.end = start, None
        self.parent, self.wait = parent, wait


class Tracer:
    """In-memory span recorder with per-thread span stacks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        #: observations made on layer results (executor launches, ...)
        self.values: defaultdict = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    # ------------------------------------------------------------ spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str, wait: bool = False) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = Span(layer, name, threading.get_ident(), time.perf_counter(),
                    parent, wait)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
            self.counts[name] += 1
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != idx:
            raise RuntimeError(f"span {span.layer}/{span.name} closed out "
                               "of order")
        stack.pop()

    @contextmanager
    def span(self, layer: str, name: str, wait: bool = False):
        idx = self.open(layer, name, wait)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn, layer: str, name: str, *, wait: bool = False,
             observe=None):
        """A wrapper recording one span per call of ``fn``.

        ``observe(result, args)`` runs after the span closes, so the
        bookkeeping it does is not charged to the layer.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(layer, name, wait)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(result, args)
            return result

        return wrapper

    # --------------------------------------------------------- patching
    def patch_method(self, cls, attr: str, layer: str, name: str,
                     **kw) -> None:
        """Wrap ``cls.attr`` (only where ``cls`` defines it itself)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, layer, name, **kw))
        self._patched.append((cls, attr, original))

    def patch_function(self, module, attr: str, layer: str, name: str,
                       **kw) -> None:
        """Wrap a module function at every module that binds it by name."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, layer, name, **kw)
        self._wrappers[id(original)] = (original, wrapper)
        for mod in list(sys.modules.values()):
            space = getattr(mod, "__dict__", None)
            if not space:
                continue
            for key, value in list(space.items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def unwrapped_sites(self) -> list[str]:
        """Module attributes still bound to an unwrapped entry point.

        A non-empty list means a call site escaped the tracer, which would
        silently move its time into a parent layer.
        """
        missed = []
        for mod in list(sys.modules.values()):
            space = getattr(mod, "__dict__", None)
            if not space:
                continue
            for key, value in list(space.items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    missed.append(f"{getattr(mod, '__name__', '?')}.{key}")
        return missed

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._wrappers.clear()

    # -------------------------------------------------------- accounting
    def report(self, windows: dict[str, tuple[float, float]],
               main_thread: int) -> dict:
        """Wall-time split per window (see the module docstring).

        ``windows`` must not overlap; their splits add up to ``layers``.
        Returns ``{"layers": {layer: s},
        "windows": {name: {layer: s}}, "errors": [...]}``.  ``errors``
        lists broken accounting: an unclosed or mis-nested span, a split
        that does not add up to the window's wall time, or -- for windows
        where only the main thread ran -- a split that disagrees with
        per-span self time.
        """
        errors: list[str] = []
        spans = self.spans
        for span in spans:
            if span.end is None:
                errors.append(f"span {span.layer}/{span.name} never closed")
                continue
            if span.parent >= 0:
                parent = spans[span.parent]
                if span.start < parent.start or (
                        parent.end is not None and span.end > parent.end):
                    errors.append(f"span {span.layer}/{span.name} outside "
                                  "its parent")
        if errors:
            return {"layers": {}, "windows": {}, "errors": errors}
        events = []
        for idx, span in enumerate(spans):
            if span.end <= span.start:
                continue  # zero-length: nothing to attribute
            events.append((span.start, 1, idx))
            events.append((span.end, 0, idx))
        events.sort()
        totals: defaultdict = defaultdict(float)
        per_window = {name: defaultdict(float) for name in windows}
        bounds = sorted((lo, hi, name) for name, (lo, hi) in windows.items())
        stacks: dict[int, list[int]] = defaultdict(list)
        prev = None
        for t, kind, idx in events:
            if prev is not None and t > prev:
                self._attribute(prev, t, stacks, bounds, per_window)
            prev = t
            thread_stack = stacks[spans[idx].thread]
            if kind:
                thread_stack.append(idx)
            else:
                thread_stack.remove(idx)
        for name, (lo, hi) in windows.items():
            split = per_window[name]
            for layer, seconds in split.items():
                totals[layer] += seconds
            covered = sum(split.values())
            if abs(covered - (hi - lo)) > 1e-3 + 1e-3 * (hi - lo):
                errors.append(
                    f"{name}: split covers {covered:.4f}s of a "
                    f"{hi - lo:.4f}s window"
                )
            threads = {s.thread for s in spans
                       if s.start < hi and s.end > lo and not s.wait
                       and s.layer != IDLE}
            if threads <= {main_thread}:
                self_s = self._self_times(lo, hi, main_thread)
                for layer in set(self_s) | set(split):
                    if abs(self_s.get(layer, 0.0) - split.get(layer, 0.0)) \
                            > 1e-3 + 1e-3 * (hi - lo):
                        errors.append(
                            f"{name}: {layer} wall split "
                            f"{split.get(layer, 0.0):.4f}s != self time "
                            f"{self_s.get(layer, 0.0):.4f}s"
                        )
        return {"layers": dict(totals),
                "windows": {k: dict(v) for k, v in per_window.items()},
                "errors": errors}

    def _attribute(self, lo, hi, stacks, bounds, per_window) -> None:
        spans = self.spans
        working, waiting = [], []
        for stack in stacks.values():
            if not stack:
                continue
            top = spans[stack[-1]]
            if top.layer != IDLE:
                (waiting if top.wait else working).append(top.layer)
        if working:
            share = [(layer, 1.0 / len(working)) for layer in working]
        elif waiting:
            share = [(waiting[0], 1.0)]
        else:
            share = [(IDLE, 1.0)]
        for w_lo, w_hi, name in bounds:
            a, b = max(lo, w_lo), min(hi, w_hi)
            if b > a:
                for layer, frac in share:
                    per_window[name][layer] += (b - a) * frac

    def _self_times(self, lo: float, hi: float,
                    thread: int) -> dict[str, float]:
        """Per-layer self time (span minus its children) of one thread,
        clipped to a window -- the single-thread cross-check of the wall
        split."""
        spans = self.spans
        self_s: defaultdict = defaultdict(float)
        for span in spans:
            if span.thread != thread:
                continue
            a, b = max(span.start, lo), min(span.end, hi)
            if b > a:
                self_s[span.layer] += b - a
                if span.parent >= 0:
                    self_s[spans[span.parent].layer] -= b - a
        return {k: v for k, v in self_s.items() if abs(v) > 1e-9}
