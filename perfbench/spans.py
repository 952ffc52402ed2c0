"""Span timing around calls into the package, installed from outside it.

A span is one call of a wrapped function.  The wrappers keep a stack of
open spans, so a span's self time is its duration minus the durations of
the spans it directly encloses.  Totals stay in memory and are read when
the run ends; every wrapper is removed again by `Tracer.installed`.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Per-name call counts, inclusive and self nanoseconds, and event counts."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.events: dict[str, int] = defaultdict(int)
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace `owner.attr` (a class or module attribute) by a timed call.

        `observe(events, args, result)` runs after the span closes and may
        bump named counters in `events`.
        """
        original = vars(owner)[attr]
        stack, calls, total_ns, self_ns, events = self._stack, self.calls, self.total_ns, self.self_ns, self.events
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            enclosed = [0]
            stack.append(enclosed)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                total_ns[name] += elapsed
                self_ns[name] += elapsed - enclosed[0]
            if observe is not None:
                observe(events, args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    @contextmanager
    def installed(self, patches):
        """Wrap every (owner, attr, name, observe) for the duration of the block."""
        try:
            for owner, attr, name, observe in patches:
                self.wrap(owner, attr, name, observe)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)
