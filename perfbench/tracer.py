"""Spans and counters recorded from outside the library.

The library is not edited to be measured. Instead a `Tracer` replaces
public callables (module attributes and class methods) with wrappers for
the duration of a `with` block and puts the originals back on exit. Every
module calls its neighbours through such attributes (`graph.backward`,
`md.predict`, `nn.forward`, ...), so a wrapper sees every call a layer
receives.

Each span records its duration and the part of that duration covered by
nested spans; a layer's self time is the difference. Everything is kept in
memory and summarised when the traced block ends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

_clock = time.perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Nested spans and named counters for one traced block of work."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._patches: list[tuple] = []
        self.root_s = 0.0  # summed duration of spans with no parent

    # -- recording ----------------------------------------------------------
    def enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = _clock() - start
        st = self.spans.setdefault(name, SpanStats())
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def bookkeeping(self, fn, *args):
        """Run tracer-side work as its own span so no layer is charged for it."""
        self.enter("trace.bookkeeping")
        try:
            return fn(*args)
        finally:
            self.exit()

    # -- patching -----------------------------------------------------------
    def wrap(self, owner, attr: str, span: str | None, pre=None, post=None):
        """Replace owner.attr by a wrapper; span None records no time.

        pre(args, kwargs) runs before the call, post(args, kwargs, result)
        after a call that returned; both run outside the span.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            if span is None:
                out = orig(*args, **kwargs)
            else:
                tracer.enter(span)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    tracer.exit()
            if post is not None:
                post(args, kwargs, out)
            return out

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False

    # -- summaries ----------------------------------------------------------
    def total(self, name: str) -> float:
        st = self.spans.get(name)
        return st.total_s if st else 0.0

    def self_time(self, name: str) -> float:
        st = self.spans.get(name)
        return st.self_s if st else 0.0

    def calls(self, name: str) -> int:
        st = self.spans.get(name)
        return st.calls if st else 0

    def self_sum(self) -> float:
        return sum(st.self_s for st in self.spans.values())


def reachable_nodes(root) -> int:
    """Number of graph nodes reachable from root through .parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
