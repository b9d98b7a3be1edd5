"""Runtime tracing of calls into the keyhole modules, from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``keyhole`` module that holds a reference to it (for example
``specfun.integrate_adaptive`` is also bound as ``mass2d.integrate_adaptive``
and ``escape3d.integrate_adaptive``), and ``uninstall`` puts the originals
back. Nothing under ``src/`` is edited.

Three kinds of wrapper:

- ``span``: one record per call with a name, start, end and parent span,
  kept in memory and reduced to self time at the end.
- ``count``: functions called once per integrand evaluation or per trial
  keep only a call count, an element count and total time. Their time is
  charged to the enclosing span, so it is not part of that span's self time.
- ``watch``: like ``count``, but its time stays in the enclosing span's self
  time; used to read an input property from a private helper.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

_clock = time.perf_counter


@dataclass
class Target:
    module: str                  # module that defines the function
    attr: str                    # its name there
    name: str                    # span or counter name in the trace
    kind: str = "span"           # "span" | "count" | "watch"
    elems: Optional[Callable] = None     # (args, kwargs) -> element count
    observe: Optional[Callable] = None   # (notes, args, kwargs, result) -> None


@dataclass(slots=True)
class Counter:
    calls: int = 0
    elems: int = 0
    s: float = 0.0


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    parent: int                  # -1 for a root span
    start: float = 0.0
    end: float = 0.0
    counted_s: float = 0.0       # time in ``count`` calls made directly inside it


@dataclass
class Tracer:
    targets: list
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    notes: defaultdict = field(default_factory=lambda: defaultdict(float))
    _ids: itertools.count = field(default_factory=itertools.count)
    _stack: list = field(default_factory=list)
    _count_depth: int = 0
    _patches: list = field(default_factory=list)

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every target; installing again after ``uninstall`` keeps adding
        to the same spans and counters."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            # a function that a later version removes or renames reads as zero
            original = getattr(sys.modules.get(target.module), target.attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, target)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "keyhole" or mod_name.startswith("keyhole.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, fn, target: Target):
        counter = self.counters.setdefault(target.name, Counter())
        notes = self.notes
        ids = self._ids
        stack = self._stack
        spans = self.spans
        elems = target.elems
        observe = target.observe

        if target.kind == "span":
            def span_wrapper(*args, **kwargs):
                span = Span(next(ids), target.name, stack[-1].sid if stack else -1)
                counter.calls += 1
                stack.append(span)
                span.start = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span.end = _clock()
                    stack.pop()
                    spans.append(span)
                if elems is not None:
                    counter.elems += elems(args, kwargs)
                if observe is not None:
                    observe(notes, args, kwargs, result)
                return result
            return span_wrapper

        charge = 1 if target.kind == "count" else 0

        def count_wrapper(*args, **kwargs):
            self._count_depth += charge
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                self._count_depth -= charge
            counter.calls += 1
            counter.s += dt
            if elems is not None:
                counter.elems += elems(args, kwargs)
            # only the outermost counted call is charged, so nested counted
            # functions (pair_connect_prob_exact -> marcum_q1) are not
            # subtracted twice
            if charge and self._count_depth == 0 and stack:
                stack[-1].counted_s += dt
            if observe is not None:
                observe(notes, args, kwargs, result)
            return result
        return count_wrapper

    # -- reduction --------------------------------------------------------
    def reduce(self) -> dict:
        """Per-name totals: calls, elements, inclusive time and self time.

        Inclusive time counts only the outermost span of a name, so a
        function that calls itself (nested quadrature) is not counted twice.
        Self time is a span's duration minus its child spans and its counted
        calls.
        """
        by_id = {s.sid: s for s in self.spans}
        self_s = self._self_times()
        out = {name: {"calls": c.calls, "elems": c.elems, "s": c.s, "self_s": 0.0}
               for name, c in self.counters.items()}
        for s in self.spans:
            entry = out[s.name]
            dur = s.end - s.start
            entry["self_s"] += self_s[s.sid]
            parent = by_id.get(s.parent)
            while parent is not None and parent.name != s.name:
                parent = by_id.get(parent.parent)
            if parent is None:
                entry["s"] += dur
        return out

    def write_spans(self, path) -> None:
        """Write the span records (name, start, end, parent, self time)."""
        self_s = self._self_times()
        rows = [[s.sid, s.name, s.start, s.end, s.parent, self_s[s.sid]]
                for s in sorted(self.spans, key=lambda s: s.sid)]
        counters = {k: {"calls": c.calls, "elems": c.elems, "s": c.s}
                    for k, c in self.counters.items()}
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent", "self_s"],
                       "spans": rows, "counters": counters,
                       "notes": dict(self.notes)}, fh)

    def _self_times(self) -> dict:
        child_s: dict = {}
        for s in self.spans:
            if s.parent >= 0:
                child_s[s.parent] = child_s.get(s.parent, 0.0) + (s.end - s.start)
        return {s.sid: s.end - s.start - child_s.get(s.sid, 0.0) - s.counted_s
                for s in self.spans}
