"""In-memory span tracing of calls into fastpart, installed from outside.

Each traced name is replaced where its caller looks it up (a module
global or a class attribute) by a wrapper that records a span: name,
start and end in ``perf_counter_ns``, and the index of the enclosing
span.  Nothing inside ``src/`` is edited; ``uninstall`` puts every
original object back.  Spans stay in memory until ``write`` saves them.
"""
from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np

_MISSING = object()


@dataclass
class Tracer:
    spans: list = field(default_factory=list)   # [name, start, end, parent]
    counts: dict = field(default_factory=dict)  # "<name>.<key>" -> total
    probe_ns: int = 0   # time spent outside fastpart inside the root spans
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def wrap(self, name, fn, count=None):
        """Span-recording wrapper.

        ``count(args, result)`` returns a dict of counts; each value is
        added to ``counts["<name>.<key>"]``.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if count is not None:
                for key, value in count(args, result).items():
                    key = f"{name}.{key}"
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a ``with`` block."""
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter_ns()

    def patch(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by its traced wrapper until ``uninstall``."""
        old = vars(owner).get(attr, _MISSING)   # _MISSING: inherited
        self._saved.append((owner, attr, old))
        current = getattr(owner, attr) if old is _MISSING else old
        if isinstance(current, functools.cached_property):
            new = functools.cached_property(self.wrap(name, current.func, count))
            new.__set_name__(owner, attr)
        else:
            new = self.wrap(name, current, count)
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._saved.clear()

    def self_times(self):
        """Per name: (calls, total self ns).  Self = duration - children."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, self_ns = out.get(name, (0, 0))
            out[name] = (calls + 1, self_ns + (end - start) - child[i])
        return out

    def write(self, path):
        """Spans as .npz: name table, then per span its name index, start
        and end in ns, and parent index (-1 for a root)."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        table = np.array([(ids[n], a, b, p) for n, a, b, p in self.spans],
                         dtype=np.int64).reshape(-1, 4)
        np.savez(path, names=np.array(names), name=table[:, 0],
                 start_ns=table[:, 1], end_ns=table[:, 2], parent=table[:, 3])
