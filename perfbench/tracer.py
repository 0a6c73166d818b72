"""In-memory span tracer installed from outside the program.

`Tracer.install()` wraps every public function of the dyadlab modules
(each module's ``__all__``) plus ``Window.rects_at_level`` at every place
the function object is bound, so ``maximal.mvee`` and ``weights.mvee`` both
lead to the same wrapper.  Each call opens a span (id, parent, name, start,
end) on a ``contextvars`` stack; the span's self time is its duration minus
the time its child spans cover.  A generator's time is the sum of its
resumptions.  Hot leaves listed in ``layers.COUNT_ONLY`` are counted, not
timed: a span costs about a microsecond, which would inflate their callers.
After each timed call, the hook that ``layers.HOOKS`` gives for its name
records the call's sizes.
Nothing here runs unless a traced run calls `install()`.
"""
from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

from layers import COUNT_ONLY, HOOKS, MODULES


class _Frame:
    __slots__ = ("sid", "name", "child")

    def __init__(self, sid, name):
        self.sid = sid
        self.name = name
        self.child = 0.0


class Tracer:
    """Records spans and per-name aggregates for one traced pass."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []                    # (id, parent, name, start, end)
        self.total = defaultdict(float)    # inclusive seconds per name
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)   # per layer (module)
        self.counts = defaultdict(float)   # named counters
        self.maxima = {}
        self._root = _Frame(0, "bench")
        self._cur = contextvars.ContextVar("perfbench_span",
                                           default=self._root)
        self._next_id = 0
        self._t0 = None

    # -- recording -------------------------------------------------------

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def _open(self, name, sid=None):
        parent = self._cur.get()
        frame = _Frame(self._new_id() if sid is None else sid, name)
        return parent, frame, self._cur.set(frame), self.clock()

    def _close(self, parent, frame, token, start, call=True):
        end = self.clock()
        self._cur.reset(token)
        dur = end - start
        parent.child += dur
        self.total[frame.name] += dur
        self.self_s[frame.name.split(".", 1)[0]] += dur - frame.child
        if call:
            self.spans.append((frame.sid, parent.sid, frame.name, start, end))
            self.calls[frame.name] += 1
        return dur

    def span(self, name, fn, *args, **kw):
        """Run fn under a span named `name` (layer = text before the dot)."""
        parent, frame, token, start = self._open(name)
        try:
            out = fn(*args, **kw)
        finally:
            dur = self._close(parent, frame, token, start)
        hook = HOOKS.get(name)
        if hook is not None:
            hook(self, args, kw, out, dur)
        return out

    def count(self, name, n=1):
        self.counts[name] += n

    def peak(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            return counted
        if inspect.isgeneratorfunction(fn):
            tracer = self

            @functools.wraps(fn)
            def gen(*args, **kw):
                # one span per call, from its creation to its last
                # resumption; only the resumptions count as its time
                caller = tracer._cur.get()
                sid = tracer._new_id()
                tracer.calls[name] += 1
                it = fn(*args, **kw)
                first = end = tracer.clock()
                try:
                    while True:
                        parent, frame, token, start = tracer._open(name, sid)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(parent, frame, token, start,
                                          call=False)
                            end = tracer.clock()
                        tracer.count(name + ".yields")
                        yield item
                finally:
                    tracer.spans.append((sid, caller.sid, name, first, end))
            return gen

        @functools.wraps(fn)
        def timed(*args, **kw):
            return self.span(name, fn, *args, **kw)
        return timed

    def install(self):
        """Import every layer and rebind its public functions to wrappers."""
        mods = {m: importlib.import_module(f"dyadlab.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and inspect.isfunction(val):
                    setattr(mod, attr, wrapped[id(val)])
        win = mods["geometry"].Window
        win.rects_at_level = self._wrap("geometry.rects_at_level",
                                        win.rects_at_level)

    # -- output ----------------------------------------------------------

    def start(self):
        self._t0 = self.clock()

    def stop(self):
        """Close the pass: time outside every span is the benchmark's own."""
        wall = self.clock() - self._t0
        self.self_s["bench"] += wall - self._root.child
        return wall

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)
            fh.write("\n")
