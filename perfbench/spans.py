"""Timing spans around calls into hypwalk, recorded from outside the package.

A span is opened by a wrapper that replaces a function under every name a
caller can look it up by: the module attributes of every loaded `hypwalk`
module that hold the function, or the class attribute for a method.  Each
wrapped function belongs to a layer.  For each layer the tracer keeps

  - inclusive time: the duration of its outermost spans (a layer calling
    itself is not counted twice),
  - self time: span duration minus the durations of the spans opened
    directly inside it,
  - calls, per wrapped function.

The tracer is single-threaded: install it only around work that calls the
wrapped functions from one thread.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # per open span: [time covered by child spans]
        self.depth: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []

    def _wrapper(self, fn, layer: str, name: str, on_call=None, on_return=None):
        stack, depth = self.stack, self.depth
        inclusive, self_time, calls = self.inclusive, self.self_time, self.calls

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            calls[name] += 1
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[layer] -= 1
                self_time[layer] += dt - frame[0]
                if depth[layer] == 0:
                    inclusive[layer] += dt
                if stack:
                    stack[-1][0] += dt
            if on_return is not None:
                on_return(self, result)
            return result

        return wrapped

    def wrap_function(self, fn, layer: str, name: str | None = None,
                      on_call=None, on_return=None) -> None:
        """Replace `fn` under every module-level name that holds it in the
        loaded hypwalk modules."""
        wrapped = self._wrapper(fn, layer, name or fn.__name__, on_call, on_return)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.partition(".")[0] != "hypwalk":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, fn))

    def wrap_method(self, cls, attr: str, layer: str, on_call=None) -> None:
        fn = cls.__dict__.get(attr)
        if callable(fn):
            setattr(cls, attr, self._wrapper(fn, layer, f"{cls.__name__}.{attr}", on_call))
            self._undo.append((cls, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()


def public_functions(module) -> list:
    """Functions defined in `module` whose names do not start with '_'."""
    return [
        value for attr, value in vars(module).items()
        if not attr.startswith("_") and callable(value) and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    ]
