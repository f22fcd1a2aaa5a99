"""Outside-in tracer: wraps public ``hypertrees`` functions from the benchmark.

Each target function is replaced, in every ``hypertrees`` module namespace
that binds it, by a wrapper that times the call as a span.  Spans nest
through a stack, so a call made from inside another wrapped function (for
example ``prufer.encode`` calling ``core.extract_matching``) is counted as
the caller's child, and self time is the span's duration minus the time
of its wrapped children.  A generator function is timed per ``next()``:
each step is a span, and time the consumer spends between steps is not
the generator's.

Stats are keyed by (function, label); the workload sets ``label`` to
split one function's time by input size.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter


ALL = object()  # ``Tracer.totals`` label meaning every label


class Stat:
    __slots__ = ("self_s", "calls", "items", "scanned")

    def __init__(self):
        self.self_s = 0.0
        self.calls = 0
        self.items = 0
        self.scanned = 0


class Tracer:
    def __init__(self, package: str, targets: dict[str, tuple[str, ...]],
                 result_items=None, scanned=None):
        """``targets`` maps module name to function names.  ``result_items``
        maps a function key to a function of its result giving the items it
        produced; ``scanned`` maps a key to a function of its arguments
        giving the candidates it examines."""
        self.package = package
        self.targets = targets
        self.result_items = result_items or {}
        self.scanned = scanned or {}
        self.label: str | None = None
        self.stats: dict[tuple[str, str | None], Stat] = {}
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {}
        self.label = None

    def _stat(self, key: str) -> Stat:
        stat = self.stats.get((key, self.label))
        if stat is None:
            stat = self.stats[key, self.label] = Stat()
        return stat

    def _close(self, key: str, t0: float) -> Stat:
        """End the innermost span, which started at ``t0``."""
        elapsed = perf_counter() - t0
        children = self._children.pop()
        if self._children:
            self._children[-1] += elapsed
        stat = self._stat(key)
        stat.self_s += elapsed - children
        return stat

    def _wrap(self, key: str, fn):
        children = self._children
        items_of = self.result_items.get(key)
        scanned_of = self.scanned.get(key)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                stat = self._stat(key)
                stat.calls += 1
                if scanned_of is not None:
                    stat.scanned += scanned_of(*args, **kwargs)
                it = fn(*args, **kwargs)
                while True:
                    children.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(key, t0)
                        return
                    except BaseException:
                        self._close(key, t0)
                        raise
                    self._close(key, t0).items += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat = self._close(key, t0)
                stat.calls += 1
            if items_of is not None:
                stat.items += items_of(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every target in the loaded package modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = self.package + "."
        modules = [m for name, m in sys.modules.items()
                   if name == self.package or name.startswith(prefix)]
        for mod_name, names in self.targets.items():
            home = sys.modules[prefix + mod_name]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{mod_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def totals(self, key: str, label: str | None | object = ALL) -> Stat:
        """Stats of one function under one label, or summed over all labels."""
        out = Stat()
        for (k, lab), stat in self.stats.items():
            if k == key and (label is ALL or lab == label):
                out.self_s += stat.self_s
                out.calls += stat.calls
                out.items += stat.items
                out.scanned += stat.scanned
        return out
