"""Spans around the calls into gaugeproj's public functions.

The program itself is not changed: ``Tracer.install`` rebinds every public
module-level function of the traced layers, in every gaugeproj namespace
that refers to it, to a wrapper that records a span (name, start, end,
parent span, unit id).  Spans stay in memory until the run ends.  An
optional observer per function keeps a small record of the call's
arguments or result, from which the work counters are derived afterwards,
outside every timed span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

# layer -> gaugeproj modules that make it up (config is parsing only and is
# counted with the pipeline/CLI layer that calls it)
LAYERS = {
    "gauges": ("gauges",),
    "conditions": ("conditions",),
    "diophantine": ("diophantine",),
    "hierarchy": ("hierarchy",),
    "measure": ("measure",),
    "projection": ("projection",),
    "svgreport": ("svgreport",),
    "pipeline": ("pipeline", "cli", "config"),
}

NO_PARENT = -1


def _layer_functions(package):
    """(layer, qualified name, function) for every public function
    defined at module level in a traced layer."""
    out = []
    for layer, modules in LAYERS.items():
        for mod_name in modules:
            mod = getattr(package, mod_name)
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    out.append((layer, f"{mod_name}.{name}", fn))
    return out


class Tracer:
    """In-memory span recorder for one process.

    ``only`` restricts the wrapped functions to the given qualified names
    (``"measure.mc_energy"``); ``observers`` maps qualified names to
    ``fn(args, kwargs, result) -> record``, whose records are kept per
    call in ``records``.
    """

    def __init__(self, package, only=None, observers=None):
        self.package = package
        self.only = None if only is None else set(only)
        self.observers = dict(observers or {})
        self.spans: list[list] = []   # [name, layer, start, end, parent, unit]
        self.records: dict[str, list] = {}
        self.unit = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str, layer: str) -> list:
        span = [name, layer, 0.0, 0.0,
                self._stack[-1] if self._stack else NO_PARENT, self.unit]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer, qname, fn):
        observe = self.observers.get(qname)
        records = self.records.setdefault(qname, []) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(qname, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                records.append((self.unit, observe(args, kwargs, result)))
            return result
        return wrapper

    def install(self) -> "Tracer":
        functions = _layer_functions(self.package)
        missing = (self.only or set()) - {qname for _, qname, _ in functions}
        if missing:
            raise LookupError(f"no public function named {sorted(missing)}")
        namespaces = [self.package] + [getattr(self.package, m)
                                       for mods in LAYERS.values() for m in mods]
        for layer, qname, fn in functions:
            if self.only is not None and qname not in self.only:
                continue
            wrapper = self._wrap(layer, qname, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._patched.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A benchmark-side span, e.g. around one unit."""
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        dur = [s[3] - s[2] for s in self.spans]
        own = list(dur)
        for s, d in zip(self.spans, dur):
            if s[4] != NO_PARENT:
                own[s[4]] -= d
        return own

