"""Span tracing around the public functions of the ``rbcert`` modules.

Used only by traced benchmark runs.  :meth:`Tracer.install` replaces every
public function of the ``rbcert`` modules with a recording wrapper, in the
defining module and in every ``rbcert`` namespace that imported the name
(``reduced.solve_truth``, ``estimators.two_prod``, ...), so calls from one
layer into another are seen wherever they go through a module global.
:meth:`Tracer.uninstall` puts the original function objects back.

A span is ``[function id, start, end, parent span index]``; spans stay in
memory and are written out once, when the step ends.  A layer is the module
that defines the function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("fem", "reduced", "estimators", "precision", "experiments")

_MARK = "__perfbench_traced__"


def namespaces(rbcert):
    """The package plus its layer modules, as (name, module) pairs."""
    mods = [("rbcert", rbcert)]
    mods += [(layer, importlib.import_module(f"rbcert.{layer}")) for layer in LAYERS]
    return mods


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__.startswith("rbcert.")
        ):
            yield name, obj


def wrapped_functions(rbcert) -> list[str]:
    """Names of rbcert module attributes that are currently tracing wrappers."""
    return [
        f"{ns}.{name}"
        for ns, module in namespaces(rbcert)
        for name, obj in vars(module).items()
        if getattr(obj, _MARK, False)
    ]


class Tracer:
    """Records spans for one benchmark step."""

    def __init__(self):
        self.names: list[str] = []      # function id -> "layer.function"
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []   # (module, attribute, original)

    def _wrapper(self, fn, fid):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [fid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        setattr(traced, _MARK, True)
        return traced

    def install(self, rbcert) -> None:
        modules = [module for _, module in namespaces(rbcert)]
        wrappers = {}
        for module in modules:
            for name, fn in _public_functions(module):
                if fn not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[1]
                    self.names.append(f"{layer}.{fn.__name__}")
                    wrappers[fn] = self._wrapper(fn, len(self.names) - 1)
        for module in modules:
            for name, fn in list(_public_functions(module)):
                self._saved.append((module, name, fn))
                setattr(module, name, wrappers[fn])

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def summary(self) -> dict:
        """Per-function and per-layer counts and times.

        ``functions[name]`` holds the call count, inclusive seconds and self
        seconds; ``parents[name][caller]`` counts calls by the caller's
        function name ("" for a call made by the benchmark itself).
        ``roots[name][layer]`` gives, for each function the benchmark called
        directly, the self seconds of every layer beneath it (itself
        included); they add up to that function's inclusive seconds.
        """
        n = len(self.spans)
        child_time = [0.0] * n
        for fid, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        root_of = [-1] * n
        functions: dict = {}
        parents: dict = {}
        roots: dict = {}
        for i, (fid, start, end, parent) in enumerate(self.spans):
            name = self.names[fid]
            dur = end - start
            own = dur - child_time[i]
            root_of[i] = i if parent < 0 else root_of[parent]
            f = functions.setdefault(name, [0, 0.0, 0.0])
            f[0] += 1
            f[1] += dur
            f[2] += own
            caller = self.names[self.spans[parent][0]] if parent >= 0 else ""
            by = parents.setdefault(name, {})
            by[caller] = by.get(caller, 0) + 1
            r = roots.setdefault(self.names[self.spans[root_of[i]][0]], {})
            layer = name.split(".", 1)[0]
            r[layer] = r.get(layer, 0.0) + own
        return {"functions": functions, "parents": parents, "roots": roots, "spans": n}

    def write(self, path: str, tags: dict) -> None:
        """Append the spans as JSON lines: one header, then one line per span.

        The header holds ``tags`` (workload, seed, iteration, step: what the
        spans share) and the function names; a span line is
        ``[name index, start, end, parent span index]``, spans numbered from 0
        in the order of their line.
        """
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(tags, names=self.names, spans=len(self.spans))) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
