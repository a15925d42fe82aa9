"""Span tracer that wraps mwselect's public functions from outside.

A function is wrapped where it crosses a module boundary: in every
mwselect module namespace that imports it by name, and in the defining
module when another module imports that whole module (cli calls
``app.stability_budget``).  ``cli.main`` and ``cli.simulation_csv`` are
wrapped as well: the first is the benchmark's entry point, the second
feeds the CSV metrics.  Calls inside one module do not cross a layer
boundary and stay untraced, so their time counts as the caller's self
time.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` lists
and written out by the caller; ``uninstall`` puts every original
function back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from types import ModuleType

import numpy as np

PACKAGE = "mwselect"
ENTRY_POINTS = ("cli.main", "cli.simulation_csv")

NAME, START, END, PARENT, ATTRS = range(5)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _monte_carlo_attrs(args, kwargs, out):
    return {
        "t0_first": _arg(args, kwargs, 1, "pulse_first").t0,
        "survived_first": out.n_survived_first,
    }


# Counts recorded at the boundary where the work happens.
HOOKS = {
    "probability.averaged_probability_batch": lambda args, kwargs, out: {
        "rows": int(np.size(_arg(args, kwargs, 0, "centers"))),
        "t0": _arg(args, kwargs, 2, "pulse").t0,
    },
    # every flip-profile evaluation goes through detuning, so its points
    # count quadrature nodes for any rule, batched or adaptive
    "selection.detuning": lambda args, kwargs, out: {
        "points": int(np.size(_arg(args, kwargs, 0, "z"))),
    },
    "phase_space.run_monte_carlo": _monte_carlo_attrs,
    "cli.simulation_csv": lambda args, kwargs, out: {"bytes": len(out)},
}


def package_modules() -> dict[str, ModuleType]:
    """Loaded mwselect modules by short name ('' for the package)."""
    out = {}
    for full, module in list(sys.modules.items()):
        if full == PACKAGE:
            out[""] = module
        elif full.startswith(PACKAGE + ".") and module is not None:
            out[full[len(PACKAGE) + 1 :]] = module
    return out


def _public_functions(module: ModuleType):
    for attr, obj in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield attr, obj


def boundary_targets() -> list[tuple[ModuleType, str, object, str]]:
    """Every (namespace, attribute, function, span name) to wrap."""
    modules = package_modules()
    short = {m.__name__: s for s, m in modules.items()}
    defined = {}
    for name, module in modules.items():
        for attr, fn in _public_functions(module):
            defined[fn] = f"{name}.{attr}"
    targets = {}
    for name, module in modules.items():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj in defined:
                if obj.__module__ != module.__name__:
                    targets[module, attr] = (obj, defined[obj])
            elif (
                name
                and isinstance(obj, ModuleType)
                and obj is not module
                and obj.__name__ in short
            ):
                for fn_attr, fn in _public_functions(obj):
                    targets[obj, fn_attr] = (fn, defined[fn])
    for qualified in ENTRY_POINTS:
        mod_name, attr = qualified.rsplit(".", 1)
        module = modules[mod_name]
        targets[module, attr] = (getattr(module, attr), qualified)
    return [(m, a, fn, span) for (m, a), (fn, span) in targets.items()]


class Tracer:
    """Collects nested spans while installed; usable as a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, object]] = []
        self._patches: list[tuple[ModuleType, str, object, object]] | None = None

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if hook is not None:
                record[ATTRS] = hook(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        if self._patches is None:
            wrappers, self._patches = {}, []
            for module, attr, fn, name in boundary_targets():
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, name)
                self._patches.append((module, attr, fn, wrappers[fn]))
        for module, attr, fn, wrapper in self._patches:
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself, e.g. one operation."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()


def children_of(spans: list[list]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def descendants(kids: list[list[int]], root: int) -> list[int]:
    out, todo = [], list(kids[root])
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids[i])
    return out
