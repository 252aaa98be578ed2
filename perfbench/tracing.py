"""Per-layer spans and work counters, recorded from outside the program.

The tracer replaces every public function of each layer module with a timing
wrapper, in every ``semibound`` namespace that holds it, so both calls across
modules and calls within a module pass through it. It also wraps the
``inverse`` callable of the kinetic law on the problem. ``uninstall`` puts
the original functions back. Spans nest on one stack: a span's self time is
its duration minus the durations of the spans it opened, and a function's
total time counts only its outermost spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np
from semibound.quadrature import PANEL_ORDER, REL_TOL

#: the repository's modules, one layer each
LAYERS = ("cli", "kinetics", "potentials", "quadrature", "classical", "wkbj", "fgh", "compare")


def _arg(args, kwargs, index, name, default):
    return args[index] if len(args) > index else kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self._stack = []      # open frames: [name, child seconds, values of child quadratures]
        self._patches = []    # (namespace, attribute, original)
        self.reset()

    def reset(self) -> None:
        """Start a new solve: forget the figures of the previous one."""
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def _record(self, name: str, duration: float, child: float) -> None:
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if all(frame[0] != name for frame in self._stack):
            self.total_s[name] += duration

    def wrap(self, name: str, fn, after=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0, []]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self._record(name, duration, frame[1])
            if after is not None:
                after(self, frame, args, kwargs, result)
            return result

        return traced

    def traced_problem(self, problem):
        """The same problem with its kinetic law's inverse recorded as kinetics.inverse."""
        law = problem.kinetic
        inverse = self.wrap("kinetics.inverse", law.inverse, _count_points)
        return dataclasses.replace(problem, kinetic=dataclasses.replace(law, inverse=inverse))

    def install(self) -> None:
        hooks = {
            "quadrature.composite_gauss": _count_nodes,
            "quadrature.adaptive_gauss": _count_convergence,
            "fgh.solve": _count_grid,
        }
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "semibound" or n.startswith("semibound.")]
        for layer in LAYERS:
            module = importlib.import_module(f"semibound.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name == "cli.build_problem":
                    traced = self._wrap_build_problem(fn)
                else:
                    traced = self.wrap(name, fn, hooks.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, traced)

    def _wrap_build_problem(self, fn):
        traced = self.wrap("cli.build_problem", fn)

        def build_problem(*args, **kwargs):
            return self.traced_problem(traced(*args, **kwargs))

        return build_problem

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches.clear()

    def snapshot(self) -> dict:
        """Figures of the current solve, keyed by metric name."""
        out = {}
        for name, value in self.self_s.items():
            out[f"{name}.self_s"] = value
            out[f"{name}.total_s"] = self.total_s[name]
            out[f"{name}.calls"] = self.calls[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in self.self_s.items()
                                         if k.startswith(layer + "."))
        out.update(self.counts)
        attempted = self.calls.get("quadrature.adaptive_gauss", 0)
        out["quadrature.converged_ratio"] = (
            self.counts["quadrature.converged"] / attempted if attempted else 1.0)
        return out


def _count_points(tracer, frame, args, kwargs, result):
    tracer.counts["kinetics.inverse.points"] += int(np.size(args[0]))


def _count_nodes(tracer, frame, args, kwargs, result):
    panels = _arg(args, kwargs, 3, "panels", None)
    tracer.counts["quadrature.nodes"] += panels * _arg(args, kwargs, 4, "order", PANEL_ORDER)
    if tracer._stack and tracer._stack[-1][0] == "quadrature.adaptive_gauss":
        tracer._stack[-1][2].append(result)


def _count_convergence(tracer, frame, args, kwargs, result):
    """adaptive_gauss returns either on agreement or at its node cap."""
    values, rel_tol = frame[2], _arg(args, kwargs, 3, "rel_tol", REL_TOL)
    converged = len(values) < 2 or (
        abs(values[-1] - values[-2]) <= rel_tol * max(abs(values[-1]), abs(values[-2])))
    tracer.counts["quadrature.converged" if converged else "quadrature.capped"] += 1


def _count_grid(tracer, frame, args, kwargs, result):
    tracer.counts["fgh.n_points"] += len(result.grid)
