"""Spans recorded around the library's public functions, from outside the library.

The tracer replaces a name in the module where its caller looks it up (for
example ``brwre.bellman.value_iteration``, which ``critical_m`` calls), so
the library itself carries no tracing code and an untraced process runs the
library untouched. Spans stay in memory until the run ends.
"""

import importlib
import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, INFO = range(6)


def _sites_hashed(support_attr):
    # The law-index methods hash only when the support has more than one law.
    def info(args, kwargs, result):
        env = args[0]
        return {"sites": len(result) if len(getattr(env.spec, support_attr)) > 1 else 0}
    return info


def _sweeps(args, kwargs, result):
    return {"sweeps": result.sweeps_used}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _precision(args, kwargs, result):
    return {"extended": result.returns.dtype.itemsize > 8}


def _patch_table():
    """(owner, attribute, span name, info) for every traced call site."""
    # Submodules by their import path: the package re-exports a function
    # named ``classify`` that hides the module of that name.
    cli, bellman, classify, environment, kernel = (
        importlib.import_module(f"brwre.{name}")
        for name in ("cli", "bellman", "classify", "environment", "kernel"))
    env_cls = environment.RealizedEnvironment
    return [
        (cli, "parse_config", "config.parse_config", None),
        (cli, "validate", "environment.validate", None),
        (cli, "classify", "classify.classify", None),
        (cli, "env_rho", "spectral.env_rho", _iterations),
        (cli, "has_zero_drift", "spectral.has_zero_drift", None),
        (cli, "critical_m", "bellman.critical_m", None),
        (cli, "value_iteration", "bellman.value_iteration", _sweeps),
        (cli, "replicate_records", "simulator.replicate_records", None),
        (cli, "estimate_nu", "simulator.estimate_nu", None),
        (bellman, "value_iteration", "bellman.value_iteration", _sweeps),
        (bellman, "env_rho", "spectral.env_rho", _iterations),
        (classify, "env_rho", "spectral.env_rho", _iterations),
        (classify, "validate", "environment.validate", None),
        (classify, "nearest_neighbor_rho", "spectral.nearest_neighbor_rho", None),
        (env_cls, "step_law_indices", "environment.step_law_indices",
         _sites_hashed("step_support")),
        (env_cls, "offspring_law_indices", "environment.offspring_law_indices",
         _sites_hashed("offspring_support")),
        (kernel, "power_iteration_rho", "kernel.power_iteration_rho", _precision),
    ]


class Tracer:
    """Records nested spans as [name, start, end, parent index, op id, info]."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn, info):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name, info in _patch_table():
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP], "info": s[INFO]}))
                fh.write("\n")


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out
