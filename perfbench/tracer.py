"""Span tracer for the cendre layers, installed from outside the package.

The tracer wraps names where their callers look them up: every public
function one cendre module imports from another (``cendre.harness.generate``,
``cendre.estimators.robust_decide``, ...), the few same-layer entry points
the ledger needs (``cli.main``, ``harness.run_trial``,
``harness.prop_bounds``), ``ThresholdPlan.threshold`` and each estimator
class's own ``step`` and ``snapshot``.  Nothing inside ``src/`` changes.

Each wrapper records a span: its duration, and the part of it covered by
child spans.  A layer's self time is the sum over its spans of duration
minus child time, so the self times of all layers add up exactly (in
integer nanoseconds) to the root span, the ``cli.main`` call.

Estimator steps are classified after the call from the estimator's
``kept_count`` and the decision the step saw or returned: a decision with
``outlier`` set is an outlier step, a rise in ``kept_count`` is a kept
step, anything else is censored.  The class name is never consulted.

A boundary named in ``REQUIRED`` that no longer exists raises
``MissingBoundary``, so a refactor that moves one shows up as a loud
failure instead of as a layer that silently reports zero.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

LAYERS = ("numkit", "likelihood", "censor", "estimators", "datagen", "ingest",
          "sketch", "harness", "cli")

# Same-layer entry points to wrap in addition to every cross-layer binding.
OWN_LAYER = (("cendre.cli", "main"), ("cendre.harness", "run_trial"),
             ("cendre.harness", "prop_bounds"))

# (binding module, name) pairs the per-layer metrics are computed from.
REQUIRED = (
    ("cendre.cli", "main"), ("cendre.cli", "monte_carlo"),
    ("cendre.cli", "write_results_csv"), ("cendre.cli", "write_summary_json"),
    ("cendre.harness", "run_trial"), ("cendre.harness", "prop_bounds"),
    ("cendre.harness", "generate"), ("cendre.harness", "materialize"),
    ("cendre.harness", "preliminary_fit"), ("cendre.harness", "kaczmarz_run"),
    ("cendre.harness", "nac_decide"), ("cendre.harness", "load_csv"),
    ("cendre.harness", "surrogate_truth"), ("cendre.harness", "srht_reduce"),
    ("cendre.harness", "uniform_reduce"), ("cendre.harness", "solve_reduced"),
    ("cendre.estimators", "evaluate"), ("cendre.estimators", "robust_decide"),
    ("cendre.estimators", "cholesky_solve"),
    ("cendre.likelihood", "interval_log_prob"),
    ("cendre.sketch", "fwht_in_place"), ("cendre.sketch", "cholesky_solve"),
)

class MissingBoundary(RuntimeError):
    """A layer boundary the ledger depends on is gone."""


def layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) > 1 and parts[0] == "cendre" and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    """In-memory span statistics, written out once the traced call ends."""

    def __init__(self):
        self._stack: list[list[int]] = []  # child-time accumulator per open span
        self.stats: dict[str, list[int]] = {}  # key -> [calls, total_ns, self_ns]
        self.counters: dict[str, float] = {}
        self.layer_self_ns = dict.fromkeys(LAYERS, 0)
        self.root_ns = 0
        self.violations = 0  # spans whose children outlasted them
        self.samples: dict[str, list[int]] = {}  # per-call durations, for percentiles

    # -- span core ------------------------------------------------------

    def _close(self, layer: str, stat: list[int], dt: int, acc: list[int]) -> None:
        child = acc[0]
        if child > dt:
            self.violations += 1
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - child
        self.layer_self_ns[layer] += dt - child
        if self._stack:
            self._stack[-1][0] += dt
        else:
            self.root_ns += dt

    def _stat(self, key: str) -> list[int]:
        return self.stats.setdefault(key, [0, 0, 0])

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def timed(self, layer: str, key: str, fn, observe=None, keep=False):
        stack, stat, clock, close = self._stack, self._stat(key), time.perf_counter_ns, self._close
        samples = self.samples.setdefault(key, []) if keep else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc = [0]
            stack.append(acc)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                close(layer, stat, dt, acc)
                if samples is not None:
                    samples.append(dt)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def timed_generator(self, layer: str, key: str, fn):
        """Wrap a generator function; each next() on its result is a span."""
        make = self.timed(layer, key, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedIter(tracer, layer, key, make(*args, **kwargs))

        return wrapper

    def timed_step(self, fn, decision_type):
        """Wrap an estimator's step method and classify every call."""
        stack, clock, close, stat = self._stack, time.perf_counter_ns, self._close, self._stat
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(est, *args, **kwargs):
            kept0, mult0 = est.kept_count, est.multiply_count
            acc = [0]
            stack.append(acc)
            t0 = clock()
            result = None
            kind = "failed"
            try:
                result = fn(est, *args, **kwargs)
                kind = ""
            finally:
                dt = clock() - t0
                stack.pop()
                if not kind:
                    last = result[-1] if isinstance(result, tuple) and result else None
                    if isinstance(last, decision_type):
                        decision = last
                    elif args and isinstance(args[0], decision_type):
                        decision = args[0]
                    else:
                        decision = None
                    if decision is not None and decision.outlier:
                        kind = "outlier"
                    elif est.kept_count > kept0:
                        kind = "kept"
                    else:
                        kind = "censored"
                    if decision is not None:
                        key = "decided_kept" if kind != "censored" else "decided_censored"
                        counters[key] = counters.get(key, 0) + 1
                mkey = "estimators.step_" + kind + ".multiplies"
                counters[mkey] = counters.get(mkey, 0) + est.multiply_count - mult0
                close("estimators", stat("estimators.step_" + kind), dt, acc)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary of the already imported cendre modules."""
        from cendre.censor import CensorDecision, ThresholdPlan

        modules = {name: mod for name, mod in sys.modules.items()
                   if layer_of(name) is not None and mod is not None
                   and not getattr(mod, "__file__", "").endswith("__init__.py")}
        bound = set()
        for mod_name, mod in sorted(modules.items()):
            caller_layer = layer_of(mod_name)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = layer_of(obj.__module__)
                if layer is None:
                    continue
                if layer == caller_layer and (mod_name, name) not in OWN_LAYER:
                    continue
                bound.add((mod_name, name))
                setattr(mod, name, self._wrap_function(layer, name, obj))

        missing = [f"{m}.{n}" for m, n in REQUIRED if (m, n) not in bound]
        if missing:
            raise MissingBoundary("boundaries not found: " + ", ".join(missing))

        if "threshold" not in vars(ThresholdPlan):
            raise MissingBoundary("cendre.censor.ThresholdPlan.threshold not found")
        ThresholdPlan.threshold = self.timed("censor", "censor.threshold",
                                             ThresholdPlan.threshold)

        estimators = modules["cendre.estimators"]
        stepped = 0
        for cls in vars(estimators).values():
            if not inspect.isclass(cls) or cls.__module__ != "cendre.estimators":
                continue
            if "step" in vars(cls):
                cls.step = self.timed_step(vars(cls)["step"], CensorDecision)
                stepped += 1
            if "snapshot" in vars(cls):
                cls.snapshot = self.timed("estimators", "estimators.snapshot",
                                          vars(cls)["snapshot"])
        if not stepped:
            raise MissingBoundary("no estimator class in cendre.estimators defines step")

    def _wrap_function(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        if inspect.isgeneratorfunction(fn):
            return self.timed_generator(layer, key, fn)
        observe = {
            "evaluate": self._observe_evaluate,
            "fwht_in_place": self._observe_fwht,
            "load_csv": self._observe_load_csv,
            "write_results_csv": self._observe_written,
            "write_summary_json": self._observe_written,
        }.get(name)
        return self.timed(layer, key, fn, observe, keep=name == "run_trial")

    # -- per-call counters, taken outside the timed interval ------------

    def _observe_evaluate(self, args, result):
        if args and getattr(args[0], "censored", False):
            self.count("likelihood.evaluate.censored")

    def _observe_fwht(self, args, result):
        # Computed bytes: one read and one write of the float64 array per
        # butterfly stage.
        n = result.shape[0]
        self.count("numkit.fwht_in_place.bytes_computed",
                   2 * 8 * result.size * int(math.log2(n)))

    def _observe_load_csv(self, args, result):
        self.count("ingest.load_csv.rows", result.D)
        self.count("ingest.load_csv.bytes", os.path.getsize(args[0]))

    def _observe_written(self, args, result):
        self.count("harness.write_results.bytes", os.path.getsize(result))

    # -- report ---------------------------------------------------------

    def report(self) -> dict:
        return {"stats": self.stats, "counters": self.counters,
                "layer_self_ns": self.layer_self_ns, "root_ns": self.root_ns,
                "violations": self.violations, "samples": self.samples}


class _TimedIter:
    """Iterator whose every next() is a span of the wrapped generator's layer."""

    __slots__ = ("_inner", "_stat", "_layer", "_tracer", "_items")

    def __init__(self, tracer: Tracer, layer: str, key: str, inner):
        self._inner = inner
        self._tracer = tracer
        self._layer = layer
        self._stat = tracer._stat(key)
        self._items = key + ".items"

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        acc = [0]
        tracer._stack.append(acc)
        t0 = time.perf_counter_ns()
        try:
            item = next(self._inner)
        finally:
            dt = time.perf_counter_ns() - t0
            tracer._stack.pop()
            tracer._close(self._layer, self._stat, dt, acc)
        tracer.count(self._items)
        return item
