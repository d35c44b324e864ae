"""Layer spans for hamjepa, recorded from outside the package.

``install`` wraps every public function of the layer modules, plus
``RolloutTape.backward``, in a timing span.  Modules bind functions under
their own names (``from .numlin import sym_eig``), so each wrapper is
rebound under every name that refers to the original in any loaded
``hamjepa`` module, and in the ``certify.CHECKS`` registry.  No source file
of the package changes.

Spans are aggregated as they close, per (command, span name): call count,
total time and self time (total minus the time of the spans opened inside
it).  The training-step spans also keep every duration, for percentiles.
Computed work counts come from the arguments of a few layer calls; they
repeat exactly and are not measurements.
"""

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("trainer", "objectives", "hamflow", "numlin", "geomtheory", "diagnostics", "certify")
STEP_SPANS = ("trainer.hamjepa_train_step", "trainer.lejepa_train_step")

# Full (n, slices, knots) float64 arrays that one sigreg_statistic call
# builds: t*y, its cosine and sine, the two gradient products and their sum.
SIGREG_NKT_ARRAYS = 6


def _count_eig_use(tracer, args):
    # The eigenpair reaches a gradient only through the top-eigenvalue
    # ceiling; without it the decomposition only feeds a logged ratio.
    tracer.add("eig_computed", 1)
    tracer.add("eig_used", int(args["reg"].eigmax_frac_ceiling is not None))


def _count_knn_sort(tracer, args):
    rows = len(args["test_x"])
    tracer.add("knn_sorted", rows * len(args["train_x"]))
    tracer.add("knn_used", rows * args["k"])


def _count_sigreg_bytes(tracer, args):
    n = args["z"].shape[0]
    nkt = n * args["slices"].shape[1] * len(args["spec"].knots)
    tracer.add("sigreg_nkt_bytes", SIGREG_NKT_ARRAYS * nkt * 8)


COUNTERS = {
    "objectives.projected_logdet_floor": _count_eig_use,
    "diagnostics.knn_accuracy": _count_knn_sort,
    "objectives.sigreg_statistic": _count_sigreg_bytes,
}


class Tracer:
    def __init__(self):
        self.command = None  # label of the CLI command now running
        self.spans = {}  # (command, name) -> [calls, total_s, self_s]
        self.step_s = {}  # (command, name) -> [duration_s, ...]
        self.counts = {}  # (command, counter) -> int
        self.check_s = {}  # check name -> seconds, from run_checks results
        self._open = []  # child time accumulated by each open span

    def add(self, counter, amount):
        key = (self.command, counter)
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        keep_steps = name in STEP_SPANS
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                key = (self.command, name)
                agg = self.spans.get(key)
                if agg is None:
                    agg = self.spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - inner
                if keep_steps:
                    self.step_s.setdefault(key, []).append(duration)
            if name == "certify.run_checks":
                self.check_s.update((r.name, r.seconds) for r in result)
            return result

        return span

    def report(self) -> dict:
        """JSON-ready aggregates, keyed by command then by span or counter."""
        out = {"spans": {}, "step_s": {}, "counts": {}, "check_s": self.check_s}
        for field, table in (("spans", self.spans), ("step_s", self.step_s), ("counts", self.counts)):
            for (command, name), value in table.items():
                out[field].setdefault(command, {})[name] = value
        return out


def install(tracer: Tracer) -> int:
    """Wrap the layer functions and rebind every reference to them.

    Returns the number of rebound names.  Raises RuntimeError if any loaded
    hamjepa module still refers to an unwrapped layer function afterwards.
    """
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"hamjepa.{layer}")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    tape = importlib.import_module("hamjepa.hamflow").RolloutTape
    tape.backward = tracer.wrap("hamflow.RolloutTape.backward", tape.backward)

    modules = [m for n, m in sys.modules.items() if n == "hamjepa" or n.startswith("hamjepa.")]
    rebound = 0
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                rebound += 1
    checks = importlib.import_module("hamjepa.certify").CHECKS
    for name, fn in checks.items():
        if fn in wrappers:
            checks[name] = wrappers[fn]

    missed = [
        f"{module.__name__}.{attr}"
        for module in modules
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and obj in wrappers
    ]
    missed += [name for name, fn in checks.items() if fn in wrappers]
    if missed:
        raise RuntimeError(f"unwrapped layer references: {', '.join(missed)}")
    return rebound
