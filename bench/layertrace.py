"""Layer tracing from outside the program.

``Tracer.install`` wraps every public function of every fdcap module and
rebinds each module's name for it (modules import one another by name, so
``solve_cutoff`` is replaced in ``fdcap.powercontrol`` and in
``fdcap.capacity`` alike).  Each call records a span: function, start, end
and the span that was open on the same thread when it started; spans that
Monte Carlo worker threads open are roots.  Spans stay in memory until
``write`` saves them.  A function's self time is its span's duration minus
the durations of the spans it caused.

Beyond spans, the wrappers add up what the layers report about their work:
solver iterations, QUADPACK evaluations (through the ``quad`` that
``fdcap._integrate`` calls), 3F2 evaluations by integral representation,
and, around each Monte Carlo estimator, samples, field points and the
process's CPU time and minor page faults.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import resource
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "model", "interference", "cinr", "powercontrol", "capacity",
          "specfun", "_integrate", "mcsim")

# The estimators that sample the Poisson field.
ESTIMATORS = ("interference_samples", "estimate_fd_optimal",
              "estimate_fd_fixed", "estimate_hd")


def field_points(cfg, mc, r_min=None) -> float:
    """Expected field points of one estimator call, computed as
    n_samples * lambda * pi * (R_max^2 - r_min^2) with R_max from the
    call's tail budget as fdcap.mcsim documents it."""
    if r_min is None:
        r_min = 1.0 / math.sqrt(math.pi * cfg.lam)
    r_max = mc.r_max or r_min * mc.tail_epsilon ** (1.0 / (2.0 - cfg.eta))
    return mc.n_samples * cfg.lam * math.pi * (r_max * r_max - r_min * r_min)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []          # [function index, start, end, parent]
        self.counts = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    def _wrap(self, label: str, fn):
        index = len(self.names)
        self.names.append(label)
        signature = inspect.signature(fn)
        estimator = label.startswith("mcsim.") and label[6:] in ESTIMATORS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            with self._lock:
                slot = len(self.spans)
                self.spans.append(span)
            if estimator:
                usage0 = resource.getrusage(resource.RUSAGE_SELF)
            stack.append(slot)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if estimator:
                usage1 = resource.getrusage(resource.RUSAGE_SELF)
                bound = signature.bind(*args, **kwargs).arguments
                with self._lock:
                    self._count_estimator(bound, usage0, usage1,
                                          span[2] - span[1])
            elif label == "powercontrol.solve_cutoff":
                self._count("powercontrol.solve_cutoff.iterations",
                            result.solver_iterations)
            elif (label == "specfun.hyper_3f2"
                  and result.method == "integral-representation"):
                self._count("specfun.hyper_3f2.integral_calls", 1)
            return result

        return wrapper

    def _count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def _count_estimator(self, bound, usage0, usage1, wall: float) -> None:
        c = self.counts
        c["mcsim.samples"] += bound["mc"].n_samples
        c["mcsim.field_points"] += field_points(bound["cfg"], bound["mc"],
                                                bound.get("r_min"))
        c["mcsim.minor_faults"] += usage1.ru_minflt - usage0.ru_minflt
        c["mcsim.sys_s"] += usage1.ru_stime - usage0.ru_stime
        c["mcsim.cpu_s"] += (usage1.ru_utime + usage1.ru_stime
                             - usage0.ru_utime - usage0.ru_stime)
        c["mcsim.wall_s"] += wall

    def install(self) -> None:
        modules = [importlib.import_module(f"fdcap.{name}") for name in LAYERS]
        wrapped = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1].lstrip("_")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in [importlib.import_module("fdcap"), *modules]:
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(module, attr, hit[1])
        integrate = importlib.import_module("fdcap._integrate")
        quad = integrate.quad

        @functools.wraps(quad)
        def counted_quad(*args, **kwargs):
            out = quad(*args, **kwargs)
            self._count("integrate.quad_strict.neval", out[2]["neval"])
            return out

        self._rebind(integrate, "quad", counted_quad)

    def _rebind(self, module, attr: str, obj) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, obj)

    def remove(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def layer_stats(self) -> dict:
        """{'<module>.<function>': {'calls', 'self_s'}} over all spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for i, (index, start, end, _) in enumerate(self.spans):
            entry = stats[self.names[index]]
            entry["calls"] += 1
            entry["self_s"] += end - start - child[i]
        return stats

    def write(self, path: str) -> None:
        """Save the spans as JSON: the function names, and one
        [function, start, end, parent] row per span, in seconds from the
        first span."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        doc = {"names": self.names,
               "spans": [[i, round(s - t0, 9), round(e - t0, 9), p]
                         for i, s, e, p in self.spans]}
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))
