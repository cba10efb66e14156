"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps public functions of relboost's modules and
rebinds every module namespace that holds the original, so that both
``logic.solutions`` and the ``solutions`` that ``regtree`` imported from it
reach the wrapper.  Methods are wrapped on their class, which every module
shares.  ``uninstall()`` restores the originals.  Nothing is wrapped unless
a traced run installs the tracer, so untraced runs pay nothing.

Hot functions get aggregate counters only: calls, inclusive time and self
time (inclusive time minus the time of wrapped calls made inside).  Coarse
functions also record an in-memory span with a parent link; the spans are
written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict

# (module, attribute, "hot" or "span") -- an attribute "Class.method" is
# wrapped on the class.  Keys of the counters are "<module>.<attribute>".
WRAPPED = (
    ("cli", "main", "span"),
    ("cli", "_read", "hot"),
    ("util", "atomic_write", "hot"),
    ("logic", "parse_schema", "hot"),
    ("logic", "parse_facts", "hot"),
    ("logic", "parse_examples", "hot"),
    ("logic", "parse_modes", "hot"),
    ("logic", "FactBase.__init__", "hot"),
    ("logic", "solutions", "hot"),
    ("regtree", "enumerate_tests", "hot"),
    ("regtree", "fit_tree", "span"),
    ("regtree", "evaluate", "hot"),
    ("boost", "train", "span"),
    ("boost", "predict", "hot"),
    ("hybrid", "train_hybrid", "span"),
    ("hybrid", "train_mixed", "span"),
    ("hybrid", "HybridModel.prob_of_truth", "hot"),
    ("hybrid", "MixedParentModel.predict", "hot"),
    ("rctbn", "forward_sample", "span"),
    ("rctbn", "parse_trajectories", "hot"),
    ("rctbn", "segment", "span"),
    ("rctbn", "train_rctbn", "span"),
    ("rctbn", "RctbnModel.phi", "hot"),
    ("dbn", "parse_dataset", "hot"),
    ("dbn", "family_score", "hot"),
    ("dbn", "hill_climb", "span"),
    ("metrics", "auc_roc", "hot"),
    ("metrics", "weighted_auc_roc", "hot"),
    ("metrics", "confusion_report", "hot"),
)

# The per-layer metrics, in the order of BENCHMARK.json, with their units.
LAYER_METRICS = {
    "cli.read_s": "s", "cli.write_s": "s", "cli.bytes_read": "bytes",
    "cli.bytes_written": "bytes", "cli.self_s": "s",
    "logic.parse_s": "s",
    "logic.factbase_builds": "count", "logic.factbase_build_s": "s",
    "logic.facts_indexed": "count",
    "logic.solutions_calls": "count", "logic.solutions_s": "s",
    "regtree.enumerate_calls": "count", "regtree.candidates": "count",
    "regtree.enumerate_s": "s",
    "regtree.fit_calls": "count", "regtree.fit_examples": "count",
    "regtree.fit_self_s": "s",
    "regtree.splits": "count", "regtree.split_accept_ratio": "ratio",
    "regtree.evaluate_calls": "count", "regtree.evaluate_s": "s",
    "boost.train_self_s": "s", "boost.predict_calls": "count", "boost.predict_s": "s",
    "hybrid.train_self_s": "s", "hybrid.mixed_self_s": "s",
    "hybrid.predict_calls": "count", "hybrid.predict_s": "s",
    "rctbn.sample_s": "s", "rctbn.traj_parse_s": "s", "rctbn.segment_calls": "count",
    "rctbn.segments": "count", "rctbn.segment_self_s": "s", "rctbn.train_self_s": "s",
    "rctbn.predict_s": "s",
    "dbn.parse_s": "s", "dbn.family_score_calls": "count", "dbn.family_score_s": "s",
    "dbn.climb_self_s": "s", "dbn.steps": "count",
    "metrics.pairs": "count", "metrics.auc_s": "s", "metrics.weighted_auc_s": "s",
    "metrics.confusion_s": "s",
    "trace.overhead_s": "s",
}

# Where each counter must be non-zero (the layer-to-metric map of README.md).
# The dbn-metrics control must leave every logic and regtree counter at zero.
MAPPED = {
    "cli.": ("rfgb-imbalanced", "rctbn-recovery", "hybrid-counts", "dbn-metrics"),
    "logic.parse_s": ("rfgb-imbalanced", "rctbn-recovery", "hybrid-counts"),
    "logic.factbase_": ("rctbn-recovery",),
    "logic.facts_indexed": ("rctbn-recovery",),
    "logic.solutions_": ("rfgb-imbalanced", "hybrid-counts"),
    "regtree.enumerate_": ("rfgb-imbalanced", "hybrid-counts"),
    "regtree.candidates": ("rfgb-imbalanced", "hybrid-counts"),
    "regtree.fit_": ("hybrid-counts", "rctbn-recovery"),
    "regtree.split": ("rfgb-imbalanced",),
    "regtree.evaluate_": ("hybrid-counts", "rctbn-recovery", "rfgb-imbalanced"),
    "boost.": ("rfgb-imbalanced",),
    "hybrid.": ("hybrid-counts",),
    "rctbn.": ("rctbn-recovery",),
    "dbn.": ("dbn-metrics",),
    "metrics.": ("dbn-metrics",),
}
CONTROL = ("dbn-metrics", ("logic.", "regtree."))


def expected_nonzero(workload: str) -> list:
    return [m for m in LAYER_METRICS
            if any(m.startswith(prefix) and workload in names
                   for prefix, names in MAPPED.items())]


def expected_zero(workload: str) -> list:
    name, prefixes = CONTROL
    return [m for m in LAYER_METRICS if workload == name and m.startswith(prefixes)]


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # key -> calls, total, self
        self.extra = defaultdict(float)                  # named counts
        self.spans: list = []                            # (id, parent, key, start, end)
        self._stack: list = []                           # [key, child time, span id]
        self._patched: list = []                         # (namespace, attr, original)

    # -- recording ---------------------------------------------------------

    def _enter(self, key: str, span: bool) -> list:
        frame = [key, 0.0, None]
        if span:
            parent = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
            frame[2] = len(self.spans)
            self.spans.append([frame[2], parent, key, time.perf_counter(), None])
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, elapsed: float, count: bool = True):
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        entry = self.stats[frame[0]]
        entry[0] += count
        entry[1] += elapsed
        entry[2] += elapsed - frame[1]
        if frame[2] is not None:
            self.spans[frame[2]][4] = time.perf_counter()

    def _wrap_function(self, key: str, fn, span: bool):
        hook = _HOOKS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook.before(self, args, kwargs)
            frame = self._enter(key, span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, time.perf_counter() - start)
            if hook is not None:
                hook.after(self, result, args, kwargs)
            return result
        return wrapper

    def _wrap_generator(self, key: str, fn):
        """Time a generator function while it is being consumed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = True
            while True:
                frame = self._enter(key, False)
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._leave(frame, time.perf_counter() - start, first)
                    return
                except BaseException:
                    self._leave(frame, time.perf_counter() - start, first)
                    raise
                self._leave(frame, time.perf_counter() - start, first)
                first = False
                yield item
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, package) -> list:
        """Wrap every entry of WRAPPED; returns the rebound (module, name)s."""
        modules = {name: getattr(package, name) for name in
                   ("cli", "util", "logic", "regtree", "boost", "hybrid",
                    "rctbn", "dbn", "metrics")}
        rebound = []
        for mod_name, attr, kind in WRAPPED:
            key = f"{mod_name}.{attr}"
            module = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap_function(key, original, kind == "span"))
                rebound.append((f"{mod_name}.{cls_name}", meth))
                continue
            original = getattr(module, attr)
            wrapper = (self._wrap_generator(key, original)
                       if inspect.isgeneratorfunction(original)
                       else self._wrap_function(key, original, kind == "span"))
            for other_name, other in modules.items():
                for name, value in list(vars(other).items()):
                    if value is original:
                        self._patched.append((other, name, original))
                        setattr(other, name, wrapper)
                        rebound.append((other_name, name))
        return rebound

    def uninstall(self):
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()

    def reset(self):
        self.stats.clear()
        self.extra.clear()
        self.spans.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metrics of everything recorded since reset()."""
        s = self.stats
        calls = lambda k: s[k][0]
        total = lambda *ks: sum(s[k][1] for k in ks)
        own = lambda k: s[k][2]
        m = {
            "cli.read_s": total("cli._read"),
            "cli.write_s": total("util.atomic_write"),
            "cli.bytes_read": self.extra["cli.bytes_read"],
            "cli.bytes_written": self.extra["cli.bytes_written"],
            "cli.self_s": own("cli.main"),
            "logic.parse_s": total("logic.parse_schema", "logic.parse_facts",
                                   "logic.parse_examples", "logic.parse_modes"),
            "logic.factbase_builds": calls("logic.FactBase.__init__"),
            "logic.factbase_build_s": total("logic.FactBase.__init__"),
            "logic.facts_indexed": self.extra["logic.facts_indexed"],
            "logic.solutions_calls": calls("logic.solutions"),
            "logic.solutions_s": total("logic.solutions"),
            "regtree.enumerate_calls": calls("regtree.enumerate_tests"),
            "regtree.candidates": self.extra["regtree.candidates"],
            "regtree.enumerate_s": total("regtree.enumerate_tests"),
            "regtree.fit_calls": calls("regtree.fit_tree"),
            "regtree.fit_examples": self.extra["regtree.fit_examples"],
            "regtree.fit_self_s": own("regtree.fit_tree"),
            "regtree.splits": self.extra["regtree.splits"],
            "regtree.evaluate_calls": calls("regtree.evaluate"),
            "regtree.evaluate_s": total("regtree.evaluate"),
            "boost.train_self_s": own("boost.train"),
            "boost.predict_calls": calls("boost.predict"),
            "boost.predict_s": total("boost.predict"),
            "hybrid.train_self_s": own("hybrid.train_hybrid"),
            "hybrid.mixed_self_s": own("hybrid.train_mixed"),
            "hybrid.predict_calls": calls("hybrid.HybridModel.prob_of_truth")
            + calls("hybrid.MixedParentModel.predict"),
            "hybrid.predict_s": total("hybrid.HybridModel.prob_of_truth",
                                      "hybrid.MixedParentModel.predict"),
            "rctbn.sample_s": total("rctbn.forward_sample"),
            "rctbn.traj_parse_s": total("rctbn.parse_trajectories"),
            "rctbn.segment_calls": calls("rctbn.segment"),
            "rctbn.segments": self.extra["rctbn.segments"],
            "rctbn.segment_self_s": own("rctbn.segment"),
            "rctbn.train_self_s": own("rctbn.train_rctbn"),
            "rctbn.predict_s": total("rctbn.RctbnModel.phi"),
            "dbn.parse_s": total("dbn.parse_dataset"),
            "dbn.family_score_calls": calls("dbn.family_score"),
            "dbn.family_score_s": total("dbn.family_score"),
            "dbn.climb_self_s": own("dbn.hill_climb"),
            "dbn.steps": self.extra["dbn.steps"],
            "metrics.pairs": self.extra["metrics.pairs"],
            "metrics.auc_s": total("metrics.auc_roc"),
            "metrics.weighted_auc_s": total("metrics.weighted_auc_roc"),
            "metrics.confusion_s": total("metrics.confusion_report"),
        }
        m["regtree.split_accept_ratio"] = (m["regtree.splits"] / m["regtree.candidates"]
                                           if m["regtree.candidates"] else 0.0)
        return m


class _Hook:
    """Counts taken from a wrapped call's arguments or result."""

    def __init__(self, before=None, after=None):
        self._before, self._after = before, after

    def before(self, tracer, args, kwargs):
        return self._before(tracer, args, kwargs) if self._before else (args, kwargs)

    def after(self, tracer, result, args, kwargs):
        if self._after:
            self._after(tracer, result, args, kwargs)


def _count(name, amount):
    def after(tracer, result, args, kwargs):
        tracer.extra[name] += amount(result, args, kwargs)
    return after


def _fit_after(tracer, tree, args, kwargs):
    tracer.extra["regtree.fit_examples"] += len(args[0])
    tracer.extra["regtree.splits"] += tree.leaf_count() - 1


def _climb_before(tracer, args, kwargs):
    on_step = kwargs.get("on_step")

    def counted(*step):
        tracer.extra["dbn.steps"] += 1
        if on_step is not None:
            on_step(*step)
    return args, {**kwargs, "on_step": counted}


_HOOKS = {
    "cli._read": _Hook(after=_count("cli.bytes_read", lambda r, a, k: len(r.encode()))),
    "util.atomic_write": _Hook(after=_count("cli.bytes_written",
                                            lambda r, a, k: len(a[1].encode()))),
    "logic.FactBase.__init__": _Hook(after=_count("logic.facts_indexed",
                                                  lambda r, a, k: len(a[0]))),
    "regtree.enumerate_tests": _Hook(after=_count("regtree.candidates",
                                                  lambda r, a, k: len(r))),
    "regtree.fit_tree": _Hook(after=_fit_after),
    "rctbn.segment": _Hook(after=_count("rctbn.segments", lambda r, a, k: len(r))),
    "dbn.hill_climb": _Hook(before=_climb_before),
    "metrics.auc_roc": _Hook(after=_count("metrics.pairs",
                                          lambda r, a, k: len(a[0].pairs))),
}


def stale_bindings(package) -> list:
    """Module attributes still bound to an original that the installed
    tracer wrapped; empty when the patching is complete."""
    originals = {}
    for mod_name, attr, _kind in WRAPPED:
        if "." not in attr:
            fn = getattr(getattr(package, mod_name), attr)
            originals[id(getattr(fn, "__wrapped__", fn))] = f"{mod_name}.{attr}"
    stale = []
    for name, module in sys.modules.items():
        if not (name == package.__name__ or name.startswith(package.__name__ + ".")):
            continue
        if not isinstance(module, types.ModuleType):
            continue
        for attr, value in vars(module).items():
            if id(value) in originals:
                stale.append(f"{name}.{attr} -> {originals[id(value)]}")
    return stale
