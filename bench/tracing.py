"""Per-layer tracing for the traced benchmark run.

Everything here wraps the engine from outside; nothing under ``src/`` is
edited.  Three sources feed the per-layer metrics:

* Spans, recorded by wrappers around the public functions at each layer
  boundary (``SPANNED`` plus ``checks.relation_residual`` and
  ``checks.residual_on_key``).  A span is (id, command, name, start, end,
  parent, info); ``command`` is the index of the CLI command in the
  workload, so all spans of one command share it.
* cProfile, for exact call counts of fine-grained ``core``/``expr``
  functions (counted, not spanned) and for self time per module.  Each
  ``checks`` pool task gets a profiler of its own, because a profiler
  only sees the thread that enabled it.
* ``GradedMap`` cache sizes, for the ``on_key`` hit ratio.

Self time accounting.  A builtin's self time goes to the module that
called it.  Pool workers are profiled by wall clock while they also wait
for the interpreter lock, so each task's times are scaled by its
``thread_time`` / wall ratio; the main thread's wait for the pool (lock
acquires) is reported as ``checks.pool_wait_s`` and left out of the sum,
because the workers' time covers that interval.  What the buckets do not
cover is ``trace.other_s``.
"""

import cProfile
import gc
import itertools
import os
import pstats
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Module self-time buckets.  "trace" is this benchmark's own code,
# "stdlib" every other module except fractions.
LAYERS = ("cli", "core", "expr", "checks", "structures", "models", "double",
          "gysin", "reportio", "fractions", "stdlib", "trace")

SPANNED = {
    "cli": ("main",),
    "models": ("builtin_model",),
    "reportio": ("load_instance", "save_instance", "report_document",
                 "render_document", "write_report"),
    "structures": ("check_structure",),
    "double": ("build_double_data",),
    "gysin": ("canonical_gysin", "check_lie_bialgebra"),
}

# metric -> functions whose profiled call counts are summed
COUNTED = {
    "core.element_inits": (("core", "Element.__init__"),),
    "core.element_ops": (("core", "Element.__add__"), ("core", "Element.scale"),
                         ("core", "Element.tensor")),
    "core.map_applies": (("core", "GradedMap.__call__"),),
    "core.on_key_calls": (("core", "GradedMap.on_key"),),
    "core.spaces_key_calls": (("core", "_spaces_key"),),
    "expr.evaluate_calls": (("expr", "evaluate"),),
    "expr.typing_calls": (("expr", "source_arity"), ("expr", "target_arity"),
                          ("expr", "infer_degree"), ("expr", "resolve_spaces"),
                          ("expr", "_infer_source_spaces")),
    "double.dual_map_calls": (("double", "dual_map"),),
}

# metric -> function whose profiled cumulative time is reported
CUMULATIVE = {
    "expr.parse_s": ("expr", "parse"),
    "structures.catalog_s": ("structures", "builtin_relation"),
    "structures.applicability_s": ("structures", "is_applicable"),
}

# metric -> span names whose durations are summed
SPAN_SUMS = {
    "models.build_s": ("models.builtin_model",),
    "double.build_s": ("double.build_double_data",),
    "gysin.construct_s": ("gysin.canonical_gysin",),
    "gysin.check_s": ("gysin.check_lie_bialgebra",),
    "reportio.report_s": ("reportio.report_document", "reportio.render_document",
                          "reportio.write_report"),
    "reportio.instance_io_s": ("reportio.load_instance", "reportio.save_instance"),
}


def _code_key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _layer_of(filename):
    path = os.path.abspath(filename)
    if path.startswith(BENCH_DIR + os.sep):
        return "trace"
    parent, base = os.path.split(path)
    stem = base[:-3] if base.endswith(".py") else base
    if os.path.basename(parent) == "gradedbv" and stem in LAYERS:
        return stem
    if stem == "fractions":
        return "fractions"
    return "stdlib"


class Tracer:
    """Spans, counters and profiles of one traced child process."""

    def __init__(self):
        self.spans = []
        self.command = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._relation = None          # span id of the open relation_residual
        self._main_profile = cProfile.Profile()
        self._task_profiles = []       # (profile, thread_time / wall)
        self._maps = weakref.WeakSet()
        self._retired_entries = 0
        self._lock = threading.Lock()
        self._keys = {}

    def start(self):
        self._main_profile.enable()

    # -- instrumentation ----------------------------------------------------

    def instrument(self):
        """Wrap the engine's layer boundaries; call once, after import."""
        import gradedbv.checks as checks
        import gradedbv.core as core
        modules = {name: sys.modules["gradedbv." + name]
                   for name in ("cli", "core", "expr", "checks", "structures",
                                "models", "double", "gysin", "reportio")}
        for metric_fns in list(COUNTED.values()) + [(v,) for v in CUMULATIVE.values()]:
            for mod, qualname in metric_fns:
                obj = modules[mod]
                for part in qualname.split("."):
                    obj = getattr(obj, part)
                self._keys[(mod, qualname)] = _code_key(obj)

        for mod, names in SPANNED.items():
            for name in names:
                original = getattr(modules[mod], name)
                self._replace(original, self._spanned(mod + "." + name, original))
        self._replace(checks.relation_residual,
                      self._relation_span(checks.relation_residual))
        self._replace(checks.residual_on_key,
                      self._key_span(checks.residual_on_key))

        tracer = self

        class ProfiledPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._profiled_task, fn, *args, **kwargs)

        checks.ThreadPoolExecutor = ProfiledPool

        original_init = core.GradedMap.__init__

        def init(gmap, *args, **kwargs):
            original_init(gmap, *args, **kwargs)
            self._maps.add(gmap)
            weakref.finalize(gmap, self._retire, gmap._cache)

        core.GradedMap.__init__ = init

    @staticmethod
    def _replace(original, replacement):
        """Rebind ``original`` in every gradedbv module that imported it."""
        for name, module in list(sys.modules.items()):
            if name != "gradedbv" and not name.startswith("gradedbv."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        # a pool worker starts with an empty stack: its parent is the relation
        parent = stack[-1] if stack else self._relation
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, info=None):
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((sid, self.command, name, start, end, parent, info))

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
        return wrapper

    def _relation_span(self, fn):
        def wrapper(spec, *args, **kwargs):
            sid, parent = self._open()
            self._relation = sid
            info = {"relation": spec.rid, "threads": kwargs.get("threads", 1)}
            start = time.perf_counter()
            try:
                report = fn(spec, *args, **kwargs)
                info.update(tuples=report.tuples_checked,
                            witnesses=len(report.witnesses))
                return report
            finally:
                self._relation = None
                self._close(sid, parent, "checks.relation_residual", start, info)
        return wrapper

    def _key_span(self, fn):
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, "checks.residual_on_key", start,
                            {"cpu": time.thread_time() - cpu})
        return wrapper

    def _profiled_task(self, fn, *args, **kwargs):
        profile = cProfile.Profile()
        cpu = time.thread_time()
        wall = time.perf_counter()
        profile.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            profile.disable()
            wall = time.perf_counter() - wall
            cpu = time.thread_time() - cpu
            with self._lock:
                self._task_profiles.append((profile, cpu / wall if wall > 0 else 1.0))

    def _retire(self, cache):
        with self._lock:
            self._retired_entries += len(cache)

    # -- results ------------------------------------------------------------

    def finish(self, t_start, t_end):
        """Stop profiling; return the metrics of this process and its spans."""
        self._main_profile.disable()
        gc.collect()
        with self._lock:
            cache_entries = self._retired_entries + sum(
                len(m._cache) for m in list(self._maps))

        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = {}
        cumulative = {}
        wait_s = 0.0
        profiles = [(self._main_profile, 1.0, True)] + [
            (p, scale, False) for p, scale in self._task_profiles]
        for profile, scale, is_main in profiles:
            for key, (_, nc, tt, ct, callers) in pstats.Stats(profile).stats.items():
                calls[key] = calls.get(key, 0) + nc
                cumulative[key] = cumulative.get(key, 0.0) + ct * scale
                if key[0] != "~":
                    self_s[_layer_of(key[0])] += tt * scale
                elif is_main and "acquire" in key[2] and "lock" in key[2]:
                    wait_s += tt
                else:
                    attributed = 0.0
                    for caller, (_, _, ctt, _) in callers.items():
                        layer = "stdlib" if caller[0] == "~" else _layer_of(caller[0])
                        self_s[layer] += ctt * scale
                        attributed += ctt
                    self_s["stdlib"] += max(0.0, tt - attributed) * scale

        metrics = {}
        for metric, fns in COUNTED.items():
            metrics[metric] = sum(calls.get(self._keys[f], 0) for f in fns)
        for metric, fn in CUMULATIVE.items():
            metrics[metric] = cumulative.get(self._keys[fn], 0.0)
        on_key = metrics["core.on_key_calls"]
        metrics["core.on_key_hit_ratio"] = (
            1.0 - cache_entries / on_key if on_key else 0.0)

        durations = {}
        relations = {}
        pooled = set()
        pooled_s = 0.0
        witnesses = tuples = 0
        for sid, _, name, start, end, _, info in self.spans:
            durations[name] = durations.get(name, 0.0) + (end - start)
            if name == "checks.relation_residual":
                rid = info["relation"]
                relations[rid] = relations.get(rid, 0.0) + (end - start)
                witnesses += info.get("witnesses", 0)
                tuples += info.get("tuples", 0)
                # same condition as checks.relation_residual uses to pool
                if info["threads"] > 1 and info.get("tuples", 0) >= 32:
                    pooled.add(sid)
                    pooled_s += end - start
        key_evals = 0
        pooled_cpu = 0.0
        for _, _, name, _, _, parent, info in self.spans:
            if name == "checks.residual_on_key":
                key_evals += 1
                if parent in pooled:
                    pooled_cpu += info["cpu"]
        for metric, names in SPAN_SUMS.items():
            metrics[metric] = sum(durations.get(n, 0.0) for n in names)
        metrics.update({
            "checks.residual_s": durations.get("checks.relation_residual", 0.0),
            "checks.key_evals": key_evals,
            "checks.witnesses": witnesses,
            "checks.tuples_checked": tuples,
            "checks.pooled_s": pooled_s,
            "checks.pool_speedup": pooled_cpu / pooled_s if pooled_s else 0.0,
            "checks.pool_wait_s": wait_s,
        })
        for layer, seconds in self_s.items():
            metrics[layer + ".self_s"] = seconds
        wall = t_end - t_start
        metrics["trace.wall_s"] = wall
        metrics["trace.other_s"] = wall - sum(self_s.values())
        return {"metrics": metrics, "relations": relations,
                "spans": [list(s) for s in self.spans]}
