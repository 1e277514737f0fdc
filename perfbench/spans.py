"""In-memory span tracing of the stabcert package, installed from outside.

`Tracer.install()` replaces every public function of every loaded
``stabcert.*`` module with a timing wrapper, at each module attribute that
refers to it.  Callers look these names up at call time (``weakobs`` calls
``observability_gramian`` through its own module globals), so nested calls
become child spans.  The ``expm`` name that package modules import is
replaced by a bare call counter.  `uninstall()` restores every attribute.

A span is ``(name, start, end, parent_index)``.  Spans of one job are kept
in memory until `end_job()` folds them into per-layer totals: a span's self
time is its duration minus the durations of its direct children (calls are
single-threaded, so children never overlap).
"""

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "stabcert"

# spans whose inclusive time is reported on its own, by metric group
_FUNCTION_GROUPS = {
    "semigroup.observability_gramian": "gramian",
    "semigroup.observation_energy": "energy",
    "semigroup.transition_matrix": "transition",
    "feedback.closed_loop_rate": "rate",
    "feedback.concatenated_control": "steer",
    "feedback.min_norm_eps_null": "steer",
    "feedback.solve_shifted_riccati": "riccati",
}


def _system_key(system, horizon):
    return (system.a_matrix.tobytes(), system.b_matrix.tobytes(),
            float(horizon))


def _on_gramian(tracer, args, kwargs, result):
    system = args[0] if args else kwargs["sys"]
    horizon = args[1] if len(args) > 1 else kwargs["horizon"]
    tracer.job_gramian_keys.add(_system_key(system, horizon))


def _on_check(tracer, args, kwargs, result):
    if result.status in ("certified", "refuted"):
        tracer.counts["weakobs.certs_decided"] += 1


_RESULT_HOOKS = {
    "semigroup.observability_gramian": _on_gramian,
    "weakobs.check_certificate": _on_check,
}


class Tracer:
    """Span recorder plus the per-layer totals folded from its spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.job_gramian_keys = set()
        self.jobs = 0
        self.wall_s = 0.0
        self.span_calls = Counter()          # by span name
        self.counts = Counter()              # counters kept by hooks
        self.self_s = defaultdict(float)     # by layer (module)
        self.layer_outer_s = defaultdict(float)  # outermost spans per layer
        self.group_s = defaultdict(float)    # by _FUNCTION_GROUPS value
        self.group_self_s = defaultdict(float)
        self.distinct_gramians = 0

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        hook = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _count_expm(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["semigroup.expm_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        from scipy.linalg import expm

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        replacements = {id(expm): (expm, self._count_expm(expm))}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    replacements[id(fn)] = (fn, self._wrap(fn,
                                                           f"{layer}.{attr}"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    # -- per-job folding --------------------------------------------------

    def begin_job(self):
        self.spans.clear()
        self.job_gramian_keys.clear()

    def end_job(self, wall):
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        ancestors = []                 # layers above each span
        for i, (name, start, end, parent) in enumerate(spans):
            layer = name.partition(".")[0]
            above = (ancestors[parent] | {spans[parent][0].partition(".")[0]}
                     if parent >= 0 else frozenset())
            ancestors.append(above)
            dur = end - start
            self_time = dur - child[i]
            self.span_calls[name] += 1
            self.self_s[layer] += self_time
            if layer not in above:
                self.layer_outer_s[layer] += dur
            group = _FUNCTION_GROUPS.get(name)
            if group is not None:
                self.group_s[group] += dur
                self.group_self_s[group] += self_time
        self.distinct_gramians += len(self.job_gramian_keys)
        self.jobs += 1
        self.wall_s += wall
        self.spans.clear()

    def calls(self, prefix):
        """Calls of every span whose name starts with `prefix`."""
        return sum(c for name, c in self.span_calls.items()
                   if name.startswith(prefix))
