"""Per-layer tracing for the microlie benchmark.

The layers are the modules of the package, named in ``LAYERS``.
:meth:`Tracer.install` wraps every public function and every public method
(dunder methods and property getters included) of every module.  A wrapped
call counts its calls, its total time and its self time: its duration minus
the time covered by the wrapped calls it makes.  A layer's self time is the sum of the self
times of its functions, so private helpers count towards the public
function of their module that called them.

Functions of the upper layers (``UPPER_LAYERS``) also record spans
(name, start, end, parent span), kept in memory and written out at the end
of a traced run.  The hot leaf kernels run hundreds of thousands of times
per call, so they only feed the counters.

Modules re-bind functions by name (``from .groupoids import star``), so a
wrapper replaces the function in every ``microlie`` namespace that binds
it, and :meth:`Tracer.install` fails if any unwrapped alias is left.
Methods are wrapped once, on the class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types
from collections import defaultdict

LAYERS = ("weil", "poly", "matrices", "groupoids", "spaces", "liealg", "oracles", "vfexpr", "harness", "cli")
UPPER_LAYERS = frozenset({"liealg", "oracles", "vfexpr", "harness", "cli"})
SUITE_IDS = ("flows", "module", "bracket", "liederiv", "strongdiff", "jacobi2", "oracle")
MAX_SPANS = 100_000

# Methods that are part of object construction or attribute access, not of
# the program's work; wrapping them would only add noise.
_UNTRACED_METHODS = frozenset(
    {
        "__setattr__",
        "__delattr__",
        "__getattribute__",
        "__getattr__",
        "__new__",
        "__init_subclass__",
        "__subclasshook__",
        "__class_getitem__",
    }
)
_SCALAR_ONLY = frozenset({frozenset()})

# (metric name, unit, better); values come from Tracer.metrics().
PER_LAYER = (
    ("weil.mul.calls", "count", "lower"),
    ("weil.mul.self_s", "s", "lower"),
    ("weil.mul.pair_yield", "ratio", "higher"),
    ("weil.add.calls", "count", "lower"),
    ("weil.add.self_s", "s", "lower"),
    ("weil.domain_eq.calls", "count", "lower"),
    ("weil.domain_eq.self_s", "s", "lower"),
    ("weil.substitute.calls", "count", "lower"),
    ("weil.inverse.calls", "count", "lower"),
    ("weil.self_s", "s", "lower"),
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.self_s", "s", "lower"),
    ("poly.compose.calls", "count", "lower"),
    ("poly.compose.self_s", "s", "lower"),
    ("poly.compose.peak_terms", "count", "lower"),
    ("poly.scalar_coeff_frac", "ratio", "lower"),
    ("poly.evaluate.calls", "count", "lower"),
    ("poly.self_s", "s", "lower"),
    ("matrices.mul.calls", "count", "lower"),
    ("matrices.mul.self_s", "s", "lower"),
    ("matrices.q_inverse.calls", "count", "lower"),
    ("matrices.q_inverse.self_s", "s", "lower"),
    ("matrices.w_inverse.calls", "count", "lower"),
    ("matrices.self_s", "s", "lower"),
    ("groupoids.star.calls", "count", "lower"),
    ("groupoids.star.self_s", "s", "lower"),
    ("groupoids.section_at.calls", "count", "lower"),
    ("groupoids.section_at.self_s", "s", "lower"),
    ("groupoids.formal_inverse.calls", "count", "lower"),
    ("groupoids.formal_inverse.self_s", "s", "lower"),
    ("groupoids.formal_inverse.newton_rounds", "count", "lower"),
    ("groupoids.invert_bisection.calls", "count", "lower"),
    ("groupoids.chart.self_s", "s", "lower"),
    ("groupoids.self_s", "s", "lower"),
    ("spaces.strong_difference.calls", "count", "lower"),
    ("spaces.relative_strong_difference.calls", "count", "lower"),
    ("spaces.relative_strong_difference_curried.calls", "count", "lower"),
    ("spaces.self_s", "s", "lower"),
    ("liealg.bracket.calls", "count", "lower"),
    ("liealg.bracket.self_s", "s", "lower"),
    ("liealg.lie_derivative.self_s", "s", "lower"),
    ("liealg.bracket_via_strong_difference.self_s", "s", "lower"),
    ("liealg.six_microcubes.self_s", "s", "lower"),
    ("liealg.pushforward.self_s", "s", "lower"),
    ("liealg.self_s", "s", "lower"),
    ("oracles.self_s", "s", "lower"),
    ("vfexpr.parse.self_s", "s", "lower"),
    ("vfexpr.format.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    *((f"harness.suite.{suite}.s", "s", "lower") for suite in SUITE_IDS),
    ("harness.gen.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Metric stem -> the wrapped functions whose counters it sums.
_FUNCTIONS = {
    "weil.mul": ("weil.WeilElement.__mul__",),
    "weil.add": ("weil.WeilElement.__add__",),
    "weil.domain_eq": ("weil.InfinitesimalDomain.__eq__",),
    "weil.substitute": ("weil.WeilElement.substitute",),
    "weil.inverse": ("weil.WeilElement.inverse",),
    "poly.mul": ("poly.Poly.__mul__",),
    "poly.compose": ("poly.Poly.compose",),
    "poly.evaluate": ("poly.Poly.evaluate",),
    "matrices.mul": ("matrices.mul",),
    "matrices.q_inverse": ("matrices.q_inverse",),
    "matrices.w_inverse": ("matrices.w_inverse",),
    "groupoids.star": ("groupoids.star",),
    "groupoids.section_at": ("groupoids.section_at",),
    "groupoids.formal_inverse": ("groupoids.formal_inverse",),
    "groupoids.invert_bisection": ("groupoids.invert_bisection",),
    "spaces.strong_difference": ("spaces.strong_difference",),
    "spaces.relative_strong_difference": ("spaces.relative_strong_difference",),
    "spaces.relative_strong_difference_curried": ("spaces.relative_strong_difference_curried",),
    "liealg.bracket": ("liealg.bracket",),
    "liealg.lie_derivative": ("liealg.lie_derivative",),
    "liealg.bracket_via_strong_difference": ("liealg.bracket_via_strong_difference",),
    "liealg.six_microcubes": ("liealg.six_microcubes",),
    "liealg.pushforward": ("liealg.pushforward",),
    "vfexpr.parse": ("vfexpr.parse_vector_field", "vfexpr.parse_component"),
    "vfexpr.format": ("vfexpr.format_vector_field", "vfexpr.format_poly"),
    "harness.gen": ("harness.LawEnv.triple", "harness.LawEnv.rng", "harness.generate"),
}


class UntracedAliasError(RuntimeError):
    """A traced function is still reachable through an unwrapped name."""


class _Stat:
    __slots__ = ("layer", "calls", "total", "self_time")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


def _is_traced_method(name: str) -> bool:
    if name in _UNTRACED_METHODS:
        return False
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


class Tracer:
    """Counters and spans for one traced run; create, install, run, read."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.frames: list[list] = []  # [child time, key] per active wrapped call
        self.spans: list[tuple[str, float, float, int]] = []
        self.span_stack: list[int] = []
        self.dropped_spans = 0
        self.origin = time.perf_counter()
        self._wrappers: dict[types.FunctionType, types.FunctionType] = {}
        self._wrapper_set: set[types.FunctionType] = set()
        self._classes: list[type] = []
        # counters recorded by the hooks below
        self.mul_pairs = 0
        self.mul_terms = 0
        self.product_coeffs = 0
        self.product_scalar_coeffs = 0
        self.compose_depth = 0
        self.compose_peak = 0
        self.newton_rounds = 0
        self.suite_time = dict.fromkeys(SUITE_IDS, 0.0)
        self._suite: str | None = None
        self._suite_start = 0.0

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, fn: types.FunctionType, key: str, layer: str) -> types.FunctionType:
        hook = self._HOOKS.get(key)
        inner = hook(self, fn) if hook else fn
        stat = self.stats.setdefault(key, _Stat(layer))
        frames = self.frames
        clock = time.perf_counter

        if layer in UPPER_LAYERS:
            spans, span_stack = self.spans, self.span_stack

            def wrapper(*args, **kwargs):
                frame = [0.0, key]
                frames.append(frame)
                parent = span_stack[-1] if span_stack else -1
                sid = len(spans)
                if sid < MAX_SPANS:
                    spans.append((key, 0.0, 0.0, parent))
                else:
                    self.dropped_spans += 1
                    sid = parent
                span_stack.append(sid)
                start = clock()
                try:
                    return inner(*args, **kwargs)
                finally:
                    end = clock()
                    elapsed = end - start
                    span_stack.pop()
                    if sid != parent:
                        spans[sid] = (key, start - self.origin, end - self.origin, parent)
                    frames.pop()
                    stat.calls += 1
                    stat.total += elapsed
                    stat.self_time += elapsed - frame[0]
                    if frames:
                        frames[-1][0] += elapsed

        else:

            def wrapper(*args, **kwargs):
                frame = [0.0, key]
                frames.append(frame)
                start = clock()
                try:
                    return inner(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    frames.pop()
                    stat.calls += 1
                    stat.total += elapsed
                    stat.self_time += elapsed - frame[0]
                    if frames:
                        frames[-1][0] += elapsed

        functools.update_wrapper(wrapper, fn)
        self._wrappers[fn] = wrapper
        self._wrapper_set.add(wrapper)
        return wrapper

    def _wrap_class(self, cls: type, layer: str) -> None:
        self._classes.append(cls)
        for name, attr in list(vars(cls).items()):
            if not _is_traced_method(name):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, types.FunctionType):
                setattr(cls, name, self._wrap(attr, key, layer))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(attr.__func__, key, layer)))
            elif isinstance(attr, property) and attr.fget is not None:
                getter = self._wrap(attr.fget, key, layer)
                setattr(cls, name, property(getter, attr.fset, attr.fdel, attr.__doc__))

    @staticmethod
    def _namespaces() -> list[types.ModuleType]:
        return [m for n, m in sys.modules.items() if n == "microlie" or n.startswith("microlie.")]

    def install(self) -> None:
        """Wrap the public functions and methods of every module, then check for strays.

        Modules missing from LAYERS are wrapped too, so that their time does
        not count as self time of their callers.
        """
        package = importlib.import_module("microlie")
        for info in pkgutil.iter_modules(package.__path__):
            if info.name == "__main__":  # importing it runs the CLI
                continue
            layer = info.name
            module = importlib.import_module(f"microlie.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    self._wrap(obj, f"{layer}.{name}", layer)
                elif isinstance(obj, type):
                    self._wrap_class(obj, layer)
        for module in self._namespaces():
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in self._wrappers:
                    setattr(module, name, self._wrappers[obj])
        self.check_complete()

    def check_complete(self) -> None:
        """Raise if a traced function is reachable through a name left unwrapped."""
        strays = []
        for module in self._namespaces():
            for name, obj in vars(module).items():
                if isinstance(obj, types.FunctionType) and obj in self._wrappers:
                    strays.append(f"{module.__name__}.{name}")
        for cls in self._classes:
            for name, attr in vars(cls).items():
                if not _is_traced_method(name):
                    continue
                if isinstance(attr, (classmethod, staticmethod)):
                    attr = attr.__func__
                elif isinstance(attr, property):
                    attr = attr.fget
                if isinstance(attr, types.FunctionType) and attr not in self._wrapper_set:
                    strays.append(f"{cls.__module__}.{cls.__qualname__}.{name}")
        if strays:
            raise UntracedAliasError(f"unwrapped aliases of traced functions: {sorted(strays)}")

    # -- hooks: counters measured where the work happens ----------------------------

    def _hook_weil_mul(self, fn):
        def mul(a, b):
            out = fn(a, b)
            if type(b) is type(a):
                self.mul_pairs += len(a.coeffs) * len(b.coeffs)
                self.mul_terms += len(out.coeffs)
            return out

        return mul

    def _hook_poly_mul(self, fn):
        def mul(a, b):
            out = fn(a, b)
            if type(b) is type(a):
                terms = out.terms
                self.product_coeffs += len(terms)
                self.product_scalar_coeffs += sum(1 for c in terms.values() if c.coeffs.keys() <= _SCALAR_ONLY)
                if self.compose_depth and len(terms) > self.compose_peak:
                    self.compose_peak = len(terms)
            return out

        return mul

    def _hook_poly_compose(self, fn):
        def compose(poly, args):
            self.compose_depth += 1
            try:
                out = fn(poly, args)
            finally:
                self.compose_depth -= 1
            self.compose_peak = max(self.compose_peak, len(out.terms))
            return out

        return compose

    def _hook_compose_map(self, fn):
        frames = self.frames

        def compose_map(*args, **kwargs):
            # frames[-1] is compose_map's own frame; frames[-2] is its caller
            if len(frames) > 1 and frames[-2][1] == "groupoids.formal_inverse":
                self.newton_rounds += 1
            return fn(*args, **kwargs)

        return compose_map

    def _switch_suite(self, suite: str | None) -> None:
        now = time.perf_counter()
        if self._suite in self.suite_time:
            self.suite_time[self._suite] += now - self._suite_start
        self._suite, self._suite_start = suite, now

    def _hook_law_env_init(self, fn):
        # run_suite builds one LawEnv per suite before running its laws
        def init(env, *args, **kwargs):
            fn(env, *args, **kwargs)
            self._switch_suite(env.suite)

        return init

    def _hook_run_suite(self, fn):
        def run_suite(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self._switch_suite(None)

        return run_suite

    _HOOKS = {
        "weil.WeilElement.__mul__": _hook_weil_mul,
        "poly.Poly.__mul__": _hook_poly_mul,
        "poly.Poly.compose": _hook_poly_compose,
        "poly.compose_map": _hook_compose_map,
        "harness.LawEnv.__init__": _hook_law_env_init,
        "harness.run_suite": _hook_run_suite,
    }

    # -- read-out ---------------------------------------------------------------------

    def _sum(self, stem: str, field: str) -> float:
        return sum(getattr(self.stats[k], field) for k in _FUNCTIONS[stem] if k in self.stats)

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric in PER_LAYER, by name."""
        layer_self: dict[str, float] = defaultdict(float)
        chart_self = 0.0
        for key, stat in self.stats.items():
            layer_self[stat.layer] += stat.self_time
            if key.startswith("groupoids.SectionChart."):
                chart_self += stat.self_time
        inverses = self._sum("groupoids.formal_inverse", "calls")
        values: dict[str, float] = {}
        for name, _unit, _better in PER_LAYER:
            stem, _, field = name.rpartition(".")
            if field == "calls":
                values[name] = self._sum(stem, "calls")
            elif field == "self_s" and stem in _FUNCTIONS:
                values[name] = self._sum(stem, "self_time")
            elif field == "self_s" and stem in LAYERS:
                values[name] = layer_self[stem]
        values.update(
            {
                "weil.mul.pair_yield": self.mul_terms / self.mul_pairs if self.mul_pairs else 0.0,
                "poly.compose.peak_terms": self.compose_peak,
                "poly.scalar_coeff_frac": (
                    self.product_scalar_coeffs / self.product_coeffs if self.product_coeffs else 0.0
                ),
                "groupoids.formal_inverse.newton_rounds": self.newton_rounds / inverses if inverses else 0.0,
                "groupoids.chart.self_s": chart_self,
                "trace.overhead_ratio": overhead_ratio,
            }
        )
        values.update({f"harness.suite.{s}.s": t for s, t in self.suite_time.items()})
        return {name: values[name] for name, _unit, _better in PER_LAYER}

    def record(self) -> dict:
        """Spans and per-function counters, for writing out after a run."""
        return {
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
            "function_fields": ["calls", "total_s", "self_s"],
            "functions": {k: [s.calls, s.total, s.self_time] for k, s in sorted(self.stats.items())},
        }
