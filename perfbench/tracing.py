"""Per-layer tracing of the wolstenholme package from outside it.

`Tracer.install()` wraps every public function of each layer module, the
`Prime` cache methods, `BiPolyZp.render` and every registered theorem runner,
and puts the wrapper in place of the original in every namespace that holds
it: `brute_sum` is bound in `oracle`, `verify` and `cli`, `binom` in several
modules.  Nothing under `src/` changes.

Calls are far too many for one span each (`Prime.weighted_row` runs about
nine million times in one identity sweep), so each wrapper folds its call
into per-function counters: calls, inclusive time, and self time, which is
the inclusive time minus the time of the traced calls it made.  Spans nest
on one stack, so a traced run must use a single worker thread.  The wrapper's
own cost is measured once by `calibrate()` and taken off the self times.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import statistics
import sys
import time
from types import SimpleNamespace

from .workloads import CLOSED_IDS, IDENTITY_IDS

LAYERS = ("modarith", "oracle", "closedforms", "general", "polyring",
          "identities", "expressions", "verify", "cli")
METHODS = {
    "modarith": ("Prime", ("__init__", "binom_row", "powers", "weighted_row")),
    "polyring": ("BiPolyZp", ("render",)),
}
CACHED = ("binom_row", "powers", "weighted_row")
THEOREM_IDS = CLOSED_IDS + IDENTITY_IDS
TIMED = {
    "identities": ("cancellation", "semi_symmetry", "transpose_binomial", "cong_general",
                   "comp_sides", "comp_general", "vandermonde"),
    "closedforms": ("power_sum", "ratio_single", "ratio_pair", "ratio_equal_offsets",
                    "product_pair_k", "product_pair", "triple_binomial", "triple_s1",
                    "triple_s2", "triple_general", "quick_case"),
    "general": ("multi_index_J", "coeff_extraction_sum", "esp_sum", "bounded_composition_sum"),
    "modarith": ("binom", "make_prime"),
    "oracle": ("brute_sum", "residue_matrix"),
    "polyring": ("poly_mul",),
    "expressions": ("parse_expression",),
}

# Every per-layer metric a traced run prints: (name, unit, better).
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{layer}.{fn}.{what}", unit, "lower")
       for layer, fns in TIMED.items() for fn in fns
       for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("modarith.weighted_row.calls", "count", "lower"),
        ("modarith.weighted_row.hit_ratio", "ratio", "higher"),
        ("modarith.binom_row.hit_ratio", "ratio", "higher"),
        ("modarith.powers.hit_ratio", "ratio", "higher"),
        ("modarith.cache_rows", "count", "lower"),
        ("oracle.brute_sum.ns_per_term", "ns", "lower"),
        ("polyring.poly_mul.coeff_products", "count", "lower"),
        ("polyring.symbolic_sum_table.self_s", "s", "lower"),
        ("polyring.symbolic_coeff_table.self_s", "s", "lower"),
        ("polyring.render.self_s", "s", "lower"),
    ]
    + [(f"verify.{tid}.ns_per_instance", "ns", "lower") for tid in THEOREM_IDS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


class Stats:
    """Counters of one traced function, summed over all its calls."""

    __slots__ = ("layer", "calls", "total", "self_time", "overhead", "work", "keys")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total = 0.0  # inclusive seconds
        self.self_time = 0.0  # inclusive minus traced children
        self.overhead = 0.0  # estimated wrapper cost inside self_time
        self.work = 0  # brute terms, coefficient products or grid instances
        self.keys: set = set()  # distinct cache keys (Prime cache methods)

    @property
    def self_s(self) -> float:
        return max(0.0, self.self_time - self.overhead)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stats] = {}
        self._stack: list[list[float]] = []
        self._undo: list = []
        self._originals: dict[int, object] = {}
        self._serial: dict[int, int] = {}  # id(Prime) -> construction number
        self._counter = itertools.count()
        self._row_hook, self._wrow_hook = self._cache_hooks()
        # hook -> wrapper seconds per call (inside its interval, charged to the caller)
        self._eps: dict = {None: (0.0, 0.0)}

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, stats: Stats, hook=None):
        stack = self._stack
        clock = time.perf_counter
        eps_in, eps_out = self._eps.get(hook, self._eps[None])

        def traced(*args, **kwargs):
            frame = [0.0, 0.0]  # traced child seconds, children's wrapper cost
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.total += dt
                stats.self_time += dt - frame[0]
                stats.overhead += eps_in + frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    parent[1] += eps_out
            if hook is not None:
                hook(stats, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _cache_hooks(self):
        """Hooks recording the cache key of Prime.binom_row(n) / powers(base)
        and of Prime.weighted_row(n, base), with the Prime told apart by its
        construction number."""
        serial = self._serial

        def row(stats, args, result):
            pr = args[0]
            stats.keys.add((serial.get(id(pr)), args[1] % pr.p))

        def wrow(stats, args, result):
            pr = args[0]
            stats.keys.add((serial.get(id(pr)), args[1], args[2] % pr.p))

        return row, wrow

    def _init_hook(self, stats: Stats, args, result) -> None:
        self._serial[id(args[0])] = next(self._counter)

    @staticmethod
    def _brute_hook(stats: Stats, args, result) -> None:
        spec = args[0]
        stats.work += len(spec.terms) * (spec.pr.p - len(spec.exclusions))

    @staticmethod
    def _poly_mul_hook(stats: Stats, args, result) -> None:
        f, g = args
        stats.work += sum(1 for c in f.coeffs if c) * len(g.coeffs)

    @staticmethod
    def _grid_hook(stats: Stats, args, result) -> None:
        stats.work += result[0]

    def calibrate(self, calls: int = 20_000, repeats: int = 7) -> None:
        """Measure the wrapper's cost per call: the part inside its own timed
        interval (inner) and the part its caller's interval absorbs (outer)."""
        probe = SimpleNamespace(p=7)

        def noop(*args):
            return None

        def loop(fn, args):
            for _ in range(calls):
                fn(*args)

        for hook, args in ((None, (probe, 3, 2)), (self._row_hook, (probe, 3)),
                           (self._wrow_hook, (probe, 3, 2))):
            inner, outer = [], []
            for _ in range(repeats):
                t0 = time.perf_counter()
                loop(noop, args)
                bare = time.perf_counter() - t0
                child, parent = Stats("probe"), Stats("probe")
                self._wrap(loop, parent)(self._wrap(noop, child, hook), args)
                inner.append(child.self_time / calls)
                outer.append((parent.self_time - bare) / calls)
            self._eps[hook] = (statistics.median(inner), max(0.0, statistics.median(outer)))

    # -- install --------------------------------------------------------------

    def _targets(self, package):
        """(stats name, layer, original, hook) for everything traced."""
        hooks = {"oracle.brute_sum": self._brute_hook, "polyring.poly_mul": self._poly_mul_hook}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    key = f"{layer}.{name}"
                    yield key, layer, obj, hooks.get(key)
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            hooks = {"__init__": self._init_hook, "binom_row": self._row_hook,
                     "powers": self._row_hook, "weighted_row": self._wrow_hook}
            for meth in methods:
                yield f"{layer}.{cls_name}.{meth}", layer, vars(cls)[meth], hooks.get(meth)

    def install(self, package: str = "wolstenholme") -> None:
        wrappers: dict[int, object] = {}
        for key, layer, fn, hook in self._targets(package):
            stats = self.stats.setdefault(key, Stats(layer))
            wrappers[id(fn)] = self._wrap(fn, stats, hook)
            self._originals[id(fn)] = fn
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            for meth in methods:
                self._set(cls, meth, wrappers[id(vars(cls)[meth])])
        for ns in self._namespaces(package):
            for name, value in list(vars(ns).items()):
                if id(value) in wrappers and self._originals[id(value)] is value:
                    self._set(ns, name, wrappers[id(value)])
        registry = sys.modules[f"{package}.verify"].REGISTRY
        for tid, thm in list(registry.items()):
            stats = self.stats.setdefault(f"verify.{tid}", Stats("verify"))
            registry[tid] = dataclasses.replace(
                thm, run=self._wrap(thm.run, stats, self._grid_hook))
            self._undo.append(lambda tid=tid, thm=thm: registry.__setitem__(tid, thm))

    def _set(self, ns, name: str, value) -> None:
        old = vars(ns)[name]
        setattr(ns, name, value)
        self._undo.append(lambda: setattr(ns, name, old))

    @staticmethod
    def _namespaces(package: str):
        return [mod for name, mod in sys.modules.items()
                if name == package or name.startswith(package + ".")]

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def unpatched(self, package: str = "wolstenholme") -> list[str]:
        """Places that still hold an original function after install():
        module attributes and the items of module-level containers."""
        originals = self._originals
        found = []
        for ns in self._namespaces(package):
            for name, value in vars(ns).items():
                if name.startswith("__"):
                    continue
                items = [(name, value)]
                if isinstance(value, dict):
                    items += [(f"{name}[{k!r}]", v) for k, v in value.items()]
                elif isinstance(value, (list, tuple)):
                    items += [(f"{name}[{i}]", v) for i, v in enumerate(value)]
                found += [f"{ns.__name__}.{where}" for where, v in items
                          if id(v) in originals and originals[id(v)] is v]
        return found

    def missing(self, expect) -> list[str]:
        """Expected layers or functions that recorded no call."""
        def calls(prefix):
            return sum(st.calls for key, st in self.stats.items()
                       if key == prefix or key.startswith(prefix + "."))
        return [name for name in expect if calls(name) == 0]

    # -- metrics --------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        st = self.stats
        empty = Stats("")

        def get(key):
            return st.get(key, empty)

        def hit_ratio(key):
            s = get(key)
            return 1 - len(s.keys) / s.calls if s.calls else 0.0

        out = {f"{layer}.self_s": sum(s.self_s for s in st.values() if s.layer == layer)
               for layer in LAYERS}
        for layer, fns in TIMED.items():
            for fn in fns:
                out[f"{layer}.{fn}.calls"] = get(f"{layer}.{fn}").calls
                out[f"{layer}.{fn}.self_s"] = get(f"{layer}.{fn}").self_s
        brute, mul = get("oracle.brute_sum"), get("polyring.poly_mul")
        out.update({
            "modarith.weighted_row.calls": get("modarith.Prime.weighted_row").calls,
            "modarith.weighted_row.hit_ratio": hit_ratio("modarith.Prime.weighted_row"),
            "modarith.binom_row.hit_ratio": hit_ratio("modarith.Prime.binom_row"),
            "modarith.powers.hit_ratio": hit_ratio("modarith.Prime.powers"),
            "modarith.cache_rows": sum(len(get(f"modarith.Prime.{m}").keys) for m in CACHED),
            "oracle.brute_sum.ns_per_term": brute.total / brute.work * 1e9 if brute.work else 0.0,
            "polyring.poly_mul.coeff_products": mul.work,
            "polyring.symbolic_sum_table.self_s": get("polyring.symbolic_sum_table").self_s,
            "polyring.symbolic_coeff_table.self_s": get("polyring.symbolic_coeff_table").self_s,
            "polyring.render.self_s": get("polyring.BiPolyZp.render").self_s,
        })
        for tid in THEOREM_IDS:
            s = get(f"verify.{tid}")
            out[f"verify.{tid}.ns_per_instance"] = s.total / s.work * 1e9 if s.work else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out
