"""Span collector for the traced benchmark run, and per-layer metrics.

The traced run wraps the public functions of every pretentious layer at each
module attribute that holds them (``pretentious.meanvalues.values_upto`` and
``pretentious.funcspec.values_upto`` are the same function object, so both
names get the same wrapper). Callers look the name up at call time, so every
call is recorded and recursion nests. The untraced run installs no wrapper
(it uses only `WarningLog`); it runs the package as shipped.

A span is ``[name, start, end, parent, query, tag]``: perf_counter times
(CLOCK_MONOTONIC, so spans from child processes share the clock), the index
of the enclosing span or None, the benchmark query it belongs to, and a small
JSON value that the metric aggregation reads (array size, scan key, ...).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import threading
import time
import types
import warnings
from collections import defaultdict

LAYERS = (
    "arith",
    "characters",
    "funcspec",
    "pretension",
    "meanvalues",
    "sieve_experiments",
    "nearchar",
    "cli",
)

# Layer kernels reachable only through a private module-level name.
PRIVATE_KERNELS = {
    "sieve_experiments": ("_mass_from_classes", "_class_values"),
    "cli": ("_emit",),
}

# (module, class, attribute, span name) for methods of public classes.
METHODS = (
    ("arith", "PrimeTable", "__init__", "arith.PrimeTable"),
    ("pretension", "TwistObjective", "__init__", "pretension.objective.build"),
    ("pretension", "TwistObjective", "__call__", "pretension.objective.eval"),
    ("nearchar", "ApproxHomomorphism", "from_values", "nearchar.from_values"),
)

VALUES_FAMILIES = {
    "Mobius": "mobius",
    "Liouville": "liouville",
    "Threshold": "threshold",
    "Legendre": "legendre",
    "CharacterSpec": "char",
    "Twist": "twist",
    "Product": "product",
    "PrimeTableSpec": "table",
    "One": "one",
}


def _is_wrappable(obj, module_name: str) -> bool:
    if isinstance(obj, functools._lru_cache_wrapper):
        return getattr(obj, "__module__", None) == module_name
    return isinstance(obj, types.FunctionType) and obj.__module__ == module_name


class Tracer:
    """Records spans in memory; `install` swaps the wrappers in, `uninstall`
    puts the original objects back."""

    def __init__(self):
        self.spans: list[list] = []
        self.query: int | None = None
        self.enabled = True
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []
        self._spec_keys: dict[int, tuple[object, str]] = {}

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            elif tid != self._main:
                # a pool thread: its work belongs to the span the main thread
                # is blocked in (find_exceptional with workers > 1)
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            else:
                parent = None
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.query, None])
            stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[idx][2] = end
            self._stacks[threading.get_ident()].pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own code; yields its index."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, tag=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if tag is not None:
                tracer.spans[idx][5] = tag(tracer, args, kwargs, result)
            return result

        return wrapper

    def spec_key(self, spec) -> str:
        """Rendered spec, computed once per spec object (table specs with
        tens of thousands of entries are slow to render)."""
        hit = self._spec_keys.get(id(spec))
        if hit is None or hit[0] is not spec:
            hit = (spec, spec.render())
            self._spec_keys[id(spec)] = hit
        return hit[1]

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import pretentious

        modules = {name: importlib.import_module(f"pretentious.{name}") for name in LAYERS}
        holders = [pretentious] + [m for n, m in sys.modules.items()
                                   if n.startswith("pretentious.") and m is not None]
        targets: dict[int, tuple[object, str]] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") and attr not in PRIVATE_KERNELS.get(layer, ()):
                    continue
                if _is_wrappable(obj, mod.__name__):
                    targets[id(obj)] = (obj, f"{layer}.{attr.lstrip('_')}")
        wrappers = {key: self._wrap(obj, name, _TAGS.get(name))
                    for key, (obj, name) in targets.items()}
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._restore.append((holder, attr, obj))
                    setattr(holder, attr, w)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, _TAGS.get(name)))
            else:
                new = self._wrap(raw, name, _TAGS.get(name))
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._restore):
            setattr(holder, attr, obj)
        self._restore.clear()

    # -- persistence ------------------------------------------------------

    def dump(self, path, warning_records) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "warnings": warning_records}, fh)

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded in a child process, its root spans becoming
        children of the span this process is in."""
        main = self._stacks.get(self._main)
        parent = main[-1] if main else None
        base = len(self.spans)
        for name, start, end, par, _, tag in spans:
            self.spans.append([name, start, end, parent if par is None else par + base,
                               self.query, tag])


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _tag_values_upto(tracer, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    x = _arg(args, kwargs, 1, "x")
    family = VALUES_FAMILIES.get(type(spec).__name__, "other")
    return [family, f"{tracer.spec_key(spec)}@{x}", int(result.size), int(result.nbytes)]


def _tag_find_exceptional(tracer, args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    key = (tracer.spec_key(f), _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "Q"),
           float(_arg(args, kwargs, 3, "A")))
    return repr(key)


_TAGS = {
    "funcspec.values_upto": _tag_values_upto,
    "funcspec.prime_values": lambda t, a, k, r: len(_arg(a, k, 1, "primes")),
    "pretension.find_exceptional": _tag_find_exceptional,
    "pretension.objective.eval": lambda t, a, k, r: a[0].prime_count,
    "arith.PrimeTable": lambda t, a, k, r: len(a[0].primes),
    "sieve_experiments.bad_moduli": lambda t, a, k, r: [r.modulus_bound - 1,
                                                        (r.modulus_bound - 1) * r.n_terms],
}


# -- warnings ------------------------------------------------------------------


class WarningLog:
    """Captures warnings instead of printing them, each with the layer whose
    code issued it (the innermost pretentious module on the stack)."""

    def __init__(self):
        self.records: list[dict] = []

    def __enter__(self):
        self._cm = warnings.catch_warnings()
        self._cm.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._show
        return self

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)

    def _show(self, message, category, filename, lineno, file=None, line=None):
        layer = "other"
        frame = sys._getframe(1)
        while frame is not None:
            mod = frame.f_globals.get("__name__", "")
            if mod.startswith("pretentious."):
                layer = mod.split(".")[1]
                break
            frame = frame.f_back
        self.records.append({"layer": layer, "category": category.__name__,
                             "message": str(message)})


# -- aggregation ---------------------------------------------------------------


def _self_times(spans) -> list[float]:
    """Duration minus the union of the direct children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][3]
    while p is not None:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, warning_records) -> dict[str, float]:
    """Every per-layer metric the benchmark defines, from spans and warnings."""
    total = defaultdict(float)
    calls = defaultdict(int)
    self_t = defaultdict(float)
    for s, st in zip(spans, _self_times(spans)):
        total[s[0]] += s[2] - s[1]
        calls[s[0]] += 1
        self_t[s[0]] += st

    m: dict[str, float] = {}

    def timed(name, metric=None, with_calls=False, with_self=False):
        metric = metric or name
        m[f"{metric}.s"] = total[name]
        if with_calls:
            m[f"{metric}.calls"] = calls[name]
        if with_self:
            m[f"{metric}.self_s"] = self_t[name]

    timed("arith.PrimeTable", with_calls=True)
    m["arith.primes_sieved"] = sum(s[5] for s in spans if s[0] == "arith.PrimeTable")

    timed("characters.unit_group")
    timed("characters.character_row", with_calls=True)
    timed("characters.conductor")
    timed("characters.enumerate_characters")

    vu = [s for s in spans if s[0] == "funcspec.values_upto"]
    for family in VALUES_FAMILIES.values():
        mine = [s for s in vu if s[5][0] == family]
        m[f"funcspec.values_upto.{family}.s"] = sum(s[2] - s[1] for s in mine)
        m[f"funcspec.values_upto.{family}.calls"] = len(mine)
    m["funcspec.values_upto.elements"] = sum(s[5][2] for s in vu)
    m["funcspec.values_upto.max_bytes"] = max((s[5][3] for s in vu), default=0)
    seen: set[str] = set()
    repeats = 0
    for s in sorted(vu, key=lambda s: s[1]):
        repeats += s[5][1] in seen
        seen.add(s[5][1])
    m["funcspec.values_upto.repeat_frac"] = _frac(repeats, len(vu))
    timed("funcspec.prime_values", with_calls=True)
    m["funcspec.prime_values.primes"] = sum(s[5] for s in spans if s[0] == "funcspec.prime_values")

    scans = calls["pretension.find_exceptional"]
    in_scan = [i for i, s in enumerate(spans) if s[0] == "funcspec.prime_values"
               and _has_ancestor(spans, i, "pretension.find_exceptional")]
    m["funcspec.prime_values.per_scan"] = _frac(len(in_scan), scans)

    timed("pretension.find_exceptional", with_calls=True)
    m["pretension.characters_scanned"] = sum(
        1 for i, s in enumerate(spans) if s[0] == "pretension.min_distance_over_t"
        and _has_ancestor(spans, i, "pretension.find_exceptional"))
    seen = set()
    repeats = 0
    for s in sorted((s for s in spans if s[0] == "pretension.find_exceptional"),
                    key=lambda s: s[1]):
        repeats += s[5] in seen
        seen.add(s[5])
    m["pretension.find_exceptional.repeat_frac"] = _frac(repeats, scans)
    m["pretension.objective.builds"] = calls["pretension.objective.build"]
    m["pretension.objective.build_s"] = total["pretension.objective.build"]
    m["pretension.objective.evals"] = calls["pretension.objective.eval"]
    m["pretension.objective.eval_s"] = total["pretension.objective.eval"]
    m["pretension.objective.cos_terms"] = sum(
        s[5] for s in spans if s[0] == "pretension.objective.eval")
    timed("pretension.minimize_twist")
    timed("pretension.primitive_characters_upto")
    timed("pretension.distance_squared")

    timed("meanvalues.progression_sums", with_calls=True)
    timed("meanvalues.twisted_sum")
    timed("meanvalues.decompose_via_characters")
    timed("meanvalues.euler_product_mean")
    timed("meanvalues.halasz_bound")
    timed("meanvalues.progression_report", with_self=True)

    timed("sieve_experiments.bad_moduli", with_self=True)
    timed("sieve_experiments.mass_from_classes")
    timed("sieve_experiments.class_values")
    bad = [s[5] for s in spans if s[0] == "sieve_experiments.bad_moduli"]
    m["sieve_experiments.moduli_scanned"] = sum(b[0] for b in bad)
    m["sieve_experiments.class_sum_terms"] = sum(b[1] for b in bad)

    timed("nearchar.from_values")
    timed("nearchar.fourier_spectrum")
    timed("nearchar.nearest_character")

    timed("cli.main", with_calls=True, with_self=True)
    timed("cli.emit")

    for layer in LAYERS:
        m[f"warnings.{layer}"] = sum(1 for w in warning_records if w["layer"] == layer)
    m["trace.spans"] = len(spans)
    for k, v in m.items():
        if not math.isfinite(v):
            raise ValueError(f"metric {k} is not finite: {v}")
    return m
