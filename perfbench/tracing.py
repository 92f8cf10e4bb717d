"""Per-layer spans recorded from the benchmark's side of the package boundary.

`Tracer.installed()` replaces the public functions listed in `SPANS` (and the
`HScanCache` methods in `CACHE_METHODS`) with timing wrappers for the duration
of a `with` block.  Modules bind imported names at import time
(`from .resolution import h_function`), so every module attribute that holds
the original function object is replaced, not only the defining module's.

Spans are aggregated in place rather than stored one by one, because a single
`report` makes about 220k `h_function` calls.  For each span name the tracer
keeps the call count, the inclusive time (counted at the outermost call only,
so nested calls of the same name are not counted twice), the self time (the
duration minus the time covered by direct child spans) and the call count per
(parent span, span) pair.  Groups (the layer, plus `analysis.pairing`) get an
inclusive time the same way.
"""

from __future__ import annotations

import contextlib
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "touching_conics"

# (module, function, extra groups).  The layer group is the module name.
SPANS = (
    ("cli", "run", ()),
    ("surface", "validate", ()),
    ("surface", "find_valid_params", ()),
    ("surface", "lambda0", ()),
    ("poly", "root_clusters", ()),
    ("poly", "companion_roots", ()),
    ("resolution", "h_function", ()),
    ("analysis", "critical_points", ()),
    ("analysis", "endpoint_limit", ()),
    ("analysis", "verify_h_tables", ()),
    ("analysis", "h0_critical_on_i2", ("analysis.pairing",)),
    ("analysis", "h0_pairing", ("analysis.pairing",)),
    ("classifier", "classify", ()),
    ("conics", "verify_touching", ()),
    ("conics", "min_real_form", ()),
)

# HScanCache: construction counts instances; the three lookups count cache
# lookups, and scans started directly inside a lookup count as misses.
CACHE_CLASS = ("analysis", "HScanCache")
CACHE_METHODS = ("__init__", "count", "count_i4_full", "limit")
CACHE_LOOKUPS = tuple(f"analysis.HScanCache.{m}" for m in CACHE_METHODS[1:])


def _module(name: str):
    return sys.modules.get(f"{PACKAGE}.{name}")


def _critical_points_passes(tracer: "Tracer", args, kwargs, result, exc) -> None:
    """Grid passes of one critical_points call, from CriticalReport.grid_used:
    the first pass at cfg.grid, then one per doubling."""
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    if cfg is None:
        cfg = _module("analysis").ScanConfig()
    if exc is None:
        passes = 1 + round(math.log2(result.grid_used / cfg.grid))
    else:
        passes = 1 + cfg.max_doublings
    tracer.extra["analysis.grid_passes"] += passes


def _endpoint_limit_failed(tracer: "Tracer", args, kwargs, result, exc) -> None:
    if exc is not None:
        tracer.extra["analysis.endpoint_limit.failed"] += 1


def _classify_traces(tracer: "Tracer", args, kwargs, result, exc) -> None:
    if exc is None:
        tracer.extra["classifier.traces"] += len(result.outcome.traces)


HOOKS = {
    "analysis.critical_points": _critical_points_passes,
    "analysis.endpoint_limit": _endpoint_limit_failed,
    "classifier.classify": _classify_traces,
}


class Tracer:
    def __init__(self):
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.pairs: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()

    def reset(self) -> None:
        for table in (self.calls, self.pairs, self.incl, self.self_s, self.extra):
            table.clear()

    def wrap(self, name: str, fn, groups: tuple[str, ...]):
        stack, depth = self._stack, self._depth
        calls, pairs, incl, self_s = self.calls, self.pairs, self.incl, self.self_s
        keys = (name,) + groups
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            for k in keys:
                depth[k] += 1
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[name] += 1
                pairs[(parent, name)] += 1
                self_s[name] += dt - frame[1]
                for k in keys:
                    depth[k] -= 1
                    if not depth[k]:
                        incl[k] += dt
                if hook is not None:
                    hook(self, args, kwargs, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit.

        A function missing from the package (renamed or removed by a later
        change) is skipped, and its metrics read zero."""
        undo = []
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        try:
            for modname, fname, extra in SPANS:
                mod = _module(modname)
                orig = getattr(mod, fname, None)
                if orig is None:
                    continue
                wrapper = self.wrap(f"{modname}.{fname}", orig, (modname,) + extra)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            undo.append((m, attr, val))
                            setattr(m, attr, wrapper)
            cls = getattr(_module(CACHE_CLASS[0]), CACHE_CLASS[1], None)
            for meth in CACHE_METHODS if cls is not None else ():
                orig = cls.__dict__.get(meth)
                if orig is None:
                    continue
                suffix = "" if meth == "__init__" else f".{meth}"
                undo.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(f"analysis.HScanCache{suffix}", orig, ("analysis",)))
            yield self
        finally:
            for obj, attr, val in reversed(undo):
                setattr(obj, attr, val)

    def snapshot(self) -> dict[str, float]:
        """The per-layer figures of everything recorded since reset()."""
        c, incl, pairs = self.calls, self.incl, self.pairs
        lookups = sum(c[k] for k in CACHE_LOOKUPS)
        misses = sum(
            pairs[(k, f"analysis.{fn}")] for k in CACHE_LOOKUPS for fn in ("critical_points", "endpoint_limit")
        )
        return {
            "cli.self_s": self.self_s["cli.run"],
            "surface.validate.calls": c["surface.validate"],
            "surface.validate.s": incl["surface.validate"],
            "surface.find_valid_params.calls": c["surface.find_valid_params"],
            "surface.find_valid_params.s": incl["surface.find_valid_params"],
            "surface.validate.in_search": pairs[("surface.find_valid_params", "surface.validate")],
            "surface.lambda0.calls": c["surface.lambda0"],
            "poly.root_clusters.calls": c["poly.root_clusters"],
            "poly.companion_roots.calls": c["poly.companion_roots"],
            "poly.s": incl["poly"],
            "resolution.h_function.calls": c["resolution.h_function"],
            "resolution.h_function.s": incl["resolution.h_function"],
            "resolution.h_function.in_scans": pairs[("analysis.critical_points", "resolution.h_function")],
            "analysis.critical_points.calls": c["analysis.critical_points"],
            "analysis.grid_passes": self.extra["analysis.grid_passes"],
            "analysis.critical_points.s": incl["analysis.critical_points"],
            "analysis.endpoint_limit.calls": c["analysis.endpoint_limit"],
            "analysis.endpoint_limit.failed": self.extra["analysis.endpoint_limit.failed"],
            "analysis.cache.instances": c["analysis.HScanCache"],
            "analysis.cache.lookups": lookups,
            "analysis.cache.misses": misses,
            "analysis.verify_h_tables.s": incl["analysis.verify_h_tables"],
            "analysis.pairing.s": incl["analysis.pairing"],
            "classifier.classify.s": incl["classifier.classify"],
            "classifier.self_s": self.self_s["classifier.classify"],
            "classifier.traces": self.extra["classifier.traces"],
            "conics.verify_touching.calls": c["conics.verify_touching"],
            "conics.verify_touching.s": incl["conics.verify_touching"],
            "conics.min_real_form.calls": c["conics.min_real_form"],
            "conics.min_real_form.s": incl["conics.min_real_form"],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derived(mean: dict[str, float]) -> dict[str, float]:
    """Ratios computed from per-op means of their numerator and denominator."""
    out = dict(mean)
    out["surface.candidates_per_search"] = _ratio(
        mean["surface.validate.in_search"], mean["surface.find_valid_params.calls"]
    )
    out["resolution.h_per_scan"] = _ratio(
        mean["resolution.h_function.in_scans"], mean["analysis.critical_points.calls"]
    )
    lookups = mean["analysis.cache.lookups"]
    out["analysis.cache.hit_ratio"] = 1.0 - _ratio(mean["analysis.cache.misses"], lookups) if lookups else 0.0
    return out
