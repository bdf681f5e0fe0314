"""Spans around the public functions of crossflat's layers, and the per-layer
metrics computed from them.

The layers are the package's modules.  `install` wraps every public function
of each layer at every place it is bound (a function imported into another
module is a second binding), so calls between layers are seen no matter
which name the caller uses.  The Jacobi recurrence is a generator; its span
covers each `next()` on it, not only the call that creates it.

Spans stay in memory and are written once, when the traced process ends.
A span's self time is its busy time minus the busy time of the spans it
caused.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("special", "spaces", "torus", "products", "cli")
RECURRENCE = "special.jacobi_recurrence_rows"
COUNT_FUNCTIONS = ("products.count_constrained", "products.count_unconstrained", "products.trend_levels")
# Top-level torus entry points whose (alpha, beta, n) define one kernel.
KERNEL_ENTRIES = ("torus.opnorm_bracket", "torus.kernel_lp_norm", "torus.opnorm_l2_exact")


def _params_key(params, n) -> list:
    return [params.twice_alpha, params.twice_beta, int(n)]


# Per-function details recorded with each span: f(args, kwargs, result).
_DETAILS = {
    RECURRENCE: lambda a, k, r: {"point_degrees": (int(a[2]) + 1) * int(np.size(a[3]))},
    "spaces.spherical_table": lambda a, k, r: {"points": int(np.size(a[2]))},
    "products.enumerate_shell": lambda a, k, r: {
        "members": len(r),
        "key": [repr(a[0]), int(a[1]), bool(a[2] if len(a) > 2 else k.get("ordering_constraint", True))],
    },
    **{name: (lambda a, k, r: {"key": _params_key(a[0], a[1])}) for name in KERNEL_ENTRIES},
}


class Tracer:
    """Records spans as [id, parent, name, start, end, busy, child, details]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        span = [len(self.spans), parent, name, time.perf_counter(), 0.0, 0.0, 0.0, None]
        self.spans.append(span)
        return span

    def _charge(self, span: list, elapsed: float) -> None:
        span[5] += elapsed
        if self._stack:
            self._stack[-1][6] += elapsed

    def wrap(self, name: str, fn):
        details = _DETAILS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, details)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            self._stack.append(span)
            start = span[3]
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[4] = time.perf_counter()
                self._charge(span, span[4] - start)
            if details is not None:
                span[7] = details(args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn, details):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            if details is not None:
                span[7] = details(args, kwargs, None)
            inner = fn(*args, **kwargs)

            def rows():
                try:
                    while True:
                        self._stack.append(span)
                        start = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._stack.pop()
                            self._charge(span, time.perf_counter() - start)
                        yield item
                finally:
                    inner.close()
                    span[4] = time.perf_counter()

            return rows()

        return traced

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer, at every binding."""
    package = importlib.import_module("crossflat")
    modules = {layer: importlib.import_module(f"crossflat.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            traced = tracer.wrap(f"{layer}.{attr}", fn)
            for namespace in namespaces:
                for bound, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, bound, traced)


def cache_stats() -> dict:
    from crossflat import spaces

    info = spaces._rep_dimension_cached.cache_info()
    return {"rep_dimension_hits": info.hits, "rep_dimension_misses": info.misses}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the traced configs of one workload.

    Times ending in `_s` are inclusive busy time unless the name says `self`.
    """
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    point_degrees = table_points = members = 0
    count_s = 0.0
    torus_recurrences = kernels = 0
    distinct_levels = 0
    hits = misses = 0
    for trace in traces:
        spans = trace["spans"]
        names = [s[2] for s in spans]
        parents = [s[1] for s in spans]
        kernel_keys, level_keys = set(), set()
        for _, parent, name, _, _, span_busy, child, details in spans:
            busy[name] += span_busy
            self_time[name] += span_busy - child
            calls[name] += 1
            layer_self[name.split(".")[0]] += span_busy - child
            details = details or {}
            ancestors = []
            up = parent
            while up >= 0:
                ancestors.append(names[up])
                up = parents[up]
            if name == RECURRENCE:
                point_degrees += details["point_degrees"]
                torus_recurrences += any(a.startswith("torus.") for a in ancestors)
            elif name == "spaces.spherical_table":
                table_points += details["points"]
            elif name == "products.enumerate_shell":
                members += details["members"]
                level_keys.add(json.dumps(details["key"]))
            if name in COUNT_FUNCTIONS and not any(a in COUNT_FUNCTIONS for a in ancestors):
                count_s += span_busy
            if name in KERNEL_ENTRIES and not any(a.startswith("torus.") for a in ancestors):
                kernel_keys.add(json.dumps(details["key"]))
        kernels += len(kernel_keys)
        distinct_levels += len(level_keys)
        hits += trace["cache"]["rep_dimension_hits"]
        misses += trace["cache"]["rep_dimension_misses"]

    recurrence_s = self_time[RECURRENCE]
    metrics = {
        "special.recurrence_s": recurrence_s,
        "special.recurrence_calls": calls[RECURRENCE],
        "special.recurrence_point_degrees": point_degrees,
        "special.recurrence_rate": _ratio(point_degrees, recurrence_s),
        "torus.opnorm_l2_exact_s": busy["torus.opnorm_l2_exact"],
        "torus.kernel_lp_norm_s": busy["torus.kernel_lp_norm"],
        "torus.kernel_samples_calls": calls["torus.kernel_samples"],
        "torus.opnorm_bracket_self_s": self_time["torus.opnorm_bracket"],
        "torus.recurrences_per_kernel": _ratio(torus_recurrences, kernels),
        "spaces.spherical_table_s": busy["spaces.spherical_table"],
        "spaces.spherical_table_calls": calls["spaces.spherical_table"],
        "spaces.spherical_table_points": table_points,
        "spaces.fourier_expansion_s": busy["spaces.fourier_expansion"],
        "spaces.rep_dimension_s": busy["spaces.rep_dimension"],
        "spaces.rep_dimension_hit_ratio": _ratio(hits, hits + misses),
        "products.enumerate_shell_s": busy["products.enumerate_shell"],
        "products.enumerate_shell_calls": calls["products.enumerate_shell"],
        "products.shell_members": members,
        "products.enumerations_per_level": _ratio(calls["products.enumerate_shell"], distinct_levels),
        "products.count_s": count_s,
        "products.restriction_lp_norm_s": busy["products.restriction_lp_norm"],
        "products.restriction_calls": calls["products.restriction_lp_norm"],
        "products.pointwise_check_s": busy["products.pointwise_lower_check"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics


def self_profile(trace: dict, top: int = 5) -> list[tuple[str, float]]:
    """The functions with the largest self time in one traced config."""
    totals: dict[str, float] = defaultdict(float)
    for span in trace["spans"]:
        totals[span[2]] += span[5] - span[6]
    return sorted(totals.items(), key=lambda item: -item[1])[:top]
