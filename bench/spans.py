"""Span tracing of etacong's layers from outside the package.

The tracer wraps module-level functions of the installed package without
editing it.  A function is patched in its defining module and in every
etacong module that bound it by name (``from ._convolve import
convolve_mod``), so calls through any binding are seen.  Spans are kept in
memory as ``[id, parent_id, name, start, end, attrs]`` and turned into
per-layer metrics (calls, self time, counters) at the end of a run.

A function the package no longer defines is skipped: its metrics are absent
from the result instead of raising.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (layer, function): the function is looked up in the layer's module, which
# is where the package binds it for that layer's callers.
TARGETS = (
    ("convolve", "convolve_mod"),
    ("convolve", "power_mod"),
    ("convolve", "eta_integer_power_mod"),
    ("qseries", "eta_power_residues"),
    ("qseries", "eta_power_mod"),
    ("modforms", "_vm_cusp_basis_mod"),
    ("modforms", "_hecke_matrix_mod"),
    ("modforms", "gram_determinant_residue"),
    ("modforms", "_det_mod"),
    ("modforms", "gram_determinant"),
    ("congruences", "is_good_prime"),
    ("congruences", "search_good_congruences"),
    ("congruences", "verify_claim"),
    ("cli", "main"),
)
LAYER_MODULES = {
    "convolve": "etacong._convolve",
    "qseries": "etacong.qseries",
    "modforms": "etacong.modforms",
    "congruences": "etacong.congruences",
    "cli": "etacong.cli",
}
# counted, not spanned: one per transform, inside convolve_mod's self time
FFT_COUNTERS = ("rfft", "irfft")

ID, PARENT, NAME, START, END, ATTRS = range(6)


def _convolve_attrs(args, kwargs, result):
    a, b = args[0], args[1]
    n_out = args[3] if len(args) > 3 else kwargs["n_out"]
    return {"points": min(n_out, len(a) + len(b) - 1), "square": a is b}


def _good_prime_attrs(args, kwargs, result):
    return {"certified": bool(result)}


ATTR_HOOKS = {
    "convolve.convolve_mod": _convolve_attrs,
    "congruences.is_good_prime": _good_prime_attrs,
}


class Tracer:
    """Records nested spans for the TARGETS while installed.

    The traced program is single-threaded, so the open spans form one stack.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.wrapped = []
        self._stack = []
        self._patches = []

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = ATTR_HOOKS.get(name)

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1][ID] if stack else None, name,
                      time.perf_counter(), None, None]
            spans.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[ATTRS] = {"raised": type(exc).__name__}
                raise
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                record[ATTRS] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "etacong" and not mod_name.startswith("etacong."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        """Wrap every TARGET present in the imported package."""
        import numpy.fft

        for layer, func in TARGETS:
            module = sys.modules.get(LAYER_MODULES[layer])
            original = getattr(module, func, None) if module else None
            if not callable(original):
                continue
            name = f"{layer}.{func}"
            self._patch_everywhere(original, self._span_wrapper(name, original))
            self.wrapped.append(name)
        for func in FFT_COUNTERS:
            original = getattr(numpy.fft, func)
            self._patches.append((numpy.fft, func, original))
            setattr(numpy.fft, func, self._count_wrapper(f"numpy.fft.{func}",
                                                         original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self) -> dict:
        """Per-layer numbers: ``{name: value}`` (counts and seconds)."""
        return span_metrics(self.spans, self.wrapped, self.counts)


def span_metrics(spans, wrapped, counts) -> dict:
    """Aggregate spans into the per-layer metric values.

    ``<layer>.<func>.calls`` and ``.self_s`` for every wrapped function
    (self time is the span's duration minus its direct children's), plus
    ``<layer>.total_s``, the time covered by a layer's outermost spans, and
    the counters named in BENCHMARK.json.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    out = {}
    for name in wrapped:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    layers = {name.split(".", 1)[0] for name in wrapped}
    for layer in layers:
        out[f"{layer}.total_s"] = 0.0
    for s in spans:
        duration = s[END] - s[START]
        out[f"{s[NAME]}.calls"] += 1
        out[f"{s[NAME]}.self_s"] += duration - child_time[s[ID]]
        layer = s[NAME].split(".", 1)[0]
        if _nearest(spans, s, lambda p: p[NAME].startswith(layer + ".")) is None:
            out[f"{layer}.total_s"] += duration

    if "convolve.convolve_mod" in wrapped:
        conv = [s for s in spans if s[NAME] == "convolve.convolve_mod"
                and s[ATTRS] and "points" in s[ATTRS]]
        out["convolve.convolve_mod.points"] = sum(s[ATTRS]["points"] for s in conv)
        out["convolve.convolve_mod.squares"] = sum(s[ATTRS]["square"] for s in conv)
    if "qseries.eta_power_residues" in wrapped:
        depth = {}
        for s in spans:  # parents precede children in the list
            if s[NAME] == "qseries.eta_power_residues":
                up = _nearest(spans, s, lambda p: p[NAME] == s[NAME])
                depth[s[ID]] = 1 + (depth[up[ID]] if up else 0)
        out["qseries.eta_power_residues.depth"] = max(depth.values(), default=0)
    if "congruences.is_good_prime" in wrapped:
        goods = [s for s in spans if s[NAME] == "congruences.is_good_prime"]
        out["congruences.is_good_prime.certified"] = sum(
            bool(s[ATTRS] and s[ATTRS].get("certified")) for s in goods)
        out["congruences.is_good_prime.cap_exceeded"] = sum(
            bool(s[ATTRS] and s[ATTRS].get("raised") == "WeightCapExceeded")
            for s in goods)
        if "modforms.gram_determinant_residue" in wrapped:
            cond3_parents = {s[PARENT] for s in spans
                             if s[NAME] == "modforms.gram_determinant_residue"}
            out["congruences.is_good_prime.cond3"] = sum(
                s[ID] in cond3_parents for s in goods)
    for func in FFT_COUNTERS:
        out[f"numpy.fft.{func}.calls"] = counts.get(f"numpy.fft.{func}", 0)
    return out


def _nearest(spans, span, match):
    """The closest ancestor of ``span`` satisfying ``match``, or None."""
    parent = span[PARENT]
    while parent is not None:
        if match(spans[parent]):
            return spans[parent]
        parent = spans[parent][PARENT]
    return None
