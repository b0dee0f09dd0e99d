"""Spans and counts recorded around confdim's public functions.

Tracing lives entirely in the benchmark: ``Tracer.install`` replaces module
attributes of confdim with wrappers that record a span (name, start, end,
parent) per call, and ``Tracer.uninstall`` puts the originals back.  A name
is patched in every module namespace that looks it up, because confdim
modules import functions by name (``multicurve.spectral_radius`` is the
object ``multicurve.leading_eigenvalue`` calls, not ``spectral.spectral_radius``).

``layer_metrics`` turns spans and counts into the per-layer metrics of
``BENCHMARK.json``.  A span's self time is its duration minus the durations
of its direct children; calls are sequential, so children never overlap.

The tracer times itself: its bookkeeping in each wrapper, outside the
wrapped call, and its installing and removing of wrappers add up to
``trace.overhead_s``.  The difference between a traced and an untraced
round cannot stand in for it: on the 2-CPU machine of the README's
figures the same ``annulus_modulus`` solve ran 2.4 s to 3.4 s back to
back, while the tracer spends milliseconds a round.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.growth_keys = set()
        self._stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------
    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, None, None, parent]
            self.spans.append(span)
            self._stack.append(index)
            start = span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            self.counts["overhead_s"] += (start - entered) + (time.perf_counter() - end)
            return result

        return traced

    def _patch(self, module, attr, name, on_result=None):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, on_result))

    def _inside(self, name):
        return any(self.spans[i][0] == name for i in self._stack)

    # -- installation ------------------------------------------------------
    def install(self):
        """Wrap the public functions of every confdim layer."""
        import importlib

        entered = time.perf_counter()

        # ``confdim.modulus`` the attribute is the function re-exported by the
        # package, so modules are looked up by their full name.
        cli, covers, modulus, multicurve, schemas, spectral = (
            importlib.import_module(f"confdim.{name}")
            for name in ("cli", "covers", "modulus", "multicurve", "schemas", "spectral")
        )
        for module in (spectral, multicurve):
            self._patch(module, "decompose", "spectral.decompose")
        self._patch(multicurve, "spectral_radius", "spectral.spectral_radius")
        self._patch(multicurve, "transition_matrix", "multicurve.transition_matrix")
        self._patch(
            multicurve, "detect_levy_cycles", "multicurve.detect_levy_cycles", self._on_levy
        )
        for module in (multicurve, cli):
            self._patch(module, "q_of_multicurve", "multicurve.q_of_multicurve", self._on_q)
        self._patch(modulus, "incidence_matrix", "modulus.incidence_matrix")
        self._patch(modulus, "beurling_check", "modulus.beurling_check", self._on_beurling)
        for module in (modulus, covers, cli):
            self._patch(module, "modulus", "modulus.modulus", self._on_modulus)
        for module in (covers, schemas):
            self._patch(
                module, "essential_cycle_family", "covers.essential_cycle_family", self._on_family
            )
        self._patch(covers, "annulus_modulus", "covers.annulus_modulus", self._on_annulus)
        for attr in ("verify_growth_bound", "quasipacking_check", "verify_covering_scaling"):
            self._patch(cli, attr, f"covers.{attr}")
        for attr in ("parse_multicurve", "parse_catalog", "parse_cover_family"):
            self._patch(cli, attr, "schemas.parse")
        for attr in ("render_json", "render_csv"):
            self._patch(cli, attr, "schemas.render")
        self.counts["overhead_s"] += time.perf_counter() - entered

    def uninstall(self):
        entered = time.perf_counter()
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
        self.counts["overhead_s"] += time.perf_counter() - entered

    # -- result hooks --------------------------------------------------------
    def _on_q(self, result, args, kwargs):
        self.counts["q_solves"] += 1
        self.counts["q_iterations"] += result.iterations

    def _on_levy(self, cycles, args, kwargs):
        if cycles:
            self.counts["levy_specs"] += 1
            self.counts["levy_cycles"] += len(cycles)

    def _on_beurling(self, certificate, args, kwargs):
        curves = args[1] if len(args) > 1 else kwargs["curves"]
        self.counts["curves_certified"] += len(curves)
        self.counts["curves_active"] += len(certificate.active_curves)

    def _on_modulus(self, result, args, kwargs):
        self.counts["modulus_solves"] += 1

    def _on_family(self, family, args, kwargs):
        # CurveFamily is frozen; the traced oracle replaces the original one.
        object.__setattr__(family, "oracle", self.wrap("covers.oracle", family.oracle))

    def _on_annulus(self, result, args, kwargs):
        if self._inside("covers.verify_growth_bound"):
            annulus, q = args[0], args[1] if len(args) > 1 else kwargs["q"]
            self.counts["growth_solves"] += 1
            self.growth_keys.add((annulus.cols, annulus.rows, float(q)))

    # -- export ----------------------------------------------------------------
    def export(self):
        """Totals per span name plus counts, as plain JSON-ready data."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent in self.spans:
            duration = end - start
            total[name] += duration
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += duration
        counts = dict(self.counts)
        counts["growth_distinct"] = len(self.growth_keys)
        return {
            "time": dict(total),
            "self": {name: total[name] - child[name] for name in total},
            "calls": dict(calls),
            "counts": counts,
        }


def merge(exports):
    """Sum several ``Tracer.export`` results (one per CLI child, say)."""
    merged = {part: defaultdict(float) for part in ("time", "self", "calls", "counts")}
    for export in exports:
        for part in merged:
            for key, value in export[part].items():
                merged[part][key] += value
    return {part: dict(values) for part, values in merged.items()}


def layer_metrics(trace, rounds):
    """Per-layer metrics from merged trace data covering ``rounds`` rounds.

    Times and call counts are per round; ratios are taken over all rounds.
    A layer the workload does not reach reads 0.
    """
    time_, self_, calls, counts = (trace[k] for k in ("time", "self", "calls", "counts"))

    def per_round(table, key):
        return table.get(key, 0.0) / rounds

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    growth_distinct = counts.get("growth_distinct", 0.0)
    return {
        "spectral.spectral_radius.calls": per_round(calls, "spectral.spectral_radius"),
        "spectral.spectral_radius.self_s": per_round(self_, "spectral.spectral_radius"),
        "spectral.decompose.calls": per_round(calls, "spectral.decompose"),
        "spectral.decompose.time_s": per_round(time_, "spectral.decompose"),
        "multicurve.eigen_evals_per_solve": ratio("q_iterations", "q_solves"),
        "multicurve.transition_matrix.time_s": per_round(time_, "multicurve.transition_matrix"),
        "multicurve.q_of_multicurve.self_s": per_round(self_, "multicurve.q_of_multicurve"),
        "multicurve.detect_levy_cycles.time_s": per_round(
            time_, "multicurve.detect_levy_cycles"
        ),
        "multicurve.levy_cycles_per_obstructed_spec": ratio("levy_cycles", "levy_specs"),
        "modulus.modulus.self_s": per_round(self_, "modulus.modulus"),
        "modulus.oracle_calls_per_solve": (
            calls.get("covers.oracle", 0.0) / counts["modulus_solves"]
            if counts.get("modulus_solves")
            else 0.0
        ),
        "modulus.cut_yield": ratio("curves_active", "curves_certified"),
        "modulus.incidence_matrix.time_s": per_round(time_, "modulus.incidence_matrix"),
        "modulus.beurling_check.time_s": per_round(time_, "modulus.beurling_check"),
        "covers.oracle.calls": per_round(calls, "covers.oracle"),
        "covers.oracle.time_s": per_round(time_, "covers.oracle"),
        "covers.essential_cycle_family.time_s": per_round(
            time_, "covers.essential_cycle_family"
        ),
        "covers.verify_growth_bound.time_s": per_round(time_, "covers.verify_growth_bound"),
        "covers.growth_solves_per_distinct_annulus": (
            counts.get("growth_solves", 0.0) / growth_distinct if growth_distinct else 0.0
        ),
        "covers.quasipacking_check.time_s": per_round(time_, "covers.quasipacking_check"),
        "covers.verify_covering_scaling.time_s": per_round(
            time_, "covers.verify_covering_scaling"
        ),
        "schemas.parse.time_s": per_round(time_, "schemas.parse"),
        "schemas.render.time_s": per_round(time_, "schemas.render"),
        "trace.overhead_s": per_round(counts, "overhead_s"),
    }
