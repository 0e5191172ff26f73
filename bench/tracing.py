"""In-memory spans around calls into cmlsync's public functions.

`Tracer.install()` replaces each traced function by a timing wrapper at the
module attribute its caller looks it up through (for example
`experiments.simulate_ensemble`, `ulam.step`, `density.step_noisy`), and
`uninstall()` restores the originals.  Nothing inside `src/cmlsync` is
changed.  Spans (name, start, end, parent, run id) stay in memory until
`write_jsonl` is called at the end of the run.

`layer_metrics` turns the spans of one round into the per-layer metrics,
and `self_times` into each module's self time.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    run_id: str
    span_id: int
    parent: int | None
    name: str  # "<module>.<function>"; the module is the layer
    start: float
    end: float
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


def _describe_simulate(args, kwargs, result):
    spec, realizations, length = args[:3]
    burn_in = kwargs.get("burn_in", args[5] if len(args) > 5 else 1000)
    steps = length + burn_in
    return {"steps": steps, "site_updates": steps * realizations * spec.n,
            "mb": result.nbytes / 1e6}


def _describe_build(args, kwargs, result):
    m = result.matrix
    return {"k": result.k, "nnz": int(m.nnz),
            "mb": (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes) / 1e6}


def _describe_density(args, kwargs, result):
    return {"samples": int(result.total_samples)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (module attribute, span name, describe(args, kwargs, result) -> attrs)
# The module attribute is where the caller looks the function up.
TRACED = [
    ("experiments.run_ei_sweep", "experiments.run_ei_sweep", None),
    ("experiments.run_gev_sweep", "experiments.run_gev_sweep", None),
    ("experiments.run_density_figures", "experiments.run_density_figures", None),
    ("experiments.export_sweep_csv", "experiments.export_sweep_csv", None),
    ("experiments.export_gev_csv", "experiments.export_gev_csv", None),
    ("experiments.simulate_ensemble", "lattice.simulate_ensemble",
     _describe_simulate),
    ("ulam.step", "lattice.ulam_step", None),
    ("density.step_noisy", "lattice.density_step_noisy", None),
    ("observables.evaluate_series", "observables.evaluate_series",
     lambda a, kw, r: {"samples": int(np.size(r))}),
    ("observables.threshold_from_quantile",
     "observables.threshold_from_quantile", None),
    ("observables.exceedance_indicator", "observables.exceedance_indicator",
     None),
    ("observables.sync_accuracy_from_threshold",
     "observables.sync_accuracy_from_threshold", None),
    ("evt.suveges_ei", "evt.suveges_ei",
     lambda a, kw, r: {"exceedances": int(r.metadata["exceedances"])}),
    ("evt.qk_return_estimator", "evt.qk_return_estimator",
     lambda a, kw, r: {"visits": int(r[1].metadata["visits"])}),
    ("evt.strip_indicator", "evt.strip_indicator", None),
    ("evt.fit_gpd_mle", "evt.fit_gpd_mle", None),
    ("evt.fit_gev_mle", "evt.fit_gev_mle", None),
    ("theory.ei_sync_formula", "theory.ei_sync_formula", None),
    ("theory.ei_sync_flat_asymptotic", "theory.ei_sync_flat_asymptotic", None),
    ("density.estimate_density", "density.estimate_density",
     _describe_density),
    ("density.diagonal_trace", "density.diagonal_trace", None),
    ("density.export_density_csv", "density.export_density_csv", _file_bytes),
    ("density.export_trace_csv", "density.export_trace_csv", _file_bytes),
    ("ulam.build_ulam", "ulam.build_ulam", _describe_build),
    ("ulam.ei_spectral", "ulam.ei_spectral", None),
    ("ulam.invariant_density_ulam", "ulam.invariant_density_ulam",
     lambda a, kw, r: {"k": int(a[0].k)}),
    ("ulam.make_perturbed", "ulam.make_perturbed", None),
    ("ulam.strip_mass", "ulam.strip_mass", None),
    ("ulam.perturbed_leading_eigenvalue", "ulam.perturbed_leading_eigenvalue",
     lambda a, kw, r: {"k": int(a[0].base.k)}),
    ("ulam.export_spectral_report", "ulam.export_spectral_report", None),
]


class Tracer:
    """Collects spans while installed; one instance per benchmark run."""

    def __init__(self, run_id: str, modules: dict):
        self.run_id = run_id
        self.modules = modules  # short name -> imported cmlsync module
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name, fn, describe):
        def traced(*args, **kwargs):
            span = Span(self.run_id, len(self.spans),
                        self._stack[-1] if self._stack else None, name,
                        0.0, 0.0)
            self.spans.append(span)
            self._stack.append(span.span_id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        for target, name, describe in TRACED:
            module_name, attr = target.split(".")
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, describe))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run_id": s.run_id, "span_id": s.span_id,
                    "parent": s.parent, "name": s.name, "start": s.start,
                    "end": s.end, "ok": s.ok, "attrs": s.attrs}) + "\n")


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    own = {s.span_id: s.seconds for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.seconds
    return own


def self_times(spans: list[Span]) -> dict[str, float]:
    """Module -> summed self time of its spans."""
    own = self_seconds(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.module] = out.get(s.module, 0.0) + own[s.span_id]
    return out


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span], durations: dict[str, list[float]]
                  ) -> dict[str, float]:
    """Per-layer metrics of one round's spans.

    `durations` pools per-call fit times (ms) over every traced round for
    the percentile metrics.
    """
    own = self_seconds(spans)

    def total(*names, **attr_eq):
        return sum((s.seconds for s in spans if s.name in names and
                    all(s.attrs.get(k) == v for k, v in attr_eq.items())), 0.0)

    def self_total(*names):
        return sum((own[s.span_id] for s in spans if s.name in names), 0.0)

    def attr_sum(name, attr):
        return sum(s.attrs.get(attr, 0) for s in spans if s.name == name)

    def attr_max(name, attr, **attr_eq):
        vals = [s.attrs[attr] for s in spans if s.name == name and
                all(s.attrs.get(k) == v for k, v in attr_eq.items())]
        return max(vals, default=0)

    simulate_s = total("lattice.simulate_ensemble")
    steps = attr_sum("lattice.simulate_ensemble", "steps")
    updates = attr_sum("lattice.simulate_ensemble", "site_updates")
    evaluate_s = total("observables.evaluate_series")
    samples = attr_sum("observables.evaluate_series", "samples")
    estimate_s = self_total("density.estimate_density")
    density_samples = attr_sum("density.estimate_density", "samples")
    estimators = [s for s in spans if s.name in (
        "evt.suveges_ei", "evt.qk_return_estimator", "evt.fit_gpd_mle",
        "evt.fit_gev_mle")]
    return {
        "lattice.simulate_s": simulate_s,
        "lattice.us_per_step": simulate_s / steps * 1e6 if steps else 0.0,
        "lattice.ns_per_site_update":
            simulate_s / updates * 1e9 if updates else 0.0,
        "lattice.ensemble_mb": attr_max("lattice.simulate_ensemble", "mb"),
        "lattice.ulam_step_s": total("lattice.ulam_step"),
        "lattice.density_step_s": total("lattice.density_step_noisy"),
        "observables.evaluate_s": evaluate_s,
        "observables.threshold_s": total(
            "observables.threshold_from_quantile",
            "observables.exceedance_indicator",
            "observables.sync_accuracy_from_threshold"),
        "observables.samples": samples,
        "observables.ns_per_sample":
            evaluate_s / samples * 1e9 if samples else 0.0,
        "evt.suveges_s": total("evt.suveges_ei"),
        "evt.qk_s": total("evt.qk_return_estimator"),
        "evt.strip_indicator_s": total("evt.strip_indicator"),
        "evt.gpd_s": total("evt.fit_gpd_mle"),
        "evt.gev_s": total("evt.fit_gev_mle"),
        "evt.gpd_fit_ms.p50": _pct(durations["evt.fit_gpd_mle"], 50),
        "evt.gpd_fit_ms.p99": _pct(durations["evt.fit_gpd_mle"], 99),
        "evt.gev_fit_ms.p50": _pct(durations["evt.fit_gev_mle"], 50),
        "evt.estimates": len(estimators),
        "evt.exceedances": attr_sum("evt.suveges_ei", "exceedances"),
        "evt.qk_visits": attr_sum("evt.qk_return_estimator", "visits"),
        "evt.ok_ratio": (sum(s.ok for s in estimators) / len(estimators)
                         if estimators else 0.0),
        "theory.s": total("theory.ei_sync_formula",
                          "theory.ei_sync_flat_asymptotic"),
        "density.estimate_s": estimate_s,
        "density.ns_per_sample":
            estimate_s / density_samples * 1e9 if density_samples else 0.0,
        "density.trace_s": total("density.diagonal_trace"),
        "density.export_s": total("density.export_density_csv",
                                  "density.export_trace_csv"),
        "density.export_mb": (attr_sum("density.export_density_csv", "bytes")
                              + attr_sum("density.export_trace_csv", "bytes"))
        / 1e6,
        "ulam.build_s.k300": total("ulam.build_ulam", k=300),
        "ulam.build_s.k600": total("ulam.build_ulam", k=600),
        "ulam.invariant_s.k600": total("ulam.invariant_density_ulam", k=600),
        "ulam.eig_s.k300": total("ulam.perturbed_leading_eigenvalue", k=300),
        "ulam.eig_s.k600": total("ulam.perturbed_leading_eigenvalue", k=600),
        "ulam.nnz.k600": attr_max("ulam.build_ulam", "nnz", k=600),
        "ulam.matrix_mb.k600": attr_max("ulam.build_ulam", "mb", k=600),
        "experiments.self_s": self_total(
            "experiments.run_ei_sweep", "experiments.run_gev_sweep",
            "experiments.run_density_figures"),
        "experiments.export_s": total("experiments.export_sweep_csv",
                                      "experiments.export_gev_csv"),
        "cli.self_s": self_total("cli.main"),
    }


UNITS = {
    "lattice.simulate_s": "s", "lattice.us_per_step": "us",
    "lattice.ns_per_site_update": "ns", "lattice.ensemble_mb": "MB",
    "lattice.ulam_step_s": "s", "lattice.density_step_s": "s",
    "observables.evaluate_s": "s", "observables.threshold_s": "s",
    "observables.samples": "count", "observables.ns_per_sample": "ns",
    "evt.suveges_s": "s", "evt.qk_s": "s", "evt.strip_indicator_s": "s",
    "evt.gpd_s": "s", "evt.gev_s": "s", "evt.gpd_fit_ms.p50": "ms",
    "evt.gpd_fit_ms.p99": "ms", "evt.gev_fit_ms.p50": "ms",
    "evt.estimates": "count", "evt.exceedances": "count",
    "evt.qk_visits": "count", "evt.ok_ratio": "1", "theory.s": "s",
    "density.estimate_s": "s", "density.ns_per_sample": "ns",
    "density.trace_s": "s", "density.export_s": "s", "density.export_mb": "MB",
    "ulam.build_s.k300": "s", "ulam.build_s.k600": "s",
    "ulam.invariant_s.k600": "s", "ulam.eig_s.k300": "s",
    "ulam.eig_s.k600": "s", "ulam.nnz.k600": "count",
    "ulam.matrix_mb.k600": "MB", "experiments.self_s": "s",
    "experiments.export_s": "s", "cli.self_s": "s",
}
