"""The layers the traced run wraps, and the per-layer metrics read from them.

Each metric's comment names the end-to-end metric it should move and the
workload it should move it on (the full map is in README.md).
"""

from __future__ import annotations

import statistics

from tracer import Layer, Tracer


def _evaluation_path(args: tuple, kwargs: dict) -> str:
    path = kwargs.get("path", args[2] if len(args) > 2 else "born")
    return f"optimize.quantum_functional_value.{path}"


SPECDOC_FUNCTIONS = (
    "document_digest", "serialize_setup", "serialize_strategy", "serialize_bound_result",
    "serialize_facet_report", "serialize_opt_result", "serialize_scan_rows", "scan_rows_csv",
)
SEARCHES = ("maximize_violation", "maximize_restricted_ghz", "maximize_with_fixed_state")

LAYERS = (
    [Layer("bellkit.cli", "main"), Layer("bellkit.optimize", "scan_product_g")]
    + [Layer("bellkit.specdoc", name) for name in SPECDOC_FUNCTIONS]
    + [
        Layer("bellkit.lhv", "classical_bound", keep=True),
        Layer("bellkit.lhv", "facet_check"),
        Layer("bellkit.optimize", "symmetric_g_search"),
    ]
    + [Layer("bellkit.optimize", name, keep=True) for name in SEARCHES]
    + [
        Layer("bellkit.optimize", "quantum_functional_value", namer=_evaluation_path),
        Layer("bellkit.multiport", "probability_table"),
        Layer("bellkit.multiport", "quantum_correlation_tensor"),
        Layer("bellkit.core", "correlation_from_probabilities"),
    ]
)

# Layers called hundreds of times in a certify run get a per-call median and p90.
PER_CALL = (
    "optimize.quantum_functional_value.born",
    "optimize.quantum_functional_value.fast",
    "multiport.probability_table",
    "multiport.quantum_correlation_tensor",
    "core.correlation_from_probabilities",
)
RESTART_HIT_TOLERANCE = 1e-6


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _percentile_ms(durations: list[float], share: float) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[round(share * 100) - 1] * 1e3


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced run, keyed by metric name."""
    m: dict[str, float] = {}
    # wall_s on scan
    m["cli.main.self_s"] = tracer.self_time("cli.main")
    m["specdoc.busy_s"] = tracer.busy("specdoc")

    # wall_s on certify; no change predicted on scan and search
    bounds = tracer.results.get("lhv.classical_bound", [])
    bound_busy = tracer.busy("lhv.classical_bound")
    strategies = sum(result.examined for result in bounds)
    m["lhv.classical_bound.calls"] = len(bounds)
    m["lhv.classical_bound.busy_s"] = bound_busy
    m["lhv.strategies"] = strategies
    m["lhv.strategies_per_s"] = _rate(strategies, bound_busy)
    # wall_s and peak_rss_mb on certify
    m["lhv.facet_check.busy_s"] = tracer.busy("lhv.facet_check")

    # wall_s on scan and search
    searches = [r for name in SEARCHES for r in tracer.results.get(f"optimize.{name}", [])]
    search_busy = sum(tracer.busy(f"optimize.{name}") for name in SEARCHES)
    restarts = sum(len(result.restart_values) for result in searches)
    hits = sum(
        sum(1 for v in result.restart_values
            if v >= max(result.restart_values) - RESTART_HIT_TOLERANCE)
        for result in searches
    )
    m["optimize.maximize_violation.calls"] = len(
        tracer.results.get("optimize.maximize_violation", []))
    for name in SEARCHES + ("symmetric_g_search",):
        m[f"optimize.{name}.self_s"] = tracer.self_time(f"optimize.{name}")
    m["optimize.restarts"] = restarts
    m["optimize.restarts_per_s"] = _rate(restarts, search_busy)
    # ratio_geomean and wall_s on scan and search
    m["optimize.best_iterations"] = sum(result.iterations for result in searches)
    m["optimize.restart_hit_frac"] = hits / restarts if restarts else 0.0

    # wall_s on certify, and the Born re-evaluation inside scan
    evaluations = 0
    evaluation_busy = 0.0
    for path in ("born", "fast"):
        name = f"optimize.quantum_functional_value.{path}"
        evaluations += len(tracer.durations(name))
        evaluation_busy += tracer.busy(name)
        m[f"{name}.calls"] = len(tracer.durations(name))
        m[f"{name}.busy_s"] = tracer.busy(name)
    m["multiport.probability_table.busy_s"] = tracer.busy("multiport.probability_table")
    m["multiport.quantum_correlation_tensor.busy_s"] = tracer.busy(
        "multiport.quantum_correlation_tensor")
    m["multiport.evals_per_s"] = _rate(evaluations, evaluation_busy)
    m["core.correlation_from_probabilities.busy_s"] = tracer.busy(
        "core.correlation_from_probabilities")
    for name in PER_CALL:
        durations = tracer.durations(name)
        m[f"{name}.p50_ms"] = _percentile_ms(durations, 0.5)
        m[f"{name}.p90_ms"] = _percentile_ms(durations, 0.9)
    m["trace.spans"] = len(tracer.spans)
    return m
