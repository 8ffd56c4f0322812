"""Analysis report assembly and canonical JSON serialization.

Reports are plain dicts rendered through :func:`canonical_json`, which
sorts keys, rounds floats to six decimals, and maps non-finite values
to null.  Two runs over the same input produce byte-identical output,
because every statistic is either exact integer arithmetic or a
fixed-order float reduction.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import __version__
from .dfa import classify_persistence, estimate_hurst
from .errors import TsnetError
from .netstats import (
    all_pairs_average_path,
    assortativity,
    clustering,
    degree_distribution,
    fit_powerlaw_tail,
    small_world_curve,
    small_world_verdict,
)
from .series import TimeSeries, summary
from .visibility import build_fast

SCHEMA = "tsnet/report/1"
FLOAT_DECIMALS = 6


def _normalize(obj):
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_normalize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not math.isfinite(value):
            return None
        value = round(value, FLOAT_DECIMALS)
        return 0.0 if value == 0.0 else value  # fold -0.0
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 6-decimal floats, null non-finite."""
    return json.dumps(_normalize(obj), sort_keys=True, indent=2) + "\n"


def _section(compute):
    try:
        return compute()
    except TsnetError as exc:
        return {"error": type(exc).__name__, "detail": str(exc)}


def build_report(
    ts: TimeSeries,
    *,
    dfa_order: int = 2,
    dfa_scales=None,
    tail_k_range: tuple[int, int] | None = None,
    small_world: bool = False,
    prefix_sizes: list[int] | None = None,
    source: dict | None = None,
) -> dict:
    """Run the full pipeline on one series and collect results.

    Stage-level degeneracies (series too short for DFA, too few tail
    points, zero degree variance, ...) land in the affected section as
    ``{"error": <name>, "detail": ...}`` without aborting the rest.
    """
    stats = summary(ts)
    report: dict = {
        "schema": SCHEMA,
        "tool_version": __version__,
        "label": ts.label,
        "source": source,
        "summary": {
            "n": stats.n,
            "mean": stats.mean,
            "median": stats.median,
            "min": stats.min,
            "max": stats.max,
            "std_dev": stats.std_dev,
            "skewness": stats.skewness,
            "kurtosis": stats.kurtosis,
            "kurtosis_convention": "excess",
        },
    }

    def hurst_section():
        result = estimate_hurst(ts, scales=dfa_scales, order=dfa_order)
        return {
            "estimate": result.hurst,
            "fit_r2": result.fit_r2,
            "fit_range": list(result.fit_range),
            "order": result.order,
            "n_scales": int(result.scales.size),
            "classification": classify_persistence(result.hurst),
        }

    report["hurst"] = _section(hurst_section)

    graph = None

    def graph_section():
        nonlocal graph
        graph = build_fast(ts)
        dist = degree_distribution(graph)
        return {
            "n_nodes": graph.n,
            "n_edges": graph.m,
            "mean_degree": dist.mean_degree(),
            "k_min": dist.k_min,
            "k_max": dist.k_max,
        }

    report["graph"] = _section(graph_section)

    if graph is None:
        unavailable = {
            "error": "Unavailable",
            "detail": "graph construction failed",
        }
        report["degree_tail"] = dict(unavailable)
        report["clustering"] = dict(unavailable)
        report["assortativity"] = dict(unavailable)
        report["small_world"] = dict(unavailable) if small_world else None
        return report

    def tail_section():
        fit = fit_powerlaw_tail(degree_distribution(graph), k_range=tail_k_range)
        return {
            "gamma": fit.gamma,
            "r2": fit.r2,
            "k_range": list(fit.k_range),
            "n_points": fit.n_points,
        }

    report["degree_tail"] = _section(tail_section)

    clustering_avg = None

    def clustering_section():
        nonlocal clustering_avg
        rep = clustering(graph)
        clustering_avg = rep.average
        return {"average": rep.average, "c_max": rep.c_max, "c_min": rep.c_min}

    report["clustering"] = _section(clustering_section)

    report["assortativity"] = _section(lambda: {"r": assortativity(graph)})

    if not small_world:
        report["small_world"] = None
        return report

    def small_world_section():
        curve = small_world_curve(graph, sizes=prefix_sizes)
        out = {
            "sizes": curve.sizes,
            "lengths": curve.lengths,
            "slope": curve.slope,
            "intercept": curve.intercept,
            "r2": curve.r2,
            "flat": curve.flat if curve.slope is not None else None,
            "average_path_full": float(curve.lengths[-1])
            if int(curve.sizes[-1]) == graph.n
            else all_pairs_average_path(graph),
        }
        if curve.r2 is not None and clustering_avg is not None:
            out["verdict"] = small_world_verdict(curve, clustering_avg)
        else:
            out["verdict"] = None
        return out

    report["small_world"] = _section(small_world_section)
    return report
