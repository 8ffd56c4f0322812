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
from dataclasses import asdict

import numpy as np

from . import __version__
from .dfa import classify_persistence, dfa_fluctuation, fit_hurst
from .errors import TsnetError, Unavailable
from .netstats import (
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


def run_stage(compute, *needs):
    """``compute(*needs)``, or the :class:`TsnetError` that stopped it.

    Runs each stage of :func:`run_stages` and each section render of
    :func:`build_report`.  A stage whose need failed is not run and
    fails with :class:`Unavailable`; every stage that has a need needs
    the graph.
    """
    if any(isinstance(need, TsnetError) for need in needs):
        return Unavailable("graph construction failed")
    try:
        return compute(*needs)
    except TsnetError as exc:
        return exc


def _section(render, result):
    """``render(result)``, or the error of the result or of the render."""
    out = result if isinstance(result, TsnetError) else run_stage(render, result)
    if isinstance(out, TsnetError):
        return {"error": type(out).__name__, "detail": str(out)}
    return out


def _small_world_section(curve, clust) -> dict:
    verdict = (small_world_verdict(curve, clust.average)
               if curve.r2 is not None and not isinstance(clust, TsnetError) else None)
    return {**asdict(curve), "verdict": verdict}


def _hurst_section(h) -> dict:
    return {
        "estimate": h.hurst,
        "fit_r2": h.fit_r2,
        "fit_range": list(h.fit_range),
        "order": h.order,
        "n_scales": int(h.scales.size),
        "classification": classify_persistence(h.hurst),
    }


def run_stages(
    ts: TimeSeries,
    *,
    dfa_order: int = 2,
    dfa_scales=None,
    tail_kmin: int | None = None,
    small_world: bool = False,
    prefix_sizes: list[int] | None = None,
) -> dict:
    """Run the pipeline on one series: each stage's result by name, or the
    :class:`TsnetError` that stopped it (``Unavailable`` where the graph
    failed, but ``dist`` is then the graph's own error).  ``curve`` is None
    without ``small_world``.
    """
    stages = {"label": ts.label, "summary": summary(ts)}
    stages["dfa"] = run_stage(
        lambda: dfa_fluctuation(ts, scales=dfa_scales, order=dfa_order)
    )
    graph = stages["graph"] = run_stage(build_fast, ts)
    # where the graph failed, dist is its own error rather than Unavailable,
    # so that the graph section and the degree pdf both say why
    dist = stages["dist"] = (graph if isinstance(graph, TsnetError)
                             else run_stage(degree_distribution, graph))
    stages["tail"] = run_stage(lambda d: fit_powerlaw_tail(d, k_min=tail_kmin), dist)
    stages["clustering"] = run_stage(clustering, graph)
    stages["assortativity"] = run_stage(assortativity, graph)
    stages["curve"] = run_stage(
        lambda g: small_world_curve(g, sizes=prefix_sizes), graph
    ) if small_world else None
    return stages


def build_report(stages: dict, source: dict | None = None) -> dict:
    """Render :func:`run_stages`' results; a failed stage reads
    ``{"error": <name>, "detail": ...}`` in its section.  The Hurst fit
    runs here, so its own error (``DegenerateFit``) lands there too.
    The ``summary``, ``degree_tail`` and ``small_world`` sections are the
    fields of their result types.
    """
    graph, clust, curve = stages["graph"], stages["clustering"], stages["curve"]
    return {
        "schema": SCHEMA,
        "tool_version": __version__,
        "label": stages["label"],
        "source": source,
        "summary": {**asdict(stages["summary"]), "kurtosis_convention": "excess"},
        "hurst": _section(lambda f: _hurst_section(fit_hurst(f)), stages["dfa"]),
        "graph": _section(lambda d: {
            "n_nodes": graph.n,
            "n_edges": graph.m,
            "mean_degree": d.mean_degree(),
            "k_min": d.k_min,
            "k_max": d.k_max,
        }, stages["dist"]),
        "degree_tail": _section(asdict, stages["tail"]),
        "clustering": _section(
            lambda c: {"average": c.average, "c_max": c.c_max, "c_min": c.c_min}, clust
        ),
        "assortativity": _section(lambda r: {"r": r}, stages["assortativity"]),
        "small_world": _section(lambda c: _small_world_section(c, clust), curve)
        if curve is not None else None,
    }
