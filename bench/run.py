"""End-to-end and per-layer benchmark of ``tsnet analyze``.

    python3 bench/run.py --workload report-daily --seed 7 --seconds 15 --trace 0

Run from the repository root.  One process, one caller, closed loop: the
series is generated from ``--seed``, written as CSV, and
``tsnet.cli.main(["analyze", ...])`` runs back to back until
``--seconds`` have passed.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record (environment, samples, checks, spans) goes to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
pipeline's public functions (see ``tracing.py``) and reports per-layer
metrics instead.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracing import Tracer, self_times, targets

# numpy and scipy are imported inside functions, after tsnet, so that
# setup_s counts their import as part of importing tsnet.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

DEFAULT_SEED = 7
HURST = 0.8
SETUP_REPEATS = 3
MIN_TRACED_OPS = 2  # two traced ops let the exact counters be compared
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# The walk workload is a fixed reference walk plus a seed-dependent walk at
# 1/50 of its scale.  Independent walks give graphs whose edge count varies
# about 2x between seeds (IQR 56% of the median at N=2048), which would
# drown any change the benchmark is meant to resolve; the reference walk
# fixes the hub structure and so the amount of work.
WALK_REFERENCE_SEED = 0
WALK_PERTURBATION = 0.02

WORKLOADS = {
    "report-daily": {"n": 12368, "walk": False, "small_world": False},
    "smallworld-fgn": {"n": 4096, "walk": False, "small_world": True},
    "smallworld-walk": {"n": 2048, "walk": True, "small_world": True},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "analyze_s_p50": "s",
    "cpu_s_per_analyze": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "series.from_csv_s": "s",
    "series.rows": "count",
    "series.summary_s": "s",
    "dfa.estimate_hurst_s": "s",
    "dfa.windows": "count",
    "visibility.build_fast_s": "s",
    "visibility.build_fast_calls": "count",
    "visibility.edges": "count",
    "visibility.edges_per_s": "1/s",
    "netstats.clustering_s": "s",
    "netstats.clustering_edges": "count",
    "netstats.degree_distribution_s": "s",
    "netstats.fit_powerlaw_tail_s": "s",
    "netstats.assortativity_s": "s",
    "netstats.all_pairs_average_path_s": "s",
    "netstats.apsp_calls": "count",
    "netstats.apsp_sources": "count",
    "netstats.apsp_edge_visits": "count",
    "netstats.apsp_edge_visits_per_s": "1/s",
    "netstats.small_world_curve_self_s": "s",
    "report.build_report_self_s": "s",
    "report.canonical_json_s": "s",
    "report.json_bytes": "B",
    "cli.analyze_self_s": "s",
    "trace.overhead_s": "s",
}


def import_tsnet():
    """Import tsnet from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "tsnet" / "__init__.py").is_file():
        raise SystemExit(f"bench: no tsnet sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tsnet.cli

    if Path(tsnet.__file__).resolve().parent != SRC / "tsnet":
        raise SystemExit(f"bench: imported tsnet from {tsnet.__file__}, not {SRC}")
    return tsnet


def make_series(tsnet, workload: str, seed: int, n: int):
    import numpy as np

    def fgn(s):
        spec = tsnet.GeneratorSpec(kind="fgn", n=n, seed=s, params={"hurst": HURST})
        return tsnet.generate(spec).values

    if not WORKLOADS[workload]["walk"]:
        return fgn(seed)
    return np.cumsum(fgn(WALK_REFERENCE_SEED)) + WALK_PERTURBATION * np.cumsum(fgn(seed))


def write_csv(path: Path, values) -> None:
    lines = ["index,value\n"]
    lines.extend(f"{i},{float(v)!r}\n" for i, v in enumerate(values))
    path.write_text("".join(lines), newline="\n")


def analyze_once(cli, argv, report_path: Path):
    """One closed-loop operation: (wall s, cpu s, report bytes or None)."""
    report_path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # an operation that raises counts as failed
        print(f"bench: analyze raised {type(exc).__name__}: {exc}", file=sys.stderr)
        rc = None
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    data = report_path.read_bytes() if rc == 0 and report_path.is_file() else None
    return wall, cpu, data


def report_digest(data: bytes, csv_path: Path) -> str:
    """sha256 of the report with the input path (``source.path``) masked."""
    masked = data.replace(json.dumps(str(csv_path)).encode("utf-8"), b'"<input>"')
    return hashlib.sha256(masked).hexdigest()


def scipy_average_path(g) -> float:
    """Mean BFS distance over all pairs from scipy, in row batches."""
    import numpy as np
    from scipy.sparse import csgraph, csr_matrix

    n = g.n
    adj = csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n))
    total = 0
    for start in range(0, n, 512):
        rows = np.arange(start, min(start + 512, n))
        dist = csgraph.shortest_path(adj, directed=False, unweighted=True, indices=rows)
        if np.isinf(dist).any():
            return math.inf
        total += int(dist.sum())
    return total / (n * (n - 1))


def oracle_checks(tsnet, values, report: dict, small_world: bool) -> list[str]:
    """Check one report against numpy, the O(N^2) builder and scipy BFS."""
    import numpy as np

    problems = []

    def close(name, got, want):
        if got is None or not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-6):
            problems.append(f"{name}: report {got!r}, oracle {want!r}")

    close("summary.mean", report["summary"]["mean"], float(np.mean(values)))
    close("summary.max", report["summary"]["max"], float(np.max(values)))
    g = tsnet.build_naive(values)
    if report["graph"].get("n_edges") != g.m:
        problems.append(f"graph.n_edges: report {report['graph'].get('n_edges')}, build_naive {g.m}")
    if small_world:
        got = report["small_world"].get("average_path_full")
        close("small_world.average_path_full", got, scipy_average_path(g))
    return problems


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least 10 samples beyond it."""
    import numpy as np

    for p in TAIL_PERCENTILES:
        if len(samples) * (100.0 - p) / 100.0 >= 10:
            return {
                "percentile": p,
                "value": float(np.percentile(samples, p)),
                "samples": len(samples),
            }
    return None


def layer_metrics(spans: list[dict], ops: int, untraced_p50: float, traced_p50: float):
    """Per-analyze layer times and counters, plus per-op counters."""
    own = self_times(spans)
    total = defaultdict(float)
    own_total = defaultdict(float)
    sums = defaultdict(int)
    per_op = defaultdict(lambda: defaultdict(int))
    for span, self_s in zip(spans, own):
        name = span["name"]
        total[name] += span["end"] - span["start"]
        own_total[name] += self_s
        counters = per_op[span["op"]]
        if name == "series.from_csv":
            counters["series.rows"] += span.get("rows", 0)
        elif name == "dfa.estimate_hurst":
            counters["dfa.windows"] += span.get("windows", 0)
        elif name == "visibility.build_fast":
            counters["visibility.build_fast_calls"] += 1
            counters["visibility.edges"] += span.get("m", 0)
        elif name == "netstats.clustering":
            counters["netstats.clustering_edges"] += span.get("m", 0)
        elif name == "netstats.all_pairs_average_path":
            counters["netstats.apsp_calls"] += 1
            counters["netstats.apsp_sources"] += span.get("k", 0)
            counters["netstats.apsp_edge_visits"] += span.get("k", 0) * 2 * span.get("m", 0)
        elif name == "report.canonical_json":
            counters["report.json_bytes"] += span.get("bytes", 0)
    for counters in per_op.values():
        for key, value in counters.items():
            sums[key] += value

    def per(value):
        return value / ops if ops else 0.0

    def rate(count_key, time_key):
        seconds = total[time_key]
        return sums[count_key] / seconds if seconds > 0 else 0.0

    metrics = {
        "series.from_csv_s": per(total["series.from_csv"]),
        "series.rows": per(sums["series.rows"]),
        "series.summary_s": per(total["series.summary"]),
        "dfa.estimate_hurst_s": per(total["dfa.estimate_hurst"]),
        "dfa.windows": per(sums["dfa.windows"]),
        "visibility.build_fast_s": per(total["visibility.build_fast"]),
        "visibility.build_fast_calls": per(sums["visibility.build_fast_calls"]),
        "visibility.edges": per(sums["visibility.edges"]),
        "visibility.edges_per_s": rate("visibility.edges", "visibility.build_fast"),
        "netstats.clustering_s": per(total["netstats.clustering"]),
        "netstats.clustering_edges": per(sums["netstats.clustering_edges"]),
        "netstats.degree_distribution_s": per(total["netstats.degree_distribution"]),
        "netstats.fit_powerlaw_tail_s": per(total["netstats.fit_powerlaw_tail"]),
        "netstats.assortativity_s": per(total["netstats.assortativity"]),
        "netstats.all_pairs_average_path_s": per(total["netstats.all_pairs_average_path"]),
        "netstats.apsp_calls": per(sums["netstats.apsp_calls"]),
        "netstats.apsp_sources": per(sums["netstats.apsp_sources"]),
        "netstats.apsp_edge_visits": per(sums["netstats.apsp_edge_visits"]),
        "netstats.apsp_edge_visits_per_s": rate(
            "netstats.apsp_edge_visits", "netstats.all_pairs_average_path"
        ),
        "netstats.small_world_curve_self_s": per(own_total["netstats.small_world_curve"]),
        "report.build_report_self_s": per(own_total["report.build_report"]),
        "report.canonical_json_s": per(total["report.canonical_json"]),
        "report.json_bytes": per(sums["report.json_bytes"]),
        "cli.analyze_self_s": per(own_total["cli.main"]),
        "trace.overhead_s": traced_p50 - untraced_p50,
    }
    analyze_s = total["cli.main"]
    shares = {
        name: own_total[name] / analyze_s for name in sorted(own_total) if analyze_s > 0
    }
    counters = {op: dict(sorted(c.items())) for op, c in per_op.items() if op is not None}
    return metrics, shares, counters


def environment(seed: int, tsnet_threads) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "TSNET_THREADS": tsnet_threads,
        "git_sha": git_sha(ROOT),
        "src_sha256": src_digest(SRC),
        "seed": seed,
    }


def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``.git`` directly; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(src: Path) -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((src / "tsnet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool,
        n: int | None = None, out_dir: Path = OUT) -> dict:
    """One benchmark run; returns the full record (also written to out_dir)."""
    tsnet_threads = os.environ.pop("TSNET_THREADS", None)  # single-threaded default
    spec = WORKLOADS[workload]
    n = spec["n"] if n is None else n

    t0 = time.perf_counter()
    tsnet = import_tsnet()
    import_s = time.perf_counter() - t0
    from tsnet import cli, netstats, report

    work = out_dir / f"work-{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    csv_path = work / "series.csv"
    report_path = work / "report.json"
    argv = ["analyze", "--input", str(csv_path), "--report", str(report_path)]
    if spec["small_world"]:
        argv.append("--small-world")

    try:
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            values = make_series(tsnet, workload, seed, n)
            write_csv(csv_path, values)
            prepare_s.append(time.perf_counter() - t0)
        warmup_s, _, reference = analyze_once(cli, argv, report_path)
        setup_s = import_s + statistics.median(prepare_s) + warmup_s

        problems = []
        walls, cpus, traced_walls = [], [], []
        failed = 0
        tracer = Tracer()

        def loop(budget, min_ops, sink, traced):
            nonlocal failed
            end = time.perf_counter() + budget
            while len(sink) < min_ops or time.perf_counter() < end:
                if traced:
                    tracer.op = len(sink)
                    with tracer.patched(targets(cli, report, netstats)):
                        with tracer.span("cli.main"):
                            wall, cpu, data = analyze_once(cli, argv, report_path)
                else:
                    wall, cpu, data = analyze_once(cli, argv, report_path)
                sink.append(wall)
                if not traced:
                    cpus.append(cpu)
                if reference is None or data != reference:
                    failed += 1

        if reference is None:
            problems.append("warm-up analyze failed")
            walls.append(warmup_s)
            failed = 1
        elif trace:
            loop(seconds / 2, 1, walls, False)
            loop(seconds / 2, MIN_TRACED_OPS, traced_walls, True)
        else:
            loop(seconds, 1, walls, False)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        digest = None
        if reference is not None:
            digest = report_digest(reference, csv_path)
            golden = json.loads(GOLDEN.read_text())
            if seed == DEFAULT_SEED and n == spec["n"] and golden.get(workload) != digest:
                problems.append(f"report sha256 {digest} differs from golden {golden.get(workload)}")
            problems.extend(
                oracle_checks(tsnet, values, json.loads(reference), spec["small_world"])
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(walls) + len(traced_walls)
    record = {
        "workload": workload,
        "n": n,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed, tsnet_threads),
        "report_sha256": digest,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "samples": {"analyze_wall_s": walls, "analyze_cpu_s": cpus,
                    "traced_analyze_wall_s": traced_walls, "prepare_s": prepare_s,
                    "import_s": import_s, "warmup_s": warmup_s},
    }
    if trace:
        metrics, shares, counters = layer_metrics(
            tracer.spans, len(traced_walls), statistics.median(walls),
            statistics.median(traced_walls) if traced_walls else 0.0,
        )
        distinct = {json.dumps(c, sort_keys=True) for c in counters.values()}
        if len(distinct) > 1:
            problems.append(f"exact counters differ between traced ops: {sorted(distinct)}")
        record.update(
            metrics={k: {"value": metrics[k], "unit": u} for k, u in LAYER_UNITS.items()},
            self_time_share=shares,
            counters=next(iter(counters.values()), {}),
            spans=tracer.spans,
        )
    else:
        values_e2e = {
            "setup_s": setup_s,
            "analyze_s_p50": statistics.median(walls),
            "cpu_s_per_analyze": statistics.median(cpus) if cpus else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        record.update(
            metrics={k: {"value": values_e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()},
            analyze_s_tail=tail(walls),
        )
    record["problems"] = problems
    record["correct"] = not problems and failed == 0

    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
