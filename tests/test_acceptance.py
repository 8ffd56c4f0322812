"""Acceptance suite: one test per acceptance criterion.

Every criterion prints a single ``[PASS]``/``[FAIL]``/``[SKIP]`` line
with capture suspended, so verdicts appear on the terminal even for
passing tests.  Criterion 6 needs the public index data in the directory
named by ``TSNET_EPU_DATA``; without it the test is skipped with the
missing file named, and a synthetic stand-in (6b) still exercises the
full-size runtime envelope.  Criterion 7 compares the natural visibility
graph of iid uniform noise with its exact expected mean degree, which
``oracles.py`` integrates in closed form (4.0 is the horizontal visibility
graph's value, a construction this package does not implement).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from tsnet import (
    GeneratorSpec,
    TimeSeries,
    all_pairs_average_path,
    assortativity,
    build_fast,
    build_naive,
    build_report,
    clustering,
    default_prefix_sizes,
    degree_distribution,
    dfa_fluctuation,
    fit_hurst,
    fit_powerlaw_tail,
    from_csv,
    generate,
    run_stages,
    small_world_curve,
    summary,
)
from tsnet.cli import main as cli_main

from oracles import (
    assortativity_direct,
    clustering_by_triples,
    edge_set,
    floyd_warshall_average_path,
    graph_from_pairs,
    iid_uniform_mean_degree,
    iid_uniform_visibility_probability,
)


@pytest.fixture
def announce(capsys):
    def _announce(name: str, status: str, detail: str = "") -> None:
        line = f"[{status}] {name}"
        if detail:
            line += f" -- {detail}"
        with capsys.disabled():
            print(line, flush=True)

    return _announce


@pytest.fixture
def check(announce):
    def _check(name: str, ok: bool, detail: str = "") -> None:
        announce(name, "PASS" if ok else "FAIL", detail)
        assert ok, f"{name}: {detail}"

    return _check


def edge_arrays_equal(y) -> bool:
    return np.array_equal(build_fast(y).edge_array(), build_naive(y).edge_array())


def test_criterion_1_builder_equivalence(check):
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    specs = []
    for i in range(125):
        n = int(rng.integers(2, 2001))
        specs.append(GeneratorSpec(kind="iid_uniform", n=n, seed=1000 + i))
        n = int(rng.integers(2, 2001))
        specs.append(GeneratorSpec(kind="iid_gaussian", n=n, seed=2000 + i))
        n = int(rng.integers(2, 2001))
        specs.append(GeneratorSpec(kind="fgn", n=n, seed=3000 + i, params={"hurst": 0.3}))
        n = int(rng.integers(2, 2001))
        specs.append(GeneratorSpec(kind="fgn", n=n, seed=4000 + i, params={"hurst": 0.8}))
    adversarial = [
        GeneratorSpec(kind="constant", n=64),
        GeneratorSpec(kind="linear", n=257, params={"slope": -3.0}),
        GeneratorSpec(kind="convex", n=300),
        GeneratorSpec(kind="sawtooth", n=200, params={"period": 7}),
        GeneratorSpec(kind="spike", n=101),
        GeneratorSpec(kind="constant", n=2),
        GeneratorSpec(kind="linear", n=3),
    ]
    mismatches = 0
    for spec in specs + adversarial:
        if not edge_arrays_equal(generate(spec).values):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 120
    check(
        "criterion 1 (fast builder == naive builder)",
        ok,
        f"{len(specs) + len(adversarial)} series, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_analytic_graphs(check):
    problems = []
    # Slopes are dyadic so slope * k + intercept is exact and the points
    # really are collinear; an unrepresentable slope such as 0.4 yields a
    # series that is not a straight line at the last bit.
    for slope, intercept in [(1.0, 0.0), (-0.5, 9.0)]:
        y = intercept + slope * np.arange(50, dtype=float)
        if edge_set(build_fast(y)) != {(i, i + 1) for i in range(49)}:
            problems.append(f"linear slope={slope} not a path")
    n = 40
    g = build_fast(np.arange(n, dtype=float) ** 2)
    if g.m != n * (n - 1) // 2:
        problems.append(f"convex gave m={g.m}, want {n * (n - 1) // 2}")
    if (0, 2) in edge_set(build_fast(np.array([0.0, 1.0, 2.0]))):
        problems.append("collinear triple produced the (0,2) edge")
    check(
        "criterion 2 (analytic graph cases exact)",
        not problems,
        "; ".join(problems) or "path, complete, collinear all exact",
    )


def test_criterion_3_affine_invariance(check):
    rng = np.random.default_rng(103)
    mismatches = 0
    for trial in range(100):
        n = int(rng.integers(10, 500))
        y = rng.normal(size=n) if trial % 2 else rng.random(n)
        reference = build_fast(y).edge_array()
        for a in (0.5, 3.0):
            for b in (-10.0, 7.0):
                if not np.array_equal(build_fast(a * y + b).edge_array(), reference):
                    mismatches += 1
    check(
        "criterion 3 (affine invariance exact)",
        mismatches == 0,
        f"100 series x 4 maps, {mismatches} mismatches",
    )


def test_criterion_4_dfa(check):
    started = time.perf_counter()
    problems = []

    y = 5.0 + 2.0 * np.arange(8192, dtype=float)
    rel = dfa_fluctuation(y, order=2).fluctuations / np.abs(y).max()
    if rel.max() > 1e-9:
        problems.append(f"linear residual {rel.max():.2e} > 1e-9")

    mean_h = np.mean(
        [
            fit_hurst(dfa_fluctuation(
                generate(GeneratorSpec(kind="iid_gaussian", n=16384, seed=s))
            )).hurst
            for s in range(10)
        ]
    )
    if abs(mean_h - 0.50) > 0.05:
        problems.append(f"white-noise mean H {mean_h:.3f} outside 0.50 +- 0.05")

    mean_h8 = np.mean(
        [
            fit_hurst(dfa_fluctuation(
                generate(
                    GeneratorSpec(kind="fgn", n=16384, seed=s, params={"hurst": 0.8})
                )
            )).hurst
            for s in range(10)
        ]
    )
    if abs(mean_h8 - 0.80) > 0.05:
        problems.append(f"fgn(0.8) mean H {mean_h8:.3f} outside 0.80 +- 0.05")

    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        problems.append(f"runtime {elapsed:.0f}s >= 60s")
    check(
        "criterion 4 (DFA calibration)",
        not problems,
        "; ".join(problems)
        or f"linear ~0, H(noise)={mean_h:.3f}, H(fgn 0.8)={mean_h8:.3f}, {elapsed:.0f}s",
    )


def test_criterion_5_netstat_oracles(check):
    problems = []
    rng = np.random.default_rng(105)
    for _ in range(10):
        n = int(rng.integers(50, 301))
        g = build_fast(rng.normal(size=n))
        rep = clustering(g)
        if np.abs(rep.per_node - clustering_by_triples(g)).max() > 1e-9:
            problems.append(f"clustering mismatch at n={n}")
        if abs(assortativity(g) - assortativity_direct(g)) > 1e-9:
            problems.append(f"assortativity mismatch at n={n}")
        if abs(all_pairs_average_path(g) - floyd_warshall_average_path(g)) > 1e-9:
            problems.append(f"path length mismatch at n={n}")

    star = graph_from_pairs(4, [(0, 1), (0, 2), (0, 3)])
    if assortativity(star) != -1.0:
        problems.append("star assortativity != -1")
    k4 = graph_from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    if clustering(k4).average != 1.0 or all_pairs_average_path(k4) != 1.0:
        problems.append("K4 C or L wrong")
    path3 = graph_from_pairs(3, [(0, 1), (1, 2)])
    if abs(all_pairs_average_path(path3) - 4.0 / 3.0) > 1e-12:
        problems.append("3-path L != 4/3")
    if assortativity(path3) != -1.0:
        problems.append("3-path assortativity != -1")
    check(
        "criterion 5 (netstats vs brute-force oracles)",
        not problems,
        "; ".join(problems) or "10 random VGs + analytic graphs all agree",
    )


# Reference values for the November 2018 vintage of the public
# policy-uncertainty indices.  Later vintages are revised upstream, so
# each series is windowed to the dates below before comparison.
EPU_REFERENCE = {
    "us-daily": {
        "column": "epu",
        "window": ("1985-01-01", "2018-11-11"),
        "n": 12368,
        "table1": (100.93, 83.63, 3.32, 719.07, 68.43, 1.86, 5.95),
        "mean_degree": 6.99,
        "k_max": 158,
        "k_min": 2,
        "gamma": 2.78,
        "c_avg": 0.77,
        "r": 0.12,
        "hurst": 0.835,
    },
    "us-monthly": {
        "column": "epu",
        "window": ("1985-01", "2018-11"),
        "n": 407,
        "table1": (108.11, 102.20, 57.20, 245.13, 31.30, 0.96, 0.86),
        "mean_degree": 7.86,
        "k_max": 56,
        "k_min": 2,
        "gamma": 1.99,
        "c_avg": 0.76,
        "r": 0.08,
        "hurst": 0.915,
    },
    "us-monthly-news": {
        "column": "news_epu",
        "window": ("1985-01", "2018-11"),
        "n": 407,
        "table1": (111.26, 102.02, 44.78, 283.67, 40.10, 1.27, 1.95),
        "mean_degree": 7.97,
        "k_max": 56,
        "k_min": 2,
        "gamma": 2.13,
        "c_avg": 0.77,
        "r": 0.04,
        "hurst": 0.801,
    },
    "cn-monthly": {
        "column": "epu",
        "window": ("1995-01", "2018-11"),
        "n": 286,
        "table1": (143.75, 104.43, 9.07, 694.85, 117.16, 2.22, 5.32),
        "mean_degree": 8.06,
        "k_max": 59,
        "k_min": 2,
        "gamma": 1.83,
        "c_avg": 0.76,
        "r": 0.07,
        "hurst": 0.924,
    },
}

DAILY_SMALL_WORLD = {"slope": 0.626, "intercept": 0.405}


def _resolve_epu_files():
    """The index CSVs in the TSNET_EPU_DATA directory; None + reason.

    Reads only that directory and never downloads, so the suite stays
    offline; ``tsnet fetch NAME --out-dir DIR`` writes the files.
    """
    found = {}
    env_dir = os.environ.get("TSNET_EPU_DATA", "")
    for name in ("us-daily", "us-monthly", "cn-monthly"):
        if not env_dir:
            return None, f"{name}.csv not found: TSNET_EPU_DATA is unset"
        local = Path(env_dir) / f"{name}.csv"
        if not local.exists():
            return None, f"{local} not found"
        found[name] = local
    return found, ""


def _vintage_window(ts: TimeSeries, lo: str, hi: str, n_ref: int):
    stamps = ts.timestamps
    inside = [i for i, t in enumerate(stamps) if lo <= t <= hi]
    if len(inside) < n_ref:
        return None
    start = inside[0]
    return TimeSeries(
        ts.values[start : start + n_ref],
        label=ts.label,
        timestamps=stamps[start : start + n_ref],
    )


def test_criterion_6_reproduction(announce, check):
    name6 = "criterion 6 (published-statistics reproduction)"
    files, reason = _resolve_epu_files()
    if files is None:
        announce(name6, "SKIP", f"dataset unavailable ({reason})")
        pytest.skip(f"dataset unavailable: {reason}")

    series = {}
    for key, ref in EPU_REFERENCE.items():
        src = files["us-monthly" if key == "us-monthly-news" else key]
        ts = from_csv(src.read_bytes(), column=ref["column"], date_column="date")
        windowed = _vintage_window(ts, *ref["window"], ref["n"])
        if windowed is None:
            announce(name6, "SKIP", f"{key}: vintage shorter than {ref['n']} rows")
            pytest.skip(f"{key}: vintage too short")
        series[key] = windowed

    problems = []

    def expect(label, observed, target, tol, relative=False):
        bound = tol * abs(target) if relative else tol
        if abs(observed - target) > bound:
            problems.append(f"{label}: {observed:.4g} vs {target:.4g}")

    daily_started = time.perf_counter()
    for key, ref in EPU_REFERENCE.items():
        ts = series[key]
        mean, median, lo, hi, std, skew, kurt = ref["table1"]
        s = summary(ts)
        expect(f"{key} mean", s.mean, mean, 0.005, relative=True)
        expect(f"{key} median", s.median, median, 0.005, relative=True)
        expect(f"{key} min", s.min, lo, 0.005, relative=True)
        expect(f"{key} max", s.max, hi, 0.005, relative=True)
        expect(f"{key} std", s.std_dev, std, 0.005, relative=True)
        expect(f"{key} skew", s.skewness, skew, 0.005, relative=True)
        expect(f"{key} kurtosis", s.kurtosis, kurt, 0.005, relative=True)

        g = build_fast(ts)
        dist = degree_distribution(g)
        expect(f"{key} mean degree", dist.mean_degree(), ref["mean_degree"], 0.05)
        if dist.k_max != ref["k_max"]:
            problems.append(f"{key} k_max: {dist.k_max} vs {ref['k_max']}")
        if dist.k_min != ref["k_min"]:
            problems.append(f"{key} k_min: {dist.k_min} vs {ref['k_min']}")
        expect(f"{key} C", clustering(g).average, ref["c_avg"], 0.01)
        expect(f"{key} r", assortativity(g), ref["r"], 0.02)
        expect(f"{key} gamma", fit_powerlaw_tail(dist).gamma, ref["gamma"], 0.15)
        hurst = fit_hurst(dfa_fluctuation(ts)).hurst
        expect(f"{key} hurst", hurst, ref["hurst"], 0.05)

    curve = small_world_curve(build_fast(series["us-daily"]))
    expect("us-daily L(N) slope", curve.slope, DAILY_SMALL_WORLD["slope"], 0.05)
    expect(
        "us-daily L(N) intercept", curve.intercept, DAILY_SMALL_WORLD["intercept"], 0.15
    )
    daily_elapsed = time.perf_counter() - daily_started
    if daily_elapsed >= 300:
        problems.append(f"daily pipeline took {daily_elapsed:.0f}s >= 300s")

    check(name6, not problems, "; ".join(problems[:8]) or "all within tolerance")


def test_criterion_6b_runtime_envelope_synthetic(check):
    # Timing stand-in for the daily pipeline when the real data cannot be
    # fetched: same length, same stages, persistent synthetic input.
    ts = generate(GeneratorSpec(kind="fgn", n=12368, seed=7, params={"hurst": 0.8}))
    started = time.perf_counter()
    report = build_report(run_stages(ts, small_world=True))
    elapsed = time.perf_counter() - started
    sections_ok = (
        report["graph"]["n_nodes"] == 12368
        and report["hurst"].get("estimate") is not None
        and report["clustering"].get("average") is not None
        and report["small_world"].get("slope") is not None
        and len(report["small_world"]["sizes"]) >= 25
    )
    ok = elapsed < 300 and sections_ok
    check(
        "criterion 6b (daily-size runtime envelope, synthetic)",
        ok,
        f"N=12368 full pipeline in {elapsed:.0f}s (budget 300s)",
    )


def test_criterion_7_mean_degree_asymptotic(check):
    # The natural visibility graph of iid Uniform(0, 1) noise has an exact
    # expected mean degree: 5.478 at n = 10 000, 5.486 as n -> infinity.
    # The 4.0 often quoted is the horizontal visibility graph's value.
    n, seeds = 10_000, range(10)
    observed = []
    visible = {2: 0, 3: 0, 4: 0}
    for seed in seeds:
        g = build_fast(generate(GeneratorSpec(kind="iid_uniform", n=n, seed=seed)))
        observed.append(2.0 * g.m / g.n)
        gaps = np.diff(g.edge_array(), axis=1).ravel()
        for d in visible:
            visible[d] += int(np.count_nonzero(gaps == d))
    mean_degree = float(np.mean(observed))
    target = iid_uniform_mean_degree(n)
    problems = []
    # Over 10 seeds the mean degree has a standard deviation of 0.027, so its
    # standard error is about 0.009 and 0.05 is about 5 of them.  A graph
    # that drops or adds 2% of its edges (about 0.11), or one at 4.0, fails.
    if abs(mean_degree - target) > 0.05:
        problems.append(f"mean degree {mean_degree:.3f} vs exact {target:.3f} +- 0.05")
    # The expectation rests on p_d; check the first ones one distance at a
    # time, to 4 binomial standard errors (about 0.006 over 1e5 pairs).
    for d, count in visible.items():
        pairs = len(seeds) * (n - d)
        p = float(iid_uniform_visibility_probability(d))
        bound = 4.0 * math.sqrt(p * (1.0 - p) / pairs)
        if abs(count / pairs - p) > bound:
            problems.append(f"p_{d} {count / pairs:.4f} vs exact {p:.4f} +- {bound:.4f}")
    check(
        "criterion 7 (iid uniform mean degree = exact natural-VG expectation +- 0.05)",
        not problems,
        "; ".join(problems)
        or f"observed {mean_degree:.3f} vs exact {target:.3f} over 10 seeds, p_2..p_4 agree",
    )


def test_criterion_8_determinism(tmp_path, check):
    src = tmp_path / "fixture.csv"
    assert (
        cli_main(
            ["gen", "--kind", "fgn", "--n", "1200", "--seed", "11", "--hurst", "0.8",
             "--out", str(src)]
        )
        == 0
    )
    outputs = []
    for run_idx in range(3):
        out = tmp_path / f"report{run_idx}.json"
        code = cli_main(
            ["analyze", "--input", str(src), "--column", "value", "--small-world",
             "--report", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    check(
        "criterion 8 (byte-identical reports across runs)",
        ok,
        f"3 runs, {len(outputs[0])} bytes each" if ok else "byte difference found",
    )
