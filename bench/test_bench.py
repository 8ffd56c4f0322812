"""Fast self-test of the benchmark at tiny N.

    python3 -m pytest -q bench

Runs every workload's code path untraced and traced, and checks that
every metric is emitted, nothing fails and the exact counters repeat.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY_N = {"report-daily": 300, "smallworld-fgn": 256, "smallworld-walk": 160}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_emits_every_metric(workload, tmp_path):
    n = TINY_N[workload]
    plain = run.run(workload, 3, 1.0, False, n=n, out_dir=tmp_path)
    assert plain["correct"], plain["problems"]
    assert plain["failed_frac"] == 0
    assert set(plain["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert "analyze_s_tail" in plain
    env = plain["environment"]
    for key in ("nproc", "python", "numpy", "scipy", "TSNET_THREADS", "git_sha", "seed"):
        assert key in env

    traced = [run.run(workload, 3, 0.1, True, n=n, out_dir=tmp_path) for _ in range(2)]
    for record in traced:
        assert record["correct"], record["problems"]
        assert record["failed_frac"] == 0
        assert set(record["metrics"]) == set(run.LAYER_UNITS)
        assert record["spans"]
    assert traced[0]["counters"] == traced[1]["counters"]
    assert (tmp_path / f"{workload}-seed3-trace1.json").is_file()

    apsp_calls = traced[0]["metrics"]["netstats.apsp_calls"]["value"]
    builds = traced[0]["metrics"]["visibility.build_fast_calls"]["value"]
    if run.WORKLOADS[workload]["small_world"]:
        assert apsp_calls > 0 and builds > 1
    else:
        assert apsp_calls == 0 and builds == 1
        assert plain["analyze_s_tail"] is not None


def test_traced_run_restores_pipeline(tmp_path):
    run.import_tsnet()
    from tsnet import cli, netstats, report

    before = [getattr(m, a) for m, a, _, _ in run.targets(cli, report, netstats)]
    run.run("report-daily", 1, 0.0, True, n=300, out_dir=tmp_path)
    after = [getattr(m, a) for m, a, _, _ in run.targets(cli, report, netstats)]
    assert before == after


def test_default_seed_matches_golden_report(tmp_path):
    record = run.run("report-daily", run.DEFAULT_SEED, 0.0, False, out_dir=tmp_path)
    golden = json.loads(run.GOLDEN.read_text())
    assert record["report_sha256"] == golden["report-daily"]
    assert record["correct"], record["problems"]


def test_benchmark_json_names_match():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report-daily", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
