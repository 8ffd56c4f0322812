import hashlib
import math

import numpy as np
import pytest

import tsnet.report
from tsnet import GeneratorSpec, InvalidParam, generate
from tsnet.report import build_report, canonical_json, run_stages


def test_canonical_json_maps_non_finite_to_null():
    text = canonical_json({"b": [math.nan, math.inf], "a": np.float64(-np.inf), "c": 1.5})
    assert text == '{\n  "a": null,\n  "b": [\n    null,\n    null\n  ],\n  "c": 1.5\n}\n'


# canonical report of fGn n=1024 seed 3 with prefix sizes 64,128,256, from
# the code that still ran this all-pairs search while rendering
SHORT_CURVE_REPORT_SHA256 = "b63785aea590578751d57575dae33d615082596df3c6c447dabb6ba641811731"


@pytest.fixture
def counted_all_pairs(monkeypatch):
    calls = []
    original = tsnet.report.all_pairs_average_path

    def counted(g):
        calls.append(g.n)
        return original(g)

    monkeypatch.setattr(tsnet.report, "all_pairs_average_path", counted)
    return calls


def _fgn_1024():
    return generate(GeneratorSpec(kind="fgn", n=1024, seed=3, params={"hurst": 0.8}))


class TestAveragePathStage:
    def test_short_curve_runs_all_pairs_as_a_stage(self, counted_all_pairs):
        stages = run_stages(_fgn_1024(), small_world=True, prefix_sizes=[64, 128, 256])
        assert counted_all_pairs == [1024]
        text = canonical_json(build_report(stages))
        assert counted_all_pairs == [1024]  # rendering computes nothing
        assert hashlib.sha256(text.encode()).hexdigest() == SHORT_CURVE_REPORT_SHA256

    def test_full_curve_reuses_its_last_length(self, counted_all_pairs):
        stages = run_stages(_fgn_1024(), small_world=True, prefix_sizes=[64, 1024])
        assert counted_all_pairs == []
        assert stages["average_path"] == float(stages["curve"].lengths[-1])

    def test_failed_curve_is_the_stage_error(self, counted_all_pairs):
        stages = run_stages(_fgn_1024(), small_world=True, prefix_sizes=[])
        assert isinstance(stages["curve"], InvalidParam)
        assert stages["average_path"] is stages["curve"]
        assert counted_all_pairs == []

    def test_no_stage_without_small_world(self, counted_all_pairs):
        stages = run_stages(_fgn_1024())
        assert stages["curve"] is None and stages["average_path"] is None
