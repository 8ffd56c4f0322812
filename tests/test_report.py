import hashlib
import math

import numpy as np
import pytest

import tsnet.netstats
from tsnet import GeneratorSpec, InvalidParam, generate
from tsnet.report import build_report, canonical_json, run_stages


def test_canonical_json_maps_non_finite_to_null():
    text = canonical_json({"b": [math.nan, math.inf], "a": np.float64(-np.inf), "c": 1.5})
    assert text == '{\n  "a": null,\n  "b": [\n    null,\n    null\n  ],\n  "c": 1.5\n}\n'


# canonical report of fGn n=1024 seed 3 with prefix sizes 64,128,256, from
# the code that still ran this all-pairs search while rendering
SHORT_CURVE_REPORT_SHA256 = "b63785aea590578751d57575dae33d615082596df3c6c447dabb6ba641811731"


@pytest.fixture
def kernel_calls(monkeypatch):
    """The node counts of the graphs that ``_average_path`` and
    ``_dominators`` see, by kernel name."""
    calls = {"_average_path": [], "_dominators": []}

    def count(name):
        original = getattr(tsnet.netstats, name)

        def counted(g, *args):
            calls[name].append(g.n)
            return original(g, *args)

        monkeypatch.setattr(tsnet.netstats, name, counted)

    count("_average_path")
    count("_dominators")
    return calls


def _fgn_1024():
    return generate(GeneratorSpec(kind="fgn", n=1024, seed=3, params={"hurst": 0.8}))


class TestAveragePathStage:
    """The whole graph's average path comes from the small-world curve,
    which finds the dominators once."""

    def test_short_curve_runs_all_pairs_as_a_stage(self, kernel_calls):
        stages = run_stages(_fgn_1024(), small_world=True, prefix_sizes=[64, 128, 256])
        expected = {"_average_path": [64, 128, 256, 1024], "_dominators": [1024]}
        assert kernel_calls == expected
        text = canonical_json(build_report(stages))
        assert kernel_calls == expected  # rendering computes nothing
        assert hashlib.sha256(text.encode()).hexdigest() == SHORT_CURVE_REPORT_SHA256

    def test_full_curve_reuses_its_last_length(self, kernel_calls):
        stages = run_stages(_fgn_1024(), small_world=True, prefix_sizes=[64, 1024])
        assert kernel_calls == {"_average_path": [64, 1024], "_dominators": [1024]}
        curve = stages["curve"]
        assert curve.average_path_full == float(curve.lengths[-1])
        assert curve.average_path_full == tsnet.netstats.all_pairs_average_path(
            stages["graph"]
        )

    def test_failed_curve_is_the_stage_error(self, kernel_calls):
        stages = run_stages(_fgn_1024(), small_world=True, prefix_sizes=[])
        assert isinstance(stages["curve"], InvalidParam)
        assert "average_path" not in stages
        assert kernel_calls == {"_average_path": [], "_dominators": []}

    def test_no_stage_without_small_world(self, kernel_calls):
        stages = run_stages(_fgn_1024())
        assert stages["curve"] is None and "average_path" not in stages
        assert kernel_calls == {"_average_path": [], "_dominators": []}
