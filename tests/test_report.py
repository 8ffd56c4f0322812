import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

import tsnet.netstats
from tsnet import GeneratorSpec, InvalidParam, generate
from tsnet.report import build_report, canonical_json, run_stages
from tsnet.visibility import build_fast


def test_canonical_json_maps_non_finite_to_null():
    text = canonical_json({"b": [math.nan, math.inf], "a": np.float64(-np.inf), "c": 1.5})
    assert text == '{\n  "a": null,\n  "b": [\n    null,\n    null\n  ],\n  "c": 1.5\n}\n'


# canonical report of fGn n=1024 seed 3 with prefix sizes 64,128,256, from
# the code that still ran this all-pairs search while rendering
SHORT_CURVE_REPORT_SHA256 = "b63785aea590578751d57575dae33d615082596df3c6c447dabb6ba641811731"


@pytest.fixture
def kernel_calls(monkeypatch):
    """Per call, by kernel name: the block sizes that ``_block_sums`` runs
    (given CSR arrays and block starts), and the node counts of the graphs
    that ``_dominators`` and the triangle count ``_common_neighbors`` see."""
    calls = {"_block_sums": [], "_dominators": [], "_common_neighbors": []}

    def count(name, nodes):
        original = getattr(tsnet.netstats, name)

        def counted(*args):
            calls[name].append(nodes(*args))
            return original(*args)

        monkeypatch.setattr(tsnet.netstats, name, counted)

    count("_block_sums", lambda indptr, indices, dom, starts: np.diff(starts).tolist())
    count("_dominators", lambda g: g.n)
    count("_common_neighbors", lambda g: g.n)
    return calls


def _fgn_1024():
    return generate(GeneratorSpec(kind="fgn", n=1024, seed=3, params={"hurst": 0.8}))


def test_non_integral_arguments_land_in_their_sections():
    # a bare ValueError from int(nan) would escape run_stages
    ts = generate(GeneratorSpec(kind="fgn", n=128, seed=3, params={"hurst": 0.8}))
    stages = run_stages(ts, dfa_scales=[8, math.nan], small_world=True,
                        prefix_sizes=[64, math.nan])
    assert isinstance(stages["dfa"], InvalidParam)
    assert isinstance(stages["curve"], InvalidParam)
    report = build_report(stages)
    assert report["hurst"]["error"] == report["small_world"]["error"] == "InvalidParam"
    assert "error" not in report["degree_tail"] and "error" not in report["clustering"]


@pytest.mark.parametrize("stage", ["series", "dfa", "graph", "dist", "clustering", "curve"])
def test_array_results_compare_by_identity(stage):
    # TimeSeries, DfaResult, VisibilityGraph, DegreeDistribution,
    # ClusteringReport and SmallWorldCurve hold arrays
    def result():
        ts = generate(GeneratorSpec(kind="fgn", n=128, seed=3, params={"hurst": 0.8}))
        return {"series": ts, **run_stages(ts, small_world=True, prefix_sizes=[64, 128])}[stage]

    a, b = result(), result()
    assert (a == a) is True and (a == b) is False and (a != b) is True


class TestAveragePathStage:
    """The whole graph's average path comes from the small-world curve,
    which finds the dominators once and runs each block of more than two
    nodes once, in the first prefix that has it."""

    def test_short_curve_runs_all_pairs_as_a_stage(self, kernel_calls):
        stages = run_stages(_fgn_1024(), small_world=True, prefix_sizes=[64, 128, 256])
        blocks = (
            [5, 55, 6]  # prefix 64: [0, 4], [4, 58], [58, 63]
            + [68, 3]  # prefix 128 adds [58, 125], [125, 127]
            + [135, 54, 11]  # prefix 256 adds [58, 192], [192, 245], [245, 255]
            # the whole graph adds [192, 489], [489, 879], [879, 995], [995, 1022]
            + [298, 391, 117, 28]
        )
        # every block fits one pass, so the blocks of each pass width, in
        # words, run as one union: 1, 2, 3, 5 and 7 words
        calls = [[5, 55, 6, 3, 54, 11, 28], [68, 117], [135], [298], [391]]
        assert sorted(n for call in calls for n in call) == sorted(blocks)
        # clustering and the dominators share one triangle count
        expected = {"_block_sums": calls, "_dominators": [1024],
                    "_common_neighbors": [1024]}
        assert kernel_calls == expected
        text = canonical_json(build_report(stages))
        assert kernel_calls == expected  # rendering computes nothing
        assert hashlib.sha256(text.encode()).hexdigest() == SHORT_CURVE_REPORT_SHA256

    def test_full_curve_reuses_its_last_length(self, kernel_calls):
        stages = run_stages(_fgn_1024(), small_world=True, prefix_sizes=[64, 1024])
        # the whole graph reuses [0, 4] and [4, 58] of prefix 64, and runs
        # [58, 192] and the blocks after it
        blocks = [5, 55, 6, 135, 298, 391, 117, 28]
        # one union per pass width: 1, 3, 5, 7 and 2 words
        calls = [[5, 55, 6, 28], [135], [298], [391], [117]]
        assert sorted(n for call in calls for n in call) == sorted(blocks)
        assert kernel_calls == {
            "_block_sums": calls, "_dominators": [1024], "_common_neighbors": [1024],
        }
        curve = stages["curve"]
        assert curve.average_path_full == float(curve.lengths[-1])
        assert curve.average_path_full == tsnet.netstats.all_pairs_average_path(
            stages["graph"]
        )

    def test_failed_curve_is_the_stage_error(self, kernel_calls):
        stages = run_stages(_fgn_1024(), small_world=True, prefix_sizes=[])
        assert isinstance(stages["curve"], InvalidParam)
        assert "average_path" not in stages
        assert kernel_calls == {"_block_sums": [], "_dominators": [],
                                "_common_neighbors": [1024]}

    def test_no_stage_without_small_world(self, kernel_calls):
        stages = run_stages(_fgn_1024())
        assert stages["curve"] is None and "average_path" not in stages
        # the one triangle count is clustering's
        assert kernel_calls == {"_block_sums": [], "_dominators": [],
                                "_common_neighbors": [1024]}


class TestSharedTriangleCount:
    """Clustering and the dominators read one triangle count per graph,
    which nothing can write and which goes when the graph does."""

    def test_arrays_are_read_only(self):
        g = build_fast(_fgn_1024())
        shared = tsnet.netstats._triangles(g)
        assert tsnet.netstats._triangles(g) is shared
        for a in shared:
            with pytest.raises(ValueError):
                a[0] = 0

    def test_memo_drops_the_graph(self):
        g = build_fast(_fgn_1024())
        memo = tsnet.netstats._triangle_memo
        tsnet.netstats.clustering(g)
        gc.collect()  # graphs of earlier tests may wait in reference cycles
        assert g in memo
        size, alive = len(memo), weakref.ref(g)
        del g
        gc.collect()
        assert alive() is None and len(memo) == size - 1
