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
    """The node counts of the graphs that ``_block_sums`` (given CSR arrays),
    ``_dominators`` and the triangle count ``_common_neighbors`` see, by
    kernel name."""
    calls = {"_block_sums": [], "_dominators": [], "_common_neighbors": []}

    def count(name, nodes):
        original = getattr(tsnet.netstats, name)

        def counted(first, *args):
            calls[name].append(nodes(first))
            return original(first, *args)

        monkeypatch.setattr(tsnet.netstats, name, counted)

    count("_block_sums", lambda indptr: indptr.size - 1)
    count("_dominators", lambda g: g.n)
    count("_common_neighbors", lambda g: g.n)
    return calls


def _fgn_1024():
    return generate(GeneratorSpec(kind="fgn", n=1024, seed=3, params={"hurst": 0.8}))


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
        # clustering and the dominators share one triangle count
        expected = {"_block_sums": blocks, "_dominators": [1024],
                    "_common_neighbors": [1024]}
        assert kernel_calls == expected
        text = canonical_json(build_report(stages))
        assert kernel_calls == expected  # rendering computes nothing
        assert hashlib.sha256(text.encode()).hexdigest() == SHORT_CURVE_REPORT_SHA256

    def test_full_curve_reuses_its_last_length(self, kernel_calls):
        stages = run_stages(_fgn_1024(), small_world=True, prefix_sizes=[64, 1024])
        # the whole graph reuses [0, 4] and [4, 58] of prefix 64, and runs
        # [58, 192] and the blocks after it
        assert kernel_calls == {
            "_block_sums": [5, 55, 6, 135, 298, 391, 117, 28], "_dominators": [1024],
            "_common_neighbors": [1024],
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
