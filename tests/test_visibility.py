import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

from tsnet import (
    GeneratorSpec,
    MomentOverflow,
    SeriesTooShort,
    TimeSeries,
    build_fast,
    build_naive,
    generate,
)
from tsnet import visibility
from tsnet.visibility import VisibilityGraph

from oracles import (
    brute_visibility_edges,
    edge_set,
    iid_uniform_visibility_probability,
    nearest_higher_stack,
    neighbors,
)

BUILDERS = [build_naive, build_fast]

# 10-point fixture; edge set frozen from the chord-definition oracle
PI_DIGITS = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0])
PI_EDGES = {
    (0, 1), (0, 2), (0, 5), (1, 2), (2, 3), (2, 4), (2, 5), (3, 4),
    (4, 5), (5, 6), (5, 7), (5, 8), (6, 7), (7, 8), (8, 9),
}


@pytest.mark.parametrize("build", BUILDERS)
class TestBothBuilders:
    def test_frozen_fixture(self, build):
        assert edge_set(build(PI_DIGITS)) == PI_EDGES

    def test_too_short(self, build):
        with pytest.raises(SeriesTooShort):
            build(np.array([1.0]))

    def test_two_points(self, build):
        g = build(np.array([5.0, -2.0]))
        assert edge_set(g) == {(0, 1)}

    def test_collinear_triple_blocks(self, build):
        g = build(np.array([0.0, 1.0, 2.0]))
        assert edge_set(g) == {(0, 1), (1, 2)}

    def test_linear_series_gives_path(self, build):
        for slope, intercept in [(1.0, 0.0), (-0.75, 12.0), (0.0, 3.0)]:
            y = intercept + slope * np.arange(50, dtype=float)
            g = build(y)
            assert g.m == 49
            assert edge_set(g) == {(i, i + 1) for i in range(49)}

    def test_convex_series_gives_complete_graph(self, build):
        n = 40
        g = build(np.arange(n, dtype=float) ** 2)
        assert g.m == n * (n - 1) // 2

    def test_spike_sees_everything(self, build):
        n = 21
        y = np.zeros(n)
        y[n // 2] = 1.0
        g = build(y)
        assert g.degrees()[n // 2] == n - 1

    def test_accepts_time_series_objects(self, build):
        ts = TimeSeries(values=PI_DIGITS, label="pi")
        assert edge_set(build(ts)) == PI_EDGES

    def test_rejects_non_finite(self, build):
        with pytest.raises(ValueError):
            build(np.array([1.0, np.nan, 2.0]))

    def test_rejects_overflowing_spread(self, build):
        # the slope from 1e308 to -1e308 overflows
        with pytest.raises(MomentOverflow):
            build(np.array([1e308, -1e308, 0.0, 5.0]))

    def test_matches_brute_force_random(self, build, rng):
        for _ in range(40):
            n = int(rng.integers(2, 60))
            y = rng.normal(size=n)
            assert edge_set(build(y)) == brute_visibility_edges(y)

    def test_matches_brute_force_with_ties(self, build, rng):
        for _ in range(40):
            n = int(rng.integers(2, 50))
            y = rng.integers(0, 4, size=n).astype(float)
            assert edge_set(build(y)) == brute_visibility_edges(y)


class TestFastAgainstNaive:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=2,
            max_size=120,
        )
    )
    def test_edge_sets_equal(self, values):
        y = np.array(values)
        fast = build_fast(y)
        naive = build_naive(y)
        assert edge_set(fast) == edge_set(naive)
        assert fast.m == naive.m

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=90)
    )
    def test_edge_sets_equal_integer_ties(self, values):
        y = np.array(values, dtype=float)
        assert edge_set(build_fast(y)) == edge_set(build_naive(y))

    def test_large_monotone_does_not_recurse_out(self):
        # worst case for the sweep: every sample's side runs to the start,
        # so the work is N^2 / 2 slopes
        y = np.arange(30_000, dtype=float)
        g = build_fast(y)
        assert g.m == 29_999


def _sweep_series():
    rng = np.random.default_rng(2015)
    n = 240
    return {
        "float": rng.normal(size=n),
        "integer ties": rng.integers(0, 4, size=n).astype(float),
        "x3.7 ties": rng.integers(-3, 4, size=n) * 3.7,
        "constant": np.full(n, 2.5),
        "walk": np.cumsum(rng.normal(size=n)),
    }


SWEEP_SERIES = _sweep_series()


def assert_same_csr(a, b):
    assert a.n == b.n and a.m == b.m
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)


RAMPS = {"ascending": np.arange(240.0), "descending": -np.arange(240.0)}


def _fragile_series():
    # Walks rounded to 1 decimal and the x3.7 ties, where build_naive's
    # rounding disagrees with build_fast's, and a rounded walk capped at
    # its median, whose 203 samples at the maximum block one another.
    rng = np.random.default_rng(11)
    walks = [np.round(np.cumsum(rng.normal(size=600)), 1) for _ in range(20)]
    rng = np.random.default_rng(5)
    w = np.round(np.cumsum(rng.normal(size=401)), 1)
    return {
        "rounded walks": walks,
        "x3.7 ties": [SWEEP_SERIES["x3.7 ties"]],
        "plateau": [np.minimum(w, np.median(w))],
    }


# sha256 over each graph's int64 little-endian indptr then indices
FRAGILE_DIGESTS = {
    "rounded walks": "aa4ecc4e26a0fdab95769faf99d00ca15fe69830521eca7cf8b256e1bae3b836",
    "x3.7 ties": "6c2b04828563613087f4829e9294e838b90952ba0e9e12de7f20cc9ef4208786",
    "plateau": "56131d5cb07a2437bb8592f39e8dfc8a09acae11117699f5adc7a9a3943abcff",
}


class TestFastBuilderForms:
    @pytest.mark.parametrize("name", sorted(SWEEP_SERIES) + sorted(RAMPS))
    def test_batch_size_keeps_csr(self, name, monkeypatch):
        y = {**SWEEP_SERIES, **RAMPS}[name]
        reference = build_fast(y)
        for batch in (1, 2, 3, y.size**2):  # the last exceeds all sides' slopes
            monkeypatch.setattr(visibility, "_BATCH", batch)
            assert_same_csr(build_fast(y), reference)

    @pytest.mark.parametrize("name", sorted(FRAGILE_DIGESTS))
    def test_csr_pinned_where_float_rule_is_fragile(self, name):
        # pins the slope expression and its anchor at the higher end
        digest = hashlib.sha256()
        for y in _fragile_series()[name]:
            g = build_fast(y)
            digest.update(g.indptr.astype("<i8").tobytes())
            digest.update(g.indices.astype("<i8").tobytes())
        assert digest.hexdigest() == FRAGILE_DIGESTS[name]

    @pytest.mark.parametrize("name", ["walk", "integer ties"])
    def test_csr_ignores_edge_order(self, name):
        g = build_fast(SWEEP_SERIES[name])
        u, v = g.edge_array().T
        rng = np.random.default_rng(7)
        order = rng.permutation(g.m)
        flip = rng.random(g.m) < 0.5  # either endpoint may come first
        u, v = np.where(flip, v, u)[order], np.where(flip, u, v)[order]
        assert_same_csr(visibility._graph_from_edges(g.n, u, v), g)

    @pytest.mark.parametrize("name", sorted(SWEEP_SERIES))
    def test_prefix_is_graph_of_prefix(self, name):
        y = SWEEP_SERIES[name]
        g = build_fast(y)
        for k in range(2, y.size + 1):
            assert_same_csr(g.interval(0, k), build_fast(y[:k]))

    @pytest.mark.parametrize("name", sorted(SWEEP_SERIES))
    def test_interval_is_graph_of_its_samples(self, name):
        y = SWEEP_SERIES[name]
        g = build_fast(y)
        for a in range(0, y.size - 1, max(1, y.size // 7)):
            for b in range(a + 2, y.size + 1, max(1, y.size // 5)):
                assert_same_csr(g.interval(a, b), build_fast(y[a:b]))

    def test_prefix_bounds(self):
        g = build_fast(PI_DIGITS)
        assert g.interval(0, 1).m == 0 and g.interval(g.n - 1, g.n).m == 0
        assert_same_csr(g.interval(0, g.n), g)
        for a, b in ((0, 0), (0, g.n + 1), (-1, 2), (3, 3), (4, 2)):
            with pytest.raises(ValueError):
                g.interval(a, b)


def _nearest_higher_series():
    series = {
        "ascending": np.arange(40.0),
        "descending": -np.arange(40.0),
        "plateau": np.array([1.0, 3.0, 3.0, 3.0, 2.0, 3.0, 3.0, 0.0, 3.0]),
        "constant": np.full(33, 2.5),
        "valley": np.abs(np.arange(-20.0, 21.0)),
        "sqrt": np.sqrt(np.arange(1.0, 65.0)),
    }
    rng = np.random.default_rng(4)
    for k in range(1, 8):  # lengths 2**k - 1, 2**k and 2**k + 1 around each table level
        for n in {max(2, (1 << k) - 1), 1 << k, (1 << k) + 1}:
            series[f"n={n}"] = rng.integers(0, 3, size=n).astype(float)
    return series


NEAREST_HIGHER_SERIES = _nearest_higher_series()


class TestNearestHigher:
    @pytest.mark.parametrize("name", sorted(NEAREST_HIGHER_SERIES))
    def test_matches_monotone_stack(self, name):
        y = NEAREST_HIGHER_SERIES[name]
        lo, hi = visibility._nearest_higher(y)
        expected_lo, expected_hi = nearest_higher_stack(y)
        assert lo.tolist() == expected_lo
        assert hi.tolist() == expected_hi

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda k: st.lists(st.integers(0, k), min_size=2, max_size=130)
        )
    )
    def test_few_distinct_values(self, values):
        y = np.array(values, dtype=float)
        lo, hi = visibility._nearest_higher(y)
        expected_lo, expected_hi = nearest_higher_stack(y)
        assert lo.tolist() == expected_lo
        assert hi.tolist() == expected_hi


class TestBuildFastMemory:
    def test_traced_peak_at_daily_size(self):
        # the daily EPU length; the sweep and the packed-key CSR need about
        # 2.4 MiB, and staging copies of the edges push it past the bound
        ts = generate(GeneratorSpec(kind="fgn", n=12368, seed=7, params={"hurst": 0.8}))
        build_fast(ts)
        tracemalloc.start()
        try:
            build_fast(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20


class TestGraphInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2,
            max_size=80,
        )
    )
    def test_structure(self, values):
        g = build_fast(np.array(values))
        deg = g.degrees()
        n = len(values)
        assert g.n == n
        assert deg.sum() == 2 * g.m
        assert deg.min() >= 1  # consecutive samples always see each other
        edges = edge_set(g)
        for i in range(n - 1):
            assert (i, i + 1) in edges
        # connected: walk the path edges alone
        assert g.m >= n - 1

    def test_neighbors_sorted_and_symmetric(self, rng):
        g = build_fast(rng.normal(size=200))
        for i in range(g.n):
            nbrs = neighbors(g, i)
            assert np.all(np.diff(nbrs) > 0)
            for j in nbrs:
                assert i in neighbors(g, int(j))

    def test_edge_list_text_lexicographic(self):
        g = build_fast(PI_DIGITS)
        text = "".join(f"{i} {j}\n" for i, j in g.edge_array())
        lines = text.strip().split("\n")
        pairs = [tuple(map(int, line.split())) for line in lines]
        assert pairs == sorted(PI_EDGES)
        assert all(a < b for a, b in pairs)

    def test_affine_invariance_spot(self, rng):
        y = rng.normal(size=300)
        base = edge_set(build_fast(y))
        for a in (0.5, 3.0):
            for b in (-10.0, 7.0):
                assert edge_set(build_fast(a * y + b)) == base


class TestVisibilityGraphValidation:
    def test_rejects_malformed_indptr(self):
        with pytest.raises(ValueError):
            VisibilityGraph(
                n=2,
                indptr=np.array([0, 1], dtype=np.int64),
                indices=np.array([1, 0], dtype=np.int64),
                m=1,
            )

    @pytest.mark.parametrize("indices", [[2, 0], [1, -1]], ids=["high", "negative"])
    def test_rejects_neighbor_out_of_range(self, indices):
        with pytest.raises(ValueError, match="out of range"):
            VisibilityGraph(
                n=2,
                indptr=np.array([0, 1, 2], dtype=np.int64),
                indices=np.array(indices, dtype=np.int64),
                m=1,
            )

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            VisibilityGraph(
                n=2,
                indptr=np.array([0, 1, 2], dtype=np.int64),
                indices=np.array([0, 1], dtype=np.int64),
                m=1,
            )

    def test_rejects_unsorted_neighbors(self):
        # edges (0,1), (0,2) but node 0's row written backwards
        with pytest.raises(ValueError, match="ascending"):
            VisibilityGraph(
                n=3,
                indptr=np.array([0, 2, 3, 4], dtype=np.int64),
                indices=np.array([2, 1, 0, 0], dtype=np.int64),
                m=2,
            )

    def test_rejects_unsorted_row_after_leading_empty_rows(self):
        # the only row boundary sits at entry 0, which has no predecessor
        with pytest.raises(ValueError, match="ascending"):
            VisibilityGraph(
                n=3,
                indptr=np.array([0, 0, 0, 2], dtype=np.int64),
                indices=np.array([1, 0], dtype=np.int64),
                m=1,
            )

    @pytest.mark.parametrize("row", [[1, 2], [0, 1]], ids=["first", "last"])
    def test_rejects_self_loop_at_row_end(self, row):
        with pytest.raises(ValueError, match="self-loop"):
            VisibilityGraph(
                n=3,
                indptr=np.array([0, 1, 3, 4], dtype=np.int64),
                indices=np.array([1, *row, 1], dtype=np.int64),
                m=2,
            )

    def test_rejects_duplicate_neighbor(self):
        with pytest.raises(ValueError, match="ascending"):
            VisibilityGraph(
                n=3,
                indptr=np.array([0, 2, 3, 4], dtype=np.int64),
                indices=np.array([1, 1, 0, 0], dtype=np.int64),
                m=2,
            )

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError):
            VisibilityGraph(
                n=2,
                indptr=np.array([0, 1, 2], dtype=np.int64),
                indices=np.array([1, 0], dtype=np.int64),
                m=2,
            )

    def test_arrays_read_only(self):
        g = build_fast(PI_DIGITS)
        with pytest.raises(ValueError):
            g.indices[0] = 5


class TestIidUniformVisibilityOracle:
    def test_small_distances_exact(self):
        assert [iid_uniform_visibility_probability(d) for d in range(1, 6)] == [
            1,
            Fraction(1, 2),
            Fraction(31, 108),
            Fraction(35, 192),
            Fraction(7019, 56250),
        ]

    def test_matches_numerical_integral(self):
        for d in (6, 12):
            heights = np.arange(1, d) / d
            value, _ = dblquad(lambda b, a: np.prod(a + (b - a) * heights), 0, 1, 0, 1)
            assert float(iid_uniform_visibility_probability(d)) == pytest.approx(
                value, rel=1e-8
            )

    def test_tail_tends_to_four_over_d_squared(self):
        scaled = [float(iid_uniform_visibility_probability(d)) * d * d for d in (25, 50, 100)]
        assert scaled == sorted(scaled)
        assert scaled[-1] == pytest.approx(4.0, abs=0.06)
