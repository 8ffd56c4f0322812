import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
from tsnet import netstats, visibility
from tsnet.visibility import VisibilityGraph

from oracles import (
    brute_visibility_edges,
    edge_set,
    iid_uniform_visibility_probability,
    induced,
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
    # within rounding of a chord: the builders once anchored these at
    # different ends and disagreed
    @example([-1.5, -1.0, -1.0, 2.220446049250313e-16])
    @example([-3.7, 3.7, 11.100000000000001])
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
    # Walks rounded to 1 decimal and the x3.7 ties, where rounding decides
    # edges that exact arithmetic would not, and a rounded walk capped at
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
            assert_same_csr(induced(g, 0, k), build_fast(y[:k]))

    @pytest.mark.parametrize("name", sorted(SWEEP_SERIES))
    def test_interval_is_graph_of_its_samples(self, name):
        # the all-pairs fold's CSR slice of nodes a..b-1
        y = SWEEP_SERIES[name]
        g = build_fast(y)
        for a in range(0, y.size - 1, max(1, y.size // 7)):
            for b in range(a + 2, y.size + 1, max(1, y.size // 5)):
                h = VisibilityGraph(*netstats._interval_csr(g, a, b))
                assert_same_csr(h, build_fast(y[a:b]))

    def test_prefix_bounds(self):
        # a one-node slice has no entry and the whole slice is the graph;
        # an empty slice has a one-entry indptr, which the constructor rejects
        g = build_fast(PI_DIGITS)
        for a in (0, g.n - 1):
            indptr, indices = netstats._interval_csr(g, a, a + 1)
            assert indptr.tolist() == [0, 0] and indices.size == 0
        assert_same_csr(VisibilityGraph(*netstats._interval_csr(g, 0, g.n)), g)
        for a in (0, 3, g.n):
            with pytest.raises(ValueError, match="malformed"):
                VisibilityGraph(*netstats._interval_csr(g, a, a))


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
    @staticmethod
    def graph(indptr, indices):
        return VisibilityGraph(np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64))

    def test_sizes_read_off_the_arrays(self):
        g = self.graph([0, 2, 3, 4, 4], [1, 2, 0, 0])
        assert (g.n, g.m) == (4, 2)
        assert type(g.n) is int and type(g.m) is int
        for size in ("n", "m"):
            with pytest.raises(TypeError):
                VisibilityGraph(g.indptr, g.indices, **{size: 2})

    @pytest.mark.parametrize("indptr, indices", [
        (np.array([0.0, 1.0, 2.0]), np.array([1.7, 0.2])),  # read as [1, 0] when cast
        (np.array([0, 1, 2]), np.array([1.0, 0.0])),
        (np.array([0.0, 1.0, 2.0]), np.array([1, 0])),
        (np.array([0, 1, 2]), np.array([True, False])),
    ], ids=["both-float", "float-indices", "float-indptr", "bool-indices"])
    def test_rejects_non_integer_dtype(self, indptr, indices):
        with pytest.raises(ValueError, match="integers"):
            VisibilityGraph(indptr, indices)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.uint64])
    def test_accepts_any_integer_dtype(self, dtype):
        g = VisibilityGraph(np.array([0, 1, 2], dtype=dtype), np.array([1, 0], dtype=dtype))
        assert (g.n, g.m) == (2, 1) and g.indices.dtype == np.int64

    def test_rejects_malformed_indptr(self):
        with pytest.raises(ValueError):
            self.graph([0, 1], [1, 0])

    @pytest.mark.parametrize("indptr", [[0], [[0], [0]]], ids=["one-entry", "2-d"])
    def test_rejects_short_or_2d_indptr(self, indptr):
        # n = 0 reached degree_distribution as a bare numpy ValueError
        with pytest.raises(ValueError, match="malformed"):
            self.graph(indptr, [])

    @pytest.mark.parametrize("indices", [[[1], [0]], [[1, 0]]], ids=["column", "row"])
    def test_rejects_2d_indices(self, indices):
        # read as a self-loop, or as a bare numpy broadcast error
        with pytest.raises(ValueError, match="malformed"):
            self.graph([0, 1, 2], indices)

    @pytest.mark.parametrize("indices", [[2, 0], [1, -1]], ids=["high", "negative"])
    def test_rejects_neighbor_out_of_range(self, indices):
        with pytest.raises(ValueError, match="out of range"):
            self.graph([0, 1, 2], indices)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            self.graph([0, 1, 2], [0, 1])

    def test_rejects_unsorted_neighbors(self):
        # edges (0,1), (0,2) but node 0's row written backwards
        with pytest.raises(ValueError, match="ascending"):
            self.graph([0, 2, 3, 4], [2, 1, 0, 0])

    def test_rejects_unsorted_row_after_leading_empty_rows(self):
        # the only row boundary sits at entry 0, which has no predecessor
        with pytest.raises(ValueError, match="ascending"):
            self.graph([0, 0, 0, 2], [1, 0])

    @pytest.mark.parametrize("row", [[1, 2], [0, 1]], ids=["first", "last"])
    def test_rejects_self_loop_at_row_end(self, row):
        with pytest.raises(ValueError, match="self-loop"):
            self.graph([0, 1, 3, 4], [1, *row, 1])

    def test_rejects_duplicate_neighbor(self):
        with pytest.raises(ValueError, match="ascending"):
            self.graph([0, 2, 3, 4], [1, 1, 0, 0])

    def test_rejects_directed_edge(self):
        # 0 -> 1 -> 2 with no reverse entries: all-pairs raised a bare
        # IndexError on it before the check
        with pytest.raises(ValueError, match="not symmetric"):
            self.graph([0, 1, 2, 2], [1, 2])

    def test_rejects_unmatched_entries_with_right_count(self):
        # row 1 is empty, so 0 -> 1 and 0 -> 2 have no reverse, yet the
        # entries are even in number: clustering raised IndexError on it
        # before the check, and assortativity returned -1.0
        with pytest.raises(ValueError, match="not symmetric"):
            self.graph([0, 2, 2, 3, 4], [1, 2, 3, 2])

    def test_validates_once_per_graph(self, monkeypatch):
        # a graph built by hand or by a builder is checked once, in its
        # own construction
        checked = []
        validate = VisibilityGraph.__post_init__

        def counted(g):
            validate(g)  # which sets n
            checked.append(g.n)

        monkeypatch.setattr(VisibilityGraph, "__post_init__", counted)
        g = build_fast(PI_DIGITS)
        self.graph([0, 1, 2], [1, 0])
        assert checked == [g.n, 2]

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
