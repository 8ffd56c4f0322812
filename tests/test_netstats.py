import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsnet import netstats
from tsnet import (
    DegenerateFit,
    DegreeDistribution,
    DisconnectedGraph,
    GeneratorSpec,
    InsufficientTailPoints,
    InvalidParam,
    ZeroDegreeVariance,
    all_pairs_average_path,
    assortativity,
    build_fast,
    clustering,
    default_prefix_sizes,
    degree_distribution,
    fit_powerlaw_tail,
    generate,
    small_world_curve,
    small_world_verdict,
)
from tsnet.report import canonical_json
from tsnet.visibility import VisibilityGraph

from oracles import (
    assortativity_direct,
    closed_neighborhoods,
    clustering_by_triples,
    cut_vertices,
    dominators_by_sets,
    edge_set,
    floyd_warshall_average_path,
    floyd_warshall_distances,
    graph_from_pairs,
    induced,
    neighbors,
)


class TestAnalyticGraphs:
    def test_three_path(self, path3):
        assert all_pairs_average_path(path3) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert assortativity(path3) == -1.0

    def test_star(self, star4):
        assert assortativity(star4) == -1.0
        rep = clustering(star4)
        assert rep.average == 0.0 and rep.c_max == 0.0

    def test_complete_k4(self, k4):
        rep = clustering(k4)
        assert rep.average == 1.0 and rep.c_min == 1.0
        assert all_pairs_average_path(k4) == 1.0
        with pytest.raises(ZeroDegreeVariance):
            assortativity(k4)  # all endpoint degrees equal


class TestOracleEquivalence:
    def test_random_visibility_graphs(self, rng):
        for _ in range(8):
            n = int(rng.integers(40, 300))
            g = build_fast(rng.normal(size=n))
            rep = clustering(g)
            per_ref = clustering_by_triples(g)
            # triangles are counted as integers, so the floats are identical
            assert np.array_equal(rep.per_node, per_ref)
            assert rep.average == per_ref.mean()
            assert assortativity(g) == pytest.approx(
                assortativity_direct(g), abs=1e-9
            )
            assert all_pairs_average_path(g) == pytest.approx(
                floyd_warshall_average_path(g), abs=1e-9
            )

    def test_handmade_graph(self):
        # 5-node kite: triangle 0-1-2 plus tail 2-3-4
        g = graph_from_pairs(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        rep = clustering(g)
        assert rep.per_node == pytest.approx([1.0, 1.0, 1.0 / 3.0, 0.0, 0.0])
        assert all_pairs_average_path(g) == pytest.approx(
            floyd_warshall_average_path(g), abs=1e-12
        )


@st.composite
def _any_graphs(draw):
    # isolated nodes allowed, so some CSR rows are empty
    n = draw(st.integers(2, 60))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=1, max_size=3 * n))
    return graph_from_pairs(n, [(a, b) for a, b in pairs if a != b])


class TestAssortativityOracle:
    @settings(max_examples=200, deadline=None)
    @given(_any_graphs())
    def test_matches_direct_correlation(self, g):
        deg = g.degrees()
        ends = deg[g.indices]  # one degree per edge end
        if g.m == 0 or np.all(ends == ends[0]):
            with pytest.raises(ZeroDegreeVariance):
                assortativity(g)
            return
        assert assortativity(g) == pytest.approx(assortativity_direct(g), rel=1e-9, abs=1e-12)


class TestDegreeDistribution:
    def test_pdf_properties(self, rng):
        g = build_fast(rng.normal(size=500))
        dist = degree_distribution(g)
        assert dist.pdf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(dist.pdf, dist.counts / float(g.n))
        assert dist.mean_degree() == 2 * g.m / g.n  # correctly rounded
        assert dist.k_min >= 1
        assert dist.k_max == g.degrees().max()
        assert np.all(dist.pdf > 0)

    def test_validation(self):
        for support, counts in [
            ([1, 2], [3]),  # misaligned
            ([], []),  # empty
            ([1, 2], [3, 0]),  # a zero count
            ([1, 2], [0.5, 0.5]),  # float counts
            ([1.0, 2.0], [1, 1]),  # float degrees
            ([9, 3, 5, 7], [1, 1, 1, 1]),  # unsorted: k_min 9, k_max 7
            ([3, 3, 5], [1, 1, 1]),  # a repeated degree
            ([-1, 3, 5, 6], [1, 1, 1, 1]),  # a negative degree
        ]:
            with pytest.raises(ValueError):
                DegreeDistribution(support=np.array(support), counts=np.array(counts))

    def test_mean_degree_exact_at_a_rounding_tie(self):
        # 2m / n = 8844 / 1536 = 737 / 128 = 5.7578125, a tie at six
        # decimals; the float sum of k p(k) reads 5.757812500000001, which
        # would render as 5.757813
        dist = DegreeDistribution(support=np.array([3, 7, 8]),
                                  counts=np.array([530, 794, 212]))
        assert dist.mean_degree() == 5.7578125
        assert np.sum(dist.support * dist.pdf) > 5.7578125
        assert canonical_json(dist.mean_degree()) == "5.757812\n"


class TestTailFit:
    def test_exact_powerlaw_recovered(self):
        # 27720 = lcm(1, ..., 12), so every count is exactly proportional to k^-2
        ks = np.arange(2, 13)
        dist = DegreeDistribution(support=ks, counts=27720**2 // ks**2)
        fit = fit_powerlaw_tail(dist, k_min=2)
        assert fit.gamma == pytest.approx(2.0, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-10)
        assert fit.n_points == 11

    def test_default_range_uses_mean_degree(self, rng):
        g = build_fast(rng.normal(size=2000))
        dist = degree_distribution(g)
        fit = fit_powerlaw_tail(dist)
        assert fit.k_range[0] == int(np.ceil(dist.mean_degree()))
        assert fit.k_range[1] == dist.k_max

    def test_default_range_exact_where_float_mean_overshoots(self):
        # n = 10 and m = 15, so the mean degree is 3, but the float sum
        # of k p(k) reads 3.0000000000000004
        g = build_fast(np.array([3, 9, 1, 8, 8, 2, 4, 3, 6, 4], dtype=float))
        dist = degree_distribution(g)
        assert (g.n, g.m) == (10, 15) and np.sum(dist.support * dist.pdf) > 3
        assert dist.mean_degree() == 3
        assert fit_powerlaw_tail(dist).k_range == (3, 6)

    def test_default_range_is_ceil_of_exact_mean(self):
        rng = np.random.default_rng(1)
        overshoots = 0
        for _ in range(3000):
            g = build_fast(rng.integers(0, 10, int(rng.integers(4, 15))).astype(float))
            dist = degree_distribution(g)
            k_lo = -(-2 * g.m // g.n)
            overshoots += int(np.ceil(np.sum(dist.support * dist.pdf))) != k_lo
            try:
                assert fit_powerlaw_tail(dist).k_range[0] == k_lo
            except InsufficientTailPoints as exc:
                assert f"[{k_lo}, " in str(exc)
        assert overshoots > 0  # the sample holds cases the float sum gets wrong

    def test_partial_range(self, rng):
        g = build_fast(rng.normal(size=2000))
        dist = degree_distribution(g)
        fit = fit_powerlaw_tail(dist, k_min=3)
        assert fit.k_range == (3, dist.k_max)

    def test_insufficient_points(self, k4):
        with pytest.raises(InsufficientTailPoints):
            fit_powerlaw_tail(degree_distribution(k4))

    def test_bad_range(self, k4):
        with pytest.raises(InvalidParam):
            fit_powerlaw_tail(degree_distribution(k4), k_min=5)

    def test_non_integral_k_min(self, rng):
        # int() would start the fit at degree 2 and report k_range (2, ...)
        dist = degree_distribution(build_fast(rng.normal(size=2000)))
        for k_min in (2.5, np.nan, np.inf, np.float64(np.inf)):
            with pytest.raises(InvalidParam, match="k_min"):
                fit_powerlaw_tail(dist, k_min=k_min)
        assert fit_powerlaw_tail(dist, k_min=3.0).k_range == (3, dist.k_max)


class TestPaths:
    def test_disconnected_detected(self):
        g = graph_from_pairs(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraph):
            all_pairs_average_path(g)

    def test_edgeless_and_single_node_graphs(self):
        # the dominators of an edgeless graph come before the isolated-node check
        with pytest.raises(DisconnectedGraph, match="isolated node"):
            all_pairs_average_path(graph_from_pairs(3, []))
        with pytest.raises(DisconnectedGraph, match="isolated node"):
            small_world_curve(graph_from_pairs(3, []))
        with pytest.raises(InvalidParam):
            all_pairs_average_path(graph_from_pairs(1, []))

    def test_two_nodes_without_an_edge(self):
        # a 2-node block without its edge goes to the kernel, which finds
        # both nodes isolated
        with pytest.raises(DisconnectedGraph, match="isolated node"):
            all_pairs_average_path(graph_from_pairs(2, []))

    def test_two_node_prefix_without_an_edge(self):
        # nodes 0 and 1 meet only through node 2, outside prefix 2
        g = graph_from_pairs(3, [(0, 2), (1, 2)])
        with pytest.raises(DisconnectedGraph, match="isolated node"):
            small_world_curve(g, sizes=[2, 3])

    def test_stale_thread_env_ignored(self, rng, monkeypatch):
        # the search reads no settings from the environment, so a stale
        # TSNET_THREADS neither fails nor changes the value
        g = build_fast(rng.normal(size=1600))
        monkeypatch.delenv("TSNET_THREADS", raising=False)
        expected = all_pairs_average_path(g)
        monkeypatch.setenv("TSNET_THREADS", "zero")
        assert all_pairs_average_path(g) == expected  # bitwise


def _path_graph(n):
    return graph_from_pairs(n, [(i, i + 1) for i in range(n - 1)])


def _complete_graph(n):
    return graph_from_pairs(n, list(itertools.combinations(range(n), 2)))


def _star_graph(n):
    return graph_from_pairs(n, [(0, i) for i in range(1, n)])


def _wheel_graph(n):
    # a hub on a cycle: the hub dominates every rim node
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    return graph_from_pairs(n, [(0, i) for i in range(1, n)] + rim)


def _twin_graph(n):
    # a cycle of n // 2 adjacent twin pairs with equal closed neighborhoods,
    # where only the smaller twin may dominate the other
    ring = n // 2
    pairs = [(2 * i, 2 * i + 1) for i in range(ring)]
    for i in range(ring):
        j = (i + 1) % ring
        pairs += [(2 * i + a, 2 * j + b) for a in (0, 1) for b in (0, 1)]
    return graph_from_pairs(2 * ring, pairs)


def _barbell_graph(n):
    # two cliques of n // 3 nodes joined by a path through the rest
    size = n // 3
    pairs = list(itertools.combinations(range(size), 2))
    pairs += list(itertools.combinations(range(n - size, n), 2))
    pairs += [(i, i + 1) for i in range(size - 1, n - size)]
    return graph_from_pairs(n, pairs)


def _spike_graph(n):
    # flat series with one peak: a path along the floor (collinear points
    # block each other) plus a hub that sees every sample
    y = np.zeros(n)
    y[n // 3] = 1e6
    return build_fast(y)


def _walk_graph(n, rng):
    # a random walk's visibility graph has hubs with more neighbors than a
    # 64-bit word holds
    return build_fast(np.cumsum(rng.normal(size=n)))


def _caterpillar_graph():
    # spine nodes 0..6 with 1..7 legs of two nodes each, and node 7, a hub
    # with 20 legs at the spine's end.  A leg's far node is dominated by
    # its near node, nothing else is, so the spine nodes read 1..8 entries
    # and fill one chunk each, up to slot 0, 1, ..., 7
    pairs = [(j, j + 1) for j in range(7)]
    legs = [1, 1, 2, 3, 4, 5, 6, 20]  # reads minus spine neighbours
    for v, count in enumerate(legs):
        for _ in range(count):
            near = len(pairs) + 1
            pairs += [(v, near), (near, near + 1)]
    return graph_from_pairs(len(pairs) + 1, pairs)


def _reads(g):
    # undominated neighbors per node: the entries all-pairs reads
    dom = netstats._dominators(g)
    return np.array([np.count_nonzero(dom[neighbors(g, u)] >= g.n) for u in range(g.n)])


def _spider_graph(legs, length):
    # node 1 + r * legs + j is the (r + 1)-th node out on leg j, so the rows
    # settle ring by ring, from the hub outwards, in label order
    pairs = [(0, 1 + j) for j in range(legs)]
    pairs += [(v, v + legs) for v in range(1, 1 + legs * (length - 1))]
    return graph_from_pairs(1 + legs * length, pairs)


@st.composite
def _connected_graphs(draw):
    # a random tree (each node hangs off an earlier one) plus extra edges,
    # under a random labelling
    n = draw(st.integers(2, 150))
    parents = draw(st.lists(st.integers(0, n), min_size=n - 1, max_size=n - 1))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    perm = draw(st.permutations(range(n)))
    pairs = [(v, p % v) for v, p in enumerate(parents, start=1)]
    pairs += [(a, b) for a, b in extra if a != b]
    return graph_from_pairs(n, [(perm[a], perm[b]) for a, b in pairs])


def _kernel_want(g):
    """``(W, D(a), D(b), d(a, b))`` of ``g`` by Floyd-Warshall."""
    dist = floyd_warshall_distances(g)
    return tuple(map(int, (dist.sum(), dist[0].sum(), dist[-1].sum(), dist[0, -1])))


def _assert_exact(g):
    """The average path, and the kernel's four integers on the whole graph,
    against Floyd-Warshall.  Through the public function a graph reaches
    the kernel only in blocks, so the kernel also runs on the whole graph
    here."""
    n = g.n
    want = _kernel_want(g)
    assert all_pairs_average_path(g) == want[0] / (n * (n - 1))
    dom = netstats._dominators(g)
    assert netstats._block_sums(g.indptr, g.indices, dom, np.array([0, n])) == [want]


class TestBitParallelBfs:
    """Exact agreement with Floyd-Warshall on graphs that stress the kernel."""

    @pytest.mark.parametrize(
        "make, n",
        [
            (_path_graph, 200),  # the most BFS levels for its size
            (_complete_graph, 129),  # one level; dense enough for two passes
            (_star_graph, 300),
            (_spike_graph, 257),
            (_wheel_graph, 130),
            (_twin_graph, 80),
            (_barbell_graph, 60),
        ],
    )
    def test_adversarial_graphs(self, make, n):
        _assert_exact(make(n))

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 129])
    def test_word_boundaries(self, n, rng):
        for g in (_path_graph(n), build_fast(rng.normal(size=n))):
            _assert_exact(g)

    @pytest.mark.parametrize("words", [1, 2, 8])
    def test_pass_width_does_not_change_value(self, words, monkeypatch):
        monkeypatch.setattr(netstats, "_pass_words", lambda n, m: words)
        _assert_exact(_spike_graph(129))

    @pytest.mark.parametrize("n", [8, 9, 10, 17, 18])
    def test_complete_graphs_at_chunk_edges(self, n):
        # every node but 0 is dominated by node 0, so node 0 has no
        # undominated neighbor and reads its first neighbor, and every
        # other node reads node 0: all pairs are reached at level 1
        g = _complete_graph(n)
        assert netstats._dominators(g).tolist() == [n] + [0] * (n - 1)
        _assert_exact(g)

    def test_path_has_no_multi_chunk_row(self):
        # every row fits one chunk, so reduceat gets no rows at all
        g = _path_graph(100)
        assert g.degrees().max() <= netstats._CHUNK
        _assert_exact(g)

    def test_star_hub_spans_many_chunks(self):
        # a star's leaves are dominated by its hub, so the hub here has
        # legs of two nodes: it reads all 300 near nodes, 38 chunks
        g = _spider_graph(300, 2)
        assert -(-_reads(g).max() // netstats._CHUNK) == 38
        _assert_exact(g)

    @pytest.mark.parametrize("legs", [7, 8, 9, 16, 17])
    def test_hub_reads_at_chunk_edges(self, legs):
        # one short chunk, one full chunk, a full chunk plus one, two full
        # chunks, two full chunks plus one
        g = _spider_graph(legs, 3)
        assert _reads(g)[0] == legs
        _assert_exact(g)

    def test_walk_prefixes(self):
        y = np.cumsum(np.random.default_rng(5).normal(size=160))
        for k in default_prefix_sizes(y.size):
            _assert_exact(build_fast(y[:k]))

    @pytest.mark.parametrize("chunk", [1, 2, 8, 64])
    def test_chunk_width_does_not_change_value(self, chunk, monkeypatch):
        g = _walk_graph(129, np.random.default_rng(3))
        monkeypatch.setattr(netstats, "_CHUNK", chunk)
        _assert_exact(g)

    @pytest.mark.parametrize("chunk", [1, 2, 8, 64])
    def test_degree_ladder(self, chunk, monkeypatch):
        # at _CHUNK = 8, every per-slot end of the one-chunk rows differs
        g = _caterpillar_graph()
        reads = _reads(g)
        assert sorted(set(reads[reads <= 8])) == list(range(1, 9))
        assert reads.max() > 16
        monkeypatch.setattr(netstats, "_CHUNK", chunk)
        _assert_exact(g)

    @pytest.mark.parametrize("words", [1, 4])
    def test_spider_settles_mid_pass(self, words, monkeypatch):
        # the hub (5 chunks) settles first, then the legs' rows ring by
        # ring, while the tips still wait for the far legs
        g = _spider_graph(40, 6)
        assert netstats._pass_words(g.n, g.m) == 4
        monkeypatch.setattr(netstats, "_pass_words", lambda n, m: words)
        _assert_exact(g)

    @settings(max_examples=100, deadline=None)
    @given(_connected_graphs())
    def test_random_connected_graphs(self, g):
        for words in (1, 8):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(netstats, "_pass_words", lambda n, m: words)
                # a new graph object, so that its triangle count, kept once
                # per graph, is also made at this width
                _assert_exact(VisibilityGraph(g.indptr, g.indices))

    @pytest.mark.parametrize("isolated", [0, 40, 79])
    def test_isolated_node_is_disconnected(self, isolated):
        others = [v for v in range(80) if v != isolated]
        g = graph_from_pairs(80, list(zip(others, others[1:])))
        with pytest.raises(DisconnectedGraph, match="isolated node"):
            all_pairs_average_path(g)

    def test_two_components_without_isolated_node(self):
        g = graph_from_pairs(
            130, [(i, i + 1) for i in range(129) if i != 64]
        )
        assert g.degrees().min() >= 1
        with pytest.raises(DisconnectedGraph):
            all_pairs_average_path(g)
        # the fold hands the kernel the 2-node block [64, 65]; on the whole
        # graph, the kernel finds the unreached pairs itself
        dom = netstats._dominators(g)
        with pytest.raises(DisconnectedGraph, match="unreachable"):
            netstats._block_sums(g.indptr, g.indices, dom, np.array([0, g.n]))


def _union(graphs):
    """The block-diagonal union of ``graphs``, built by the oracle, each
    block's dominators counted from its start, and the block starts."""
    starts = np.cumsum([0] + [g.n for g in graphs])
    pairs = [(a + s, b + s) for g, s in zip(graphs, starts.tolist())
             for a, b in g.edge_array().tolist()]
    union = graph_from_pairs(int(starts[-1]), pairs)
    return union, np.concatenate([netstats._dominators(g) for g in graphs]), starts


def _union_sums(graphs):
    union, dom, starts = _union(graphs)
    return netstats._block_sums(union.indptr, union.indices, dom, starts)


class TestUnionKernel:
    """Several blocks in one kernel call, one pass, each source's bit its
    index in its block: exact per block against Floyd-Warshall."""

    # either side of the steps from 1 to 2, 2 to 3 and 7 to 8 words
    SIZES = [3, 64, 65, 128, 129, 448, 449, 512]

    def test_blocks_at_pass_width_edges(self, rng):
        # sparse noise graphs and hub-heavy walk graphs, in two orders
        graphs = [_walk_graph(n, rng) if i % 2 else build_fast(rng.normal(size=n))
                  for i, n in enumerate(self.SIZES)]
        want = [_kernel_want(g) for g in graphs]
        assert _union_sums(graphs) == want
        assert _union_sums(graphs[::-1]) == want[::-1]

    def test_block_past_one_pass_runs_alone(self, rng):
        g = build_fast(rng.normal(size=513))
        assert netstats._pass_words(g.n, g.m) == 8  # two passes
        _assert_exact(g)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_connected_graphs(), min_size=2, max_size=4))
    def test_random_unions(self, graphs):
        assert _union_sums(graphs) == [_kernel_want(g) for g in graphs]

    @pytest.mark.parametrize("first", [True, False])
    def test_disconnected_block(self, first):
        # two paths of 10 nodes: no node is isolated
        split = graph_from_pairs(20, [(i, i + 1) for i in range(19) if i != 9])
        graphs = [split, _path_graph(30)] if first else [_path_graph(30), split]
        with pytest.raises(DisconnectedGraph, match="unreachable"):
            _union_sums(graphs)

    @pytest.mark.parametrize("lone", [graph_from_pairs(1, []),
                                      graph_from_pairs(10, [(i, i + 1) for i in range(8)])],
                             ids=["one-node-block", "last-node"])
    def test_isolated_node(self, lone):
        with pytest.raises(DisconnectedGraph, match="isolated node"):
            _union_sums([_path_graph(30), lone, _complete_graph(9)])


def _series(kind, n, rng):
    if kind == "ramp":
        return np.arange(n, dtype=np.float64)
    if kind == "plateaus":  # flat runs, whose collinear samples block each other
        return np.repeat(rng.normal(size=-(-n // 7)), 7)[:n]
    if kind == "ties":
        return rng.integers(-3, 4, size=n) * 3.7
    if kind == "walk1":  # a random walk rounded to one decimal
        return np.round(np.cumsum(rng.normal(size=n)), 1)
    if kind == "sqrt10":  # concave with rounding ties: hundreds of cut vertices
        return np.round(10 * np.sqrt(np.arange(1.0, n + 1)), 1)
    if kind == "fgn":
        return _fgn(n, int(rng.integers(1 << 16)))
    return rng.normal(size=n)


def _fgn(n, seed):
    return generate(GeneratorSpec(kind="fgn", n=n, seed=seed, params={"hurst": 0.8})).values


class TestDominators:
    """``_dominators`` against set inclusion of closed neighborhoods."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(_any_graphs(), _connected_graphs()))
    def test_matches_sets_on_random_graphs(self, g):
        assert np.array_equal(netstats._dominators(g), dominators_by_sets(g))

    @pytest.mark.parametrize("kind", ["ramp", "plateaus", "ties", "walk1"])
    def test_matches_sets_on_series(self, kind, rng):
        for n in (2, 3, 50, 400):
            g = build_fast(_series(kind, n, rng))
            assert np.array_equal(netstats._dominators(g), dominators_by_sets(g))

    def test_twins_keep_the_smaller(self):
        dom = netstats._dominators(_twin_graph(12))
        assert dom.tolist() == [12, 0, 12, 2, 12, 4, 12, 6, 12, 8, 12, 10]

    def test_hold_on_every_prefix(self):
        # the full graph's dominators below k still dominate in prefix k
        rng = np.random.default_rng(17)
        kinds = ["normal", "ramp", "plateaus", "ties", "walk1"]
        for i in range(50):
            y = _series(kinds[i % 5], int(rng.integers(64, 240)), rng)
            dom = netstats._dominators(build_fast(y))
            for k in default_prefix_sizes(y.size):
                closed = closed_neighborhoods(build_fast(y[:k]))
                for u in np.flatnonzero(dom[:k] < k):
                    w = int(dom[u])
                    assert w in closed[u] and closed[u] <= closed[w]

    @pytest.mark.parametrize("y", [
        pytest.param(lambda: _fgn(4096, 7), id="fgn-4096-seed7"),
        pytest.param(lambda: _fgn(4096, 11), id="fgn-4096-seed11"),
        # the benchmark's walk: a reference walk plus 1/50 of a seeded one
        pytest.param(lambda: np.cumsum(_fgn(2048, 0)) + 0.02 * np.cumsum(_fgn(2048, 7)),
                     id="walk-2048-seed7"),
    ])
    def test_all_pairs_reads_under_sixty_percent(self, y, monkeypatch):
        # exact, host-independent cost gate: the entries read from level 2
        # on (0.56-0.58 of them on these graphs when this gate was set), on
        # the whole graph and summed over the blocks that the fold runs
        g = build_fast(y())
        dom = netstats._dominators(g)
        assert np.count_nonzero(dom[g.indices] >= g.n) <= 0.60 * 2 * g.m
        counts = []
        kernel = netstats._block_sums

        def counted(indptr, indices, d, starts):
            sizes = np.diff(starts)  # a node is read if d reaches its block's size
            counts.append((np.count_nonzero((d >= np.repeat(sizes, sizes))[indices]),
                           indices.size))
            return kernel(indptr, indices, d, starts)

        monkeypatch.setattr(netstats, "_block_sums", counted)
        all_pairs_average_path(g)
        reads, entries = np.sum(counts, axis=0)
        assert reads <= 0.60 * entries


@pytest.fixture
def kernel_sizes(monkeypatch):
    """The block sizes of each all-pairs kernel call, one list per call."""
    sizes = []
    kernel = netstats._block_sums

    def counted(indptr, indices, dom, starts):
        sizes.append(np.diff(starts).tolist())
        return kernel(indptr, indices, dom, starts)

    monkeypatch.setattr(netstats, "_block_sums", counted)
    return sizes


@st.composite
def _chains(draw):
    # the path 0-1-...-n-1 plus short extra edges, so a random chain of
    # blocks, and a few prefix sizes
    n = draw(st.integers(2, 80))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(2, 8)),
                          max_size=n // 2))
    pairs = [(i, i + 1) for i in range(n - 1)] + [(a, a + d) for a, d in extra if a + d < n]
    sizes = draw(st.lists(st.integers(2, n), min_size=1, max_size=5, unique=True))
    return graph_from_pairs(n, pairs), sorted(sizes)


def _in_search_order(g):
    """``g`` relabeled in breadth-first order from node 0, so that every
    prefix of a connected graph is connected."""
    order, seen = [0], {0}
    for x in order:
        for y in neighbors(g, x).tolist():
            if y not in seen:
                seen.add(y)
                order.append(y)
    rank = dict(zip(order, range(g.n)))
    return graph_from_pairs(g.n, [(rank[a], rank[b]) for a, b in edge_set(g)])


@st.composite
def _prefixed_graphs(draw):
    # a graph that may be disconnected; a connected one under a random
    # labelling, whose prefixes often are not; or one whose prefixes all
    # are, without the path 0-1-...-n-1; and increasing prefix sizes
    g = draw(st.one_of(_any_graphs(), _connected_graphs(),
                       _connected_graphs().map(_in_search_order)))
    sizes = draw(st.lists(st.integers(2, g.n), min_size=1, max_size=5, unique=True))
    return g, sorted(sizes)


class TestBlockFold:
    """All-pairs as a fold over the chain of blocks between cut vertices."""

    @settings(max_examples=150, deadline=None)
    @given(_chains())
    def test_random_chains_match_floyd_warshall(self, chain):
        g, sizes = chain
        full = floyd_warshall_average_path(g)
        assert all_pairs_average_path(g) == full
        curve = small_world_curve(g, sizes=sizes)
        assert curve.lengths.tolist() == [
            floyd_warshall_average_path(induced(g, 0, k)) for k in sizes
        ]
        assert curve.average_path_full == full
        self.assert_dominators_inside_blocks(g, sizes)

    @settings(max_examples=150, deadline=None)
    @given(_prefixed_graphs())
    def test_random_graphs_match_floyd_warshall_or_raise(self, case):
        # any graph, connected or not, under any labelling: the fold splits
        # every prefix at the nodes no edge passes over
        g, sizes = case
        try:
            want = [floyd_warshall_average_path(induced(g, 0, k)) for k in sizes]
            full = floyd_warshall_average_path(g)
        except ValueError:  # g or one of the prefixes is disconnected
            with pytest.raises(DisconnectedGraph):
                small_world_curve(g, sizes=sizes)
            return
        curve = small_world_curve(g, sizes=sizes)
        assert curve.lengths.tolist() == want
        assert curve.average_path_full == full

    @staticmethod
    def assert_dominators_inside_blocks(g, sizes):
        # a dominator below the prefix length lies in its node's block of
        # the prefix, and a cut vertex of the prefix has none there
        dom = netstats._dominators(g)
        for k in sizes:
            cuts = cut_vertices(induced(g, 0, k))
            assert np.all(dom[cuts] >= k)
            ends = [0, *cuts, k - 1]
            for a, b in zip(ends, ends[1:]):
                d = dom[a : b + 1]
                assert np.all(((a <= d) & (d <= b)) | (d >= k))

    @pytest.mark.parametrize("kind", ["fgn", "walk1", "ties", "sqrt10", "plateaus"])
    def test_no_dominator_outside_its_block(self, kind, rng):
        for n in (64, 300):
            g = build_fast(_series(kind, n, rng))
            self.assert_dominators_inside_blocks(g, default_prefix_sizes(n))

    @pytest.mark.parametrize("kind", ["fgn", "walk1", "ties", "sqrt10"])
    def test_curve_equals_kernel_on_each_prefix(self, kind, rng):
        y = _series(kind, 700, rng)
        g = build_fast(y)
        dom = netstats._dominators(g)
        curve = small_world_curve(g)
        assert len(cut_vertices(g)) > 0
        for k, length in zip(curve.sizes.tolist(), curve.lengths.tolist()):
            h = build_fast(y[:k])
            [(w, _, _, _)] = netstats._block_sums(h.indptr, h.indices, dom[:k], np.array([0, k]))
            assert length == w / (k * (k - 1))

    def test_graph_without_a_path_edge_splits_at_its_cut_vertices(self, kernel_sizes,
                                                                     monkeypatch):
        # a path with (20, 21) swapped for (19, 21): node 20 hangs off 19,
        # and only (19, 21) passes over a node, so the graph splits into 38
        # blocks, of which [19, 21] alone has more than two nodes
        g = graph_from_pairs(40, [(i, i + 1) for i in range(39) if i != 20] + [(19, 21)])
        graphs = []
        kernel = netstats._block_sums

        def recorded(indptr, indices, dom, starts):
            graphs.append((indptr.tolist(), indices.tolist()))
            return kernel(indptr, indices, dom, starts)

        monkeypatch.setattr(netstats, "_block_sums", recorded)
        assert all_pairs_average_path(g) == floyd_warshall_average_path(g)
        block = induced(g, 19, 22)
        assert kernel_sizes == [[3]]
        assert graphs == [(block.indptr.tolist(), block.indices.tolist())]
        # prefixes 10 and 21 hold their own path, so every block of theirs
        # is one edge and needs no kernel; the whole graph runs [19, 21] again
        sizes = [10, 21, 40]
        curve = small_world_curve(g, sizes=sizes)
        assert curve.lengths.tolist() == [
            floyd_warshall_average_path(induced(g, 0, k)) for k in sizes
        ]
        assert kernel_sizes[1:] == [[3]]
        assert graphs[1:] == graphs[:1]

    def test_blocks_run_once_per_curve(self, kernel_sizes):
        # blocks [0, 4] and [4, 9] of prefix 10 serve prefix 16, which
        # adds [9, 15]; the whole graph adds [15, 19], and its 2-node
        # block [19, 20] needs no kernel
        pairs = [(i, i + 1) for i in range(20)]
        pairs += [(0, 4), (4, 9), (9, 15), (15, 19), (10, 15)]
        g = graph_from_pairs(21, pairs)
        curve = small_world_curve(g, sizes=[10, 16])
        # the planned blocks, then the kernel calls: all four are one word
        # wide, so they run as one union
        assert [n for call in kernel_sizes for n in call] == [5, 6, 7, 5]
        assert kernel_sizes == [[5, 6, 7, 5]]
        assert curve.average_path_full == floyd_warshall_average_path(g)

    @pytest.mark.parametrize("kind", ["fgn", "walk1"])
    def test_curve_builds_no_graph(self, kind, rng, kernel_sizes, monkeypatch):
        # each block's CSR arrays are sliced out of g, so no graph is built
        # or validated again inside the fold
        g = build_fast(_series(kind, 1024, rng))
        built = []
        validate = VisibilityGraph.__post_init__

        def counted(h):
            validate(h)  # which sets n
            built.append(h.n)

        monkeypatch.setattr(VisibilityGraph, "__post_init__", counted)
        small_world_curve(g)
        all_pairs_average_path(g)
        assert built == []
        blocks = [n for call in kernel_sizes for n in call]
        assert len(blocks) > 1  # the fold ran the kernel on several blocks
        assert len(kernel_sizes) < len(blocks)  # and some of them as a union

    def test_default_curve_kernel_calls(self, kernel_sizes):
        # exact, host-independent cost gate: the curve of fGn N = 4096 seed
        # 7 has 82 blocks of three or more nodes; the 7 that need more than
        # one pass run alone, and the rest as one union per pass width
        small_world_curve(build_fast(_fgn(4096, 7)))
        assert sum(map(len, kernel_sizes)) == 82
        assert len(kernel_sizes) <= 13

    @pytest.mark.parametrize("y", [
        pytest.param(lambda: np.sqrt(np.arange(1.0, 4097.0)), id="sqrt"),
        pytest.param(lambda: generate(GeneratorSpec(kind="linear", n=4096)).values,
                     id="linear"),
    ])
    def test_path_graphs_need_no_kernel(self, y, kernel_sizes):
        # every interior node is a cut vertex, so every block is one edge;
        # the kernel alone took seconds here, and minutes at N = 12,368
        g = build_fast(y())
        assert g.m == g.n - 1
        assert all_pairs_average_path(g) == (g.n + 1) / 3
        curve = small_world_curve(g)
        assert curve.lengths.tolist() == [(k + 1) / 3 for k in curve.sizes.tolist()]
        assert kernel_sizes == []


_KITE = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]


def _tie_graph(n, rng):
    return build_fast(rng.integers(0, 3, size=n).astype(np.float64))


class TestBitParallelClustering:
    """Exact agreement with triple enumeration on graphs that stress the kernel."""

    @staticmethod
    def assert_exact(g):
        rep = clustering(g)
        per_ref = clustering_by_triples(g)
        assert np.array_equal(rep.per_node, per_ref)
        assert rep.average == per_ref.mean()

    def test_complete_graph_two_chunks(self):
        g = _complete_graph(129)
        assert netstats._pass_words(g.n, g.m) == 2  # chunks of 128 and 1
        self.assert_exact(g)
        assert clustering(g).c_min == 1.0

    def test_star(self):
        self.assert_exact(_star_graph(300))

    def test_kite(self):
        self.assert_exact(graph_from_pairs(5, _KITE))

    def test_isolated_nodes(self):
        # the kite on nodes 1..5, with nodes 0, 6 and 7 isolated
        g = graph_from_pairs(8, [(a + 1, b + 1) for a, b in _KITE])
        self.assert_exact(g)
        assert clustering(g).per_node[[0, 6, 7]].tolist() == [0.0, 0.0, 0.0]

    def test_hub_heavy_walk(self, rng):
        g = _walk_graph(700, rng)
        assert g.degrees().max() > 64
        self.assert_exact(g)

    def test_tie_heavy_integer_series(self, rng):
        self.assert_exact(_tie_graph(600, rng))

    @pytest.mark.parametrize("words", [1, 2, 8])
    def test_chunk_width_does_not_change_value(self, words, rng, monkeypatch):
        graphs = [
            _complete_graph(129),
            _walk_graph(700, rng),
            _tie_graph(600, rng),
            _spike_graph(257),
        ]
        monkeypatch.setattr(netstats, "_pass_words", lambda n, m: words)
        for g in graphs:
            self.assert_exact(g)

    def test_sparse_graph_over_many_chunks(self):
        # a long path plus a hub at the end, linked to nodes 5i and 5i + 1:
        # 4 chunks of up to 512 nodes, and most path nodes have no neighbor
        # in most chunks, so their rows of a chunk's bitsets stay empty
        n = 1600
        hub = n - 1
        pairs = [(i, i + 1) for i in range(n - 1)]
        pairs += [(i, hub) for i in range(n - 2) if i % 5 < 2]
        g = graph_from_pairs(n, pairs)
        assert netstats._pass_words(g.n, g.m) == 8 and g.n > 3 * 512
        self.assert_exact(g)

    def test_edgeless_graph(self):
        with pytest.raises(ZeroDegreeVariance):
            clustering(graph_from_pairs(3, []))


class TestSmallWorld:
    def test_convex_prefixes_are_flat(self):
        y = np.arange(64, dtype=float) ** 2
        curve = small_world_curve(build_fast(y), sizes=[4, 8, 16, 32, 64])
        assert np.all(curve.lengths == 1.0)
        assert curve.slope == 0.0 and curve.r2 == 1.0
        assert curve.flat
        assert small_world_verdict(curve, average_clustering=1.0) is True

    def test_noise_grows_logarithmically(self, rng):
        curve = small_world_curve(
            build_fast(rng.normal(size=1024)), sizes=[64, 128, 256, 512, 1024]
        )
        assert curve.slope > 0.3
        assert curve.r2 > 0.9
        assert not curve.flat

    @pytest.mark.parametrize("kind", ["normal", "ties", "walk1", "plateaus"])
    def test_lengths_match_floyd_warshall(self, kind, rng):
        # every prefix reads by the full graph's dominators
        y = _series(kind, 150, rng)
        curve = small_world_curve(build_fast(y))
        expected = [floyd_warshall_average_path(build_fast(y[:k])) for k in curve.sizes]
        assert curve.lengths.tolist() == expected

    @pytest.mark.parametrize("sizes", [[16, 64], [16, 150]], ids=["short", "full"])
    def test_average_path_full_matches_floyd_warshall(self, sizes, rng):
        g = build_fast(_series("ties", 150, rng))
        curve = small_world_curve(g, sizes=sizes)
        assert curve.average_path_full == floyd_warshall_average_path(g)

    def test_single_size_has_no_fit(self, rng):
        curve = small_world_curve(build_fast(rng.normal(size=128)), sizes=[128])
        assert curve.slope is None and curve.r2 is None and curve.flat is None
        with pytest.raises(DegenerateFit):
            small_world_verdict(curve, average_clustering=0.7)

    def test_size_validation(self, rng):
        g = build_fast(rng.normal(size=100))
        with pytest.raises(InvalidParam):
            small_world_curve(g, sizes=[10, 10, 20])
        with pytest.raises(InvalidParam):
            small_world_curve(g, sizes=[1, 50])
        with pytest.raises(InvalidParam):
            small_world_curve(g, sizes=[50, 101])
        # int() alone would truncate 10.7 to 10, and raise a bare
        # ValueError or OverflowError on nan or inf; a string is no size
        for sizes in ([10.7, 50.2, 100], [10, np.nan], [10, np.inf],
                      [10, np.float64(np.inf)], [10, "50"]):
            with pytest.raises(InvalidParam, match="prefix size"):
                small_world_curve(g, sizes=sizes)
        curve = small_world_curve(g, sizes=[10.0, np.int64(50), np.float64(100)])
        assert curve.sizes.tolist() == [10, 50, 100]

    def test_verdict_thresholds(self):
        y = np.arange(32, dtype=float) ** 2
        curve = small_world_curve(build_fast(y), sizes=[8, 16, 32])
        assert small_world_verdict(curve, average_clustering=0.49) is False
        assert small_world_verdict(curve, average_clustering=0.51) is True

    def test_default_prefix_sizes(self):
        sizes = default_prefix_sizes(12368)
        assert sizes[0] == 64 and sizes[-1] == 12368
        assert len(sizes) <= 30
        assert all(b > a for a, b in zip(sizes, sizes[1:]))
        assert default_prefix_sizes(10) == [10]
        assert default_prefix_sizes(2) == [2]
        with pytest.raises(InvalidParam):
            default_prefix_sizes(1)
