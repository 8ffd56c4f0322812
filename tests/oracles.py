"""Independent reference implementations used to check the package.

Everything here is written for clarity over speed and shares no code
with the library: visibility by the chord definition, nearest higher
samples by a monotone stack, paths by
Floyd-Warshall, triangles by triple enumeration, dominators by set
inclusion of closed neighborhoods, assortativity by the
direct correlation sums, DFA by per-window polyfit, and the expected
natural-visibility mean degree of iid uniform noise by exact integration.
``neighbors`` and ``edge_set`` read a graph's CSR for the tests, and
``induced`` slices a graph through its edge list.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from tsnet.visibility import VisibilityGraph


def neighbors(g: VisibilityGraph, i: int) -> np.ndarray:
    """Sorted neighbor list of node ``i``, read straight from the CSR."""
    return g.indices[g.indptr[i] : g.indptr[i + 1]]


def edge_set(g: VisibilityGraph) -> set[tuple[int, int]]:
    """All edges as ``(i, j)`` pairs with i < j."""
    return {(int(i), int(j)) for i, j in g.edge_array()}


def brute_visibility_edges(y) -> set[tuple[int, int]]:
    """All visible pairs by evaluating the chord at every interior point."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    edges = set()
    for a, b in itertools.combinations(range(n), 2):
        visible = True
        for c in range(a + 1, b):
            chord = y[b] + (y[a] - y[b]) * (b - c) / (b - a)
            if y[c] >= chord:
                visible = False
                break
        if visible:
            edges.add((a, b))
    return edges


def nearest_higher_stack(y) -> tuple[list[int], list[int]]:
    """``(lo, hi)`` by one pass of a monotone stack: each sample's nearest
    left sample with ``y >=`` its own and nearest right sample with ``y >``
    its own, -1 and n where none is."""
    values = [float(v) for v in y]
    n = len(values)
    lo, hi = [], [n] * n
    stack: list[int] = []  # indices of non-increasing values
    for i, v in enumerate(values):
        while stack and values[stack[-1]] < v:
            hi[stack.pop()] = i
        lo.append(stack[-1] if stack else -1)
        stack.append(i)
    return lo, hi


def graph_from_pairs(n: int, pairs) -> VisibilityGraph:
    """Build CSR adjacency from an edge list, independently of the library."""
    adj = [set() for _ in range(n)]
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    indptr = [0]
    indices = []
    for neighbors in adj:
        indices.extend(sorted(neighbors))
        indptr.append(len(indices))
    return VisibilityGraph(np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64))


def induced(g: VisibilityGraph, a: int, b: int) -> VisibilityGraph:
    """Subgraph induced by nodes ``a..b-1``, relabeled from 0, rebuilt from
    its edge list by :func:`graph_from_pairs`."""
    return graph_from_pairs(b - a, [(i - a, j - a) for i, j in edge_set(g) if a <= i and j < b])


def floyd_warshall_distances(g: VisibilityGraph) -> np.ndarray:
    """All-pairs hop distances as floats, O(n^3)."""
    n = g.n
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in g.edge_array():
        dist[i, j] = dist[j, i] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    if np.isinf(dist).any():
        raise ValueError("disconnected")
    return dist


def floyd_warshall_average_path(g: VisibilityGraph) -> float:
    """Mean shortest-path length over unordered pairs, O(n^3)."""
    n = g.n
    return float(floyd_warshall_distances(g).sum() / (n * (n - 1)))


def cut_vertices(g: VisibilityGraph) -> list[int]:
    """Interior nodes t that no edge (a, b) passes over, a < t < b."""
    u, v = g.edge_array().T
    return [t for t in range(1, g.n - 1) if not np.any((u < t) & (v > t))]


def clustering_by_triples(g: VisibilityGraph):
    """Per-node clustering by enumerating neighbor pairs."""
    per = np.zeros(g.n)
    edges = edge_set(g)
    for i in range(g.n):
        nbrs = [int(v) for v in neighbors(g, i)]
        k = len(nbrs)
        if k < 2:
            continue
        closed = sum(
            1
            for a, b in itertools.combinations(sorted(nbrs), 2)
            if (a, b) in edges
        )
        per[i] = 2.0 * closed / (k * (k - 1))
    return per


def closed_neighborhoods(g: VisibilityGraph) -> list[set[int]]:
    """N[u], node ``u`` and its neighbors, as a Python set per node."""
    return [{u, *neighbors(g, u).tolist()} for u in range(g.n)]


def dominators_by_sets(g: VisibilityGraph) -> np.ndarray:
    """Each node's smallest neighbor w with N[u] a subset of N[w], where an
    equal N[w] counts only for w < u; ``g.n`` where no neighbor qualifies."""
    closed = closed_neighborhoods(g)
    dom = []
    for u, mine in enumerate(closed):
        wins = [
            w for w in sorted(mine - {u})
            if mine <= closed[w] and (mine != closed[w] or w < u)
        ]
        dom.append(wins[0] if wins else g.n)
    return np.array(dom, dtype=np.int64)


def assortativity_direct(g: VisibilityGraph) -> float:
    """Degree correlation over edges via the direct normalized sums."""
    deg = g.degrees().astype(float)
    e = g.edge_array()
    j, k = deg[e[:, 0]], deg[e[:, 1]]
    m = float(g.m)
    mean_prod = np.sum(j * k) / m
    mean_half_sum = np.sum(0.5 * (j + k)) / m
    mean_half_sq = np.sum(0.5 * (j * j + k * k)) / m
    denom = mean_half_sq - mean_half_sum**2
    return float((mean_prod - mean_half_sum**2) / denom)


def dfa_polyfit(y, scales, order: int):
    """F(n) with numpy.polyfit per window, front and back segmentation."""
    y = np.asarray(y, dtype=float)
    profile = np.cumsum(y - y.mean())
    n = len(profile)
    out = []
    for s in scales:
        k = n // s
        segments = [profile[i * s : (i + 1) * s] for i in range(k)]
        segments += [profile[n - (i + 1) * s : n - i * s] for i in range(k)]
        x = np.arange(s, dtype=float)
        mean_sq = [
            np.mean((seg - np.polyval(np.polyfit(x, seg, order), x)) ** 2)
            for seg in segments
        ]
        out.append(float(np.sqrt(np.mean(mean_sq))))
    return np.array(out)


def iid_uniform_visibility_probability(d: int) -> Fraction:
    """Exact probability that samples ``i`` and ``i + d`` of iid Uniform(0, 1)
    data see each other in the natural visibility graph.

    Given the endpoint heights ``a`` and ``b``, each interior sample
    ``i + k`` lies below the chord independently, with probability equal
    to the chord's height ``a + (b - a) k / d``.  Hence

        p_d = integral over [0, 1]^2 of prod_{k=1}^{d-1} ((d - k) a + k b) / d,

    a homogeneous polynomial of degree ``d - 1`` whose monomials
    ``a^j b^(d-1-j)`` integrate to ``1 / ((j + 1) (d - j))``.  The
    coefficients are expanded in integers, so the result is exact:
    ``p_1 = 1``, ``p_2 = 1/2``, ``p_3 = 31/108``, and ``p_d = 4/d^2 + O(d^-3)``.
    """
    coeffs = [1]  # coeffs[j] multiplies a^j b^(degree - j)
    for k in range(1, d):
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j] += c * k
            nxt[j + 1] += c * (d - k)
        coeffs = nxt
    integral = sum(Fraction(c, (j + 1) * (d - j)) for j, c in enumerate(coeffs))
    return integral / Fraction(d) ** (d - 1)


EXACT_DISTANCES = 100


def iid_uniform_mean_degree(n: int) -> float:
    """Expected mean degree of the natural visibility graph of ``n`` iid
    Uniform(0, 1) samples: ``2 * sum_{d=1}^{n-1} (1 - d/n) p_d``.

    ``p_d`` is exact up to ``EXACT_DISTANCES``; beyond that the tail
    ``4/d^2`` is used.  The true ``p_d`` sits about ``5/d^3`` below it, so
    the tail overstates the result by about ``5 / EXACT_DISTANCES^2``
    (5.4787 against 5.4781 for the full sum at n = 10 000).
    """
    exact = min(EXACT_DISTANCES, n - 1)
    total = sum(
        (1.0 - d / n) * float(iid_uniform_visibility_probability(d))
        for d in range(1, exact + 1)
    )
    tail = np.arange(exact + 1, n, dtype=float)
    total += float(np.sum((1.0 - tail / n) * 4.0 / tail**2))
    return 2.0 * total
