"""Topological statistics of visibility graphs.

Degree distribution and power-law tail fit, local clustering,
degree assortativity, exact all-pairs average shortest path, and the
growing-window small-world curve L(N) vs ln N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fit import linear_fit, log_spaced_ints
from .errors import (
    DegenerateFit,
    DisconnectedGraph,
    InsufficientTailPoints,
    InvalidParam,
    ZeroDegreeVariance,
)
from .visibility import VisibilityGraph

# Slope magnitudes below this are reported as flat (complete-graph regime,
# where L is constant and the log fit carries no information).
FLAT_SLOPE_EPS = 1e-12

_PREFIX_COUNT = 30
_PREFIX_START = 64
_VERDICT_R2_MIN = 0.95
_VERDICT_CLUSTERING_MIN = 0.5
# Neighbors ORed per gathered row in the all-pairs search.
_CHUNK = 8


@dataclass(frozen=True)
class DegreeDistribution:
    """Empirical degree pdf on its support (degrees with nonzero count)."""

    support: np.ndarray
    pdf: np.ndarray

    def __post_init__(self):
        if self.support.size != self.pdf.size or self.support.size == 0:
            raise ValueError("support and pdf must be non-empty and aligned")

    @property
    def k_min(self) -> int:
        return int(self.support[0])

    @property
    def k_max(self) -> int:
        return int(self.support[-1])

    def mean_degree(self) -> float:
        return float(np.sum(self.support * self.pdf))


@dataclass(frozen=True)
class DegreeTailFit:
    """Least-squares line through (ln k, ln p(k)) over the fitted range."""

    gamma: float
    r2: float
    k_range: tuple[int, int]
    n_points: int


@dataclass(frozen=True)
class ClusteringReport:
    average: float
    c_max: float
    c_min: float
    per_node: np.ndarray


@dataclass(frozen=True)
class SmallWorldCurve:
    """Average path length on growing prefixes, with the ln N fit.

    Fit fields are None when fewer than two prefix sizes were evaluated.
    """

    sizes: np.ndarray
    lengths: np.ndarray
    slope: float | None
    intercept: float | None
    r2: float | None

    @property
    def flat(self) -> bool:
        """True when the fitted slope is indistinguishable from zero."""
        return self.slope is not None and abs(self.slope) < FLAT_SLOPE_EPS


def degree_distribution(g: VisibilityGraph) -> DegreeDistribution:
    counts = np.bincount(g.degrees())
    support = np.flatnonzero(counts)
    pdf = counts[support] / float(g.n)
    return DegreeDistribution(support=support.astype(np.int64), pdf=pdf)


def fit_powerlaw_tail(
    dist: DegreeDistribution, k_min: int | None = None
) -> DegreeTailFit:
    """Fit ln p(k) = -gamma ln k + c over [k_min, k_max] on the raw pdf.

    ``k_min`` defaults to ceil(mean degree), where visibility-graph degree
    pdfs typically enter their power-law regime; the range always runs to
    the maximum degree.  Requires at least three distinct degrees in range.
    """
    k_lo = int(k_min) if k_min is not None else int(math.ceil(dist.mean_degree()))
    k_hi = dist.k_max
    if k_lo < 1 or k_hi < k_lo:
        raise InvalidParam(f"bad tail range [{k_lo}, {k_hi}]")
    sel = dist.support >= k_lo
    ks = dist.support[sel]
    if ks.size < 3:
        raise InsufficientTailPoints(
            f"{ks.size} distinct degrees in [{k_lo}, {k_hi}], need 3"
        )
    ps = dist.pdf[sel]
    fit = linear_fit(np.log(ks.astype(np.float64)), np.log(ps))
    return DegreeTailFit(
        gamma=-fit.slope, r2=fit.r2, k_range=(k_lo, k_hi), n_points=int(ks.size)
    )


def clustering(g: VisibilityGraph) -> ClusteringReport:
    """Local clustering per node, averaged over all nodes.

    C_i = 2 t_i / (k_i (k_i - 1)) with t_i the number of triangles at i;
    nodes of degree < 2 contribute C_i = 0 to the average.
    c_max / c_min are taken over nodes of degree >= 2 only.

    Triangles are counted exactly, as integers, from neighbor bitsets
    (the bit-parallel scheme of :func:`all_pairs_average_path`): each
    chunk of 64 * words nodes gets an ``(n, words)`` uint64 array whose
    row w has bit s set iff w is adjacent to chunk node s.  An edge (u, v)
    whose rows both hold a bit (the active rows, read off the chunk's CSR
    neighbor lists) gains the popcount of ``row u & row v``, its common
    neighbors in the chunk.  A triangle at i is seen from each of its two edges at i.
    """
    deg = g.degrees()
    eligible = deg >= 2
    if not eligible.any():
        raise ZeroDegreeVariance("no node has degree >= 2")
    n, indptr, indices = g.n, g.indptr, g.indices
    u, v = g.edge_array().T
    width = 64 * _pass_words(n, g.m)
    common = np.zeros(g.m, dtype=np.int64)  # triangles on each edge
    for start in range(0, n, width):
        k = min(width, n - start)
        lo, hi = indptr[start], indptr[start + k]
        bit = np.repeat(np.arange(k), np.diff(indptr[start : start + k + 1]))
        nb = np.zeros((n, -(-k // 64)), dtype=np.uint64)
        np.bitwise_or.at(
            nb,
            (indices[lo:hi], bit // 64),
            np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64)),
        )
        active = np.zeros(n, dtype=bool)
        active[indices[lo:hi]] = True
        sel = np.flatnonzero(active[u] & active[v])
        shared = np.bitwise_count(nb[u[sel]] & nb[v[sel]])
        common[sel] += shared.sum(axis=1, dtype=np.int64)
    tri2 = np.zeros(n, dtype=np.int64)  # twice the triangle count per node
    np.add.at(tri2, u, common)
    np.add.at(tri2, v, common)
    per_node = np.zeros(n, dtype=np.float64)
    d = deg[eligible].astype(np.float64)
    per_node[eligible] = 2.0 * (tri2[eligible] // 2) / (d * (d - 1.0))
    return ClusteringReport(
        average=float(per_node.mean()),
        c_max=float(per_node[eligible].max()),
        c_min=float(per_node[eligible].min()),
        per_node=per_node,
    )


def assortativity(g: VisibilityGraph) -> float:
    """Pearson correlation of degrees across edges.

    Computed from exact integer sums over the edges:
        r = (4 M A - B^2) / (2 M C - B^2)
    with A = sum jk, B = sum (j + k), C = sum (j^2 + k^2) over edges
    whose endpoint degrees are j, k.  A node of degree d ends d edges, so
    B = sum d^2 and C = sum d^3 over nodes, and 2A is the sum of
    deg(row) * deg(neighbor) over the CSR's directed entries.  Exact up to
    the final division.
    """
    deg = g.degrees().astype(np.int64)
    a2 = int(np.dot(np.repeat(deg, deg), deg[g.indices]))
    b = int(np.dot(deg, deg))
    c = int(np.dot(deg, deg * deg))
    m = g.m
    num = 2 * m * a2 - b * b
    den = 2 * m * c - b * b
    if den == 0:
        raise ZeroDegreeVariance("all edge-endpoint degrees equal")
    r = num / den
    return min(1.0, max(-1.0, r))


def _pass_words(n: int, m: int) -> int:
    """64-bit words per bitset row, so 64x this many nodes go per pass.

    Sets the sources per BFS pass and the nodes per clustering chunk.
    The rule keeps ``m * words`` at most ``128 * n`` (or one word).  A
    clustering chunk gathers two rows per edge, and an all-pairs pass
    holds two buffers of one row per ``_CHUNK``-neighbor chunk (at most
    ``2m / _CHUNK + n`` rows), each row ``words * 8`` bytes; a level fills
    only the rows of real slots past the settled rows.  So peak
    memory stays flat on dense graphs, while sparse graphs get the widest
    pass (8 words, 512 sources).
    """
    return max(1, min(128 * n // m, 8, -(-n // 64)))


def all_pairs_average_path(g: VisibilityGraph) -> float:
    """Exact mean shortest-path length over all unordered node pairs.

    Bit-parallel multi-source breadth-first search (Akiba, Iwata &
    Yoshida 2013; Then et al. 2014): each pass carries up to 512 sources
    as one bit each in a ``(n, words)`` uint64 array and expands all of
    their frontiers at once, one level per step.  Distances are summed as
    Python integers, so the result is identical at any pass width.

    A level ORs each node's neighbor rows together.  Neighbor lists are
    padded to a multiple of ``_CHUNK`` by repeating their last entry,
    which is exact because OR is idempotent, and stored slot-major: slot
    ``b`` lists entry ``b`` of every chunk, so ``_CHUNK`` gathers OR whole
    chunks at once.  Nodes are relabeled hubs first, stably by descending
    degree: the multi-chunk rows lead and go through ``reduceat``, and the
    one-chunk rows follow in descending degree and take their chunk as
    is.  Slot ``b`` of a one-chunk row is padding once its degree is at
    most ``b``, so slot ``b`` is gathered only up to ``ends[b]``.  Hubs
    are reached first and so settle first: the rows before ``settled``
    have no unseen bit, can gain nothing, and are skipped.  Their last
    frontier may still be read by a later level, but a neighbor has seen
    those sources one level after them, so ``unseen`` masks the bits.  A
    pass stops once every pair is reached.  Source ``s`` still owns its
    own bit, so the sum does not depend on the labels.
    """
    n = g.n
    if n < 2:
        raise InvalidParam("average path length needs at least 2 nodes")
    deg = g.degrees()
    # Also required by the kernel: a node without neighbors has no chunk.
    if np.any(deg == 0):
        raise DisconnectedGraph("graph has an isolated node")
    width = 64 * _pass_words(n, g.m)
    order = np.argsort(-deg, kind="stable")  # new label -> node
    label = np.argsort(order)  # node -> new label
    deg = deg[order]
    chunks = -(-deg // _CHUNK)
    first = np.concatenate(([0], np.cumsum(chunks)))  # first chunk per row
    row = np.repeat(np.arange(n), chunks * _CHUNK)
    entry = np.minimum(np.arange(row.size) - first[row] * _CHUNK, deg[row] - 1)
    padded = g.indices[g.indptr[order][row] + entry]
    slots = np.ascontiguousarray(label[padded].reshape(-1, _CHUNK).T)
    multi = int(np.searchsorted(-chunks, -1))  # rows with more than one chunk
    # slot b is real only up to the last one-chunk row of degree > b
    ends = first[multi] + np.searchsorted(-deg[multi:], -np.arange(_CHUNK))

    def pass_sum(start: int) -> int:
        k = min(width, n - start)
        words = -(-k // 64)
        bit = np.arange(k)  # source start + b owns bit b
        frontier = np.zeros((n, words), dtype=np.uint64)
        frontier[label[start + bit], bit // 64] = np.left_shift(
            np.uint64(1), (bit % 64).astype(np.uint64)
        )
        # only the k source bits, so a row of a narrow pass can settle too
        unseen = frontier ^ np.bitwise_or.reduce(frontier, axis=0)
        gathered = np.empty((slots.shape[1], words), dtype=np.uint64)
        scratch = np.empty_like(gathered)
        total = 0
        reached = k
        level = 0
        settled = 0  # rows before settled have no unseen bit
        while reached < k * n:
            level += 1
            c = first[settled]
            # mode="clip" lets take write into out without a buffer copy
            np.take(frontier, slots[0, c:], axis=0, out=gathered[c:], mode="clip")
            for slot, end in zip(slots[1:], ends[1:]):
                np.take(frontier, slot[c:end], axis=0, out=scratch[c:end], mode="clip")
                gathered[c:end] |= scratch[c:end]
            one = max(settled, multi)
            frontier[one:] = gathered[first[one]:]
            np.bitwise_or.reduceat(
                gathered[c : first[multi]], first[settled:multi] - c, axis=0,
                out=frontier[settled:multi],
            )
            frontier[settled:] &= unseen[settled:]
            count = int(np.bitwise_count(frontier[settled:]).sum())
            if count == 0:
                raise DisconnectedGraph("graph has unreachable node pairs")
            total += level * count
            reached += count
            unseen[settled:] ^= frontier[settled:]
            settled += int(np.argmax(unseen[settled:].reshape(-1) != 0)) // words
        return total

    total = sum(pass_sum(s) for s in range(0, n, width))
    # total counts ordered pairs; each unordered pair appears twice
    return total / (n * (n - 1))


def default_prefix_sizes(n: int) -> list[int]:
    """Up to 30 log-spaced prefix lengths from min(64, n) up to n."""
    if n < 2:
        raise InvalidParam("need at least 2 observations")
    lo = max(2, min(_PREFIX_START, n))
    return [int(v) for v in log_spaced_ints(lo, n, _PREFIX_COUNT)]


def small_world_curve(g: VisibilityGraph,
                      sizes: list[int] | None = None) -> SmallWorldCurve:
    """L(N) on growing prefixes of the series behind ``g``, fit against ln N.

    The graph of the first k samples is ``g.prefix(k)``.
    """
    n = g.n
    if sizes is None:
        sizes = default_prefix_sizes(n)
    else:
        sizes = [int(s) for s in sizes]
        if not sizes:
            raise InvalidParam("no prefix sizes given")
        if any(s < 2 or s > n for s in sizes):
            raise InvalidParam(f"prefix sizes must lie in [2, {n}]")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidParam("prefix sizes must be strictly increasing")
    lengths = np.array(
        [all_pairs_average_path(g.prefix(k)) for k in sizes], dtype=np.float64
    )
    size_arr = np.asarray(sizes, dtype=np.int64)
    slope = intercept = r2 = None
    if size_arr.size >= 2:
        fit = linear_fit(np.log(size_arr.astype(np.float64)), lengths)
        slope, intercept, r2 = fit.slope, fit.intercept, fit.r2
    return SmallWorldCurve(
        sizes=size_arr, lengths=lengths, slope=slope, intercept=intercept, r2=r2
    )


def small_world_verdict(curve: SmallWorldCurve, average_clustering: float) -> bool:
    """True when L grows logarithmically (r2 >= 0.95) and clustering >= 0.5."""
    if curve.r2 is None:
        raise DegenerateFit("small-world curve has no fit (fewer than 2 sizes)")
    return bool(curve.r2 >= _VERDICT_R2_MIN
                and average_clustering >= _VERDICT_CLUSTERING_MIN)
