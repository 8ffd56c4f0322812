"""Topological statistics of visibility graphs.

Degree distribution and power-law tail fit, local clustering,
degree assortativity, exact all-pairs average shortest path, and the
growing-window small-world curve L(N) vs ln N.
"""

from __future__ import annotations

import math
import weakref
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
from .visibility import VisibilityGraph, _interval_csr

# Slope magnitudes below this are reported as flat (complete-graph regime,
# where L is constant and the log fit carries no information).
FLAT_SLOPE_EPS = 1e-12

_PREFIX_COUNT = 30
_PREFIX_START = 64
_VERDICT_R2_MIN = 0.95
_VERDICT_CLUSTERING_MIN = 0.5
# Neighbors ORed per gathered row in the all-pairs search.
_CHUNK = 8


@dataclass(frozen=True, eq=False)
class DegreeDistribution:
    """Empirical degree pdf on its support (degrees with nonzero count), and
    the node count per degree when built by :func:`degree_distribution`."""

    support: np.ndarray
    pdf: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self):
        sizes = {a.size for a in (self.support, self.pdf, self.counts) if a is not None}
        if len(sizes) != 1 or self.support.size == 0:
            raise ValueError("support, pdf and counts must be non-empty and aligned")

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


@dataclass(frozen=True, eq=False)
class ClusteringReport:
    average: float
    c_max: float
    c_min: float
    per_node: np.ndarray


@dataclass(frozen=True, eq=False)
class SmallWorldCurve:
    """Average path length on growing prefixes, with the ln N fit, and
    the whole graph's average path length.

    The fit fields, and ``flat`` (slope indistinguishable from zero), are
    None when fewer than two prefix sizes were evaluated.  The fields are
    the report's ``small_world`` keys, so stage work counters belong with
    the stage timings, not here.
    """

    sizes: np.ndarray
    lengths: np.ndarray
    slope: float | None
    intercept: float | None
    r2: float | None
    flat: bool | None
    average_path_full: float


def degree_distribution(g: VisibilityGraph) -> DegreeDistribution:
    counts = np.bincount(g.degrees())
    support = np.flatnonzero(counts)
    pdf = counts[support] / float(g.n)
    return DegreeDistribution(support=support.astype(np.int64), pdf=pdf,
                              counts=counts[support])


def fit_powerlaw_tail(
    dist: DegreeDistribution, k_min: int | None = None
) -> DegreeTailFit:
    """Fit ln p(k) = -gamma ln k + c over [k_min, k_max] on the raw pdf.

    ``k_min`` defaults to ceil(mean degree), where visibility-graph degree
    pdfs typically enter their power-law regime; the range always runs to
    the maximum degree.  Requires at least three distinct degrees in range.
    With ``dist.counts`` the default is ceil(2m / n) in integers, which the
    float sum behind :meth:`~DegreeDistribution.mean_degree` can overshoot.
    """
    if k_min is None and dist.counts is not None:
        k_min = -(-int(dist.support @ dist.counts) // int(dist.counts.sum()))
    k_lo = int(k_min) if k_min is not None else math.ceil(dist.mean_degree())
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


_triangle_memo = weakref.WeakKeyDictionary()  # a graph hashes by identity


def _triangles(g: VisibilityGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_common_neighbors` of ``g``, counted once and kept while ``g`` lives."""
    if g not in _triangle_memo:
        _triangle_memo[g] = _common_neighbors(g)
    return _triangle_memo[g]


def _common_neighbors(g: VisibilityGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every edge ``(u, v)``, ``u < v``, in :meth:`~VisibilityGraph.edge_array`
    order, with its count of common neighbors (triangles on the edge), as
    read-only arrays that :func:`clustering` and :func:`_dominators` share
    through :func:`_triangles`, so a graph is counted once.

    Counted exactly, as integers, from neighbor bitsets (the bit-parallel
    scheme of :func:`_block_sums`): each chunk of 64 * words
    nodes gets an ``(n, words)`` uint64 array whose row w has bit s set iff
    w is adjacent to chunk node s, scattered through its flat view.  An
    edge (u, v) whose rows both hold a bit (the active rows, read off the
    chunk's CSR neighbor lists) gains the popcount of ``row u & row v``,
    its common neighbors in the chunk.
    """
    n, indptr, indices = g.n, g.indptr, g.indices
    u, v = g.edge_array().T
    width = 64 * _pass_words(n, g.m)
    common = np.zeros(g.m, dtype=np.int64)
    for start in range(0, n, width):
        k = min(width, n - start)
        lo, hi = indptr[start], indptr[start + k]
        bit = np.repeat(np.arange(k), np.diff(indptr[start : start + k + 1]))
        nb = np.zeros((n, -(-k // 64)), dtype=np.uint64)
        np.bitwise_or.at(nb.reshape(-1), indices[lo:hi] * nb.shape[1] + bit // 64,
                         np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64)))
        active = np.zeros(n, dtype=bool)
        active[indices[lo:hi]] = True
        sel = np.flatnonzero(active[u] & active[v])
        shared = nb.take(u[sel], axis=0)
        shared &= nb.take(v[sel], axis=0)
        counts = np.bitwise_count(shared)
        # a row holds at most 64 * 8 = 512 bits, so uint16 sums exactly;
        # adding whole columns beats numpy's sum along a short axis
        common[sel] += sum(counts.T[1:], counts[:, 0].astype(np.uint16))
    for a in (u, v, common):
        a.flags.writeable = False
    return u, v, common


def clustering(g: VisibilityGraph) -> ClusteringReport:
    """Local clustering per node, averaged over all nodes.

    C_i = 2 t_i / (k_i (k_i - 1)) with t_i the number of triangles at i;
    nodes of degree < 2 contribute C_i = 0 to the average.
    c_max / c_min are taken over nodes of degree >= 2 only.

    Triangles are counted exactly, as integers, per edge by
    :func:`_common_neighbors`, once per graph: :func:`_dominators` reads
    the same count.  A triangle at i is seen from each of its two edges
    at i.
    """
    deg = g.degrees()
    eligible = deg >= 2
    if not eligible.any():
        raise ZeroDegreeVariance("no node has degree >= 2")
    n = g.n
    u, v, common = _triangles(g)
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


def _dominators(g: VisibilityGraph) -> np.ndarray:
    """Each node's smallest dominating neighbor, or ``g.n`` where it has none.

    Neighbor w dominates u when N[u] ⊆ N[w] for the closed neighborhoods
    N[.], which holds exactly when the edge (u, w) has deg(u) - 1 common
    neighbors, read off the triangle count that :func:`clustering` shares
    (:func:`_triangles`).  Of two nodes with equal closed neighborhoods
    only the smaller index dominates, so following dominators from any
    node grows its closed neighborhood or lowers its index and ends at an
    undominated node.  The graph of a series prefix is an induced
    subgraph, so a dominator below the prefix length still dominates in
    the prefix.
    """
    u, v, common = _triangles(g)
    deg = g.degrees()
    dom = np.full(g.n, g.n, dtype=np.int64)
    u_wins = common == deg[v] - 1  # N[v] ⊆ N[u], and u < v wins a tie
    v_wins = (common == deg[u] - 1) & ~u_wins
    np.minimum.at(dom, v[u_wins], u[u_wins])
    np.minimum.at(dom, u[v_wins], v[v_wins])
    return dom


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
    clustering chunk gathers two rows per edge, and an all-pairs call
    holds two buffers of one row per ``_CHUNK`` read entries (at most
    ``2m / _CHUNK + n`` rows, fewer once dominated neighbors are left
    out), each row ``words * 8`` bytes; a level fills only the rows of
    real slots past the settled rows.  So peak memory stays flat on dense
    graphs, while sparse graphs get the widest pass (8 words, 512
    sources).
    """
    return max(1, min(128 * n // max(m, 1), 8, -(-n // 64)))


def all_pairs_average_path(g: VisibilityGraph) -> float:
    """Exact mean shortest-path length over all unordered node pairs.

    The ordered-pair distance sum, exact in Python integers, over
    ``n * (n - 1)``: :func:`_prefix_pair_sums` folds it over the chain of
    blocks between cut vertices, and :func:`_block_sums` runs each block.
    """
    return _prefix_pair_sums(g)(g.n) / (g.n * (g.n - 1))


def _prefix_pair_sums(g: VisibilityGraph):
    """A function of k: the ordered-pair distance sum of nodes 0..k-1 of ``g``.

    A natural visibility graph holds the path 0-1-...-n-1, so an interior
    node t is a cut vertex exactly when no edge (a, b) has a < t < b: a
    difference array over the edges finds them all.  The blocks are the
    intervals [a, b] between consecutive cut vertices (and the two ends),
    and they form a chain.  Where G1 and G2 share only the node c, with
    sizes n1 and n2 counting c and distance sums D1(c) and D2(c) from c,
    the unordered pair sum is W1 + W2 + (n1 - 1) D2(c) + (n2 - 1) D1(c)
    (the cut-vertex rule for the Wiener index; Dobrynin, Entringer &
    Gutman, Acta Appl. Math. 66, 2001).  So the blocks fold left to
    right, keeping the ordered pair sum W, the size s and the distance
    sum D from the last node: block [a, b] of n_B nodes, with ordered pair
    sum W_B, end sums D_B(a), D_B(b) and distance d_B(a, b), gives

        W' = W + W_B + 2 ((s - 1) D_B(a) + (n_B - 1) D)
        D' = D_B(b) + (s - 1) d_B(a, b) + D,    s' = s + n_B - 1,

    all in Python integers.  A 2-node block is one edge, any other one
    :func:`_block_sums` call on its slice of ``g``'s CSR arrays.  A graph
    without every edge (i, i + 1) is one block, keeping the kernel's errors.

    The edges of prefix k are those with v < k, a leading slice once the
    edges are ordered by v.  Block [a, b] of prefix k is the subgraph
    induced by a..b, whatever k is, so its four integers are cached by
    (a, b) across calls: along a small-world curve only a prefix's new
    tail blocks run the kernel.

    The dominators of ``g`` serve every block, shifted by its start,
    because no dominator below k lies outside its node's block.  A
    dominator is a neighbor, and a node that is not a cut vertex has all
    its neighbors in its block: an edge out of the block would pass over
    a cut vertex.  A cut vertex t has no dominator below k: one would be
    adjacent to t - 1 and t + 1, so it is one of them, with the edge
    (t - 1, t + 1), or another node with an edge to one of them, and
    either edge passes over t.  A dominator at k or beyond is at least
    the block's size once shifted, so it reads as none.
    """
    dom = _dominators(g)
    u, v, _ = _triangles(g)
    by_v = np.argsort(v, kind="stable")  # the edges of prefix k lead
    u, v = u[by_v], v[by_v]
    blocks = {}

    def pair_sum(k: int) -> int:
        if k < 2:
            raise InvalidParam("average path length needs at least 2 nodes")
        inside = int(np.searchsorted(v, k))
        lo, hi = u[:inside], v[:inside]
        ends = [0, k - 1]
        if np.count_nonzero(hi - lo == 1) == k - 1:  # holds the path 0-1-...-k-1
            # over[t] counts the edges (a, b) with a < t < b
            over = np.cumsum(np.bincount(lo + 1, minlength=k) - np.bincount(hi, minlength=k))
            ends = np.flatnonzero(over == 0).tolist()
        total, size, dist = 0, 1, 0  # W, s and D of node 0 alone
        for a, b in zip(ends, ends[1:]):
            if (a, b) not in blocks:
                blocks[a, b] = (2, 1, 1, 1) if b == a + 1 else _block_sums(
                    *_interval_csr(g, a, b + 1), dom[a : b + 1] - a)
            w, da, db, dab = blocks[a, b]
            total += w + 2 * ((size - 1) * da + (b - a) * dist)
            dist += db + (size - 1) * dab
            size += b - a
        return total

    return pair_sum


def _block_sums(indptr: np.ndarray, indices: np.ndarray,
                dom: np.ndarray) -> tuple[int, int, int, int]:
    """``(W, D(0), D(n - 1), d(0, n - 1))`` of the n-node graph with CSR
    arrays ``indptr`` and ``indices``: its ordered-pair distance sum, the
    distance sums from its first and last node, and the distance between
    them, given ``dom``, the :func:`_dominators` of the graph or of one it
    is a block of: node u is read from level 2 on only if ``dom[u] >= n``.

    Bit-parallel multi-source breadth-first search (Akiba, Iwata &
    Yoshida 2013; Then et al. 2014): each pass carries up to 512 sources
    as one bit each in a ``(n, words)`` uint64 array and expands all of
    their frontiers at once, one level per step.  Distances are summed as
    Python integers, so the result is identical at any pass width.  An
    end node's distance sum is the sum over levels l >= 0 of the nodes it
    has not reached by level l, read off its bit column of the unseen
    bits; d(0, n - 1) counts the levels before node n - 1 sees node 0.

    Level 1 scatters each source's bit over its neighbor list.  From
    level 2 on, a node ORs together the frontiers of its undominated
    neighbors only (:func:`_dominators`): about 57% of the 2m neighbor
    entries on fGn and random-walk graphs.  This is exact.  Take s at
    distance l >= 2 from v and a shortest path ending x -> u -> v.
    Following dominators from u ends at an undominated w with N[u] ⊆
    N[w], so x and v lie in N[w]; x is not in N[v], so w != v, and w is
    a neighbor of v at distance l - 1 from s.  A node with no undominated
    neighbor is adjacent to every node, and reads its first neighbor.

    The read lists are padded to a multiple of ``_CHUNK`` by repeating
    their last entry, which is exact because OR is idempotent, and stored
    slot-major: slot ``b`` lists entry ``b`` of every chunk, so
    ``_CHUNK`` gathers OR whole chunks at once.  Nodes are relabeled hubs
    first, stably by descending read count: the multi-chunk rows lead and
    go through ``reduceat``, and the one-chunk rows follow in descending
    read count and take their chunk as is.  Slot ``b`` of a one-chunk row
    is padding once its read count is at most ``b``, so slot ``b`` is
    gathered only up to ``ends[b]``.  Hubs are reached first and so
    settle first: the rows before ``settled`` have no unseen bit, can
    gain nothing, and are skipped.  Their last frontier may still be read
    by a later level, but a neighbor has seen those sources one level
    after them, so ``unseen`` masks the bits.  A pass stops once every
    pair is reached.  Source ``s`` still owns its own bit, so the sum
    does not depend on the labels.
    """
    n, deg = indptr.size - 1, np.diff(indptr)
    # Also required by the kernel: a node without neighbors has no chunk.
    if np.any(deg == 0):
        raise DisconnectedGraph("graph has an isolated node")
    width = 64 * _pass_words(n, indices.size // 2)
    read = dom[indices] >= n
    reads = np.diff(np.cumsum(read)[indptr[1:] - 1], prepend=0)
    read[indptr[:-1][reads == 0]] = True  # reading any neighbor is exact
    reads = np.maximum(reads, 1)
    read_ptr = np.concatenate(([0], np.cumsum(reads)))
    order = np.argsort(-reads, kind="stable")  # new label -> node
    label = np.argsort(order)  # node -> new label
    reads = reads[order]
    chunks = -(-reads // _CHUNK)
    first = np.concatenate(([0], np.cumsum(chunks)))  # first chunk per row
    row = np.repeat(np.arange(n), chunks * _CHUNK)
    entry = np.minimum(np.arange(row.size) - first[row] * _CHUNK, reads[row] - 1)
    padded = indices[read][read_ptr[order][row] + entry]
    slots = np.ascontiguousarray(label[padded].reshape(-1, _CHUNK).T)
    del read, row, entry, padded
    multi = int(np.searchsorted(-chunks, -1))  # rows with more than one chunk
    # slot b is real only up to the last one-chunk row reading more than b
    ends = first[multi] + np.searchsorted(-reads[multi:], -np.arange(_CHUNK))
    # one set of buffers for every pass, sized for the widest; a pass of
    # fewer words views the head of each
    most = -(-min(width, n) // 64)
    bufs = [np.empty(r * most, dtype=t) for r, t in
            ((n, np.uint64), (n, np.uint64), (n, np.uint8),
             (slots.shape[1], np.uint64), (slots.shape[1], np.uint64))]

    total, far = 0, 1  # far is d(0, n - 1)
    end_sums = {0: n - 1, n - 1: n - 1}  # by level 0, each end has reached itself
    for start in range(0, n, width):
        k = min(width, n - start)
        words = -(-k // 64)
        frontier, unseen, counts, gathered, scratch = (
            buf[: buf.size // most * words].reshape(-1, words) for buf in bufs
        )
        own = np.arange(k)  # source start + b owns bit b
        bits = np.left_shift(np.uint64(1), (own % 64).astype(np.uint64))
        # every row misses the k source bits, less its own
        unseen[:] = np.bitwise_or.reduceat(bits, np.arange(0, k, 64))
        unseen[label[start + own], own // 64] ^= bits
        # level 1: each source's bit on every neighbor, a distinct bit per entry
        lo, hi = indptr[start], indptr[start + k]
        bit = np.repeat(own, deg[start : start + k])
        frontier.fill(0)
        np.bitwise_or.at(frontier, (label[indices[lo:hi]], bit // 64), bits[bit])
        unseen ^= frontier
        total += int(hi - lo)
        reached = k + int(hi - lo)
        level = 1
        settled = int(np.argmax(unseen.reshape(-1) != 0)) // words
        tracked = [(s, s - start) for s in end_sums if start <= s < start + k]
        while True:  # rows before settled have no unseen bit
            for s, b in tracked:
                end_sums[s] += int(np.count_nonzero(unseen[settled:, b // 64] & bits[b]))
            if start == 0:
                far += bool(unseen[label[n - 1], 0] & bits[0])
            if reached == k * n:
                break
            level += 1
            c = first[settled]
            # mode="clip" lets take write into out without a buffer copy
            frontier.take(slots[0, c:], axis=0, out=gathered[c:], mode="clip")
            for slot, end in zip(slots[1:], ends[1:]):
                if end <= c:
                    break
                frontier.take(slot[c:end], axis=0, out=scratch[c:end], mode="clip")
                gathered[c:end] |= scratch[c:end]
            one = max(settled, multi)
            frontier[one:] = gathered[first[one]:]
            np.bitwise_or.reduceat(
                gathered[c : first[multi]], first[settled:multi] - c, axis=0,
                out=frontier[settled:multi],
            )
            frontier[settled:] &= unseen[settled:]
            count = int(np.bitwise_count(frontier[settled:], out=counts[settled:]).sum())
            if count == 0:
                raise DisconnectedGraph("graph has unreachable node pairs")
            total += level * count
            reached += count
            unseen[settled:] ^= frontier[settled:]
            settled += int(np.argmax(unseen[settled:].reshape(-1) != 0)) // words
    return total, end_sums[0], end_sums[n - 1], far


def default_prefix_sizes(n: int) -> list[int]:
    """Up to 30 log-spaced prefix lengths from min(64, n) up to n."""
    if n < 2:
        raise InvalidParam("need at least 2 observations")
    lo = max(2, min(_PREFIX_START, n))
    return [int(v) for v in log_spaced_ints(lo, n, _PREFIX_COUNT)]


def small_world_curve(g: VisibilityGraph,
                      sizes: list[int] | None = None) -> SmallWorldCurve:
    """L(N) on growing prefixes of the series behind ``g``, fit against ln N.

    The graph of the first k samples is the subgraph of ``g`` induced by
    nodes 0..k-1, so the dominators of ``g`` serve every prefix, and the
    whole graph too where the last size is below ``g.n``.  Each length is
    one fold of :func:`_prefix_pair_sums` over CSR slices of ``g`` shared by
    the whole curve: no graph is built, and a block runs the kernel once.
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
    pair_sum = _prefix_pair_sums(g)
    lengths = np.array([pair_sum(k) / (k * (k - 1)) for k in sizes], dtype=np.float64)
    full = float(lengths[-1]) if sizes[-1] == n else pair_sum(n) / (n * (n - 1))
    size_arr = np.asarray(sizes, dtype=np.int64)
    slope = intercept = r2 = flat = None
    if size_arr.size >= 2:
        fit = linear_fit(np.log(size_arr.astype(np.float64)), lengths)
        slope, intercept, r2 = fit.slope, fit.intercept, fit.r2
        flat = abs(slope) < FLAT_SLOPE_EPS
    return SmallWorldCurve(sizes=size_arr, lengths=lengths, slope=slope,
                           intercept=intercept, r2=r2, flat=flat,
                           average_path_full=full)


def small_world_verdict(curve: SmallWorldCurve, average_clustering: float) -> bool:
    """True when L grows logarithmically (r2 >= 0.95) and clustering >= 0.5."""
    if curve.r2 is None:
        raise DegenerateFit("small-world curve has no fit (fewer than 2 sizes)")
    return bool(curve.r2 >= _VERDICT_R2_MIN
                and average_clustering >= _VERDICT_CLUSTERING_MIN)
