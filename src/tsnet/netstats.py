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

from ._fit import as_int, linear_fit, log_spaced_ints
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


@dataclass(frozen=True, eq=False)
class DegreeDistribution:
    """Node count per degree on the support (the degrees with a nonzero count);
    the pdf and the mean degree 2m / n, correctly rounded, derive from it."""

    support: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if (self.support.size == 0 or self.counts.shape != self.support.shape
                or not {self.support.dtype.kind, self.counts.dtype.kind} <= {"i", "u"}
                or self.counts.min() < 1):
            raise ValueError("need non-empty aligned integer arrays, counts positive")
        if self.support[0] < 0 or np.any(self.support[1:] <= self.support[:-1]):
            raise ValueError("support must be strictly increasing non-negative degrees")

    @property
    def pdf(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    @property
    def k_min(self) -> int:
        return int(self.support[0])

    @property
    def k_max(self) -> int:
        return int(self.support[-1])

    def mean_degree(self) -> float:
        return int(self.support @ self.counts) / int(self.counts.sum())


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
    return DegreeDistribution(support=support.astype(np.int64), counts=counts[support])


def fit_powerlaw_tail(
    dist: DegreeDistribution, k_min: int | None = None
) -> DegreeTailFit:
    """Fit ln p(k) = -gamma ln k + c over [k_min, k_max] on the raw pdf.

    ``k_min`` defaults to ceil(mean degree), where visibility-graph degree
    pdfs typically enter their power-law regime; the range always runs to
    the maximum degree.  Requires at least three distinct degrees in range.
    The default is exact: a non-integer 2m / n lies at least 1 / n from an
    integer, more than half an ulp for n < 2**26, so the correctly rounded
    :meth:`~DegreeDistribution.mean_degree` never rounds onto one.
    """
    k_lo = math.ceil(dist.mean_degree()) if k_min is None else as_int(k_min, "k_min")
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
    ``n * (n - 1)``: :func:`_pair_sums` folds it over the chain of
    blocks between cut vertices, and :func:`_block_sums` runs each block.
    """
    if g.n < 2:
        raise InvalidParam("average path length needs at least 2 nodes")
    return _pair_sums(g, [g.n])[0] / (g.n * (g.n - 1))


def _pair_sums(g: VisibilityGraph, sizes: list[int]) -> list[int]:
    """Ordered-pair distance sums of nodes 0..k-1 of ``g``, one per k in ``sizes``.

    A prefix splits at each node t that no edge (a, b) passes over, a < t
    < b, which a difference array over the edges finds.  The blocks are
    the intervals [a, b] between consecutive split nodes, 0 and k - 1
    among them, and they form a chain.  On a connected prefix an interior
    split node t is a cut vertex with a neighbor on each side, since an
    edge between [0, t) and (t, k) would pass over t.  Where G1 and G2
    share only the node c, with sizes n1 and n2 counting c and distance
    sums D1(c) and D2(c) from c, the unordered pair sum is
    W1 + W2 + (n1 - 1) D2(c) + (n2 - 1) D1(c) (the cut-vertex rule for the
    Wiener index; Dobrynin, Entringer & Gutman, Acta Appl. Math. 66,
    2001).  So the blocks fold left to right, keeping the ordered pair sum
    W, the size s and the distance sum D from the last node: block [a, b]
    of n_B nodes, with ordered pair sum W_B, end sums D_B(a), D_B(b) and
    distance d_B(a, b), gives

        W' = W + W_B + 2 ((s - 1) D_B(a) + (n_B - 1) D)
        D' = D_B(b) + (s - 1) d_B(a, b) + D,    s' = s + n_B - 1,

    all in Python integers.  A disconnected prefix has a disconnected
    block (a chain of connected blocks is connected), which the kernel
    rejects.

    The whole curve is planned before any search runs: every prefix's
    block ends, then the distinct blocks.  Block [a, b] of prefix k is
    the subgraph induced by a..b, whatever k is, so it runs once however
    many prefixes hold it.  A 2-node block that holds the edge (a, a + 1)
    needs no search; without it, both nodes are isolated, which the
    kernel rejects.  Any other block of n_B nodes and m_B edges has w =
    ``_pass_words(n_B, m_B)``.  One that a single pass covers (n_B <=
    64 w) joins the block-diagonal union of every such block of the same
    w, and each union is one one-pass :func:`_block_sums` call.  The
    edges (u, v), u < v, of the CSR's lower triangle come ordered by v,
    so those of prefix k are a leading slice; no edge passes over a, so
    those of [a, b] are the slice with a < v <= b, from which the union
    is rebuilt.  Each block has w = 1 or ``m_B w <= 128 n_B``, so the
    union holds to ``_pass_words``' rule on memory too.  A block that
    needs several passes runs alone on its :func:`_interval_csr` slice.

    On a connected prefix, the dominators of ``g`` serve every block,
    counted from its start: no dominator below k lies outside its node's
    block.  A dominator is a neighbor, and an edge out of [a, b] would
    pass over a or b, so only an interior split node t has neighbors
    below k outside its block.  None of them dominates t: one on either
    side would be adjacent to t's neighbor on the other side, by an edge
    over t.  A dominator at k or beyond is at least the block's size once
    counted from its start, so it reads as none.  On a disconnected
    prefix a dominator may point out of its block, but that only leaves
    neighbors unread, and a search along fewer edges reaches no more
    nodes, so the kernel still rejects the disconnected block.
    """
    dom = _dominators(g)
    rows = np.repeat(np.arange(g.n), g.degrees())
    low = g.indices < rows
    u, v = g.indices[low], rows[low]
    cuts = []
    for k in sizes:
        inside = int(np.searchsorted(v, k))
        # over[t] counts the edges (a, b) with a < t < b
        over = np.cumsum(np.bincount(u[:inside] + 1, minlength=k)
                         - np.bincount(v[:inside], minlength=k))
        cuts.append(np.flatnonzero(over == 0).tolist())
    blocks = dict.fromkeys(pair for ends in cuts for pair in zip(ends, ends[1:]))
    # the nodes a < n - 1 without the edge (a, a + 1): none on a visibility graph
    gaps = set(np.flatnonzero(np.bincount(u[v - u == 1], minlength=g.n - 1) == 0).tolist())
    runs = {}  # pass width, or a block that needs several passes -> its blocks
    for a, b in blocks:
        if b == a + 1 and a not in gaps:
            blocks[a, b] = (2, 1, 1, 1)
            continue
        lo, hi = np.searchsorted(v, (a, b), side="right")
        words = _pass_words(b - a + 1, int(hi - lo))
        runs.setdefault(words if b - a < 64 * words else (a, b), []).append((a, b, lo, hi))
    for key, run in runs.items():
        a, b, lo, hi = np.array(run).T
        starts = np.r_[0, np.cumsum(b - a + 1)]
        shift = starts[:-1] - a  # node x of block i is node x + shift[i] of the call
        if isinstance(key, tuple):
            indptr, indices = _interval_csr(g, key[0], key[1] + 1)
        else:  # the blocks' edge slices, shifted, as directed entries grouped by row
            pick = np.concatenate([np.arange(l, h) for l, h in zip(lo, hi)])
            low_end, high_end = (x[pick] + np.repeat(shift, hi - lo) for x in (u, v))
            rows = np.r_[high_end, low_end]
            indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=starts[-1]))]
            indices = np.r_[low_end, high_end][np.argsort(rows, kind="stable")]
        node = np.arange(starts[-1]) - np.repeat(shift, b - a + 1)
        found = _block_sums(indptr, indices, dom[node] - np.repeat(a, b - a + 1), starts)
        blocks.update(zip(zip(a.tolist(), b.tolist()), found))
    sums = []
    for ends in cuts:
        total, size, dist = 0, 1, 0  # W, s and D of node 0 alone
        for a, b in zip(ends, ends[1:]):
            w, da, db, dab = blocks[a, b]
            total += w + 2 * ((size - 1) * da + (b - a) * dist)
            dist += db + (size - 1) * dab
            size += b - a
        sums.append(total)
    return sums


def _interval_csr(g: VisibilityGraph, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of nodes a..b-1 of ``g``, relabeled from 0: on
    a visibility graph, that of ``build_fast(y[a:b])`` (no bounds check)."""
    head = g.indices[g.indptr[a] : g.indptr[b]]
    keep = (head >= a) & (head < b)
    return np.r_[0, np.cumsum(keep)][g.indptr[a : b + 1] - g.indptr[a]], head[keep] - a


def _block_sums(indptr: np.ndarray, indices: np.ndarray, dom: np.ndarray,
                starts: np.ndarray) -> list[tuple[int, int, int, int]]:
    """``(W, D(a), D(b), d(a, b))`` of each block of the graph with CSR
    arrays ``indptr`` and ``indices``: its ordered-pair distance sum, the
    distance sums from its first node a and its last node b, and the
    distance between them.  Block i holds the nodes ``starts[i]`` to
    ``starts[i + 1] - 1``, and no edge joins two blocks.  ``dom[x]`` is
    x's dominator counted from the start of x's block (:func:`_dominators`
    of the graph or of one it is a block of): x is read from level 2 on
    only if ``dom[x]`` is at least its block's size.

    Bit-parallel multi-source breadth-first search (Akiba, Iwata &
    Yoshida 2013; Then et al. 2014): each pass carries up to 512 sources
    as one bit each in a ``(n, words)`` uint64 array and expands all of
    their frontiers at once, one level per step.  Distances are summed as
    Python integers, so the result is identical at any pass width.  One
    block runs in passes of ``_pass_words(n, m)`` words, source
    ``start + i`` of a pass on bit i.  W sums l times each level's new
    bits.  An end node's distance sum is the sum over levels l >= 0 of
    the nodes it has not reached by level l, read off its bit column of
    the unseen bits in its own pass.

    Several blocks run in one pass, of as many words as the largest
    needs, and a source's bit is its index in its own block.  Blocks
    share bits, yet each row's bits name single sources.  A bit enters a
    row only along an edge: level 1 sets it on the source's neighbors,
    and later levels OR neighbor rows.  No edge joins two blocks, so by
    induction a row holds only bits of sources in its own block, and
    there each bit is one source.  A row's unseen mask holds its block's
    bits less its own, so its new bits at level l are exactly its
    block's sources at distance l.  Each row therefore sums l times its
    new bits, which is its distance sum in its block: W sums those rows
    over the block, and D(a) and D(b) are the rows of a and b.  With one
    block or several, d(a, b) counts the levels before row b sees bit 0,
    which is a's in the first pass.

    Level 1 scatters each source's bit over its neighbor list.  From
    level 2 on, a node ORs together the frontiers of its undominated
    neighbors only (:func:`_dominators`): about 57% of the 2m neighbor
    entries on fGn and random-walk graphs.  This is exact.  Take s at
    distance l >= 2 from v and a shortest path ending x -> u -> v.
    Following dominators from u ends at an undominated w with N[u] ⊆
    N[w], so x and v lie in N[w]; x is not in N[v], so w != v, and w is
    a neighbor of v at distance l - 1 from s.  A node with no undominated
    neighbor is adjacent to every node of its block, and reads its first
    neighbor.

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
    after them, so ``unseen`` masks the bits.  A pass stops once row
    ``settled`` has no unseen bit, so no row has one; a level that adds no
    bit before then leaves a pair unreached.  Source ``s`` still owns
    its own bit, so the sum does not depend on the labels.
    """
    n, deg = indptr.size - 1, np.diff(indptr)
    # Also required by the kernel: a node without neighbors has no chunk.
    if np.any(deg == 0):
        raise DisconnectedGraph("graph has an isolated node")
    sizes = starts[1:] - starts[:-1]
    block = np.repeat(np.arange(sizes.size), sizes)  # node -> its block
    several = sizes.size > 1
    step = n if several else 64 * _pass_words(n, indices.size // 2)  # sources per pass
    read = (dom >= sizes[block])[indices]
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
    most = -(-min(step, int(sizes.max())) // 64)
    bufs = [np.empty(r * most, dtype=t) for r, t in
            ((n, np.uint64), (n, np.uint64), (n, np.uint8),
             (slots.shape[1], np.uint64), (slots.shape[1], np.uint64))]
    bit_of = np.arange(n) - starts[block]  # a node's index in its block
    row_block = block[order]

    total, end_sums = 0, {}
    if several:  # level 1 of the one pass adds each row's degree to its sum
        row_sums = deg[order].astype(np.uint64)
        far, last = np.ones(sizes.size, dtype=np.uint64), label[starts[1:] - 1]
    else:  # by level 0, each end has reached itself; far indexes one scalar,
        # at a tenth of the cost per level
        end_sums = {0: n - 1, n - 1: n - 1}
        far, last = 1, label[n - 1]
    for start in range(0, n, step):
        k = min(step, n - start)
        words = -(-min(k, int(sizes.max()) - start) // 64)  # for the largest block
        frontier, unseen, counts, gathered, scratch = (
            buf[: buf.size // most * words].reshape(-1, words) for buf in bufs
        )
        own = bit_of[start : start + k] - start  # source start + i owns bit own[i]
        bits = np.left_shift(np.uint64(1), (own % 64).astype(np.uint64))
        # every row misses the bits of its block's sources, less its own
        masks = np.zeros((sizes.size, words), dtype=np.uint64)
        np.bitwise_or.at(masks, (block[start : start + k], own // 64), bits)
        masks.take(row_block, axis=0, out=unseen, mode="clip")
        unseen[label[start : start + k], own // 64] ^= bits
        # level 1: each source's bit on every neighbor, a distinct bit per entry
        lo, hi = indptr[start], indptr[start + k]
        fan = deg[start : start + k]
        frontier.fill(0)
        np.bitwise_or.at(frontier, (label[indices[lo:hi]], np.repeat(own // 64, fan)),
                         np.repeat(bits, fan))
        unseen ^= frontier
        total += int(hi - lo)
        level = 1
        settled = int(np.argmax(unseen.reshape(-1) != 0)) // words
        tracked = [(s, s - start) for s in end_sums if start <= s < start + k]
        while True:  # rows before settled have no unseen bit
            for s, b in tracked:
                end_sums[s] += int(np.count_nonzero(unseen[settled:, b // 64] & bits[b]))
            if start == 0:
                far += unseen[last, 0] & 1
            if not np.count_nonzero(unseen[settled]):  # nor has any row after it
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
            if several:
                row_sums[settled:] += level * counts[settled:].sum(axis=1)
            unseen[settled:] ^= frontier[settled:]
            settled += int(np.argmax(unseen[settled:].reshape(-1) != 0)) // words
    if not several:
        return [(total, end_sums[0], end_sums[n - 1], int(far))]
    row_sums = row_sums[label]  # by node
    return list(zip(np.add.reduceat(row_sums, starts[:-1]).tolist(), row_sums[starts[:-1]].tolist(),
                    row_sums[starts[1:] - 1].tolist(), far.tolist()))


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
    whole graph too where the last size is below ``g.n``.  Every length is
    one fold of a single :func:`_pair_sums` call, and no graph is built: a
    block runs the kernel once, in a union rebuilt from lower-triangle edge
    slices or, past one pass, alone on its :func:`_interval_csr` slice.
    """
    n = g.n
    if sizes is None:
        sizes = default_prefix_sizes(n)
    else:
        sizes = [as_int(s, "prefix size") for s in sizes]
        if not sizes:
            raise InvalidParam("no prefix sizes given")
        if any(s < 2 or s > n for s in sizes):
            raise InvalidParam(f"prefix sizes must lie in [2, {n}]")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidParam("prefix sizes must be strictly increasing")
    sums = _pair_sums(g, sizes if sizes[-1] == n else [*sizes, n])
    lengths = np.array([w / (k * (k - 1)) for w, k in zip(sums, sizes)], dtype=np.float64)
    full = sums[-1] / (n * (n - 1))
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
