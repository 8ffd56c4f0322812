"""Natural visibility graph construction.

Samples ``(i, y_i)`` and ``(j, y_j)``, ``i < j``, are linked iff every
intermediate sample lies strictly below the straight chord between them;
a point exactly on the chord blocks (collinear samples are not linked).
In slope form, anchored at one endpoint: the chord slope must strictly
beat the slope to every intermediate sample.  Consecutive samples are
always mutually visible, so the graph is connected.

Two builders:

* :func:`build_naive` evaluates the criterion pair by pair via running
  extreme slopes anchored at each pair's higher endpoint.  O(N^2); the
  reference.
* :func:`build_fast` sweeps out from each sample to its nearest higher
  samples, and each edge lies in the sweep of its higher endpoint.  The
  nearest higher samples come from binary lifting over a sparse table of
  range maxima, O(N log N) array work.  The sweep's cost is its total
  length: about 19N slopes on fGn, 183N on a random walk and O(N^2) on
  monotone or concave stretches.  Both builders round the same slopes, so
  they agree, and both can misjudge a sample within rounding of a chord.

Both builders hand their edges to one CSR step, which packs each directed
edge ``src -> dst`` as the int64 key ``src * N + dst``, sorts the keys in
place and turns them into the neighbor lists with an in-place remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeriesTooShort
from .series import _series_values

# Slopes per sweep batch, or one longer side: bounds memory, not the result.
_BATCH = 1 << 16


@dataclass(frozen=True, eq=False)
class VisibilityGraph:
    """Undirected simple graph in compressed sparse adjacency form.

    ``indices[indptr[i]:indptr[i+1]]`` is node ``i``'s ascending neighbor
    list, and each of the ``m`` edges is in both its rows: ``len(indices) == 2*m``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    m: int

    def __post_init__(self):
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        if (
            indptr.shape != (self.n + 1,)
            or indptr[0] != 0
            or indptr[-1] != indices.size
            or np.any(indptr[1:] < indptr[:-1])
        ):
            raise ValueError("malformed CSR index pointer")
        if indices.size != 2 * self.m:
            raise ValueError(f"{indices.size} directed entries for m={self.m} edges")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.n:
                raise ValueError("neighbor index out of range")
            rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))
            if np.any(indices == rows):
                raise ValueError("self-loop in adjacency")
            mirror = indices * self.n  # keys dst * n + src, built and sorted in place
            np.add(mirror, rows, out=mirror).sort()
            rows *= self.n  # keys src * n + dst rise iff every row ascends
            rows += indices
            if np.any(rows[1:] <= rows[:-1]):
                raise ValueError("neighbor lists must be strictly ascending")
            if not np.array_equal(mirror, rows):  # some entry lacks its reverse
                raise ValueError("adjacency is not symmetric")
        indptr.flags.writeable = False
        indices.flags.writeable = False
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with i < j, lexicographically sorted."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        keep = self.indices > rows
        return np.column_stack([rows[keep], self.indices[keep]])

    def interval(self, a: int, b: int) -> "VisibilityGraph":
        """Subgraph induced by nodes ``a..b-1``, relabeled from 0: the graph of
        those samples alone, as visibility of i < j depends only on y[i..j]."""
        if not 0 <= a < b <= self.n:
            raise ValueError(f"interval [{a}, {b}) is empty or outside [0, {self.n})")
        indptr, indices = _interval_csr(self, a, b)
        return VisibilityGraph(n=b - a, indptr=indptr, indices=indices, m=indices.size // 2)


def _interval_csr(g: VisibilityGraph, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of ``g.interval(a, b)``, with no bounds check and no graph."""
    head = g.indices[g.indptr[a] : g.indptr[b]]
    keep = (head >= a) & (head < b)
    return np.r_[0, np.cumsum(keep)][g.indptr[a : b + 1] - g.indptr[a]], head[keep] - a


def _graph_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> VisibilityGraph:
    """CSR of the undirected edges ``(u[i], v[i])``, each listed once."""
    m = u.size
    key = np.empty(2 * m, dtype=np.int64)  # directed edge src -> dst as src * n + dst
    np.multiply(u, n, out=key[:m])
    key[:m] += v
    np.multiply(v, n, out=key[m:])
    key[m:] += u
    key.sort()  # keys are unique, so any sort kind agrees
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    return VisibilityGraph(n=n, indptr=indptr, indices=np.remainder(key, n, out=key), m=m)


def _nearest_higher(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``: each sample's nearest left sample with ``y >=`` its own
    and nearest right sample with ``y >`` its own, -1 and n where none is.

    Binary lifting over a sparse table of range maxima, ``peaks[k][i] =
    max(y[i : i + 2**k])``: each side starts next to its sample and, for k
    from the top down, skips the 2**k samples ahead when none of them is
    high enough.  Every sample moves at once, so the work is O(n log n) in
    array operations.
    """
    n = y.size
    peaks = [y]
    while 1 << len(peaks) <= n:
        w = 1 << (len(peaks) - 1)
        peaks.append(np.maximum(peaks[-1][:-w], peaks[-1][w:]))
    lo = np.arange(n)  # one past the nearest sample not yet skipped
    hi = np.arange(1, n + 1)  # the nearest sample not yet skipped
    for k in range(len(peaks) - 1, -1, -1):
        w, top = 1 << k, peaks.pop()  # top[i] covers [i, i + w), i <= n - w
        np.add(hi, w, out=hi, where=(hi <= n - w) & (top[np.minimum(hi, n - w)] <= y))
        np.subtract(lo, w, out=lo, where=(lo >= w) & (top[np.maximum(lo - w, 0)] < y))
    return lo - 1, hi


def build_naive(ts) -> VisibilityGraph:
    """Direct per-pair evaluation of the visibility criterion.

    Each pair is judged once, from its higher endpoint (the left one on
    ties), with :func:`build_fast`'s slopes: from each sample ``p`` the
    slopes ``(y[x] - y[p]) / |x - p|`` out to both ends of the series are
    compared against their running maximum, and ``x`` is visible iff its
    slope strictly exceeds the slope to every sample in between.  O(N^2);
    intended as the oracle for :func:`build_fast` up to N ~ 2000.
    """
    y = _series_values(ts)
    n = y.size
    if n < 2:
        raise SeriesTooShort(f"need at least 2 observations, got {n}")
    u_parts = []
    v_parts = []
    for p in range(n):
        for step, side, lower in ((1, y[p + 1 :], np.less_equal), (-1, y[:p][::-1], np.less)):
            s = (side - y[p]) / np.arange(1, side.size + 1, dtype=np.float64)
            # the immediate neighbor has nothing in between
            d = np.r_[0, 1 + np.flatnonzero(s[1:] > np.maximum.accumulate(s)[:-1])][: s.size]
            xs = p + step * (1 + d[lower(side[d], y[p])])  # pairs whose higher end is p
            u_parts.append(np.full(xs.size, p, dtype=np.int64))
            v_parts.append(xs)
    return _graph_from_edges(n, np.concatenate(u_parts), np.concatenate(v_parts))


def build_fast(ts) -> VisibilityGraph:
    """Visibility graph from one batched sweep out of every sample.

    Sample p sweeps its sides ``[lo + 1, p)`` and ``(p, hi)``, where lo is
    its nearest left sample with ``y >= y[p]`` and hi its nearest right
    sample with ``y > y[p]``.  Nothing between an edge's endpoints reaches
    the higher one, so each edge lies in a side of its higher endpoint (the
    left one on ties) and in no other side.  x is linked iff its slope
    ``(y[x] - y[p]) / |x - p|`` strictly beats that of every sample in
    between: :func:`build_naive`'s criterion, slopes and anchor.
    """
    y = _series_values(ts)
    n = y.size
    if n < 2:
        raise SeriesTooShort(f"need at least 2 observations, got {n}")
    # the sweep's bookkeeping is freed before the CSR is built
    return _graph_from_edges(n, *_sweep(y))


def _sweep(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges ``(u, v)`` of :func:`build_fast`'s sweep, each found once."""
    n = y.size
    lo, hi = _nearest_higher(y)
    # side k < n is [lo + 1, p) of p = k, side k >= n is (p, hi) of p = k - n
    p = np.arange(n)
    length = np.concatenate([p - lo - 1, hi - p - 1])
    sides = np.argsort(length)[np.count_nonzero(length == 0):]  # shortest first
    anchor, step, length = sides % n, np.where(sides < n, -1, 1), length[sides]

    # A batch holds sides of one power-of-two length class; row i, column
    # d - 1 is side i's slope at distance d.  Padding repeats a side's last
    # sample and cannot change its hits, as the running maximum is a prefix.
    u_chunks, v_chunks = [], []
    c = 0
    while c < length.size:
        top = int(np.searchsorted(length, 1 << int(length[c] - 1).bit_length(), "right"))
        e = min(top, c + max(1, _BATCH // int(length[top - 1])))
        d = np.arange(1, length[e - 1] + 1)
        side = length[c:e, None]
        at = anchor[c:e, None]
        x = np.minimum(d, side)
        x *= step[c:e, None]
        x += at
        s = y[x]
        s -= y[at]
        s /= d
        hit = d <= side  # distance 1 is always a hit
        hit[:, 1:] &= s[:, 1:] > np.maximum.accumulate(s, axis=1)[:, :-1]
        u_chunks.append(np.broadcast_to(at, s.shape)[hit])
        v_chunks.append(x[hit])
        c = e

    u = np.concatenate(u_chunks)
    del u_chunks
    return u, np.concatenate(v_chunks)
