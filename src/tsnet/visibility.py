"""Natural visibility graph construction.

Samples ``(i, y_i)`` and ``(j, y_j)``, ``i < j``, are linked iff every
intermediate sample lies strictly below the straight chord between them;
a point exactly on the chord blocks (collinear samples are not linked).
In slope form, anchored at one endpoint: the chord slope must strictly
beat the slope to every intermediate sample.  Consecutive samples are
always mutually visible, so the graph is connected.

Two builders:

* :func:`build_naive` evaluates the criterion pair by pair via running
  extreme slopes anchored at each left endpoint.  O(N^2); the reference.
* :func:`build_fast` sweeps out from each sample to its nearest higher
  samples, and each edge lies in the sweep of its higher endpoint.  Its
  cost is the total sweep length: about 19N slopes on fGn, 183N on a
  random walk and O(N^2) on monotone or concave stretches.  The builders
  round different slopes, so they can disagree within rounding of a chord.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeriesTooShort
from .series import _series_values

# Slopes per sweep batch, or one longer side: bounds memory, not the result.
_BATCH = 1 << 16


@dataclass(frozen=True)
class VisibilityGraph:
    """Undirected simple graph in compressed sparse adjacency form.

    ``indices[indptr[i]:indptr[i+1]]`` is the ascending neighbor list of
    node ``i``.  ``m`` counts undirected edges, so ``len(indices) == 2*m``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    m: int

    def __post_init__(self):
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        if indptr.shape != (self.n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("malformed CSR index pointer")
        if indices.size != 2 * self.m:
            raise ValueError(f"{indices.size} directed entries for m={self.m} edges")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.n:
                raise ValueError("neighbor index out of range")
            rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))
            if np.any(indices == rows):
                raise ValueError("self-loop in adjacency")
            same_row = rows[1:] == rows[:-1]
            if np.any(np.diff(indices)[same_row] <= 0):
                raise ValueError("neighbor lists must be strictly ascending")
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

    def prefix(self, k: int) -> "VisibilityGraph":
        """Subgraph induced by nodes ``0..k-1``: the graph of the series'
        first ``k`` samples, as visibility of i < j depends only on y[i..j]."""
        if not 1 <= k <= self.n:
            raise ValueError(f"prefix length {k} outside [1, {self.n}]")
        head = self.indices[: self.indptr[k]]
        keep = head < k  # a leading run of each ascending row
        indptr = np.concatenate(([0], np.cumsum(keep)))[self.indptr[: k + 1]]
        m = int(indptr[-1]) // 2
        return VisibilityGraph(n=k, indptr=indptr, indices=head[keep], m=m)


def _graph_from_edges(n: int, u: np.ndarray, v: np.ndarray) -> VisibilityGraph:
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.argsort(src * n + dst)  # pairs are unique, so any sort kind agrees
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return VisibilityGraph(n=n, indptr=indptr, indices=dst[order], m=int(u.size))


def build_naive(ts) -> VisibilityGraph:
    """Direct per-pair evaluation of the visibility criterion.

    For each left endpoint ``i`` the slopes to all later samples are
    compared against their running maximum: ``j`` is visible from ``i``
    iff its slope strictly exceeds the slope to every sample in between.
    O(N^2); intended as the oracle for :func:`build_fast` up to N ~ 2000.
    """
    y = _series_values(ts)
    n = y.size
    if n < 2:
        raise SeriesTooShort(f"need at least 2 observations, got {n}")
    u_parts = []
    v_parts = []
    for i in range(n - 1):
        s = (y[i + 1 :] - y[i]) / np.arange(1, n - i, dtype=np.float64)
        vis = np.empty(s.size, dtype=bool)
        vis[0] = True  # immediate neighbor: nothing in between
        if s.size > 1:
            run_max = np.maximum.accumulate(s)
            vis[1:] = s[1:] > run_max[:-1]
        js = i + 1 + np.flatnonzero(vis)
        u_parts.append(np.full(js.size, i, dtype=np.int64))
        v_parts.append(js)
    return _graph_from_edges(n, np.concatenate(u_parts), np.concatenate(v_parts))


def build_fast(ts) -> VisibilityGraph:
    """Visibility graph from one batched sweep out of every sample.

    Sample p sweeps its sides ``[lo + 1, p)`` and ``(p, hi)``, where lo is
    its nearest left sample with ``y >= y[p]`` and hi its nearest right
    sample with ``y > y[p]``.  Nothing between an edge's endpoints reaches
    the higher one, so each edge lies in a side of its higher endpoint (the
    left one on ties) and in no other side.  x is linked iff its slope
    ``(y[x] - y[p]) / |x - p|`` strictly beats that of every sample in
    between: :func:`build_naive`'s criterion, anchored at the higher end.
    """
    y = _series_values(ts)
    n = y.size
    if n < 2:
        raise SeriesTooShort(f"need at least 2 observations, got {n}")

    values = y.tolist()
    lo, hi = [], [n] * n
    stack: list[int] = []  # indices of non-increasing values
    for i, v in enumerate(values):
        while stack and values[stack[-1]] < v:
            hi[stack.pop()] = i
        lo.append(stack[-1] if stack else -1)
        stack.append(i)

    # side k < n is [lo + 1, p) of p = k, side k >= n is (p, hi) of p = k - n
    p = np.arange(n)
    length = np.concatenate([p - np.array(lo) - 1, np.array(hi) - p - 1])
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
        x = at + step[c:e, None] * np.minimum(d, side)
        s = (y[x] - y[at]) / d
        hit = d <= side  # distance 1 is always a hit
        hit[:, 1:] &= s[:, 1:] > np.maximum.accumulate(s, axis=1)[:, :-1]
        u_chunks.append(np.broadcast_to(at, s.shape)[hit])
        v_chunks.append(x[hit])
        c = e

    return _graph_from_edges(n, np.concatenate(u_chunks), np.concatenate(v_chunks))
