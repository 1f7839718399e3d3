"""k-th closed sphere-of-influence graphs and their structural checks.

Each point receives the radius of its k-th nearest other point; the influence
graph joins two points whenever their closed balls meet (distance <= sum of
radii).  The companion graph joins points at distance strictly below the larger
of the two radii; coloring it greedily in radius order needs at most k colors,
which drives the degree-bound verification.  A graph is one sorted int64 edge
array, ``InfluenceGraph.pairs``, that degrees, coloring and files read directly.

Radii and the closed graph share one pair engine: prune with boxes, decide with
``pairwise_distances``.  The engine decides the closed rule only; the companion
graph keeps the closed edges below the larger radius, comparing the distances
the engine compared.  Radii are finite and >= 0, so the larger radius never
exceeds their computed sum.

An input of at most ``_DENSE`` (256) points skips the blocks and box tests: each
pass evaluates each pair once, in the cyclic half of ``_cyclic_distances`` (row
i against i + 1, ..., i + m // 2, mod m).  The norm is even and fl(a - b) =
-fl(b - a), so an entry has the bits of both mirrored entries of the square
matrix, and fl(r_i + r_j) is commutative.  The closed hits are sorted by key,
so ``InfluenceGraph`` skips its sort.  The radii pass takes this path up to
max(256, 2(k + 1)) points, in row tiles if wider than ``_TILE``.  Larger inputs
are cut by k-d median splits on the widest axis into compact blocks of at most
``_BLOCK`` (128) points, so there are always two or more; the partition and the
block boxes are built once per ``PointSet``.  Pruning has two levels.  Each
block's bounding box, widened by ``ball_box_halfwidths`` for the largest
distance that can still matter, first selects the candidate blocks, testing
every block box at once with each block's largest radius as its reach; then the
points of those blocks inside the widened box.  A point inside the widened box
lies in a block whose box meets it, so the block test drops no candidate.  Only
block x candidate pairs are evaluated, through ``pairwise_distances`` on the
same coordinate differences a dense distance matrix would use, and decided by
the same comparison.  The boxes are padded so that rounding can only add
candidates, so radii and edge sets, closed-rule ties included, are
bit-identical to the dense evaluation.  The radii pass evaluates each in-block
pair once and merges the k smallest per point with the distances to the
candidates outside the block: the k-th smallest is the same double.

For spread-out points in fixed dimension the work is close to linear in m;
degenerate inputs (radii spanning most of the cloud, large coincident
clusters) make the candidate sets grow, up to O(m^2) time.  Memory stays
bounded then too: an evaluation with more than ``_TILE`` (2^20) entries is cut
into row tiles, distances are built one coordinate column at a time, and no
m x m array is built.  Distances are elementwise, so tiles keep the bits.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .norms import POLYTOPE, NormSpec, _cyclic_distances, ball_box_halfwidths, norm_values, pairwise_distances
from .packing import packing_upper_bound

__all__ = [
    "PointSet",
    "RadiusAssignment",
    "InfluenceGraph",
    "Coloring",
    "VerificationReport",
    "PipelineResult",
    "kth_radii",
    "build_ksig",
    "build_aux_graph",
    "sort_by_radius",
    "greedy_color",
    "degree_sequence",
    "verify_bounds",
    "ksig_pipeline",
]


@dataclass(frozen=True, eq=False)
class PointSet:
    """An ordered family of m >= 2 finite points in R^dim.  Duplicates are allowed."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError(f"points must form an (m, dim) array, got shape {pts.shape}")
        if pts.shape[0] < 2:
            raise ValueError(f"a point set needs at least 2 points, got {pts.shape[0]}")
        if pts.shape[1] < 1:
            raise ValueError("points must have at least one coordinate")
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():
            i = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"point {i} has a non-finite coordinate: {pts[i].tolist()}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def _partition(self) -> _Partition:
        """The pair engine's k-d blocks and their boxes, built on first use
        (``_partition_of`` decides when it is read)."""
        return _split(self.points, _BLOCK)

    @cached_property
    def _span(self) -> np.ndarray:
        """The per-axis extent max - min, read by ``_check_input``."""
        with np.errstate(over="ignore"):
            return self.points.max(axis=0) - self.points.min(axis=0)


def _checked_k(k) -> int:
    """k as a Python int; a bool, a non-integer or a value below 1 is a ValueError."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return int(k)


@dataclass(frozen=True, eq=False)
class RadiusAssignment:
    """Influence radii for a fixed k: radii[i] is the k-th smallest distance from point i."""

    k: int
    radii: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _checked_k(self.k))
        r = np.asarray(self.radii, dtype=np.float64)
        bad = ~(np.isfinite(r) & (r >= 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"radius {i} must be finite and >= 0, got {r[i].item()!r}")
        r.setflags(write=False)
        object.__setattr__(self, "radii", r)

    def __len__(self) -> int:
        return len(self.radii)


@dataclass(frozen=True, eq=False)
class InfluenceGraph:
    """Undirected simple graph on the vertices 0..n-1, stored as ``pairs``: a
    read-only (E, 2) int64 array of the edges (i, j), i < j, sorted, unique.

    The constructor takes any iterable of pairs (an array, a list, a frozenset)
    and rejects the first outside 0 <= i < j < n.  ``pairs`` is the only copy of
    the edges: ``neighbors(v)`` scans it, and ``edges`` is a frozenset view of it
    for set algebra.
    """

    n: int
    pairs: np.ndarray

    def __post_init__(self):
        # the sort key i * n + j must fit in int64
        if not 0 <= self.n < 2**31:
            raise ValueError(f"vertex count must be in [0, 2**31), got {self.n}")
        pairs = np.asarray(self.pairs if isinstance(self.pairs, np.ndarray) else list(self.pairs))
        if pairs.size == 0:
            pairs = np.empty((0, 2), dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ValueError(f"edges must be an (E, 2) integer array, got {pairs.dtype} {pairs.shape}")
        bad = ~((0 <= pairs[:, 0]) & (pairs[:, 0] < pairs[:, 1]) & (pairs[:, 1] < self.n))
        if bad.any():
            i, j = pairs[np.argmax(bad)].tolist()
            raise ValueError(f"bad edge ({i}, {j}) for a graph on {self.n} vertices")
        i, j = pairs.astype(np.int64, copy=False).T
        key = i * self.n + j
        if (key[1:] > key[:-1]).all():
            pairs = pairs.astype(np.int64, order="C")  # a copy: the caller's array stays writeable
        else:
            key = np.sort(key, kind="stable")
            key = np.concatenate((key[:1], key[1:][key[1:] != key[:-1]]))
            pairs = np.stack(np.divmod(key, self.n), axis=1)
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InfluenceGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.pairs, other.pairs)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(*self.pairs.T.tolist()))

    def neighbors(self, v: int) -> np.ndarray:
        """The neighbors of vertex v, in increasing order, from one O(E) scan of ``pairs``."""
        v = operator.index(v)  # a float would match no row and pass the range check
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} is out of range: the graph has vertices 0..{self.n - 1}")
        first, second = self.pairs.T
        # the rows (u, v), whose u ascend with the sort, then the rows (v, w)
        start, stop = np.searchsorted(first, [v, v + 1])
        return np.concatenate((first[second == v], second[start:stop]))


@dataclass(frozen=True, eq=False)
class Coloring:
    """A proper vertex coloring: positive colors, a read-only int64 array indexed by vertex."""

    colors: np.ndarray
    num_colors: int

    def __post_init__(self):
        object.__setattr__(self, "colors", np.array(self.colors, dtype=np.int64))
        self.colors.setflags(write=False)


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of the degree- and edge-bound checks on one influence graph.

    ``bound`` is 5^dim * k; ``passed`` says the two smallest-radius vertices
    (and hence at least two vertices) have degree strictly below it.  The edge
    count is compared against (5^dim * k - 1) * n separately.
    """

    degree_sequence: np.ndarray
    witness_vertices: tuple[int, int]
    bound: int
    passed: bool
    edge_bound: int
    edge_count: int

    @property
    def edge_bound_ok(self) -> bool:
        return self.edge_count <= self.edge_bound


class PipelineResult(NamedTuple):
    radii: RadiusAssignment
    graph: InfluenceGraph
    report: VerificationReport


# points per k-d leaf of the pair engine
_BLOCK = 128
# inputs of at most this many points are one block, evaluated unpruned: the
# dense path beats the box tests of several small blocks there
_DENSE = 256
# entries of one block x candidates evaluation; wider candidate sets are cut
# into row tiles
_TILE = 2**20
# padding of the pruning boxes, relative to their halfwidths and in units in
# the last place of the largest coordinate, so rounding only adds candidates
_BOX_RTOL = 2.0**-20
_BOX_ULPS = 4


def _check_input(points: PointSet, norm: NormSpec):
    """Refuse a norm of another dimension, and points whose distances may overflow.

    No computed distance exceeds the norm of the per-axis span of the points
    (for a polytope, under the absolute values of its functionals): rounding is
    monotone, so a finite bound keeps every radius and edge test finite.
    """
    if norm.dim != points.dim:
        raise ValueError(f"dimension mismatch: points have dim {points.dim}, norm expects {norm.dim}")
    span = points._span
    with np.errstate(over="ignore"):
        bound = norm_values(norm._bounding, span)
    if not np.isfinite(bound):
        raise ValueError(
            f"the points are too far apart: their distances under {norm.label()} overflow "
            f"float64 (per-axis span {span.tolist()})"
        )


def _blocks(pts: np.ndarray, size: int) -> list[np.ndarray]:
    """Sorted index blocks of at most ``size`` points.

    Blocks come from k-d median splits on the widest axis, so every block of a
    split input holds at least size // 2 points.
    """
    blocks, stack = [], [np.arange(len(pts))]
    while stack:
        idx = stack.pop()
        if len(idx) <= size:
            blocks.append(np.sort(idx))
            continue
        sub = pts[idx]
        axis = int(np.argmax(sub.max(axis=0) - sub.min(axis=0)))
        half = len(idx) // 2
        cut = np.argpartition(sub[:, axis], half)
        stack += [idx[cut[half:]], idx[cut[:half]]]
    return blocks


class _Partition(NamedTuple):
    """The blocks of ``_blocks`` laid end to end.

    ``pts`` holds the points in the order ``order``; block b is the positions
    starts[b]..starts[b + 1] - 1 of it, with bounding box lo[b]..hi[b].  The
    engine works on positions and maps them back through ``order``.
    """

    order: np.ndarray
    starts: np.ndarray
    pts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _split(pts: np.ndarray, size: int) -> _Partition:
    blocks = _blocks(pts, size)
    order = np.concatenate(blocks)
    starts = np.array([0, *itertools.accumulate(map(len, blocks))])
    ordered = pts[order]
    lo = np.minimum.reduceat(ordered, starts[:-1], axis=0)
    hi = np.maximum.reduceat(ordered, starts[:-1], axis=0)
    return _Partition(order, starts, ordered, lo, hi)


def _partition_of(points: PointSet, size: int) -> _Partition:
    """The engine's blocks of at most ``size`` points for ``points``: a split at
    the usual leaf size is built once per point set and shared."""
    return points._partition if size == _BLOCK else _split(points.points, size)


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenation of arange(starts[i], stops[i])."""
    lengths = stops - starts
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _tiles(rows: int, cols: int) -> list[slice]:
    """Row slices of a rows x cols evaluation, each of at most about _TILE entries."""
    step = max(1, _TILE // max(cols, 1))
    return [slice(t, t + step) for t in range(0, rows, step)]


def _box_filter(norm: NormSpec, part: _Partition, radii: np.ndarray | None = None):
    """Return near(b, first, reach): the positions of the points of the blocks
    first, first + 1, ... other than b that lie within reach of block b's box in
    every axis direction.  The reach is ``reach``, plus the point's own radius
    when ``radii`` (in position order) is given.

    Blocks are tested first, as a whole, with the largest radius each holds;
    then the points of those that pass.  A point within reach of the box lies
    in a block whose box is within that block's (larger) reach, so the block
    test drops none.  The box comes from ``ball_box_halfwidths``, padded so that
    rounding can only add candidates: relatively, by a few ulps of the largest
    coordinate, and by a floor radius under which powers in the norm evaluation
    may underflow.
    """
    unit = ball_box_halfwidths(norm, 1.0) * (1.0 + _BOX_RTOL)
    p = 1.0 if norm.kind == POLYTOPE or math.isinf(norm.p) else norm.p
    floor = 2.0 * norm.dim * np.finfo(np.float64).tiny ** (1.0 / p)
    ulps = _BOX_ULPS * np.spacing(np.abs(part.pts).max())
    if radii is None:
        radii = np.zeros(len(part.pts))
    largest = np.maximum.reduceat(radii, part.starts[:-1])

    def within(b: int, lo: np.ndarray, hi: np.ndarray, reach: np.ndarray) -> np.ndarray:
        """Which of the boxes lo..hi (one per row) meet block b's box padded by reach."""
        reach = reach + floor
        meets = np.ones(len(reach), dtype=bool)
        # axis by axis: numpy is slow to reduce over a short last axis
        for c in range(norm.dim):
            pad = unit[c] * reach + ulps
            meets &= (hi[:, c] >= part.lo[b, c] - pad) & (lo[:, c] <= part.hi[b, c] + pad)
        return meets

    def near(b: int, first: int, reach: float) -> np.ndarray:
        meets = within(b, part.lo[first:], part.hi[first:], reach + largest[first:])
        if first <= b:
            meets[b - first] = False
        blocks = np.flatnonzero(meets) + first
        pos = _ranges(part.starts[blocks], part.starts[blocks + 1])
        x = np.take(part.pts, pos, axis=0)
        return pos[within(b, x, x, reach + radii[pos])]

    return near


def _nearest(norm: NormSpec, rows: np.ndarray, k: int) -> np.ndarray:
    """The k smallest distances from each of ``rows`` to the others, the k-th in
    column k - 1.  Row i of the cyclic half (``_cyclic_distances``) holds those
    to i + 1, ..., i + h, h = m // 2; those to i - s, s <= b = (m - 1) // 2, are
    read back from row i - s (mod m) on a strided view, merged per row tile."""
    m, h = len(rows), len(rows) // 2
    b = m - 1 - h
    half = np.empty((b + m, h))  # the half's last b rows, then the half
    for t in _tiles(m, h):
        half[b:][t] = _cyclic_distances(norm, rows, t)
    half[:b] = half[m:]
    back = np.ndarray((m, b), buffer=half, offset=max(b - 1, 0) * h * 8, strides=(h * 8, (1 - h) * 8))
    nearest = np.empty((m, k))
    for t in _tiles(m, m - 1):
        dist = np.concatenate((half[b:][t], back[t]), axis=1)
        dist.partition(k - 1, axis=1)
        nearest[t] = dist[:, :k]
    return nearest


def kth_radii(points: PointSet, k: int, norm: NormSpec) -> RadiusAssignment:
    """Radius of each point = its k-th smallest distance to another point (with multiplicity)."""
    m = len(points)
    k = _checked_k(k)
    if m <= k:
        raise ValueError(f"insufficient points for k={k}: need at least {k + 1}, got {m}")
    _check_input(points, norm)
    # blocks of at least k + 1 points bound each radius by an in-block k-th distance
    size = max(_BLOCK, 2 * (k + 1))
    if m <= max(size, _DENSE):
        return RadiusAssignment(k=k, radii=_nearest(norm, points.points, k)[:, k - 1].copy())
    part = _partition_of(points, size)
    near = _box_filter(norm, part)
    kth = np.empty(m)
    for b, (s, e) in enumerate(itertools.pairwise(part.starts.tolist())):
        rows = part.pts[s:e]
        nearest = _nearest(norm, rows, k)
        kth[s:e] = nearest[:, k - 1]
        # merged with the distances to the candidates outside the block
        cand = near(b, 0, kth[s:e].max())
        others = np.take(part.pts, cand, axis=0)
        for t in _tiles(e - s, k + len(cand)):
            dist = np.concatenate((nearest[t], pairwise_distances(norm, rows[t], others)), axis=1)
            dist.partition(k - 1, axis=1)
            kth[s:e][t] = dist[:, k - 1]
    radii = np.empty(m)
    radii[part.order] = kth
    return RadiusAssignment(k=k, radii=radii)


def _closed_pairs(points: PointSet, radii: RadiusAssignment, norm: NormSpec) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j, with dist <= r_i + r_j, and the distances compared.

    Every rule of a subgraph (aux, strict) filters these: for radii >= 0 its
    threshold never exceeds fl(r_i + r_j), and it compares the same doubles.
    """
    if len(points) != len(radii):
        raise ValueError(f"length mismatch: {len(points)} points vs {len(radii)} radii")
    _check_input(points, norm)
    m = len(points)
    if m <= _DENSE:  # one evaluation: at most 256 x 128 entries, far below _TILE
        r, h = radii.radii, m // 2
        ahead = np.ndarray((m, h), buffer=np.concatenate((r, r)), offset=8, strides=(8, 8))  # r_(i+s) mod m
        dist = _cyclic_distances(norm, points.points, slice(m))
        hit = dist <= r[:, None] + ahead
        hit[h:, h - 1] &= m % 2 == 1  # even m: offset m / 2 meets each pair twice, kept from i < m / 2
        flat = np.flatnonzero(hit)
        i, s = np.divmod(flat, h)
        j = (i + s + 1) % m
        i, j = np.minimum(i, j), np.maximum(i, j)
        order = np.argsort(i * m + j)
        return np.stack((i[order], j[order]), axis=1), dist.ravel()[flat[order]]
    first, second, dists = [], [], []
    part = _partition_of(points, _BLOCK)
    r = radii.radii[part.order]
    near = _box_filter(norm, part, r)
    for b, (s, e) in enumerate(itertools.pairwise(part.starts.tolist())):
        # the block's own points, then those of the later blocks: every pair is met once
        own = np.arange(s, e)
        cand = np.concatenate((own, near(b, b + 1, r[s:e].max())))
        others, r_cand = np.take(part.pts, cand, axis=0), r[cand]
        for t in _tiles(e - s, len(cand)):
            rows = own[t]
            dist = pairwise_distances(norm, part.pts[s:e][t], others)
            hit = dist <= r[rows][:, None] + r_cand
            hit[:, : e - s] &= own > rows[:, None]
            a, c = np.nonzero(hit)
            first.append(rows[a])
            second.append(cand[c])
            dists.append(dist[a, c])
    i, j = part.order[np.concatenate(first)], part.order[np.concatenate(second)]
    return np.stack((np.minimum(i, j), np.maximum(i, j)), axis=1), np.concatenate(dists)


def build_ksig(points: PointSet, radii: RadiusAssignment, norm: NormSpec) -> InfluenceGraph:
    """Join i and j whenever ||c_i - c_j|| <= r_i + r_j (closed balls meeting)."""
    return InfluenceGraph(len(points), _closed_pairs(points, radii, norm)[0])


def build_aux_graph(points: PointSet, radii: RadiusAssignment, norm: NormSpec) -> InfluenceGraph:
    """Join i and j whenever ||c_i - c_j|| < max(r_i, r_j) (strict).

    Taken from the edges of the closed influence graph for the same radii.  An
    independent set here has no point interior to another member's ball.
    """
    return InfluenceGraph(len(points), _aux_pairs(*_closed_pairs(points, radii, norm), radii.radii))


def _aux_pairs(pairs: np.ndarray, dist: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The closed pairs, at distances ``dist``, that are aux edges."""
    return pairs[dist < np.maximum(r[pairs[:, 0]], r[pairs[:, 1]])]


def sort_by_radius(radii: RadiusAssignment) -> np.ndarray:
    """Vertex indices by nondecreasing radius; ties keep original index order."""
    return np.argsort(radii.radii, kind="stable")


def _witnesses(radii: RadiusAssignment) -> np.ndarray:
    """``sort_by_radius(radii)[:2]`` in two argmin passes: the smallest radius,
    then the smallest of the rest, each at its lowest index among ties."""
    r = radii.radii
    if len(r) < 2:
        return np.arange(len(r))
    first = int(np.argmin(r))
    second = int(np.argmin(np.delete(r, first)))
    return np.array([first, second + (second >= first)])


def greedy_color(graph: InfluenceGraph, order: np.ndarray | Sequence[int]) -> Coloring:
    """Color vertices in the given order, each getting the smallest color absent
    among its already-colored neighbors.

    In radius order on the aux graph for parameter k this uses at most k colors:
    each vertex has fewer than k earlier neighbors, because fewer than k points
    lie strictly inside its own influence ball.  Each edge is filed once, under
    its later endpoint in ``order``, so a vertex reads only its earlier
    neighbors; the later ones are uncolored and never block a color.
    """
    order = np.asarray(order) if len(order) else np.empty(0, dtype=np.int64)  # asarray([]) is float
    if order.dtype.kind not in "iu" or not np.array_equal(np.sort(order), np.arange(graph.n)):
        raise ValueError("order is not a permutation of the graph's vertices")
    rank = np.empty(graph.n, dtype=np.int64)
    rank[order] = np.arange(graph.n)
    ends = rank[graph.pairs]
    later = ends.max(axis=1)
    by_later = np.argsort(later, kind="stable")
    earlier = graph.pairs[by_later, ends[by_later].argmin(axis=1)].tolist()
    stops = np.cumsum(np.bincount(later, minlength=graph.n)).tolist()
    colors = [0] * graph.n
    for v, start, stop in zip(order.tolist(), [0, *stops], stops):
        taken = {colors[u] for u in earlier[start:stop]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return Coloring(colors=colors, num_colors=max(colors, default=0))


def degree_sequence(graph: InfluenceGraph) -> np.ndarray:
    return np.bincount(graph.pairs.ravel(), minlength=graph.n)


def verify_bounds(graph: InfluenceGraph, radii: RadiusAssignment, dim: int) -> VerificationReport:
    """Check the minimum-degree and edge-count bounds on a built influence graph.

    The two vertices of smallest radius (stable order) are the witnesses; both
    must have degree < 5^dim * k, for the k of ``radii``.  Report-style: never
    raises on a violation.
    """
    if graph.n != len(radii):
        raise ValueError(f"graph has {graph.n} vertices but {len(radii)} radii given")
    degrees = degree_sequence(graph)
    degrees.setflags(write=False)
    cap = packing_upper_bound(dim) * radii.k
    witnesses = _witnesses(radii)
    return VerificationReport(
        degree_sequence=degrees,
        witness_vertices=tuple(witnesses.tolist()),
        bound=cap,
        passed=bool((degrees[witnesses] < cap).all()),
        edge_bound=(cap - 1) * graph.n,
        edge_count=len(graph.pairs),
    )


def ksig_pipeline(points: PointSet, k: int, norm: NormSpec) -> PipelineResult:
    """kth_radii -> build_ksig -> verify_bounds, deterministically.

    The bounds hold for sets of distinct points, so this refuses coincident
    points (-0.0 and 0.0 alike), and distinct points whose computed distance
    underflows to 0: either gives a zero radius and an arbitrarily large clique.
    """
    pts = points.points
    # equal rows are adjacent in lexicographic order, in index order (stable)
    order = np.lexsort(pts.T[::-1])
    same = (pts[order[1:]] == pts[order[:-1]]).all(axis=1)
    if same.any():
        t = int(np.argmax(same))
        i, j = order[t : t + 2].tolist()
        raise ValueError(f"points {i} and {j} coincide at {pts[i].tolist()}; the bounds need distinct points")
    radii = kth_radii(points, k, norm)
    zero = np.flatnonzero(radii.radii == 0.0)
    if zero.size:
        i = int(zero[0])
        dist = norm_values(norm, pts - pts[i])
        dist[i] = np.inf
        j = int(np.argmin(dist))
        raise ValueError(
            f"points {i} and {j} are distinct, but their distance under {norm.label()} "
            f"underflows to 0 ({pts[i].tolist()} and {pts[j].tolist()})"
        )
    graph = build_ksig(points, radii, norm)
    report = verify_bounds(graph, radii, points.dim)
    return PipelineResult(radii=radii, graph=graph, report=report)
