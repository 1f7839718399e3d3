"""k-th closed sphere-of-influence graphs and their structural checks.

Each point receives the radius of its k-th nearest other point; the influence
graph joins two points whenever their closed balls meet (distance <= sum of
radii).  The companion graph joins points at distance strictly below the larger
of the two radii; coloring it greedily in radius order needs at most k colors,
which drives the degree-bound verification.  A graph is one sorted int64 edge
array, ``InfluenceGraph.pairs``, that degrees, coloring and files read directly.

Radii and the closed graph share one pair engine: prune with boxes, decide with
the norm kernel's coordinate differences (``norms._differences``).  One
traversal, ``_pair_blocks``, yields each pass's distances in blocks; the radii
pass merges them into each point's k smallest (``_select``), the closed pass
keeps dist <= r_i + r_j.  The traversal alone decides which pairs a pass sees
(the closed pass each unordered pair once, the radii pass each ordered pair;
other entries are NaN, which no rule takes) and maps positions to points.  The
closed pass decides the companion and strict rules too, on the same distances:
its sorted uint64 keys carry both verdicts, and each graph is a decode of them.

A point set meets itself in one self-pass, ``_self_pass``, each pair once, in
its cyclic half (``_cyclic_distances``: row i against i + 1, ..., i + P // 2,
mod P).  The norm is even and fl(a - b) = -fl(b - a), so an entry has the bits
of both mirrored entries of the square matrix, and fl(r_i + r_j) is
commutative.  The radii pass reads the other distances back from earlier rows,
the closed rule reads per-point values as strided views.  An input of at most
``_DENSE`` (256) points, or max(256, 2(k + 1)) for the radii pass, is one set:
no leaves, no box tests.  A dense build (``_radii_and_keys``, which
``ksig_pipeline`` and the verify suite's instance loop run) evaluates its pairs
once: the radii pass reads the half, then the closed pass masks and reads it.

Larger inputs are cut by k-d median splits on the widest axis into leaves of at
most ``_BLOCK`` (32) points, level by level, and the split tree is kept; the
partition is built once per ``PointSet``.  The leaves meet themselves first,
those of one size together, which bounds every radius by an in-leaf k-th
distance.  Then a descent of the tree replaces node pairs whose boxes, widened
by ``ball_box_halfwidths`` for the largest distance that can still matter, meet
by their children's pairs (a node box contains its leaves' boxes, so it drops
no candidate), and each candidate leaf keeps its points inside the widened box
of its partner.  The leaves with candidates are grouped by candidate count into
padded (leaves, points, candidates) evaluations of at most ``_BATCH`` (2^15)
entries, on the coordinate differences a dense matrix would use.  The boxes are
padded so that rounding only adds candidates, so radii and edge sets,
closed-rule ties included, are bit-identical to the dense evaluation.

For spread-out points in fixed dimension the work is close to linear in m;
degenerate inputs (radii spanning the cloud, coincident clusters) grow the
candidate sets, up to O(m^2) time, but not the memory: point tests run in
chunks of about ``_TILE`` / 4, wide leaves in column chunks, big sets in row
tiles, no evaluation exceeds min(``_BATCH``, ``_TILE``) entries, and the leaf
pairs are one flat list of those that pass (up to nb^2 / 2 for nb leaves).
Distances are elementwise, so batches and chunks keep the bits.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .norms import POLYTOPE, NormSpec, _cyclic_distances, _differences, ball_box_halfwidths, norm_values
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
    _checked: NormSpec | None = field(default=None, init=False, repr=False)  # see ``_check_input``

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
        """The pair engine's k-d leaves, their boxes and tree, built on first use
        (``_partition_of`` decides when it is read)."""
        return _split(self.points, _BLOCK)


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
        if not 0 <= self.n < 2**31:  # so i * n + j fits in int64, and a key of ``_closed_pairs`` in uint64
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
            key = np.sort(key)
            key = np.concatenate((key[:1], key[1:][key[1:] != key[:-1]]))
            pairs = np.stack(np.divmod(key, self.n), axis=1)
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def _owning(cls, n: int, pairs: np.ndarray) -> InfluenceGraph:
        """The graph on ``pairs`` as they are, without the checks, key or copy:
        int64 pairs in the class's form, built for it and handed over."""
        graph = cls.__new__(cls)
        pairs.setflags(write=False)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "pairs", pairs)
        return graph

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
_BLOCK = 32
# inputs of at most this many points are evaluated unpruned: the dense path
# beats the box tests of several small leaves there
_DENSE = 256
# entries of one dense row tile; no evaluation of the leaf engine exceeds it
_TILE = 2**20
# entries of one batched evaluation of many leaves' candidates
_BATCH = 2**15
# rounds of ``greedy_color`` before the loop colors the rest
_ROUNDS = 32
# padding of the pruning boxes, relative to their halfwidths and in units in
# the last place of the largest coordinate, so rounding only adds candidates
_BOX_RTOL = 2.0**-20
_BOX_ULPS = 4
_STRICT, _AUX = 1, 2  # the rule bits of a closed-pass key (``_closed_pairs``)


def _check_input(points: PointSet, norm: NormSpec):
    """Refuse a norm of another dimension, and points whose distances may overflow.

    No computed distance exceeds the norm of the per-axis span of the points
    (for a polytope, under the absolute values of its functionals): rounding is
    monotone, so a finite bound keeps every radius and edge test finite.
    ``points`` keeps the last norm it passed with, so a build checks once.
    """
    if points._checked is norm:
        return
    if norm.dim != points.dim:
        raise ValueError(f"dimension mismatch: points have dim {points.dim}, norm expects {norm.dim}")
    with np.errstate(over="ignore"):
        span = points.points.max(axis=0) - points.points.min(axis=0)
        bound = norm_values(norm._bounding, span)
    if not np.isfinite(bound):
        raise ValueError(
            f"the points are too far apart: their distances under {norm.label()} overflow "
            f"float64 (per-axis span {span.tolist()})"
        )
    object.__setattr__(points, "_checked", norm)


class _Level(NamedTuple):
    """The nodes of one level of the split tree, in position order.

    Node i holds the leaves leaf[i], ..., leaf[i + 1] - 1 in the box
    lo[i]..hi[i].  Its children on the next level are first[i], ...,
    first[i] + count[i] - 1; a leaf is its own one child.
    """

    leaf: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    first: np.ndarray
    count: np.ndarray


class _Partition(NamedTuple):
    """The leaves of ``_split`` laid end to end, and the tree that cut them.

    ``pts`` holds the points in the order ``order``; leaf b is the positions
    starts[b]..starts[b + 1] - 1 of it, with bounding box lo[b]..hi[b].  The
    engine works on positions and maps them back through ``order``.  Row b of
    ``leaf_pos`` lists leaf b's positions, padded with m; ``leaf_pts`` holds
    their points, padded with NaN, which fails every box test.  ``levels``
    runs from the root to the leaves.
    """

    order: np.ndarray
    starts: np.ndarray
    pts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    leaf_pos: np.ndarray
    leaf_pts: np.ndarray
    levels: list[_Level]


def _split(pts: np.ndarray, size: int) -> _Partition:
    """Cut the points into leaves of at most ``size`` points by k-d median
    splits on the widest axis, level by level: a node of n > size points puts
    its n // 2 lowest on that axis first, so every leaf of a split input holds
    at least size // 2 points.  The nodes of one level have at most two sizes,
    and the nodes of one size are split at once."""
    m, columns = len(pts), np.ascontiguousarray(pts.T)
    order, starts, sizes, shapes = np.arange(m), np.zeros(1, dtype=np.int64), np.array([m]), []
    while True:
        count = 1 + (sizes > size)
        shapes.append((starts, np.cumsum(count) - count, count))
        if (count == 1).all():
            break
        for n in np.unique(sizes[count == 2]).tolist():
            slots = starts[sizes == n][:, None] + np.arange(n)
            ids = order[slots]
            sub = np.take(columns, ids, axis=1)  # (dim, nodes, n), each row contiguous
            axis = np.argmax(sub.max(axis=2) - sub.min(axis=2), axis=0)
            key = np.take_along_axis(sub, axis[None, :, None], axis=0)[0]
            order[slots] = np.take_along_axis(ids, np.argpartition(key, n // 2, axis=1), axis=1)
        left = np.where(count == 2, sizes // 2, sizes)
        halves = np.stack((left, sizes - left), axis=1).ravel()
        starts = np.stack((starts, starts + left), axis=1).ravel()[halves > 0]
        sizes = halves[halves > 0]
    ordered = pts[order]
    lo = np.minimum.reduceat(ordered, starts, axis=0)
    hi = np.maximum.reduceat(ordered, starts, axis=0)
    levels = []
    for node_starts, first, count in shapes:
        leaf = np.searchsorted(starts, node_starts)
        levels.append(_Level(leaf, np.minimum.reduceat(lo, leaf), np.maximum.reduceat(hi, leaf), first, count))
    leaf_pos = np.full((len(starts), sizes.max()), m)
    leaf_pos[np.repeat(np.arange(len(starts)), sizes), np.arange(m) - np.repeat(starts, sizes)] = np.arange(m)
    leaf_pts = np.full((*leaf_pos.shape, pts.shape[1]), np.nan)
    leaf_pts[leaf_pos < m] = ordered
    return _Partition(order, np.append(starts, m), ordered, lo, hi, leaf_pos, leaf_pts, levels)


def _partition_of(points: PointSet, size: int) -> _Partition:
    """The engine's leaves of at most ``size`` points for ``points``: a split at
    the usual leaf size is built once per point set and shared."""
    return points._partition if size == _BLOCK else _split(points.points, size)


def _tiles(rows: int, cols: int) -> list[slice]:
    """Row slices of a rows x cols evaluation, each of at most min(_BATCH, _TILE) entries or one row."""
    step = max(1, min(_BATCH, _TILE) // max(cols, 1))
    return [slice(t, min(t + step, rows)) for t in range(0, rows, step)]


def _padding(norm: NormSpec, part: _Partition) -> tuple[np.ndarray, float, float]:
    """(unit, floor, ulps): a pruning box widened for reach r grows by
    unit * (r + floor) + ulps per axis.  ``unit`` is ``ball_box_halfwidths`` at
    radius 1, padded relatively; ``floor`` a radius under which powers in the
    norm evaluation may underflow; ``ulps`` a few ulps of the largest
    coordinate.  So rounding can only add candidates."""
    p = 1.0 if norm.kind == POLYTOPE or math.isinf(norm.p) else norm.p
    unit = ball_box_halfwidths(norm, 1.0) * (1.0 + _BOX_RTOL)
    return unit, 2.0 * norm.dim * np.finfo(np.float64).tiny ** (1.0 / p), _BOX_ULPS * np.spacing(np.abs(part.pts).max())


def _meets(pad, lo, hi, other_lo, other_hi, reach):
    """Whether the boxes other_lo..other_hi meet the boxes lo..hi widened by
    reach, coordinates on the last axis and the rest broadcast."""
    unit, floor, ulps = pad
    reach = reach + floor
    meets = True
    # axis by axis: numpy is slow to reduce over a short last axis
    for c, u in enumerate(unit):
        width = u * reach + ulps
        meets = meets & (other_hi[..., c] >= lo[..., c] - width) & (other_lo[..., c] <= hi[..., c] + width)
    return meets


def _leaf_pairs(pad, part: _Partition, reach: np.ndarray, extra: np.ndarray, half: bool):
    """The pairs of distinct leaves (a, b), sorted by a, whose boxes pass the
    box test with reach reach[a] + extra[b]; with ``half``, only those with a < b.

    The split tree is descended level by level from the root pair: the pairs
    of nodes whose boxes pass, tested with the largest reach and extra each
    node holds, are replaced by the pairs of their children.  A node box
    contains its leaves' boxes, so the descent drops no leaf pair that passes.
    """
    a = b = np.zeros(1, dtype=np.int64)
    for parent, level in itertools.pairwise(part.levels):
        # pair p becomes its n[p] child pairs, the t-th of them (t // width, t % width)
        n = parent.count[a] * parent.count[b]
        pick = np.repeat(np.arange(len(a)), n)
        t, width = np.arange(len(pick)) - np.repeat(np.cumsum(n) - n, n), parent.count[b][pick]
        a, b = parent.first[a][pick] + t // width, parent.first[b][pick] + t % width
        reach_ab = np.maximum.reduceat(reach, level.leaf)[a] + np.maximum.reduceat(extra, level.leaf)[b]
        keep = _meets(pad, level.lo[a], level.hi[a], level.lo[b], level.hi[b], reach_ab)
        if half:
            keep &= a <= b
        a, b = a[keep], b[keep]
    order = np.argsort(a, kind="stable")
    a, b = a[order], b[order]
    return a[a != b], b[a != b]


def _candidates(pad, part: _Partition, a, b, reach: np.ndarray, radii: np.ndarray | None = None):
    """For the leaf pairs (a, b), sorted by a, the points of leaf b that lie
    within reach[a] of leaf a's box in every axis direction, plus their own
    radius when ``radii`` (by position, with one more entry) is given.

    Yields (leaf, pos), sorted by leaf, in chunks of whole leaves a of about
    _TILE // 4 point tests each.
    """
    span = part.leaf_pos.shape[1]
    ends = np.flatnonzero(np.diff(a, append=-1)) + 1  # the end of each leaf's run of pairs
    s = 0
    while s < len(a):
        # the runs that end within the chunk's pairs, and at least one
        last = np.searchsorted(ends, s + _TILE // 4 // span, side="right") - 1
        e = ends[max(last, np.searchsorted(ends, s, side="right"))]
        here, there = a[s:e], b[s:e]
        s = e
        slots = part.leaf_pos[there]
        reach_ab = reach[here][:, None] if radii is None else reach[here][:, None] + radii[slots]
        x = part.leaf_pts[there]
        keep = np.flatnonzero(_meets(pad, part.lo[here][:, None], part.hi[here][:, None], x, x, reach_ab))
        yield here[keep // span], slots.ravel()[keep]


def _batches(norm: NormSpec, part: _Partition, leaf: np.ndarray, pos: np.ndarray):
    """Evaluate each leaf against its candidates, the positions pos[i] with
    leaf[i] equal to it (``leaf`` ascending).

    Yields (rows, cols, dist): dist[l, i, j] is the distance from position
    rows[l, i] to position cols[l, j], made by ``_differences`` as p_i - q_j.
    Padding rows are m and padding columns -1, both at NaN.  ``dist`` is
    overwritten by the next evaluation.  The leaves are grouped by candidate
    count into evaluations of at most min(_BATCH, _TILE) entries; a leaf wider
    than that is cut into column chunks.
    """
    span, limit = part.leaf_pos.shape[1], min(_BATCH, _TILE)
    # the kernel's two buffers, reused by every evaluation: each yields before the next
    work = (np.empty(max(limit, span)), np.empty(max(limit, span)))
    first = np.flatnonzero(np.diff(leaf, prepend=-1))
    count = np.diff(first, append=len(leaf))
    by_count = np.argsort(count, kind="stable")
    i = 0
    while i < len(by_count):
        # the counts ascend: the leaves that fit are a prefix
        ahead = count[by_count[i : i + limit // (span * count[by_count[i]])]]
        fits = np.arange(1, len(ahead) + 1) * ahead * span <= limit
        group = by_count[i : i + max(1, np.count_nonzero(fits))]
        i += len(group)
        leaves, start, width = leaf[first[group]], first[group], count[group]
        rows, here = part.leaf_pos[leaves], np.moveaxis(part.leaf_pts[leaves], -1, 0)[..., None]
        step = width[-1] if len(group) > 1 else max(1, limit // span)
        for c0 in range(0, width[-1], step):
            t = np.arange(c0, min(c0 + step, width[-1]))
            cols, empty = pos[start[:, None] + np.minimum(t, width[:, None] - 1)], t >= width[:, None]
            dist = _differences(norm, here, np.moveaxis(part.pts[cols], -1, 0)[:, :, None], work)
            if empty.any():  # padding: a copy of the leaf's last candidate (NaN would slow np.power)
                cols[empty] = -1
                np.copyto(dist, np.nan, where=empty[:, None])
            yield rows, cols, dist


def _cyclic_half(norm: NormSpec, pts: np.ndarray, tiles: list[slice], work=None) -> np.ndarray:
    """The cyclic half of ``_cyclic_distances`` of each set of ``pts``, in row tiles
    ``tiles``, below a copy of its last (P - 1) // 2 rows, which the radii pass
    reads back across the wrap: (L, b + P, P // 2) for sets (L, P, dim)."""
    P = pts.shape[-2]
    b = (P - 1) // 2
    half = np.empty((*pts.shape[:-2], b + P, P // 2))
    for t in tiles:
        half[..., b:, :][..., t, :] = _cyclic_distances(norm, pts, t, work)
    half[..., :b, :] = half[..., P:, :]
    return half


def _self_pass(norm: NormSpec, pts: np.ndarray, ids, closed: bool, work=None, half=None):
    """The blocks of ``_pair_blocks`` of each set against itself: one set (P, dim),
    whose positions are the points (``ids`` None), or sets (L, P, dim) of the
    points ids (L, P), evaluated in row tiles (in the kernel's buffers ``work``
    when given).  ``half``, a ``_cyclic_half`` of one set, is read whole
    instead; a closed pass writes NaN into it."""
    P = pts.shape[-2]
    h, b = P // 2, (P - 1) // 2
    tiles = [slice(0, P)] if half is not None else _tiles(P, math.prod(pts.shape[:-2]) * h)
    if closed:
        for t in tiles:
            dist = _cyclic_distances(norm, pts, t, work) if half is None else half[b:][t]
            if P % 2 == 0:  # the offset P / 2 meets each pair twice, kept from i < P / 2
                dist[..., max(h - t.start, 0) :, h - 1] = np.nan

            def ahead(v, t=t):  # v[(i + s) mod P] of row i's set at (i, s - 1), a strided view
                v = np.concatenate((v[:P], v[:P]) if ids is None else (v[ids], v[ids]), axis=-1)
                size = v.itemsize
                return np.ndarray((*v.shape[:-1], P, h), v.dtype, v, size, (*v.strides[:-1], size, size))[..., t, :]

            yield t if ids is None else ids[:, t], ahead, dist
        return
    if half is None:
        half = _cyclic_half(norm, pts, tiles, work)
    # the distances to i - s, s <= b, read back from row i - s (mod P) of the half
    strides = (*half.strides[:-2], h * 8, (1 - h) * 8)
    back = np.ndarray((*half.shape[:-2], P, b), buffer=half, offset=max(b - 1, 0) * h * 8, strides=strides)
    for t in tiles:  # the points ahead, then back
        yield t if ids is None else ids[:, t], None, np.concatenate((half[..., b:, :][..., t, :], back[..., t, :]), -1)


def _pair_blocks(points: PointSet, norm: NormSpec, size: int, reach: np.ndarray, closed: bool = False, half=None):
    """The pair traversal of one pass: yields blocks (rows, cols, dist).

    dist[..., c] is the distance from the point rows (an index into per-point
    arrays; a slice for an input of one set) to the c-th point of its row.
    With ``closed`` each unordered pair comes once and ``cols(v)`` lays
    per-point values v over dist; else each ordered pair comes, and ``cols``
    is None.  Entries that are no pair of the pass are NaN, so no rule takes
    them; padding rows and columns index -1, so an array a rule writes by rows
    has a spare last entry.  ``dist`` may be overwritten by the next block.
    Up to max(size, _DENSE) points are one set, which reads ``half`` when
    given; else leaves of at most ``size`` points meet themselves first, and
    then reach[i], read then, sets the box tests: the radii with ``closed``,
    else a bound on every distance that still matters.
    """
    _check_input(points, norm)
    if len(points) <= max(size, _DENSE):
        yield from _self_pass(norm, points.points, None, closed, half=half)
        return
    part = _partition_of(points, size)
    pad = _padding(norm, part)
    ids = np.append(part.order, -1)  # positions to points; padding rows (m) and columns (-1) to -1
    # each leaf against itself, the leaves of one size together, in the kernel's
    # two buffers, reused by every evaluation: each yields before the next
    work = np.empty((2, max(min(_BATCH, _TILE), part.leaf_pos.shape[1])))
    sizes = np.diff(part.starts)
    for n in np.unique(sizes).tolist():
        pos = part.leaf_pos[sizes == n, :n]
        for g in _tiles(len(pos), n * (n // 2)):
            yield from _self_pass(norm, part.pts[pos[g]], part.order[pos[g]], closed, work)
    del work, pos  # the candidate search holds the pass's peak; each batch has its own buffers
    # then each leaf against the other leaves' points within reach
    r = reach[part.order]
    leaf_reach = np.maximum.reduceat(r, part.starts[:-1])
    pairs = _leaf_pairs(pad, part, leaf_reach, leaf_reach if closed else np.zeros_like(leaf_reach), closed)
    for leaf, pos in _candidates(pad, part, *pairs, leaf_reach, np.append(r, -np.inf) if closed else None):
        for rows, cols, dist in _batches(norm, part, leaf, pos):
            lay = (lambda v, c=ids[cols][:, None], shape=dist.shape: np.broadcast_to(v[c], shape)) if closed else None
            yield ids[rows], lay, dist


def _select(nearest: np.ndarray, rows, dist: np.ndarray, merge: bool):
    """Merge each row's distances dist[..., c] into its k smallest so far,
    nearest[rows]; NaN sorts last.  Without ``merge`` (the rows have nothing
    yet, and a self block holds at least k columns) the block is selected alone."""
    k = nearest.shape[1]
    if merge:
        if dist.shape[-1] > k:  # the block's own k smallest first: a smaller merge
            dist.partition(k - 1, axis=-1)
            dist = dist[..., :k]
        dist = np.concatenate((nearest[rows], dist), axis=-1)
    dist.partition(k - 1, axis=-1)
    nearest[rows] = dist[..., :k]


def kth_radii(points: PointSet, k: int, norm: NormSpec) -> RadiusAssignment:
    """Radius of each point = its k-th smallest distance to another point (with multiplicity)."""
    return _radii(points, k, norm)[0]


def _radii(points: PointSet, k: int, norm: NormSpec) -> tuple[RadiusAssignment, np.ndarray | None]:
    """``kth_radii``, and the ``_cyclic_half`` it read when a closed pass on these
    points is dense too (m <= _DENSE), else None."""
    m, k = len(points), _checked_k(k)
    if m <= k:
        raise ValueError(f"insufficient points for k={k}: need at least {k + 1}, got {m}")
    half = None
    if m <= _DENSE:
        _check_input(points, norm)  # before the evaluation, as in ``_pair_blocks``
        half = _cyclic_half(norm, points.points, _tiles(m, m // 2))
    # each point's k smallest so far, padding in the last row; column k - 1 is the reach
    nearest = np.full((m + 1, k), np.inf)
    blocks = _pair_blocks(points, norm, max(_BLOCK, 2 * (k + 1)), nearest[:, k - 1], half=half)
    for n, (rows, _, dist) in enumerate(blocks):
        _select(nearest, rows, dist, merge=n > 0)
    return RadiusAssignment(k=k, radii=nearest[:m, k - 1].copy()), half


def _radii_and_keys(points: PointSet, k: int, norm: NormSpec) -> tuple[RadiusAssignment, np.ndarray]:
    """``kth_radii``, then ``_closed_pairs`` for those radii: up to ``_DENSE``
    points both passes read one evaluation of the cyclic half.  The radii pass
    has read it, and released its rows, before the closed pass masks it."""
    radii, half = _radii(points, k, norm)
    return radii, _closed_pairs(points, radii, norm, half)


def _closed_pairs(points: PointSet, radii: RadiusAssignment, norm: NormSpec, half=None) -> np.ndarray:
    """The pairs (i, j), i < j, with dist <= r_i + r_j, as ascending uint64 keys
    (i * m + j) * 4 + 2 * aux + strict: aux is dist < max(r_i, r_j), strict dist < r_i + r_j.

    The bits are the aux and strict graphs' own comparisons, on the doubles the
    closed rule compares: fl(r_i + r_j) is commutative, so r[i] + r[j] read at a
    hit is the double r[rows] + cols(r) held there.  For radii >= 0, max(r_i, r_j)
    <= fl(r_i + r_j), so aux implies strict and a key's low bits are 0 (a tie on
    the boundary), 1 or 3.  m < 2^31, as ``InfluenceGraph`` asks, so every key < 2^64.
    ``half``, from ``_radii`` on these points, spares a dense pass its evaluation.
    """
    if len(points) != len(radii):
        raise ValueError(f"length mismatch: {len(points)} points vs {len(radii)} radii")
    m, r = len(points), radii.radii  # padding reads r[-1], at NaN distances
    if m >= 2**31:
        raise ValueError(f"vertex count must be in [0, 2**31), got {m}")
    ids, found = np.arange(m), []
    for rows, cols, dist in _pair_blocks(points, norm, _BLOCK, r, closed=True, half=half):
        hit = np.flatnonzero(dist <= r[rows][..., None] + cols(r))
        i, j = ids[rows].ravel()[hit // dist.shape[-1]], np.take(cols(ids), hit)
        dist, ri, rj = dist.ravel()[hit], r[i], r[j]
        key = (np.minimum(i, j) * m + np.maximum(i, j)).view(np.uint64) << 2
        found.append(key | (dist < np.maximum(ri, rj)).view(np.uint8) << 1 | (dist < ri + rj))
    keys = np.concatenate(found)
    keys.sort()
    return keys


def _keyed_graph(keys: np.ndarray, m: int, bit: int = 0) -> InfluenceGraph:
    """The graph on m vertices of the ``_closed_pairs`` keys with ``bit`` set, or all
    keys.  key >> 2 < 2^62 is read as int64 (uint64 mixed with int64 is float64);
    it is shifted into the pairs' second column, which the divmod then overwrites.
    The keys ascend, so the pairs are sorted and unique, and the graph owns them."""
    keys = keys[keys & bit != 0] if bit else keys
    pairs = np.empty((len(keys), 2), dtype=np.int64)
    np.right_shift(keys, 2, out=pairs[:, 1].view(np.uint64))
    np.divmod(pairs[:, 1], m, out=(pairs[:, 0], pairs[:, 1]))
    return InfluenceGraph._owning(m, pairs)


def build_ksig(points: PointSet, radii: RadiusAssignment, norm: NormSpec) -> InfluenceGraph:
    """Join i and j whenever ||c_i - c_j|| <= r_i + r_j (closed balls meeting)."""
    return _keyed_graph(_closed_pairs(points, radii, norm), len(points))


def build_aux_graph(points: PointSet, radii: RadiusAssignment, norm: NormSpec) -> InfluenceGraph:
    """Join i and j whenever ||c_i - c_j|| < max(r_i, r_j) (strict).

    Taken from the edges of the closed influence graph for the same radii.  An
    independent set here has no point interior to another member's ball.
    """
    return _keyed_graph(_closed_pairs(points, radii, norm), len(points), _AUX)


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
    lie strictly inside its own influence ball.  A vertex reads only its earlier
    neighbors; the later ones are uncolored and never block a color.

    A graph of more than ``_DENSE`` vertices is colored in rounds first (Jones
    & Plassmann 1993, priority = rank in ``order``): each round colors every
    uncolored vertex whose earlier neighbors all have colors, with the lowest
    bit clear in a uint64 mask of their colors.  Such vertices are never
    adjacent, so by induction each gets the color the loop gives it.  After
    ``_ROUNDS`` rounds (a chain in order needs one per vertex), or at a vertex
    whose color would pass 63 (the mask's width), the loop in ``order`` colors
    the rest.  Smaller graphs take the loop alone, which is faster there.
    """
    order = np.asarray(order) if len(order) else np.empty(0, dtype=np.int64)  # asarray([]) is float
    n = graph.n
    valid = order.dtype.kind in "iu" and order.shape == (n,)
    if valid and n:
        # n entries in range: a permutation exactly when every vertex occurs
        valid = 0 <= order.min() and order.max() < n
        valid = valid and np.bincount(order.astype(np.intp, copy=False), minlength=n).all()
    if not valid:
        raise ValueError("order is not a permutation of the graph's vertices")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    first, second = rank[graph.pairs[:, 0]], rank[graph.pairs[:, 1]]
    # each edge as (earlier, later) ranks; colors are indexed by rank, 0 = none yet
    early, late = np.minimum(first, second), np.maximum(first, second)
    colors = np.zeros(n, dtype=np.int64)
    if n > _DENSE:
        _color_rounds(early, late, colors)
    _color_loop(early, late, colors)
    colors = colors[rank]
    return Coloring(colors=colors, num_colors=int(colors.max(initial=0)))


def _color_rounds(early: np.ndarray, late: np.ndarray, colors: np.ndarray):
    """Color by rank in rounds, each vertex once all its earlier neighbors have
    colors, with the lowest bit clear in the mask of their colors."""
    n = len(colors)
    waiting = np.bincount(late, minlength=n)  # earlier neighbors without a color
    taken = np.zeros(n, dtype=np.uint64)  # bit c - 1 set: color c is taken
    bit = np.zeros(n, dtype=np.uint64)  # a colored rank's own bit
    fresh = np.zeros(n, dtype=bool)
    ready = np.flatnonzero(waiting == 0)
    for _ in range(_ROUNDS):
        if not len(ready):
            return
        free = ~taken[ready] & (taken[ready] + np.uint64(1))  # the lowest clear bit
        if (free >> np.uint64(63)).any():  # color 64: beyond the mask
            return
        colors[ready] = np.frexp(free.astype(np.float64))[1]  # bit b is color b + 1
        bit[ready] = free
        # the edges from the new colors to their later ends
        fresh[ready] = True
        out = fresh[early]
        fresh[ready] = False
        targets = late[out]
        np.bitwise_or.at(taken, targets, bit[early[out]])
        np.subtract.at(waiting, targets, 1)
        fresh[targets[waiting[targets] == 0]] = True
        ready = np.flatnonzero(fresh)
        fresh[ready] = False


def _color_loop(early: np.ndarray, late: np.ndarray, colors: np.ndarray):
    """Give each uncolored rank, in rank order, the smallest color absent among
    its earlier neighbors.  The ranks with colors have all their earlier
    neighbors colored, so they hold the colors this loop would give them."""
    todo = colors == 0
    if not todo.all():  # after rounds: the edges to uncolored ranks
        keep = todo[late]
        early, late = early[keep], late[keep]
    by_late = np.argsort(late)
    earlier = early[by_late].tolist()
    stops = np.cumsum(np.bincount(late, minlength=len(colors))).tolist()
    out = colors.tolist()
    for v in np.flatnonzero(todo).tolist():
        taken = {out[u] for u in earlier[stops[v - 1] if v else 0 : stops[v]]}
        c = 1
        while c in taken:
            c += 1
        out[v] = c
    colors[:] = out


def degree_sequence(graph: InfluenceGraph) -> np.ndarray:
    """The degree of each vertex, counted in chunks: np.bincount copies a read-only input."""
    flat, step = graph.pairs.reshape(-1), max(graph.n, 2**16)
    degrees = np.bincount(flat[:step], minlength=graph.n)
    for s in range(step, len(flat), step):
        degrees += np.bincount(flat[s : s + step], minlength=graph.n)
    return degrees


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


# odd multiplier of the row keys of ``_coincident_pair``
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _coincident_pair(pts: np.ndarray) -> tuple[int, int] | None:
    """The first two equal rows (-0.0 equal to 0.0) in lexicographic order, in
    index order; None if the rows are distinct.

    Equal rows have equal keys, a mix of their coordinates' bits, so one sort of
    the keys leaves only the rows that share a key to the lexicographic sort.
    A row of a unique key equals no other, so the first equal pair is the same.
    """
    bits = (pts + 0.0).view(np.uint64)  # -0.0 + 0.0 is 0.0
    key = bits[:, 0].copy()
    for c in range(1, pts.shape[1]):
        key = key * _MIX ^ bits[:, c]
    ordered = np.sort(key)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    if not len(shared):
        return None
    suspects = np.flatnonzero(np.isin(key, shared))
    order = suspects[np.lexsort(pts[suspects].T[::-1])]
    same = (pts[order[1:]] == pts[order[:-1]]).all(axis=1)
    if not same.any():
        return None
    t = int(np.argmax(same))
    return int(order[t]), int(order[t + 1])


def ksig_pipeline(points: PointSet, k: int, norm: NormSpec) -> PipelineResult:
    """kth_radii -> build_ksig -> verify_bounds, deterministically.

    The bounds hold for sets of distinct points, so this refuses coincident
    points (-0.0 and 0.0 alike), and distinct points whose computed distance
    underflows to 0: either gives a zero radius and an arbitrarily large clique.
    """
    pts = points.points
    pair = _coincident_pair(pts)
    if pair is not None:
        i, j = pair
        raise ValueError(f"points {i} and {j} coincide at {pts[i].tolist()}; the bounds need distinct points")
    # up to _DENSE points one evaluation serves both passes; the closed pass refuses
    # nothing that the radii pass took, so the zero-radius refusal is still the
    # first.  Larger inputs share no evaluation and call the public steps, which a
    # trace of them then sees
    dense = len(points) <= _DENSE
    radii, keys = _radii_and_keys(points, k, norm) if dense else (kth_radii(points, k, norm), None)
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
    graph = _keyed_graph(keys, len(points)) if dense else build_ksig(points, radii, norm)
    report = verify_bounds(graph, radii, points.dim)
    return PipelineResult(radii=radii, graph=graph, report=report)
