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
exceeds their computed sum.  k-d median splits on the widest axis cut the
points into compact blocks of at most ``_BLOCK`` points.  Each block's bounding
box, widened by ``ball_box_halfwidths`` for the largest distance that can still
matter, selects the candidate points; only block x candidate pairs are
evaluated, through ``pairwise_distances`` on the same coordinate differences a
dense distance matrix would use, and decided by the same comparison.  The boxes
are padded so that rounding can only add candidates, so radii and edge sets,
closed-rule ties included, are bit-identical to the dense evaluation.  Up to
``_BLOCK`` points no box is built: one block in index order, with every point a
candidate, is exactly the dense evaluation.  For spread-out points in fixed
dimension the work is close to linear in m; degenerate inputs (radii spanning
most of the cloud, large coincident clusters) make the candidate sets grow, up
to O(m^2) time.  Memory is O(_BLOCK * m) at worst: distances are built one
coordinate column at a time, and no m x m array is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .norms import POLYTOPE, NormSpec, ball_box_halfwidths, norm_values, pairwise_distances
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


@dataclass(frozen=True, eq=False)
class RadiusAssignment:
    """Influence radii for a fixed k: radii[i] is the k-th smallest distance from point i."""

    k: int
    radii: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
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
    and rejects the first outside 0 <= i < j < n.  ``neighbors(v)`` reads a CSR
    built on first use; ``edges`` is a frozenset view of ``pairs`` for set algebra.
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
        key = np.sort(i * self.n + j, kind="stable")
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

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Row offsets, and the neighbors of every vertex in increasing order."""
        # the (j, i) rows first, so that a stable sort by source orders each row
        ends = np.concatenate((self.pairs[:, ::-1], self.pairs))
        ends = ends[np.argsort(ends[:, 0], kind="stable")]
        ends.setflags(write=False)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(ends[:, 0], minlength=self.n))))
        return offsets, ends[:, 1]

    def neighbors(self, v: int) -> np.ndarray:
        """The neighbors of vertex v, in increasing order."""
        offsets, target = self._csr
        return target[offsets[v] : offsets[v + 1]]


@dataclass(frozen=True)
class Coloring:
    """A proper vertex coloring; colors are positive integers."""

    colors: tuple[int, ...]
    num_colors: int


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the degree- and edge-bound checks on one influence graph.

    ``bound`` is 5^dim * k; ``passed`` says the two smallest-radius vertices
    (and hence at least two vertices) have degree strictly below it.  The edge
    count is compared against (5^dim * k - 1) * n separately.
    """

    degree_sequence: tuple[int, ...]
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


# points per block of the pair engine: one evaluation holds a few block x
# candidates arrays of doubles, and inputs up to this size take the dense
# single-block path
_BLOCK = 256
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
    bounding = norm
    if norm.kind == POLYTOPE:
        bounding = replace(norm, functionals=np.abs(norm.functionals))
    with np.errstate(over="ignore"):
        span = points.points.max(axis=0) - points.points.min(axis=0)
        bound = norm_values(bounding, span)
    if not np.isfinite(bound):
        raise ValueError(
            f"the points are too far apart: their distances under {norm.label()} overflow "
            f"float64 (per-axis span {span.tolist()})"
        )


def _blocks(pts: np.ndarray, size: int) -> list[np.ndarray]:
    """Sorted index blocks of at most ``size`` points.

    Blocks come from k-d median splits on the widest axis, so every block of a
    split input holds at least size // 2 points.  An input of at most ``size``
    points is the one block ``arange(m)``, which callers evaluate unpruned.
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


def _box_filter(norm: NormSpec, pts: np.ndarray):
    """Return in_box(block, cand, reach): the candidates within ``reach`` (one value,
    or one per candidate) of the block's bounding box in every axis direction.

    The box comes from ``ball_box_halfwidths``, padded so that rounding can only
    add candidates: relatively, by a few ulps of the largest coordinate, and by
    a floor radius under which powers in the norm evaluation may underflow.
    """
    unit = ball_box_halfwidths(norm, 1.0) * (1.0 + _BOX_RTOL)
    p = 1.0 if norm.kind == POLYTOPE or math.isinf(norm.p) else norm.p
    floor = 2.0 * norm.dim * np.finfo(np.float64).tiny ** (1.0 / p)
    ulps = _BOX_ULPS * np.spacing(np.abs(pts).max())

    def in_box(block: np.ndarray, cand: np.ndarray, reach) -> np.ndarray:
        inner, outer = pts[block], pts[cand]
        pad = unit * (np.reshape(reach, (-1, 1)) + floor) + ulps
        inside = (outer >= inner.min(axis=0) - pad) & (outer <= inner.max(axis=0) + pad)
        return cand[inside.all(axis=1)]

    return in_box


def _kth_other(norm: NormSpec, pts: np.ndarray, rows: np.ndarray, cols: np.ndarray, k: int) -> np.ndarray:
    """k-th smallest distance from each row point to the col points other than itself;
    ``cols`` is sorted and holds every row point."""
    dist = pairwise_distances(norm, pts[rows], pts[cols])
    dist[np.arange(len(rows)), np.searchsorted(cols, rows)] = np.inf
    return np.partition(dist, k - 1, axis=1)[:, k - 1]


def kth_radii(points: PointSet, k: int, norm: NormSpec) -> RadiusAssignment:
    """Radius of each point = its k-th smallest distance to another point (with multiplicity)."""
    m = len(points)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if m <= k:
        raise ValueError(f"insufficient points for k={k}: need at least {k + 1}, got {m}")
    _check_input(points, norm)
    pts = points.points
    # blocks of at least k + 1 points bound each radius by an in-block k-th distance
    blocks = _blocks(pts, max(_BLOCK, 2 * (k + 1)))
    pruned = len(blocks) > 1
    everyone = np.arange(m)
    if pruned:
        in_box = _box_filter(norm, pts)
    radii = np.empty(m)
    for block in blocks:
        cand = everyone
        if pruned:
            cand = in_box(block, everyone, _kth_other(norm, pts, block, block, k).max())
        radii[block] = _kth_other(norm, pts, block, cand, k)
    return RadiusAssignment(k=k, radii=radii)


def _closed_pairs(points: PointSet, radii: RadiusAssignment, norm: NormSpec) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j, with dist <= r_i + r_j, and the distances compared.

    Every rule of a subgraph (aux, strict) filters these: for radii >= 0 its
    threshold never exceeds fl(r_i + r_j), and it compares the same doubles.
    """
    if len(points) != len(radii):
        raise ValueError(f"length mismatch: {len(points)} points vs {len(radii)} radii")
    _check_input(points, norm)
    pts, r = points.points, radii.radii
    blocks = _blocks(pts, _BLOCK)
    pruned = len(blocks) > 1
    order = np.concatenate(blocks)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    if pruned:
        in_box = _box_filter(norm, pts)
    found, dists = [], []
    start = 0
    for block in blocks:
        # this block and the later ones: every pair is met once
        cand = order[start:]
        start += len(block)
        if pruned:
            cand = in_box(block, cand, r[block].max() + r[cand])
        dist = pairwise_distances(norm, pts[block], pts[cand])
        hit = dist <= r[block][:, None] + r[cand][None, :]
        hit &= rank[cand][None, :] > rank[block][:, None]
        a, b = np.nonzero(hit)
        found.append(np.stack((block[a], cand[b]), axis=1))
        dists.append(dist[a, b])
    i, j = np.concatenate(found).T
    return np.stack((np.minimum(i, j), np.maximum(i, j)), axis=1), np.concatenate(dists)


def build_ksig(points: PointSet, radii: RadiusAssignment, norm: NormSpec) -> InfluenceGraph:
    """Join i and j whenever ||c_i - c_j|| <= r_i + r_j (closed balls meeting)."""
    return InfluenceGraph(len(points), _closed_pairs(points, radii, norm)[0])


def build_aux_graph(points: PointSet, radii: RadiusAssignment, norm: NormSpec) -> InfluenceGraph:
    """Join i and j whenever ||c_i - c_j|| < max(r_i, r_j) (strict).

    Taken from the edges of the closed influence graph for the same radii.  An
    independent set here has no point interior to another member's ball.
    """
    pairs, dist = _closed_pairs(points, radii, norm)
    r = radii.radii
    return InfluenceGraph(len(points), pairs[dist < np.maximum(r[pairs[:, 0]], r[pairs[:, 1]])])


def sort_by_radius(radii: RadiusAssignment) -> list[int]:
    """Vertex indices by nondecreasing radius; ties keep original index order."""
    return np.argsort(radii.radii, kind="stable").tolist()


def greedy_color(graph: InfluenceGraph, order: Sequence[int]) -> Coloring:
    """Color vertices in the given order, each getting the smallest color absent
    among its already-colored neighbors.

    In radius order on the aux graph for parameter k this uses at most k colors:
    each vertex has fewer than k earlier neighbors, because fewer than k points
    lie strictly inside its own influence ball.
    """
    if sorted(order) != list(range(graph.n)):
        raise ValueError("order is not a permutation of the graph's vertices")
    offsets, target = (a.tolist() for a in graph._csr)
    colors = [0] * graph.n
    for v in order:
        taken = {colors[u] for u in target[offsets[v] : offsets[v + 1]]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return Coloring(colors=tuple(colors), num_colors=max(colors, default=0))


def degree_sequence(graph: InfluenceGraph) -> list[int]:
    return np.bincount(graph.pairs.ravel(), minlength=graph.n).tolist()


def verify_bounds(graph: InfluenceGraph, radii: RadiusAssignment, dim: int) -> VerificationReport:
    """Check the minimum-degree and edge-count bounds on a built influence graph.

    The two vertices of smallest radius (stable order) are the witnesses; both
    must have degree < 5^dim * k, for the k of ``radii``.  Report-style: never
    raises on a violation.
    """
    if graph.n != len(radii):
        raise ValueError(f"graph has {graph.n} vertices but {len(radii)} radii given")
    degrees = degree_sequence(graph)
    cap = packing_upper_bound(dim) * radii.k
    order = sort_by_radius(radii)
    witnesses = (order[0], order[1])
    passed = degrees[witnesses[0]] < cap and degrees[witnesses[1]] < cap
    return VerificationReport(
        degree_sequence=tuple(degrees),
        witness_vertices=witnesses,
        bound=cap,
        passed=passed,
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
