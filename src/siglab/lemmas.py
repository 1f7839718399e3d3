"""Executable forms of the geometric facts behind the degree bound.

Three ingredients, each checkable on concrete inputs: the bow-and-arrow
inequality relating the gap between two unit vectors to the gap between the
originals, the radial retraction onto the ball of radius 2 and the separation
it preserves between satellite ball centers, and the neighborhood counting
check that combines them at a witness vertex of an influence graph.

Each fact is implemented once, batched over the last axis or over a list of
satellite configs; the single-input forms are one-row calls of the batch form,
so a lone input gets exactly the bits of its batch row.

Hypothesis tests are exact, non-strict float comparisons.  Conclusion checks
(separations, inequality gaps) carry small absolute slack for roundoff; the
constants live in SEPARATION_SLACK and the suite tolerances that cite it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import NormSpec, norm_values, pairwise_distances
from .sig import Coloring, InfluenceGraph, PointSet, RadiusAssignment, _witnesses

__all__ = [
    "SEPARATION_SLACK",
    "SatelliteConfig",
    "CountingReport",
    "project_ball2",
    "project_ball2_many",
    "bow_and_arrow_gap",
    "bow_and_arrow_gaps",
    "sample_nonzero_pairs",
    "satellite_hypotheses",
    "satellite_separation",
    "satellite_separations",
    "sample_satellite_configs",
    "counting_check",
]

# absolute slack for conclusion checks; hypothesis comparisons stay exact
SEPARATION_SLACK = 1e-9

_CHUNK = 4096
# the sampling regions of sample_nonzero_pairs and sample_satellite_configs
_PAIR_BOX = 3.0
_PAIR_MIN_NORM = 0.05
_SATELLITE_RADII = (0.5, 3.0)
_SATELLITE_BOX = 4.0
# a sampler gives up when more than this many chunks in a row keep no draw
_MAX_EMPTY_CHUNKS = 2000


def project_ball2(norm: NormSpec, x) -> np.ndarray:
    """x unchanged if ||x|| <= 2, else 2x/||x|| (radial retraction onto B(o, 2))."""
    return project_ball2_many(norm, x)


def project_ball2_many(norm: NormSpec, X) -> np.ndarray:
    """Radial retraction applied to every vector along the last axis."""
    X = np.asarray(X, dtype=np.float64)
    values = norm_values(norm, X)
    scale = np.ones_like(values)
    outside = values > 2.0
    scale[outside] = 2.0 / values[outside]
    return X * scale[..., None]


def bow_and_arrow_gap(norm: NormSpec, a, b) -> float:
    """Slack in ||a/||a|| - b/||b|||| >= (||a-b|| - | ||a|| - ||b|| |) / ||b||.

    The inequality holds in every norm for nonzero a, b; a negative return
    beyond roundoff would falsify it.
    """
    return float(bow_and_arrow_gaps(norm, a, b))


def bow_and_arrow_gaps(norm: NormSpec, A, B) -> np.ndarray:
    """bow_and_arrow_gap on row-aligned batches of vectors."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    norms_a = norm_values(norm, A)
    norms_b = norm_values(norm, B)
    if np.any(norms_a == 0.0) or np.any(norms_b == 0.0):
        raise ValueError("bow-and-arrow gap requires nonzero vectors")
    left = norm_values(norm, A / norms_a[..., None] - B / norms_b[..., None])
    right = (norm_values(norm, A - B) - np.abs(norms_a - norms_b)) / norms_b
    return left - right


def sample_nonzero_pairs(norm: NormSpec, count: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded uniform vector pairs from [-3, 3]^d with norms >= 0.05.

    The floor keeps the gap's division by ||b|| from amplifying roundoff past
    the suite tolerance; it excludes a vanishing corner of the sample space.
    Raises ValueError when more than _MAX_EMPTY_CHUNKS chunks in a row keep no
    draw: the norm's unit ball is then too large for the box.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = np.random.default_rng(seed)
    rows = [np.empty((0, norm.dim))]
    have = empty = 0
    while have < 2 * count:
        draw = rng.uniform(-_PAIR_BOX, _PAIR_BOX, size=(_CHUNK, norm.dim))
        keep = draw[norm_values(norm, draw) >= _PAIR_MIN_NORM]
        rows.append(keep)
        have += len(keep)
        empty = 0 if len(keep) else empty + 1
        if empty > _MAX_EMPTY_CHUNKS:
            raise ValueError(
                f"cannot sample vectors of norm >= {_PAIR_MIN_NORM} under {norm.label()}: "
                f"{empty} chunks of draws from [-{_PAIR_BOX}, {_PAIR_BOX}]^{norm.dim} in a row kept none"
            )
    flat = np.concatenate(rows)[: 2 * count]
    return flat[:count], flat[count:]


@dataclass(frozen=True, eq=False)
class SatelliteConfig:
    """Two balls around the unit ball, in the frame where the reference ball is B(o, 1)."""

    center1: np.ndarray
    radius1: float
    center2: np.ndarray
    radius2: float

    def __post_init__(self):
        for field in ("center1", "center2"):
            arr = np.asarray(getattr(self, field), dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"{field} must be a flat coordinate vector")
            if not all(map(math.isfinite, arr.tolist())):
                raise ValueError(f"{field} has a non-finite coordinate: {arr.tolist()}")
            arr.setflags(write=False)
            object.__setattr__(self, field, arr)
        if self.center1.shape != self.center2.shape:
            raise ValueError("centers have mismatched dimensions")
        for field in ("radius1", "radius2"):
            value = float(getattr(self, field))
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{field} must be finite and nonnegative, got {value}")
            object.__setattr__(self, field, value)


def _satellite_test(norm: NormSpec, centers1, radii1, centers2, radii2):
    """The satellite hypotheses on a batch of configs, each clause compared once.

    Returns, per config, 0 when every clause holds or else the 1-based number
    of the first failing one, and a function giving the reason config i fails.
    """
    largest = np.maximum(radii1, radii2)
    gap = norm_values(norm, centers1 - centers2)
    reach = (norm_values(norm, centers1), norm_values(norm, centers2))
    limit = (radii1 + 1.0, radii2 + 1.0)
    failed = [largest < 1.0, gap < largest, reach[0] > limit[0], reach[1] > limit[1]]
    clause = np.select(failed, [1, 2, 3, 4], 0)

    def reason(i: int) -> str:
        if clause[i] == 1:
            return f"larger radius {largest[i]:.17g} is below 1"
        if clause[i] == 2:
            return f"centers at distance {gap[i]:.17g} < larger radius {largest[i]:.17g}"
        side = clause[i] - 3
        return (
            f"{('first', 'second')[side]} ball misses the unit ball "
            f"(center norm {reach[side][i]:.17g} > {limit[side][i]:.17g})"
        )

    return clause, reason


def _stacked(configs: list[SatelliteConfig]) -> tuple[np.ndarray, ...]:
    """The batch arrays of ``configs``: centers 1, radii 1, centers 2, radii 2."""
    fields = ("center1", "radius1", "center2", "radius2")
    return tuple(np.array([getattr(c, field) for c in configs]) for field in fields)


def _checked_separations(norm: NormSpec, centers1, radii1, centers2, radii2, prefix: str) -> np.ndarray:
    """Retracted-center distances of a batch of configs given as arrays; a
    failing config i raises, led by ``prefix.format(i)``."""
    clause, reason = _satellite_test(norm, centers1, radii1, centers2, radii2)
    bad = np.flatnonzero(clause)
    if bad.size:
        raise ValueError(f"{prefix.format(bad[0])}satellite hypotheses violated: {reason(bad[0])}")
    return norm_values(norm, project_ball2_many(norm, centers1) - project_ball2_many(norm, centers2))


def satellite_hypotheses(norm: NormSpec, cfg: SatelliteConfig) -> bool:
    """True iff larger radius >= 1, centers >= that radius apart, both balls meet B(o, 1)."""
    return not _satellite_test(norm, cfg.center1, cfg.radius1, cfg.center2, cfg.radius2)[0]


def satellite_separation(norm: NormSpec, cfg: SatelliteConfig) -> float:
    """Distance between the retracted centers; >= 1 whenever the hypotheses hold."""
    return float(_checked_separations(norm, *_stacked([cfg]), "")[0])


def satellite_separations(norm: NormSpec, configs) -> np.ndarray:
    """satellite_separation over a batch, rejecting the batch on any bad config."""
    configs = list(configs)
    return _checked_separations(norm, *_stacked(configs), "config {}: ") if configs else np.empty(0)


def sample_satellite_configs(norm: NormSpec, count: int, seed: int = 0) -> list[SatelliteConfig]:
    """Rejection-sample hypothesis-satisfying configs, uniformly over the region.

    Radii are uniform in [0.5, 3], centers uniform in [-4, 4]^d; draws
    failing any hypothesis are discarded, so coverage has no bias toward easy
    configurations.  Deterministic for a fixed seed.  Raises ValueError when
    more than _MAX_EMPTY_CHUNKS chunks in a row keep no draw.
    """
    batch = _sampled_satellites(norm, count, seed)
    return [
        SatelliteConfig(center1=c1, radius1=r1, center2=c2, radius2=r2)
        for c1, r1, c2, r2 in zip(batch[0], batch[1].tolist(), batch[2], batch[3].tolist())
    ]


def _sampled_satellites(norm: NormSpec, count: int, seed: int) -> tuple[np.ndarray, ...]:
    """``sample_satellite_configs`` as the arrays of ``_stacked``, from the same draws."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = np.random.default_rng(seed)
    kept = [(np.empty((0, norm.dim)), np.empty(0), np.empty((0, norm.dim)), np.empty(0))]
    have = empty = 0
    while have < count:
        first_centers = rng.uniform(-_SATELLITE_BOX, _SATELLITE_BOX, size=(_CHUNK, norm.dim))
        second_centers = rng.uniform(-_SATELLITE_BOX, _SATELLITE_BOX, size=(_CHUNK, norm.dim))
        first_radii = rng.uniform(*_SATELLITE_RADII, size=_CHUNK)
        second_radii = rng.uniform(*_SATELLITE_RADII, size=_CHUNK)
        clause, _ = _satellite_test(norm, first_centers, first_radii, second_centers, second_radii)
        hits = np.flatnonzero(clause == 0)
        empty = 0 if hits.size else empty + 1
        if empty > _MAX_EMPTY_CHUNKS:
            raise ValueError(
                f"cannot sample satellite configs under {norm.label()}: "
                f"{empty} chunks of draws in a row kept none; the hypothesis region is too thin"
            )
        hits = hits[: count - have]
        kept.append((first_centers[hits], first_radii[hits], second_centers[hits], second_radii[hits]))
        have += len(hits)
    return tuple(np.concatenate(arrays) for arrays in zip(*kept))


@dataclass(frozen=True)
class CountingReport:
    """Outcome of the witness-neighborhood audit; all three legs must hold."""

    center: int
    scale: float
    interior_count: int
    interior_bound: int
    interior_ok: bool
    min_projected_separation: float
    separation_ok: bool
    degree: int
    decomposition_bound: int
    decomposition_ok: bool
    passed: bool


def counting_check(
    points: PointSet,
    radii: RadiusAssignment,
    graph: InfluenceGraph,
    coloring: Coloring,
    center: int,
    norm: NormSpec,
) -> CountingReport:
    """Audit the degree-bound argument at a witness vertex.

    In the frame translated to the center and rescaled by its radius: (a) at
    most k-1 other points may lie strictly inside the unit ball, (b) within
    each color class, neighbors outside the open unit ball must stay >= 1
    apart after radial retraction onto B(o, 2), and (c) the degree may not
    exceed the retracted-neighbor total plus k-1.

    Interior membership is decided on the original distances, so points at
    distance exactly the center radius never misclassify through rescaling
    roundoff.  The center must be one of the two smallest-radius vertices;
    pairs of its neighbors then always leave at least one radius at or above
    the center's, which clause (b)'s separation guarantee relies on.
    """
    m = len(points)
    if not (graph.n == m == len(radii)):
        raise ValueError("points, radii, and graph disagree on the number of vertices")
    if len(coloring.colors) != m:
        raise ValueError("coloring does not cover every vertex")
    if not 0 <= center < m:
        raise ValueError(f"center index {center} out of range")
    witnesses = _witnesses(radii).tolist()
    if center not in witnesses:
        raise ValueError(
            f"center {center} is not a witness vertex; the two smallest radii "
            f"belong to {witnesses[0]} and {witnesses[1]}"
        )
    k = radii.k
    center_radius = float(radii.radii[center])
    if center_radius == 0.0:
        raise ValueError(
            "center has radius 0 (coincident points); the rescaled frame is undefined"
        )

    dvec = norm_values(norm, points.points - points.points[center])
    neighbors = graph.neighbors(center)
    if len(neighbors) and (coloring.colors < 1).any():
        raise ValueError("coloring has nonpositive colors")
    near_colors = coloring.colors[neighbors]
    used = len(set(near_colors.tolist()))
    if used > k:
        raise ValueError(
            f"coloring uses {used} colors on the center's neighbors; at most k={k} allowed"
        )
    near = points.points[neighbors]
    larger = np.maximum.outer(radii.radii[neighbors], radii.radii[neighbors])
    closer = pairwise_distances(norm, near) < larger
    clash = np.triu((near_colors[:, None] == near_colors[None, :]) & closer, k=1)
    if clash.any():
        p, q = neighbors[np.argwhere(clash)[0]].tolist()
        raise ValueError(
            f"coloring is not proper on the auxiliary graph: neighbors {p} and {q} "
            f"share color {coloring.colors[p]} at distance below the larger radius"
        )

    inside = (dvec < center_radius) & (np.arange(m) != center)
    interior_count = int(inside.sum())
    interior_ok = interior_count <= k - 1

    outer = neighbors[dvec[neighbors] >= center_radius]
    retracted = project_ball2_many(
        norm, (points.points[outer] - points.points[center]) / center_radius
    )
    a, b = np.triu_indices(len(outer), k=1)
    same = coloring.colors[outer[a]] == coloring.colors[outer[b]]
    seps = norm_values(norm, retracted[a[same]] - retracted[b[same]])
    min_separation = float(seps.min(initial=np.inf))
    separation_ok = min_separation >= 1.0 - SEPARATION_SLACK

    degree = len(neighbors)
    decomposition_bound = len(outer) + (k - 1)
    decomposition_ok = degree <= decomposition_bound

    return CountingReport(
        center=center,
        scale=center_radius,
        interior_count=interior_count,
        interior_bound=k - 1,
        interior_ok=interior_ok,
        min_projected_separation=min_separation,
        separation_ok=separation_ok,
        degree=degree,
        decomposition_bound=decomposition_bound,
        decomposition_ok=decomposition_ok,
        passed=interior_ok and separation_ok and decomposition_ok,
    )
