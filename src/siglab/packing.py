"""Lower-bound search for the norm's packing constant, plus the universal 5^d cap.

The packing constant of a d-dimensional norm is the largest number of points in
the closed ball of radius 2 that are pairwise at distance >= 1 and include the
center.  Exact values are out of scope; this module certifies lower bounds by
greedy insertion and exposes the volume-argument upper bound 5^d.

The candidate stream of each restart starts with a deterministic pass over the
integer lattice points of the ball (sorted by norm, then lexicographically) and
continues with points sampled uniformly from the ball by rejection from its
bounding box.  The lattice pass makes tight configurations reachable that have
zero slack and are therefore missed by random sampling with probability one:
the 5-point grid on the line, the 25-point grid for the planar max norm, and
the 13 integer points of the Euclidean disk of radius 2.

Candidates are inserted one chunk at a time.  Almost all of them are
rejected, and most by the first points accepted, so a chunk is tested against
the accepted points in slabs of doubling size (8, 16, 32, ... in insertion
order), and only the rows still >= 1 from every point seen so far go on to
the next slab.  A row fits all earlier points exactly when it fits each slab,
so the rows kept, and hence every accepted point, are those of a full
chunk x accepted test.  The rows left are then inserted in order, in blocks
resolved from one distance matrix each, with the decisions of a row-by-row
loop.

The lattice pass is the same in every restart, so it runs once, and often
no sample can be inserted after it.  A conservative certificate
(``_saturated``) proves this on a dyadic grid of cells over the box
[-h, h]^d the sampler draws from.  Each level first drops the cells where a
lower bound of the norm exceeds 2 (1 + 1e-9), so the sampler keeps none of
their points.  It then drops a cell when its farthest corner from one
accepted point, its owner, is within 1 - 1e-9 of it: the norm of the
difference is convex in the sample, so it is largest at a corner, and the
corner with the larger |x_c| on every axis is the largest (the norm is
monotone in each |x_c|; for a polytope the same holds per functional with
the larger and the smaller product on every axis).  The owner is first the
point the parent cell was tested against, and only a cell it fails gets the
point nearest its centre; any accepted point that covers a cell proves that
no sample in it fits, so trying the parent's point first can only drop more
cells.  Its proof obligations: every sample lies in the box (|u| <= 1 in
u * h); the cells cover the box with no float gaps; the computed ceiling is
at least the computed norm at every corner (equal bit for bit for p in {1,
2, inf} and polytopes, where every rounding step is monotone; within a few
ulps of the exact maximum for other p); and the margin exceeds the rounding
of a computed norm, so a covered sample's computed distance is below 1 and
the insert rejects it.  When no cell is left, every restart would return the
lattice packing, so the search returns it without sampling; otherwise it
runs the restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import POLYTOPE, NormSpec, _sum, ball_box_halfwidths, lp_norm, norm_values, pairwise_distances

__all__ = [
    "PackingConfig",
    "PackingValidity",
    "PackingBounds",
    "packing_upper_bound",
    "validate_packing",
    "greedy_pack",
    "packing_bounds",
    "euclidean_19_point_config",
]

BALL_RADIUS = 2.0
MIN_SEPARATION = 1.0
VALIDATION_TOL = 1e-12

# lattice pass is skipped when the bounding box holds more integer points than this
_LATTICE_CAP = 300_000
_SAMPLE_CHUNK = 4096
# the sampler gives up after this many chunks in a row without a point in the ball
_MAX_EMPTY_CHUNKS = 1000
# points in the first slab the chunk rows are tested against; later slabs double
_FIRST_SLAB = 8
# the most rows resolved against each other in one block of the in-order insert
_MAX_BLOCK = 64
# the saturation certificate: slack kept on every test, cells per batch, the
# most cell corners one level may hold, and the deepest level
_MARGIN = 1e-9
_CELL_ROWS = 256
_CORNER_CAP = 32_768
_CELL_LEVELS = 12


def packing_upper_bound(dim: int) -> int:
    """Universal cap 5^dim on the packing constant of any dim-dimensional norm."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return 5**dim


@dataclass(frozen=True, eq=False)
class PackingConfig:
    """Candidate packing witness: points in B(o, 2), pairwise >= 1 apart, origin included."""

    norm: NormSpec
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.norm.dim:
            raise ValueError(f"points must be an (n, {self.norm.dim}) array, got shape {pts.shape}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class PackingValidity:
    ok: bool
    violations: tuple[str, ...]


def validate_packing(cfg: PackingConfig) -> PackingValidity:
    """Check containment, pairwise separation, and origin membership (report-style),
    each up to VALIDATION_TOL."""
    problems: list[str] = []
    pts = cfg.points
    norms = norm_values(cfg.norm, pts)
    outside = np.flatnonzero(norms > BALL_RADIUS + VALIDATION_TOL)
    for i in outside:
        problems.append(f"point {i} has norm {norms[i]:.17g} > {BALL_RADIUS}")
    dists = pairwise_distances(cfg.norm, pts)
    iu, ju = np.triu_indices(len(pts), k=1)
    close = dists[iu, ju] < MIN_SEPARATION - VALIDATION_TOL
    for a, b in zip(iu[close].tolist(), ju[close].tolist()):
        problems.append(f"points {a} and {b} are at distance {dists[a, b]:.17g} < {MIN_SEPARATION}")
    if not np.any(norms <= VALIDATION_TOL):
        problems.append("origin absent")
    return PackingValidity(not problems, tuple(problems))


def _lattice_candidates(norm: NormSpec) -> np.ndarray:
    """Integer points of B(o, 2) in (norm value, lexicographic) order; empty if too many."""
    half = np.floor(ball_box_halfwidths(norm, BALL_RADIUS)).astype(np.int64)
    count = 1
    for h in half:
        count *= 2 * int(h) + 1
        if count > _LATTICE_CAP:
            return np.empty((0, norm.dim))
    grid = (np.indices(2 * half + 1).reshape(norm.dim, -1).T - half).astype(np.float64)
    values = norm_values(norm, grid)
    keep = values <= BALL_RADIUS
    grid, values = grid[keep], values[keep]
    order = np.lexsort(tuple(grid[:, c] for c in reversed(range(norm.dim))) + (values,))
    return grid[order]


def _ball_sampler(norm: NormSpec, rng: np.random.Generator):
    """Yield fixed-size chunks of points uniform in B(o, 2).

    Chunks are cut from a stream whose content depends only on the rng state,
    never on how much the caller consumes, so a larger candidate budget extends
    a smaller one prefix-exactly.  Raises ValueError once _MAX_EMPTY_CHUNKS
    chunks in a row miss the ball.
    """
    half = ball_box_halfwidths(norm, BALL_RADIUS)
    empty = 0
    while empty < _MAX_EMPTY_CHUNKS:
        box = rng.uniform(-1.0, 1.0, size=(_SAMPLE_CHUNK, norm.dim)) * half
        inside = box[norm_values(norm, box) <= BALL_RADIUS]
        if len(inside):
            yield inside
        empty = 0 if len(inside) else empty + 1
    raise ValueError(f"cannot sample the {norm.label()} ball in dimension {norm.dim}: box draws keep missing it")


def _insert_chunk(norm: NormSpec, accepted: list[np.ndarray], chunk: np.ndarray):
    """Greedily insert chunk rows (in order) that stay >= 1 from all accepted points.

    The rows are first tested against the points accepted before the chunk, in
    slabs of _FIRST_SLAB, 2 * _FIRST_SLAB, ... points in insertion order, and
    each slab sees only the rows >= 1 from every point of the slabs before it.
    "Fits every earlier point" is the same conjunction taken slab by slab as at
    once, and a distance has the same bits in any batch, so the rows left are
    those of a full chunk x accepted test, in the same order.  They are then
    taken in blocks, with one distance matrix from the block's rows to every
    row left: the block is resolved in order (a row is accepted unless an
    accepted row before it in the block lies within 1), and a row after the
    block stays only if it fits all of the block's accepted rows.  Those are
    the decisions of the row-by-row loop, and a negated difference has the
    same norm bits, so the orientation does not matter.  Blocks start at one
    row in each chunk and double while all their rows are accepted, up to
    _MAX_BLOCK rows: lattice rows pairwise >= 1 apart go in a few blocks, and
    the 0-2 rows most sample chunks keep after the slabs take one or two.
    """
    earlier = np.array(accepted)
    left = chunk
    start, size = 0, _FIRST_SLAB
    while start < len(earlier) and len(left):
        slab = earlier[start : start + size]
        # slab first puts the long side (the rows) on numpy's inner axis; the
        # norm is even, so the bits are those of the left - slab differences
        left = left[(pairwise_distances(norm, slab, left) >= MIN_SEPARATION).all(axis=0)]
        start, size = start + size, 2 * size
    size = 1
    while len(left):
        fits = pairwise_distances(norm, left[:size], left) >= MIN_SEPARATION
        block = len(fits)
        keep = np.ones(block, dtype=bool)
        # rows that clash with another row of the block (each clashes with
        # itself), in order: a kept row drops the later rows it clashes with
        for row in np.flatnonzero(fits[:, :block].sum(axis=1) < block - 1):
            if keep[row]:
                keep[row + 1 : block] &= fits[row, row + 1 : block]
        accepted.extend(left[:block][keep])
        left = left[block:][fits[keep, block:].all(axis=0)]
        size = min(2 * size, _MAX_BLOCK) if keep.all() else 1


def _lattice_pass(norm: NormSpec, lattice: np.ndarray) -> list[np.ndarray]:
    """The origin, then the lattice candidates inserted greedily in order."""
    accepted: list[np.ndarray] = [np.zeros(norm.dim)]
    for start in range(0, len(lattice), _SAMPLE_CHUNK):
        _insert_chunk(norm, accepted, lattice[start : start + _SAMPLE_CHUNK])
    return accepted


def _saturated(norm: NormSpec, accepted: list[np.ndarray]) -> bool:
    """True only if no sample can be inserted after ``accepted`` (the
    certificate of the module docstring).

    Cell i of level t spans (-1 + 2 i / 2^t) h to (-1 + 2 (i + 1) / 2^t) h
    per axis, h from ball_box_halfwidths: the factors are exact, so cells that
    meet share their computed faces.  Each level drops the cells outside the
    ball first.  Every other cell is tested at its farthest corner against its
    owner, the accepted point its parent was tested against (the origin for
    the first cell); a cell its owner does not cover gets the accepted point
    nearest its centre, searched in batches of _CELL_ROWS, as its new owner
    and is tested again.  The cells still open are split, and their children
    inherit the owner.  False once a level holds more than _CORNER_CAP
    corners or after _CELL_LEVELS levels.
    """
    d, pts = norm.dim, np.array(accepted)
    if 1 << d > _CORNER_CAP:
        return False  # the first cell alone has too many corners
    half = ball_box_halfwidths(norm, BALL_RADIUS)
    if norm.kind == POLYTOPE:
        # the rounding of <a, y> over the box must stay far below the margin
        if 8 * (d + 1) * np.finfo(float).eps * (np.abs(norm.functionals) @ (2 * half)).max() > _MARGIN:
            return False
    corners = np.indices((2,) * d).reshape(d, -1).T
    cells = np.zeros((1, d), dtype=np.int64)
    owner = np.zeros(1, dtype=np.int64)  # accepted[0] is the origin
    for level in range(_CELL_LEVELS):
        if len(cells) << d > _CORNER_CAP:
            return False
        lo = (cells * 2.0 ** (1 - level) - 1.0) * half
        hi = ((cells + 1) * 2.0 ** (1 - level) - 1.0) * half
        inside = _norm_floor(norm, lo, hi) <= BALL_RADIUS * (1.0 + _MARGIN)
        cells, owner, lo, hi = cells[inside], owner[inside], lo[inside], hi[inside]
        left = ~_covers(norm, pts[owner], lo, hi)
        rows = np.flatnonzero(left)
        inherited = owner[rows]
        for start in range(0, len(rows), _CELL_ROWS):
            batch = rows[start : start + _CELL_ROWS]
            owner[batch] = pairwise_distances(norm, (lo[batch] + hi[batch]) / 2, pts).argmin(axis=1)
        # a cell whose nearest point is the owner it failed stays open
        moved = rows[owner[rows] != inherited]
        if len(moved):
            left[moved] = ~_covers(norm, pts[owner[moved]], lo[moved], hi[moved])
        cells = ((2 * cells[left])[:, None] + corners).reshape(-1, d)
        owner = np.repeat(owner[left], 1 << d)
        if not len(cells):
            return True
    return False


def _covers(norm: NormSpec, point: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each point is within 1 - _MARGIN of all of its box [lo, hi]."""
    return _norm_ceiling(norm, lo - point, hi - point) <= 1.0 - _MARGIN


def _norm_floor(norm: NormSpec, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A lower bound of the norm over each box [lo, hi]."""
    if norm.kind != POLYTOPE:
        # lp and weighted lp grow with every |x_c|: least at the origin clamped in
        return norm_values(norm, np.minimum(np.maximum(lo, 0.0), hi))
    least, most = _responses(norm, lo, hi)
    return np.maximum(least, -most).max(axis=0)


def _norm_ceiling(norm: NormSpec, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The largest computed norm over the corners of each box [low, high].

    For lp and weighted lp it is the norm of max(|low_c|, |high_c|) per axis,
    one corner's own terms up to sign, which the norm drops.  For a polytope
    it is, per functional, the larger of the sum of the per-axis larger
    products a_c x_c and minus the sum of the smaller ones, in the kernel's
    order, then the max over functionals.  For p in {1, 2, inf} and for
    polytopes every step of the kernel (|.|, weight, square, sum, max, sqrt)
    is correctly rounded and monotone in each term, so this equals the
    largest corner value bit for bit.  For other p, np.power need not be
    monotone, but the exact norm over a box is largest at that corner and the
    computed one is within a few ulps of it, far below the certificate's
    _MARGIN.
    """
    if norm.kind != POLYTOPE:
        return norm_values(norm, np.maximum(np.abs(low), np.abs(high)))
    least, most = _responses(norm, low, high)
    return np.maximum(most, -least).max(axis=0)


def _responses(norm: NormSpec, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least and the largest sum of a_c x_c over the corners of each box
    [lo, hi], per functional a, summed in the kernel's order: two (functionals,
    boxes) arrays, boxes along numpy's inner axis."""
    least, most = [], []
    for a, low, high in zip(norm.functionals.T, lo.T, hi.T):
        x, y = a[:, None] * low, a[:, None] * high
        least.append(np.minimum(x, y))
        most.append(np.maximum(x, y))
    return _sum(least, norm.dim), _sum(most, norm.dim)


def _sampled_restart(norm: NormSpec, seed: int, restart: int, candidates: int, first: list[np.ndarray]) -> np.ndarray:
    """The lattice pass ``first`` (left as it is), extended by ``candidates``
    samples drawn from default_rng([seed, restart])."""
    rng = np.random.default_rng([seed, restart])
    accepted = list(first)
    remaining = candidates
    sampler = _ball_sampler(norm, rng)
    while remaining > 0:
        chunk = next(sampler)[:remaining]
        remaining -= len(chunk)
        _insert_chunk(norm, accepted, chunk)
    return np.array(accepted)


def greedy_pack(
    norm: NormSpec,
    seed: int = 0,
    restarts: int = 1,
    candidates: int = 10_000,
) -> PackingConfig:
    """Best packing found over ``restarts`` independent greedy runs.

    Each restart starts from the origin, walks the lattice candidates, then
    consumes ``candidates`` uniform samples, inserting every point that keeps
    all pairwise distances >= 1.  Restart r draws from default_rng([seed, r]),
    so results are reproducible and monotone in both budget parameters (the
    best over restarts is kept; ties go to the earliest restart).  The lattice
    pass is the same in every restart, so it runs once.  When it leaves a
    packing that ``_saturated`` proves no sample can extend, every restart
    would return that packing, and it is returned without sampling.
    """
    if restarts < 1 or candidates < 1:
        raise ValueError("restarts and candidates must be positive")
    first = _lattice_pass(norm, _lattice_candidates(norm))
    if _saturated(norm, first):
        return PackingConfig(norm=norm, points=np.array(first))
    runs = [_sampled_restart(norm, seed, r, candidates, first) for r in range(restarts)]
    best = max(runs, key=len)  # max() keeps the first of equally-sized runs
    return PackingConfig(norm=norm, points=best)


@dataclass(frozen=True)
class PackingBounds:
    lower: int
    upper: int
    witness: PackingConfig


def packing_bounds(
    norm: NormSpec,
    seed: int = 0,
    restarts: int = 20,
    candidates: int = 100_000,
) -> PackingBounds:
    """Certified lower bound (greedy witness) and the 5^d upper bound."""
    witness = greedy_pack(norm, seed=seed, restarts=restarts, candidates=candidates)
    return PackingBounds(lower=len(witness), upper=packing_upper_bound(norm.dim), witness=witness)


def euclidean_19_point_config() -> PackingConfig:
    """Origin + hexagon at radius 1 + twelve-gon at radius 2, in the Euclidean plane.

    The two rings share their angle grid so that radially aligned pairs sit at
    distance exactly 1 up to one ulp, inside the validation tolerance.
    """
    angles = [2.0 * math.pi * i / 12.0 for i in range(12)]
    ring = [(2.0 * math.cos(a), 2.0 * math.sin(a)) for a in angles]
    hexagon = [(math.cos(angles[i]), math.sin(angles[i])) for i in range(0, 12, 2)]
    points = [(0.0, 0.0)] + hexagon + ring
    return PackingConfig(norm=lp_norm(2.0, 2), points=np.array(points))
