"""Norms on R^d: lp, diagonally weighted lp, and symmetric-polytope gauges.

Everything downstream (influence graphs, projections, packing search) is generic
over a NormSpec.  All evaluation funnels through :func:`norm_values`, which
reduces over the last axis only; identical inputs therefore produce bit-identical
values no matter which caller asked, and threshold comparisons against stored
radii stay exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "NormSpec",
    "NormValidity",
    "lp_norm",
    "weighted_lp_norm",
    "polytope_norm",
    "validate_norm_spec",
    "norm_values",
    "evaluate_norm",
    "unit_vector",
    "pairwise_distances",
    "parse_norm",
    "ball_box_halfwidths",
]

LP = "lp"
WEIGHTED_LP = "wlp"
POLYTOPE = "poly"


def _frozen_array(values, shape_hint: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != len(shape_hint):
        raise ValueError(f"expected a {len(shape_hint)}-d array for {shape_hint}, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class NormSpec:
    """A norm on R^dim.

    kind "lp":   ||x|| = (sum_i |x_i|^p)^(1/p), with p in [1, inf]; p = math.inf
                 is stored explicitly and evaluated as max_i |x_i| (never as a
                 large finite exponent).
    kind "wlp":  the lp norm after scaling coordinate i by the positive weight
                 w_i, i.e. (sum_i (w_i |x_i|)^p)^(1/p); p = inf gives max w_i |x_i|.
    kind "poly": ||x|| = max_j |<a_j, x>| over the rows a_j of ``functionals``;
                 the unit ball is the symmetric polytope cut out by the rows.

    Construct through :func:`lp_norm`, :func:`weighted_lp_norm`, or
    :func:`polytope_norm`, which validate eagerly; direct construction is
    allowed (e.g. to exercise :func:`validate_norm_spec`) but unchecked.
    """

    kind: str
    dim: int
    p: float = 2.0
    weights: np.ndarray | None = None
    functionals: np.ndarray | None = None

    def label(self) -> str:
        """Short human-readable tag used in reports."""
        if self.kind == LP:
            if math.isinf(self.p):
                return "linf"
            if self.p == int(self.p):
                return f"l{int(self.p)}"
            return f"lp:{self.p}"
        if self.kind == WEIGHTED_LP:
            w = ",".join(repr(float(x)) for x in self.weights)
            p = "inf" if math.isinf(self.p) else repr(float(self.p))
            return f"wlp:{p}:{w}"
        return f"poly[{len(self.functionals)}x{self.dim}]"


@dataclass(frozen=True)
class NormValidity:
    ok: bool
    violations: tuple[str, ...]


def validate_norm_spec(spec: NormSpec) -> NormValidity:
    """Report-style validity check; never raises."""
    problems: list[str] = []
    if spec.kind not in (LP, WEIGHTED_LP, POLYTOPE):
        problems.append(f"unknown norm kind {spec.kind!r}")
        return NormValidity(False, tuple(problems))
    if not isinstance(spec.dim, int) or spec.dim < 1:
        problems.append(f"dimension must be a positive integer, got {spec.dim!r}")
    if spec.kind in (LP, WEIGHTED_LP):
        if math.isnan(spec.p) or spec.p < 1.0:
            problems.append(f"exponent < 1 (p={spec.p!r} breaks the triangle inequality)")
    if spec.kind == WEIGHTED_LP:
        if spec.weights is None or spec.weights.shape != (spec.dim,):
            problems.append("weights must be a length-dim vector")
        elif not np.isfinite(spec.weights).all():
            i = int(np.flatnonzero(~np.isfinite(spec.weights))[0])
            problems.append(f"non-finite weight {float(spec.weights[i])!r} at position {i}")
        elif not np.all(spec.weights > 0.0):
            problems.append("nonpositive weight")
    if spec.kind == POLYTOPE:
        A = spec.functionals
        if A is None or A.ndim != 2 or A.shape[1] != spec.dim:
            problems.append("functionals must be an (f, dim) matrix")
        elif not np.isfinite(A).all():
            j = int(np.flatnonzero(~np.isfinite(A).all(axis=1))[0])
            problems.append(f"functional {j} has a non-finite entry: {A[j].tolist()}")
        else:
            if A.shape[0] < spec.dim:
                problems.append(f"fewer functionals ({A.shape[0]}) than dimension ({spec.dim})")
            if np.linalg.matrix_rank(A) < spec.dim:
                problems.append("functionals do not span the space")
    return NormValidity(not problems, tuple(problems))


def _checked(spec: NormSpec) -> NormSpec:
    validity = validate_norm_spec(spec)
    if not validity.ok:
        raise ValueError("invalid norm: " + "; ".join(validity.violations))
    return spec


def lp_norm(p: float, dim: int) -> NormSpec:
    """The lp norm on R^dim; pass math.inf for the max norm."""
    return _checked(NormSpec(kind=LP, dim=dim, p=float(p)))


def weighted_lp_norm(p: float, weights) -> NormSpec:
    """lp norm of the coordinatewise-scaled vector (w_1 x_1, ..., w_d x_d)."""
    w = _frozen_array(weights, "w")
    return _checked(NormSpec(kind=WEIGHTED_LP, dim=len(w), p=float(p), weights=w))


def polytope_norm(functionals) -> NormSpec:
    """max_j |<a_j, x>| over the given functionals (rows)."""
    A = _frozen_array(functionals, "fd")
    return _checked(NormSpec(kind=POLYTOPE, dim=A.shape[1], functionals=A))


def norm_values(spec: NormSpec, X) -> np.ndarray:
    """Norm of every vector along the last axis of X (shape (..., dim) -> (...)).

    This is the single evaluation path for the whole package; it is pure,
    deterministic, and free of BLAS (reductions over the trailing axis only).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != spec.dim:
        raise ValueError(f"dimension mismatch: vector has {X.shape[-1]} coordinates, norm expects {spec.dim}")
    if spec.kind == POLYTOPE:
        # stack per-functional responses, then max
        responses = [np.abs((X * row).sum(axis=-1)) for row in spec.functionals]
        return np.stack(responses, axis=-1).max(axis=-1)
    # weighted lp is lp of the coordinatewise-scaled magnitudes
    A = np.abs(X) if spec.kind == LP else np.abs(X) * spec.weights
    p = spec.p
    if math.isinf(p):
        return A.max(axis=-1)
    if p == 1.0:
        return A.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((A * A).sum(axis=-1))
    # np.power, not **: the sum of a lone vector is a numpy scalar, whose **
    # rounds differently from the array loop a batch row goes through
    return np.power((A**p).sum(axis=-1), 1.0 / p)


def evaluate_norm(spec: NormSpec, x) -> float:
    """Norm of a single vector."""
    return float(norm_values(spec, np.asarray(x, dtype=np.float64)))


def unit_vector(spec: NormSpec, x) -> np.ndarray:
    """x scaled to norm 1; raises on the zero vector rather than emitting NaN."""
    x = np.asarray(x, dtype=np.float64)
    n = evaluate_norm(spec, x)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return x / n


def pairwise_distances(spec: NormSpec, points: np.ndarray) -> np.ndarray:
    """Full (m, m) matrix of distances ||p_i - p_j|| under spec."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected an (m, dim) array of points, got shape {pts.shape}")
    diffs = pts[:, None, :] - pts[None, :, :]
    return norm_values(spec, diffs)


def ball_box_halfwidths(spec: NormSpec, radius: float) -> np.ndarray:
    """Per-axis halfwidths of a box guaranteed to contain the ball B(o, radius).

    Exact for lp and weighted-lp; for polytope norms a singular-value bound is
    used (||Ax||_inf <= r implies ||x||_2 <= sqrt(f) r / sigma_min(A)), which is
    loose but always sufficient for rejection sampling.
    """
    if spec.kind == LP:
        return np.full(spec.dim, radius)
    if spec.kind == WEIGHTED_LP:
        return radius / spec.weights
    smin = np.linalg.svd(spec.functionals, compute_uv=False)[-1]
    h = math.sqrt(spec.functionals.shape[0]) * radius / smin
    return np.full(spec.dim, h)


def parse_norm(text: str, dim: int) -> NormSpec:
    """Parse a CLI norm string: l1 | l2 | linf | lp:<p> | wlp:<p>:<w1,...,wd> | poly:<path>.

    The poly file is JSON {"functionals": [[a11, ..., a1d], ...]}.  The result is
    validated against ``dim``.
    """
    text = text.strip()
    if text == "l1":
        return lp_norm(1.0, dim)
    if text == "l2":
        return lp_norm(2.0, dim)
    if text == "linf":
        return lp_norm(math.inf, dim)
    if text.startswith("lp:"):
        p = _parse_exponent(text[3:])
        return lp_norm(p, dim)
    if text.startswith("wlp:"):
        rest = text[4:]
        if ":" not in rest:
            raise ValueError(f"malformed weighted-norm spec {text!r} (expected wlp:<p>:<w1,...,wd>)")
        p_part, w_part = rest.split(":", 1)
        p = _parse_exponent(p_part)
        try:
            weights = [float(w) for w in w_part.split(",")]
        except ValueError as exc:
            raise ValueError(f"malformed weight list in {text!r}") from exc
        if len(weights) != dim:
            raise ValueError(f"weight count {len(weights)} does not match dimension {dim}")
        return weighted_lp_norm(p, weights)
    if text.startswith("poly:"):
        path = Path(text[5:])
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ValueError(f"cannot read polytope norm file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"polytope norm file {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "functionals" not in payload:
            raise ValueError(f"polytope norm file {path} must be JSON with a 'functionals' key")
        spec = polytope_norm(payload["functionals"])
        if spec.dim != dim:
            raise ValueError(f"polytope functionals have {spec.dim} columns, expected {dim}")
        return spec
    raise ValueError(f"unrecognized norm spec {text!r}")


def _parse_exponent(text: str) -> float:
    try:
        p = float(text)
    except ValueError as exc:
        raise ValueError(f"bad norm exponent {text!r}") from exc
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"norm exponent must be >= 1, got {text!r}")
    return p
