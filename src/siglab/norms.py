"""Norms on R^d: lp, diagonally weighted lp, and symmetric-polytope gauges.

Everything downstream (influence graphs, projections, packing search) is generic
over a NormSpec.  All evaluation funnels through one private kernel, which
builds each norm from its coordinate columns: each column is transformed
elementwise (abs, weight, square or power, or a functional's product) and the
columns are folded in index order, with no reduction over a trailing axis.
:func:`norm_values` feeds it the columns of a batch of vectors, and
:func:`pairwise_distances` the difference columns of two point sets, one at a
time and transformed in place, so no (m, A, dim) difference array is ever
built.  The bit order is the one numpy gives a sum over the last axis: index
order below 8 coordinates, its 8-way pairwise summation (over the stacked
terms) from 8 on; max does not depend on order.  Identical differences
therefore produce bit-identical values whichever entry point and batch shape
they came through, and threshold comparisons against stored radii stay exact.
Negated differences give the same bits: fl(a - b) = -fl(b - a) in round to
nearest, and each step (|.|, weight, square or power, the signed functional
products and their sums up to the sign of a zero, which |.| drops) maps a negated
column to the same bits.  So ``_cyclic_distances`` evaluates each set's pairs once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
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

    @cached_property
    def _bounding(self) -> NormSpec:
        """This norm, a polytope under |functionals|: its value at the per-axis span bounds the distances."""
        return replace(self, functionals=np.abs(self.functionals)) if self.kind == POLYTOPE else self


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


# numpy sums a trailing axis of fewer than 8 doubles in index order, but from 8
# on with 8-way unrolled pairwise summation; the kernel rounds sums the same way
_PAIRWISE_FROM = 8


def _scaled(Y, scale, p, out=None) -> np.ndarray:
    """|Y * scale|^p elementwise, or Y * scale when p is None (scale None: 1)."""
    if p is None:
        return np.multiply(Y, scale, out=out)
    if p == 2.0:
        # y * y and |y| * |y| are the same double, and scale > 0
        if scale is not None:
            Y = out = np.multiply(Y, scale, out=out)
        return np.multiply(Y, Y, out=out)
    A = np.abs(Y, out=out)
    if scale is not None:
        np.multiply(A, scale, out=A)
    if p != 1.0 and not math.isinf(p):
        np.power(A, p, out=A)
    return A


def _fold(ufunc, terms, inplace: bool = False) -> np.ndarray:
    """ufunc folded over the arrays of ``terms`` in index order, into the first
    term when ``inplace``."""
    terms = iter(terms)
    acc = next(terms)
    for term in terms:
        acc = ufunc(acc, term, out=acc) if inplace else ufunc(acc, term)
        del term  # let it go before the next term is made
    return acc


def _sum(terms, count: int, inplace: bool = False) -> np.ndarray:
    """The sum of ``count`` arrays, rounded as np.stack(terms, -1).sum(-1)."""
    if count >= _PAIRWISE_FROM:
        return np.stack(list(terms), axis=-1).sum(axis=-1)
    return _fold(np.add, terms, inplace)


def _kernel(spec: NormSpec, terms, inplace: bool = False) -> np.ndarray:
    """The norm of every vector, built from its coordinate columns x_c.

    ``terms(scale, p)`` yields _scaled(x_c, scale[c], p) for c = 0, ..., dim - 1.
    lp and weighted lp fold these terms with + (or max) and take the root; a
    polytope sums, per functional, the signed products x_c * a_c and folds the
    absolute responses with max.  The folds allocate by default: numpy 2.4 is
    about twice as slow in place on the one-element columns of a lone vector.
    With ``inplace``, which ``_differences`` always asks for (its evaluations
    are seldom one entry), they write into their first term.  No array is
    reduced over a trailing axis.
    """
    d = spec.dim
    if spec.kind == POLYTOPE:
        return _fold(np.maximum, (np.abs(_sum(terms(row, None), d, inplace)) for row in spec.functionals), inplace)
    p = spec.p
    columns = terms(spec.weights if spec.kind == WEIGHTED_LP else None, p)
    if math.isinf(p):
        return _fold(np.maximum, columns, inplace)
    total = _sum(columns, d, inplace)
    out = (total,) if inplace else ()
    if p == 2.0:
        return np.sqrt(total, *out)
    if p != 1.0:
        return np.power(total, 1.0 / p, *out)
    return total


def norm_values(spec: NormSpec, X) -> np.ndarray:
    """Norm of every vector along the last axis of X (shape (..., dim) -> (...)).

    A lone vector (1-D X) is evaluated as a one-row batch, so it gets the bits of
    that row in any batch.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 0 or X.shape[-1] != spec.dim:
        raise ValueError(f"dimension mismatch: vector has shape {X.shape}, norm expects {spec.dim} coordinates")
    rows = X.reshape(-1, spec.dim)
    # iterating over T.T yields the columns of T
    out = _kernel(spec, lambda scale, p: _scaled(rows, scale, p).T)
    return out[0] if X.ndim == 1 else out.reshape(X.shape[:-1])


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


def pairwise_distances(spec: NormSpec, points: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
    """(m, A) matrix of distances ||p_i - q_j|| between the rows of ``points`` and
    of ``others`` (default: ``points`` again), each difference taken as p_i - q_j.

    The differences go to the kernel one coordinate column at a time, so no
    (m, A, dim) array is built; every entry has the bits of ``norm_values(spec,
    p_i - q_j)``.
    """
    P = np.asarray(points, dtype=np.float64)
    Q = P if others is None else np.asarray(others, dtype=np.float64)
    for pts in (P, Q):
        if pts.ndim != 2 or pts.shape[1] != spec.dim:
            raise ValueError(f"expected an (m, {spec.dim}) array of points, got shape {pts.shape}")
    return _differences(spec, P.T[:, :, None], Q.T[:, None])


def _cyclic_distances(spec: NormSpec, points: np.ndarray, rows: slice, work=None) -> np.ndarray:
    """Rows ``rows`` of the cyclic half of ``pairwise_distances(spec, points)``:
    entry (i, s - 1) is ||p_i - p_{(i + s) mod m}||, s = 1, ..., m // 2, with the
    bits of both mirrored entries; of each set for sets (L, m, dim).  The windows
    are strided views of the doubled coordinate columns, (dim, ..., 2m) in C order."""
    m = points.shape[-2]
    cols = np.concatenate((points, points), axis=-2).transpose(-1, *range(points.ndim - 1)).copy()
    ahead = np.ndarray((*cols.shape[:-1], m, m // 2), buffer=cols, offset=8, strides=(*cols.strides[:-1], 8, 8))
    return _differences(spec, cols[..., :m, None][..., rows, :], ahead[..., rows, :], work)


def _differences(spec: NormSpec, here: np.ndarray, there: np.ndarray, work=None) -> np.ndarray:
    """The kernel on the difference columns here[c] - there[c], made one at a time.

    ``work``, two flat float64 buffers of at least the result's size, takes the
    differences, folds and root in place instead of new arrays: column 0 and
    the folds into the first, the later columns into the second.  An lp result
    is then a view of the first buffer.  A polytope makes its d difference
    columns once when ``work`` bounds the evaluation (else one at a time per
    functional, holding no d columns), and allocates its responses.  From 8
    coordinates on, where the terms are stacked, ``work`` is unused.
    """
    if spec.dim >= _PAIRWISE_FROM:
        work = None
    if work is not None:
        shape = np.broadcast_shapes(here.shape[1:], there.shape[1:])
        work = [buffer[: math.prod(shape)].reshape(shape) for buffer in work]
        if spec.kind == POLYTOPE:
            diffs, out = [np.subtract(*pair) for pair in zip(here, there)], work[:1] + work[1:] * (spec.dim - 1)
            return _kernel(spec, lambda row, p: map(np.multiply, diffs, row, out), True)

    def terms(scale, p):
        for c in range(spec.dim):
            diff = np.subtract(here[c], there[c], *() if work is None else (work[c > 0],))
            yield _scaled(diff, None if scale is None else scale[c], p, out=diff)

    return _kernel(spec, terms, True)


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
        rows = payload["functionals"]
        # a JSON number only: numpy would read true and "1" as 1.0
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(v) in (int, float) for v in row) for row in rows
        ):
            raise ValueError(f"polytope norm file {path}: functionals must be lists of numbers")
        if not rows:
            raise ValueError(f"polytope norm file {path}: functionals is an empty list")
        if not any(rows):
            raise ValueError(f"polytope norm file {path}: functionals have no entries")
        for index, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise ValueError(
                    f"polytope norm file {path}: functional {index} has {len(row)} entries, "
                    f"functional 0 has {len(rows[0])}"
                )
        try:
            spec = polytope_norm(rows)
        except OverflowError as exc:
            raise ValueError(f"polytope norm file {path} holds a number too large for float64") from exc
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
