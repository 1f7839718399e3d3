"""Unit and property tests for the norm engine."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglab.norms import (
    NormSpec,
    _cyclic_distances,
    ball_box_halfwidths,
    evaluate_norm,
    lp_norm,
    norm_values,
    pairwise_distances,
    parse_norm,
    polytope_norm,
    unit_vector,
    validate_norm_spec,
    weighted_lp_norm,
)


def family(name):
    return {
        "l1-d3": lp_norm(1.0, 3),
        "l2-d3": lp_norm(2.0, 3),
        "linf-d3": lp_norm(math.inf, 3),
        "lp2.5-d2": lp_norm(2.5, 2),
        "wlp2-d3": weighted_lp_norm(2.0, (0.5, 1.0, 2.5)),
        "poly-d2": polytope_norm([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]),
    }[name]


FAMILY_NAMES = ["l1-d3", "l2-d3", "linf-d3", "lp2.5-d2", "wlp2-d3", "poly-d2"]


def vectors(dim):
    # snap magnitudes < 1e-100 to zero: squaring them underflows to 0.0 and
    # turns a nonzero vector into a norm-zero one, which is not what the
    # positive-definiteness test is about
    coord = st.floats(-50.0, 50.0, allow_nan=False).map(
        lambda c: 0.0 if abs(c) < 1e-100 else c
    )
    return st.lists(coord, min_size=dim, max_size=dim).map(
        lambda c: np.array(c, dtype=np.float64)
    )


class TestKnownValues:
    def test_euclidean_three_four_five(self):
        assert evaluate_norm(lp_norm(2.0, 2), (3.0, 4.0)) == 5.0

    def test_taxicab(self):
        assert evaluate_norm(lp_norm(1.0, 3), (1.0, -2.0, 3.0)) == 6.0

    def test_max_norm(self):
        assert evaluate_norm(lp_norm(math.inf, 2), (4.0, -4.0)) == 4.0

    def test_cubic_mean(self):
        # 2^3 + 2^3 + 2^3 = 24, 24^(1/3)
        got = evaluate_norm(lp_norm(3.0, 3), (2.0, 2.0, 2.0))
        assert got == pytest.approx(24.0 ** (1.0 / 3.0), rel=1e-15)

    def test_weighted_scales_coordinates(self):
        norm = weighted_lp_norm(1.0, (2.0, 0.5))
        assert evaluate_norm(norm, (1.0, 4.0)) == 4.0

    def test_polytope_with_axis_rows_is_max_norm(self):
        norm = polytope_norm([[1.0, 0.0], [0.0, 1.0]])
        assert evaluate_norm(norm, (3.0, -2.0)) == 3.0
        assert evaluate_norm(norm, (-1.0, 5.0)) == 5.0

    def test_zero_vector(self):
        for name in FAMILY_NAMES:
            norm = family(name)
            assert evaluate_norm(norm, np.zeros(norm.dim)) == 0.0

    def test_batch_matches_scalar_path(self):
        # one evaluation path: a stacked call must agree with per-row calls.
        # Families built from add/mul/sqrt/abs/max agree bit for bit; general
        # exponents go through pow, whose result can differ by one ulp between
        # the vectorized and scalar code paths, hence the relative tolerance.
        rng = np.random.default_rng(7)
        for name in FAMILY_NAMES:
            norm = family(name)
            exact = name != "lp2.5-d2"
            X = rng.uniform(-3.0, 3.0, size=(17, norm.dim))
            batch = norm_values(norm, X)
            assert batch.shape == (17,)
            for i, row in enumerate(X):
                single = evaluate_norm(norm, row)
                if exact:
                    assert batch[i] == single
                else:
                    assert math.isclose(batch[i], single, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "norm",
        [lp_norm(3.0, 3), lp_norm(1.5, 3), weighted_lp_norm(3.0, (0.5, 1.0, 2.5))],
        ids=["lp3", "lp1.5", "wlp3"],
    )
    def test_lone_vector_has_the_bits_of_its_batch_row(self, norm):
        # the root of a 1-d input must take the array pow path, not the
        # numpy-scalar one, so pairwise oracles agree with batched rows exactly
        X = np.random.default_rng(11).uniform(-3.0, 3.0, size=(400, norm.dim))
        batch = norm_values(norm, X)
        for i, row in enumerate(X):
            assert norm_values(norm, row).tobytes() == batch[i].tobytes()
            assert evaluate_norm(norm, row) == batch[i]


class TestValidation:
    def test_valid_specs_pass(self):
        for name in FAMILY_NAMES:
            report = validate_norm_spec(family(name))
            assert report.ok and report.violations == ()

    def test_small_exponent_rejected(self):
        report = validate_norm_spec(NormSpec(kind="lp", dim=2, p=0.5))
        assert not report.ok
        assert any("p=0.5" in v for v in report.violations)
        with pytest.raises(ValueError, match="triangle"):
            lp_norm(0.5, 2)

    def test_nan_exponent_rejected(self):
        assert not validate_norm_spec(NormSpec(kind="lp", dim=2, p=math.nan)).ok

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="nonpositive weight"):
            weighted_lp_norm(2.0, (1.0, 0.0))

    def test_weight_shape_rejected(self):
        report = validate_norm_spec(
            NormSpec(kind="wlp", dim=3, p=2.0, weights=np.ones(2))
        )
        assert any("length-dim" in v for v in report.violations)

    def test_rank_deficient_functionals_rejected(self):
        with pytest.raises(ValueError, match="span"):
            polytope_norm([[1.0, 0.0], [2.0, 0.0]])

    def test_too_few_functionals_rejected(self):
        with pytest.raises(ValueError, match="fewer functionals"):
            polytope_norm([[1.0, 1.0]])

    def test_bad_dimension_rejected(self):
        assert not validate_norm_spec(NormSpec(kind="lp", dim=0, p=2.0)).ok

    def test_unknown_kind_rejected(self):
        report = validate_norm_spec(NormSpec(kind="simplex", dim=2, p=2.0))
        assert report.violations == ("unknown norm kind 'simplex'",)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            evaluate_norm(lp_norm(2.0, 3), (1.0, 2.0))


class TestNormAxioms:
    @pytest.mark.parametrize("name", FAMILY_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_triangle_inequality(self, name, data):
        norm = family(name)
        x = data.draw(vectors(norm.dim))
        y = data.draw(vectors(norm.dim))
        lhs = evaluate_norm(norm, x + y)
        rhs = evaluate_norm(norm, x) + evaluate_norm(norm, y)
        assert lhs <= rhs + 1e-9 * rhs

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_absolute_homogeneity(self, name, data):
        norm = family(name)
        x = data.draw(vectors(norm.dim))
        t = data.draw(st.floats(-20.0, 20.0, allow_nan=False))
        lhs = evaluate_norm(norm, t * x)
        rhs = abs(t) * evaluate_norm(norm, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_symmetry_is_exact(self, name, data):
        # |.| commutes with negation bit for bit, so no tolerance here
        norm = family(name)
        x = data.draw(vectors(norm.dim))
        assert evaluate_norm(norm, -x) == evaluate_norm(norm, x)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_positive_definiteness(self, name, data):
        norm = family(name)
        x = data.draw(vectors(norm.dim))
        value = evaluate_norm(norm, x)
        assert value >= 0.0
        if np.any(x != 0.0):
            assert value > 0.0
        else:
            assert value == 0.0

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_unit_vector_has_norm_one(self, name):
        norm = family(name)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=norm.dim)
            u = unit_vector(norm, x)
            assert evaluate_norm(norm, u) == pytest.approx(1.0, abs=1e-12)

    def test_unit_vector_rejects_zero(self):
        with pytest.raises(ValueError, match="zero vector"):
            unit_vector(lp_norm(2.0, 2), (0.0, 0.0))


class TestGeometryHelpers:
    def test_pairwise_matrix_structure(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2.0, 2.0, size=(12, 3))
        for name in ("l1-d3", "l2-d3", "linf-d3", "wlp2-d3"):
            norm = family(name)
            dmat = pairwise_distances(norm, pts)
            assert dmat.shape == (12, 12)
            assert np.array_equal(dmat, dmat.T)
            assert np.all(np.diag(dmat) == 0.0)
            assert dmat[2, 7] == evaluate_norm(norm, pts[2] - pts[7])

    def test_pairwise_rejects_flat_input(self):
        with pytest.raises(ValueError, match="shape"):
            pairwise_distances(lp_norm(2.0, 2), np.zeros(4))

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_ball_fits_in_box(self, name):
        # every sampled point of B(o, r) must land inside the reported box
        norm = family(name)
        radius = 1.75
        half = ball_box_halfwidths(norm, radius)
        rng = np.random.default_rng(5)
        raw = rng.uniform(-4.0, 4.0, size=(4000, norm.dim))
        inside = raw[norm_values(norm, raw) <= radius]
        assert inside.size
        assert np.all(np.abs(inside) <= half + 1e-12)

    def test_box_is_tight_for_lp(self):
        assert np.array_equal(ball_box_halfwidths(lp_norm(1.0, 3), 2.0), np.full(3, 2.0))
        got = ball_box_halfwidths(weighted_lp_norm(2.0, (0.5, 2.0)), 1.0)
        assert np.array_equal(got, np.array([2.0, 0.5]))


class TestParsing:
    def test_shorthand_names(self):
        assert parse_norm("l1", 3).p == 1.0
        assert parse_norm("l2", 3).p == 2.0
        assert math.isinf(parse_norm("linf", 3).p)

    def test_explicit_exponent(self):
        spec = parse_norm("lp:2.5", 4)
        assert spec.kind == "lp" and spec.p == 2.5 and spec.dim == 4

    def test_weighted_syntax(self):
        spec = parse_norm("wlp:2:1,2,0.5", 3)
        assert spec.kind == "wlp"
        assert np.array_equal(spec.weights, np.array([1.0, 2.0, 0.5]))

    def test_polytope_file(self, tmp_path):
        path = tmp_path / "hex.json"
        path.write_text(json.dumps({"functionals": [[1, 0], [0, 1], [1, 1]]}))
        spec = parse_norm(f"poly:{path}", 2)
        assert spec.kind == "poly" and spec.functionals.shape == (3, 2)

    def test_label_round_trips(self):
        for text in ("l1", "l2", "linf", "lp:2.5", "wlp:2:1,2,0.5"):
            spec = parse_norm(text, 3)
            again = parse_norm(spec.label(), 3)
            assert (again.kind, again.dim, again.p) == (spec.kind, spec.dim, spec.p)
            if spec.weights is not None:
                assert np.array_equal(again.weights, spec.weights)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("lp:0.5", "must be >= 1"),
            ("lp:abc", "bad norm exponent"),
            ("wlp:2", "expected wlp"),
            ("wlp:2:1,x", "weight list"),
            ("wlp:2:1,2", "does not match dimension"),
            ("hamming", "unrecognized"),
        ],
    )
    def test_rejects_malformed_text(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_norm(text, 3)

    def test_polytope_file_errors(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ValueError, match="cannot read"):
            parse_norm(f"poly:{missing}", 2)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_norm(f"poly:{bad}", 2)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"functionals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        with pytest.raises(ValueError, match="expected 2"):
            parse_norm(f"poly:{wrong}", 2)


def trailing_axis_norm(spec, X):
    """The norm formulas as a reduction over the last axis of the full (..., dim)
    array: the reference whose bits the column kernel must reproduce."""
    X = np.asarray(X, dtype=np.float64)
    if spec.kind == "poly":
        responses = [np.abs((X * row).sum(axis=-1)) for row in spec.functionals]
        return np.stack(responses, axis=-1).max(axis=-1)
    A = np.abs(X) if spec.kind == "lp" else np.abs(X) * spec.weights
    p = spec.p
    if math.isinf(p):
        return A.max(axis=-1)
    if p == 1.0:
        return A.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((A * A).sum(axis=-1))
    return np.power((A**p).sum(axis=-1), 1.0 / p)


def kernel_family(name, dim):
    rng = np.random.default_rng(dim)
    weights = rng.uniform(0.25, 4.0, size=dim)
    return {
        "l1": lambda: lp_norm(1.0, dim),
        "l2": lambda: lp_norm(2.0, dim),
        "linf": lambda: lp_norm(math.inf, dim),
        "lp1.5": lambda: lp_norm(1.5, dim),
        "lp3": lambda: lp_norm(3.0, dim),
        "wlp2": lambda: weighted_lp_norm(2.0, weights),
        "wlp3": lambda: weighted_lp_norm(3.0, weights),
        "poly": lambda: polytope_norm(rng.standard_normal((dim + 3, dim))),
    }[name]()


KERNEL_FAMILIES = ["l1", "l2", "linf", "lp1.5", "lp3", "wlp2", "wlp3", "poly"]


def kernel_points(kind, shape, rng):
    if kind == "lattice":
        # small integers: many exactly equal coordinates, norms and distances
        return rng.integers(-3, 4, size=shape).astype(np.float64)
    return rng.standard_normal(shape) * np.exp(rng.uniform(-12.0, 12.0, size=shape))


class TestColumnKernel:
    @pytest.mark.parametrize("kind", ["gauss", "lattice"])
    @pytest.mark.parametrize("name", KERNEL_FAMILIES)
    def test_bits_match_the_trailing_axis_formulas(self, name, kind):
        rng = np.random.default_rng(17)
        for dim in range(1, 13):
            norm = kernel_family(name, dim)
            batch = kernel_points(kind, (6, 9, dim), rng)
            assert np.array_equal(norm_values(norm, batch), trailing_axis_norm(norm, batch))
            for row in batch[0]:
                lone = norm_values(norm, row)
                assert lone.shape == () and lone.tobytes() == trailing_axis_norm(norm, row).tobytes()
            P = kernel_points(kind, (23, dim), rng)
            Q = kernel_points(kind, (31, dim), rng)
            assert np.array_equal(
                pairwise_distances(norm, P, Q), trailing_axis_norm(norm, P[:, None, :] - Q[None, :, :])
            )
            # the other orientation: more rows than columns
            assert np.array_equal(
                pairwise_distances(norm, Q, P), trailing_axis_norm(norm, Q[:, None, :] - P[None, :, :])
            )
            assert np.array_equal(
                pairwise_distances(norm, P), trailing_axis_norm(norm, P[:, None, :] - P[None, :, :])
            )

    @pytest.mark.parametrize("name", KERNEL_FAMILIES)
    def test_pairwise_memory_stays_near_the_output(self, name):
        # a (256, 4000, 3) difference array alone would be 3x the output; in
        # both orientations
        norm = kernel_family(name, 3)
        rng = np.random.default_rng(5)
        short, long = rng.standard_normal((256, 3)), rng.standard_normal((4000, 3))
        for P, Q in ((short, long), (long, short)):
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                dist = pairwise_distances(norm, P, Q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert dist.shape == (len(P), len(Q))
            assert peak <= 6 * dist.nbytes

    def test_pairwise_rejects_a_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            pairwise_distances(lp_norm(2.0, 2), np.zeros((3, 2)), np.zeros((4, 3)))


def mirror_coordinates():
    """Coordinates that stress the sign of a difference: signed zeros,
    subnormals, and magnitudes whose squares and cubes approach or pass the
    float64 range."""
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e150, -1e150])
    return st.one_of(special, st.floats(-1e3, 1e3, allow_nan=False), st.floats(allow_nan=False, allow_infinity=False, width=32))


class TestMirroredDifferences:
    """Negated differences give the same bits, so ``pairwise_distances(P, Q)`` is
    the bitwise transpose of ``pairwise_distances(Q, P)``: the fact the cyclic
    half (``_cyclic_distances``) relies on to evaluate each pair once."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_swapped_arguments_give_the_transpose(self, data):
        # d >= 8 takes the pairwise-summation branch of the kernel
        dim = data.draw(st.integers(1, 9))
        name = data.draw(st.sampled_from(KERNEL_FAMILIES))
        norm = kernel_family(name, dim)
        rows = st.lists(st.lists(mirror_coordinates(), min_size=dim, max_size=dim), min_size=1, max_size=6)
        P, Q = (np.array(data.draw(rows), dtype=np.float64) for _ in range(2))
        with np.errstate(over="ignore", invalid="ignore"):
            forward, backward = pairwise_distances(norm, P, Q), pairwise_distances(norm, Q, P)
        assert forward.tobytes() == backward.T.tobytes()

    @pytest.mark.parametrize("name", KERNEL_FAMILIES)
    def test_cyclic_half_has_the_bits_of_the_square(self, name):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 3, 8, 9):
            norm = kernel_family(name, dim)
            for m in range(2, 14):
                P = kernel_points("lattice" if m % 2 else "gauss", (m, dim), rng)
                square = pairwise_distances(norm, P)
                half = _cyclic_distances(norm, P, slice(m))
                assert half.shape == (m, m // 2)
                i, s = np.indices(half.shape)
                j = (i + s + 1) % m
                assert half.tobytes() == square[i, j].tobytes() == square[j, i].tobytes()
                # a row slice is those rows of the whole
                assert _cyclic_distances(norm, P, slice(1, m - 1)).tobytes() == half[1 : m - 1].tobytes()
                # sets (L, m, dim): each set's half, also in row slices
                sets = np.stack((P, P[::-1], -P))
                for rows in (slice(m), slice(1, m - 1)):
                    each = [_cyclic_distances(norm, Q, rows) for Q in sets]
                    work = np.empty((2, 3 * m * m))  # the kernel's two buffers
                    for buffers in (None, work):
                        assert _cyclic_distances(norm, sets, rows, buffers).tobytes() == np.stack(each).tobytes()
