"""Tests for the retraction, the normalized-difference bound, satellite
separation, and the witness-neighborhood audit."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglab.lemmas import (
    SatelliteConfig,
    _checked_separations,
    _sampled_satellites,
    _stacked,
    bow_and_arrow_gap,
    bow_and_arrow_gaps,
    counting_check,
    project_ball2,
    project_ball2_many,
    sample_nonzero_pairs,
    sample_satellite_configs,
    satellite_hypotheses,
    satellite_separation,
    satellite_separations,
)
from siglab.norms import lp_norm, norm_values, polytope_norm, weighted_lp_norm
from siglab.sig import (
    PointSet,
    build_aux_graph,
    build_ksig,
    greedy_color,
    kth_radii,
    sort_by_radius,
)

L2 = lp_norm(2.0, 2)
NORM_POOL = [
    lp_norm(1.0, 2),
    lp_norm(2.0, 2),
    lp_norm(math.inf, 2),
    lp_norm(3.0, 2),
    weighted_lp_norm(2.0, (0.5, 2.0)),
    polytope_norm([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]),
]


def nonzero_vectors(dim):
    coord = st.floats(-8.0, 8.0, allow_nan=False).map(lambda c: round(c, 6))
    return (
        st.tuples(*[coord] * dim)
        .map(lambda t: np.array(t, dtype=np.float64))
        .filter(lambda v: np.any(v != 0.0))
    )


class TestRetraction:
    def test_inside_is_identity(self):
        x = np.array([1.0, 0.5])
        assert np.array_equal(project_ball2(L2, x), x)

    def test_boundary_is_identity(self):
        x = np.array([2.0, 0.0])
        assert np.array_equal(project_ball2(L2, x), x)

    def test_outside_lands_on_sphere(self):
        got = project_ball2(L2, np.array([3.0, 4.0]))
        assert np.allclose(got, [1.2, 1.6])

    def test_max_norm_corner(self):
        got = project_ball2(lp_norm(math.inf, 2), np.array([4.0, 4.0]))
        assert np.array_equal(got, np.array([2.0, 2.0]))

    def test_batch_matches_single(self):
        # general-exponent norms go through pow, which is not bit-stable
        # across numpy's vectorized and scalar code paths
        rng = np.random.default_rng(2)
        X = rng.uniform(-5.0, 5.0, size=(40, 2))
        for norm in NORM_POOL:
            exact = norm.kind == "poly" or norm.p in (1.0, 2.0, math.inf)
            batch = project_ball2_many(norm, X)
            for i, row in enumerate(X):
                single = project_ball2(norm, row)
                if exact:
                    assert np.array_equal(batch[i], single)
                else:
                    assert np.allclose(batch[i], single, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("norm", NORM_POOL, ids=lambda n: n.label())
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_range_and_idempotence(self, norm, data):
        x = data.draw(nonzero_vectors(2))
        y = project_ball2(norm, x)
        assert float(norm_values(norm, y)) <= 2.0 + 1e-12
        again = project_ball2(norm, y)
        assert np.max(np.abs(again - y)) <= 1e-12


class TestNormalizedDifferenceBound:
    def test_worked_example(self):
        # units (0,1) and (1,0); ||a-b|| = sqrt(5), norms 2 and 1
        got = bow_and_arrow_gap(L2, (0.0, 2.0), (1.0, 0.0))
        assert got == pytest.approx(math.sqrt(2.0) - (math.sqrt(5.0) - 1.0), abs=1e-15)

    def test_collinear_pair_is_tight(self):
        assert bow_and_arrow_gap(L2, (2.0, 0.0), (1.0, 0.0)) == 0.0

    def test_identical_vectors(self):
        assert bow_and_arrow_gap(L2, (1.0, 1.0), (1.0, 1.0)) == 0.0

    def test_rejects_zero_vectors(self):
        with pytest.raises(ValueError, match="nonzero"):
            bow_and_arrow_gap(L2, (0.0, 0.0), (1.0, 0.0))
        with pytest.raises(ValueError, match="nonzero"):
            bow_and_arrow_gap(L2, (1.0, 0.0), (0.0, 0.0))

    def test_batch_matches_single(self):
        A, B = sample_nonzero_pairs(L2, 64, seed=5)
        gaps = bow_and_arrow_gaps(L2, A, B)
        assert gaps.shape == (64,)
        for i in range(64):
            assert gaps[i] == pytest.approx(bow_and_arrow_gap(L2, A[i], B[i]), abs=1e-15)

    @pytest.mark.parametrize("norm", NORM_POOL, ids=lambda n: n.label())
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_gap_is_nonnegative(self, norm, data):
        # the right-hand side divides by ||b||, so its rounding error is
        # proportional to ||a||/||b||; a fixed absolute tolerance is only
        # sound when that ratio is bounded, hence the scaling here
        a = data.draw(nonzero_vectors(2))
        b = data.draw(nonzero_vectors(2))
        na = float(norm_values(norm, a))
        nb = float(norm_values(norm, b))
        tol = 1e-12 * max(1.0, (na + nb) / nb)
        assert bow_and_arrow_gap(norm, a, b) >= -tol

    def test_tight_antipodal_pair_with_tiny_second_vector(self):
        # exact gap is 0 here; the division by the small ||b|| inflates the
        # rounding error past 1e-12, which is why the sampled suites keep
        # vector norms bounded away from zero
        norm = lp_norm(1.0, 2)
        got = bow_and_arrow_gap(norm, np.array([0.0, -1.0]), np.array([0.0, 6.1e-05]))
        assert abs(got) <= 1e-11

    @pytest.mark.parametrize("norm", NORM_POOL, ids=lambda n: n.label())
    def test_gap_on_sampler_domain_meets_fixed_tolerance(self, norm):
        A, B = sample_nonzero_pairs(norm, 2000, seed=31)
        assert float(bow_and_arrow_gaps(norm, A, B).min()) >= -1e-12

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_gap_ignores_common_scaling(self, data):
        a = data.draw(nonzero_vectors(2))
        b = data.draw(nonzero_vectors(2))
        c = data.draw(st.floats(0.01, 100.0, allow_nan=False))
        base = bow_and_arrow_gap(L2, a, b)
        scaled = bow_and_arrow_gap(L2, c * a, c * b)
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_sampler_is_deterministic_and_nonzero(self):
        A1, B1 = sample_nonzero_pairs(L2, 500, seed=9)
        A2, B2 = sample_nonzero_pairs(L2, 500, seed=9)
        assert np.array_equal(A1, A2) and np.array_equal(B1, B2)
        assert np.all(norm_values(L2, A1) > 0.0)
        assert np.all(norm_values(L2, B1) > 0.0)


class TestSatellite:
    def test_worked_example(self):
        cfg = SatelliteConfig(np.array([3.0, 0.0]), 2.0, np.array([-1.0, 0.0]), 1.0)
        assert satellite_hypotheses(L2, cfg)
        assert satellite_separation(L2, cfg) == 3.0

    def test_symmetric_example(self):
        cfg = SatelliteConfig(np.array([3.0, 0.0]), 2.0, np.array([-3.0, 0.0]), 2.0)
        assert satellite_separation(L2, cfg) == 4.0

    def test_hypotheses_reject_small_radii(self):
        cfg = SatelliteConfig(np.array([0.5, 0.0]), 0.5, np.array([-0.5, 0.0]), 0.9)
        assert not satellite_hypotheses(L2, cfg)
        with pytest.raises(ValueError, match="below 1"):
            satellite_separation(L2, cfg)

    def test_hypotheses_reject_close_centers(self):
        cfg = SatelliteConfig(np.array([0.5, 0.0]), 2.0, np.array([0.0, 0.0]), 1.0)
        assert not satellite_hypotheses(L2, cfg)
        with pytest.raises(ValueError, match="centers at distance"):
            satellite_separation(L2, cfg)

    def test_hypotheses_reject_far_center(self):
        cfg = SatelliteConfig(np.array([5.0, 0.0]), 2.0, np.array([0.0, 0.0]), 1.0)
        assert not satellite_hypotheses(L2, cfg)
        with pytest.raises(ValueError, match="misses the unit ball"):
            satellite_separation(L2, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SatelliteConfig(np.array([1.0, 0.0]), -1.0, np.array([0.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            SatelliteConfig(np.array([1.0]), 1.0, np.array([0.0, 1.0]), 1.0)
        with pytest.raises(ValueError, match="center1 has a non-finite"):
            SatelliteConfig(np.array([np.nan, 0.0]), 2.0, np.array([0.0, 2.0]), 1.0)
        with pytest.raises(ValueError, match="center2 has a non-finite"):
            SatelliteConfig(np.array([1.0, 0.0]), 2.0, np.array([0.0, np.inf]), 1.0)
        with pytest.raises(ValueError, match="radius2 must be finite"):
            SatelliteConfig(np.array([1.0, 0.0]), 2.0, np.array([0.0, 2.0]), np.nan)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sampled_configs_satisfy_hypotheses(self, dim):
        norm = lp_norm(2.0, dim)
        configs = sample_satellite_configs(norm, 200, seed=13)
        assert len(configs) == 200
        assert all(satellite_hypotheses(norm, cfg) for cfg in configs)

    def test_sampler_is_deterministic(self):
        first = sample_satellite_configs(L2, 50, seed=3)
        second = sample_satellite_configs(L2, 50, seed=3)
        for a, b in zip(first, second):
            assert np.array_equal(a.center1, b.center1)
            assert np.array_equal(a.center2, b.center2)
            assert (a.radius1, a.radius2) == (b.radius1, b.radius2)

    @pytest.mark.parametrize("norm", NORM_POOL, ids=lambda n: n.label())
    def test_separation_at_least_one(self, norm):
        configs = sample_satellite_configs(norm, 400, seed=21)
        seps = satellite_separations(norm, configs)
        assert seps.shape == (400,)
        assert float(seps.min()) >= 1.0 - 1e-9

    def test_batch_matches_single(self):
        configs = sample_satellite_configs(L2, 30, seed=8)
        seps = satellite_separations(L2, configs)
        for i, cfg in enumerate(configs):
            assert seps[i] == satellite_separation(L2, cfg)

    def test_batch_reports_offending_config(self):
        bad = SatelliteConfig(np.array([0.5, 0.0]), 0.5, np.array([-0.5, 0.0]), 0.9)
        with pytest.raises(ValueError, match="config 0"):
            satellite_separations(L2, [bad])

    @pytest.mark.parametrize("norm", NORM_POOL, ids=lambda n: n.label())
    def test_sampled_arrays_are_the_configs(self, norm):
        # the suite's sweep reads the arrays; the public sampler builds configs from them
        batch = _sampled_satellites(norm, 300, 7)
        configs = sample_satellite_configs(norm, 300, seed=7)
        for got, want in zip(batch, _stacked(configs)):
            assert got.tobytes() == want.tobytes()
        seps = _checked_separations(norm, *batch, "config {}: ")
        assert seps.tobytes() == satellite_separations(norm, configs).tobytes()
        assert [a.shape for a in _sampled_satellites(norm, 0, 7)] == [(0, norm.dim), (0,), (0, norm.dim), (0,)]

    def test_array_batch_reports_offending_config(self):
        batch = _stacked(sample_satellite_configs(L2, 5, seed=1))
        batch[2][3] = batch[0][3]  # coincident centers: closer than the larger radius
        with pytest.raises(ValueError, match="config 3: satellite hypotheses violated: centers at distance 0"):
            _checked_separations(L2, *batch, "config {}: ")


def _audit_inputs(points, k, norm):
    ps = PointSet(points)
    radii = kth_radii(ps, k, norm)
    graph = build_ksig(ps, radii, norm)
    aux = build_aux_graph(ps, radii, norm)
    coloring = greedy_color(aux, sort_by_radius(radii))
    return ps, radii, graph, coloring


class TestWitnessAudit:
    def test_line_example(self):
        norm = lp_norm(2.0, 1)
        ps, radii, graph, coloring = _audit_inputs(
            np.array([[0.0], [1.0], [3.0], [7.0]]), 1, norm
        )
        report = counting_check(ps, radii, graph, coloring, 0, norm)
        assert report.passed
        assert report.center == 0 and report.scale == 1.0
        assert (report.interior_count, report.interior_bound) == (0, 0)
        assert report.min_projected_separation == 1.0
        assert (report.degree, report.decomposition_bound) == (2, 2)

    def test_both_witnesses_pass(self):
        rng = np.random.default_rng(4)
        norm = lp_norm(2.0, 2)
        ps, radii, graph, coloring = _audit_inputs(
            rng.uniform(-1.0, 1.0, size=(40, 2)), 3, norm
        )
        order = sort_by_radius(radii)
        for center in order[:2]:
            report = counting_check(ps, radii, graph, coloring, center, norm)
            assert report.passed
            assert report.interior_count <= 2
            assert report.degree <= report.decomposition_bound

    def test_single_neighbor_is_vacuous(self):
        # two tight clusters far apart: each witness has exactly one neighbor,
        # so there is no same-color pair and the separation leg is vacuous
        norm = lp_norm(2.0, 1)
        ps, radii, graph, coloring = _audit_inputs(
            np.array([[0.0], [0.5], [100.0], [101.0]]), 1, norm
        )
        report = counting_check(ps, radii, graph, coloring, 0, norm)
        assert report.passed
        assert report.degree == 1
        assert report.min_projected_separation == math.inf

    def test_rejects_non_witness_center(self):
        norm = lp_norm(2.0, 1)
        ps, radii, graph, coloring = _audit_inputs(
            np.array([[0.0], [1.0], [3.0], [7.0]]), 1, norm
        )
        with pytest.raises(ValueError, match="not a witness vertex"):
            counting_check(ps, radii, graph, coloring, 3, norm)

    def test_rejects_zero_radius_center(self):
        norm = lp_norm(2.0, 2)
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0]])
        ps, radii, graph, coloring = _audit_inputs(pts, 1, norm)
        with pytest.raises(ValueError, match="radius 0"):
            counting_check(ps, radii, graph, coloring, 0, norm)

    def test_rejects_improper_coloring(self):
        from siglab.sig import Coloring

        # radii are [1.1, 1, 1.1, 4]; vertices 2 and 3 are neighbors of the
        # witness 1 and sit at distance 3.9 < 4, so giving them one color is
        # improper on the auxiliary graph
        norm = lp_norm(2.0, 1)
        ps, radii, graph, _ = _audit_inputs(
            np.array([[0.0], [1.0], [1.1], [5.0]]), 2, norm
        )
        bad = Coloring(colors=(1, 1, 2, 2), num_colors=2)
        with pytest.raises(ValueError, match="not proper"):
            counting_check(ps, radii, graph, bad, 1, norm)

    def test_rejects_too_many_colors(self):
        from siglab.sig import Coloring

        norm = lp_norm(2.0, 1)
        ps, radii, graph, _ = _audit_inputs(np.array([[0.0], [1.0], [3.0], [7.0]]), 1, norm)
        bad = Coloring(colors=(1, 2, 3, 4), num_colors=4)
        with pytest.raises(ValueError, match="at most k=1"):
            counting_check(ps, radii, graph, bad, 0, norm)


class TestSamplersGiveUp:
    # the unit ball spans [-1e3, 1e3]^2: no draw from either sampling box
    # reaches norm 0.05, or meets the hypotheses
    TINY = weighted_lp_norm(2.0, [1e-3, 1e-3])

    def test_pair_sampler_refuses_a_norm_it_cannot_sample(self):
        with pytest.raises(ValueError, match=r"under wlp:2\.0:0\.001,0\.001: 2001 chunks"):
            sample_nonzero_pairs(self.TINY, 5)

    def test_satellite_sampler_refuses_a_norm_it_cannot_sample(self):
        with pytest.raises(ValueError, match=r"under wlp:2\.0:0\.001,0\.001: 2001 chunks"):
            sample_satellite_configs(self.TINY, 5)

    def test_zero_pairs_are_two_empty_arrays(self):
        A, B = sample_nonzero_pairs(lp_norm(2.0, 2), 0)
        assert A.shape == B.shape == (0, 2)
        assert A.dtype == B.dtype == np.float64

    def test_draws_are_unchanged(self):
        # digests of the samples as drawn before the samplers were bounded
        A, B = sample_nonzero_pairs(lp_norm(2.0, 3), 500, seed=4)
        digest = hashlib.sha256(A.tobytes() + B.tobytes()).hexdigest()
        assert digest == "4e14c94a661f11b695199bd1bcd162427bda52ea7f44e5ba0ce6d35cf8fb6206"
        configs = sample_satellite_configs(lp_norm(1.0, 2), 300, seed=5)
        raw = b"".join(
            c.center1.tobytes() + c.center2.tobytes() + np.array([c.radius1, c.radius2]).tobytes()
            for c in configs
        )
        digest = hashlib.sha256(raw).hexdigest()
        assert digest == "e67600745c962fe8083d40ab36d80813d4d37741f5cb66ccdc17f41ac3795ba4"
