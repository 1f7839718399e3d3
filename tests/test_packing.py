"""Tests for separated-point configurations in the radius-2 ball and the
greedy lower-bound search."""

import math

import numpy as np
import pytest

from siglab.norms import lp_norm, norm_values, pairwise_distances
from siglab.packing import (
    PackingConfig,
    euclidean_19_point_config,
    greedy_pack,
    packing_bounds,
    packing_upper_bound,
    validate_packing,
)

L2_1 = lp_norm(2.0, 1)
L2_2 = lp_norm(2.0, 2)
LINF_2 = lp_norm(math.inf, 2)


class TestUpperBound:
    def test_values(self):
        assert packing_upper_bound(1) == 5
        assert packing_upper_bound(2) == 25
        assert packing_upper_bound(3) == 125

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="must be positive"):
            packing_upper_bound(0)


class TestValidation:
    def test_integer_line_is_valid(self):
        cfg = PackingConfig(L2_1, np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]]))
        report = validate_packing(cfg)
        assert report.ok and report.violations == ()
        assert len(cfg) == 5

    def test_missing_origin(self):
        cfg = PackingConfig(L2_1, np.array([[-1.0], [1.0]]))
        report = validate_packing(cfg)
        assert not report.ok
        assert "origin absent" in report.violations

    def test_point_outside_ball(self):
        cfg = PackingConfig(L2_1, np.array([[0.0], [3.0]]))
        report = validate_packing(cfg)
        assert any("norm 3 > 2" in v for v in report.violations)

    def test_close_pair(self):
        cfg = PackingConfig(L2_1, np.array([[0.0], [0.5]]))
        report = validate_packing(cfg)
        assert any("distance 0.5 < 1" in v for v in report.violations)

    def test_tolerance_absorbs_roundoff(self):
        eps = 5e-13
        pts = np.array([[0.0], [1.0 - eps], [-(2.0 + eps) + 1e-16]])
        assert validate_packing(PackingConfig(L2_1, pts)).ok
        # the exact limits reject it: only the tolerance accepts it
        assert norm_values(L2_1, pts).max() > 2.0
        assert pairwise_distances(L2_1, pts)[np.triu_indices(len(pts), 1)].min() < 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="points must be"):
            PackingConfig(L2_2, np.zeros((3, 1)))


class TestGreedySearch:
    def test_line_is_solved_exactly(self):
        cfg = greedy_pack(L2_1, seed=0, restarts=2, candidates=500)
        assert len(cfg) == 5
        assert validate_packing(cfg).ok

    def test_grid_is_solved_exactly(self):
        cfg = greedy_pack(LINF_2, seed=0, restarts=2, candidates=1000)
        assert len(cfg) == 25
        assert validate_packing(cfg).ok

    def test_disk_reaches_thirteen(self):
        cfg = greedy_pack(L2_2, seed=0, restarts=2, candidates=2000)
        assert len(cfg) >= 13
        assert validate_packing(cfg).ok

    def test_origin_is_always_included(self):
        cfg = greedy_pack(L2_2, seed=3, restarts=1, candidates=200)
        assert np.any(np.all(cfg.points == 0.0, axis=1))

    def test_result_is_maximal_for_the_candidate_stream(self):
        # every accepted point is at least 1 from the others; a fresh sample
        # inside the ball must be blocked by some accepted point or it would
        # have been added
        cfg = greedy_pack(L2_2, seed=5, restarts=1, candidates=4000)
        dmat = pairwise_distances(L2_2, cfg.points)
        off = dmat[~np.eye(len(cfg), dtype=bool)]
        assert float(off.min()) >= 1.0 - 1e-12
        assert float(norm_values(L2_2, cfg.points).max()) <= 2.0 + 1e-12

    def test_same_seed_same_result(self):
        a = greedy_pack(L2_2, seed=11, restarts=3, candidates=1500)
        b = greedy_pack(L2_2, seed=11, restarts=3, candidates=1500)
        assert np.array_equal(a.points, b.points)

    def test_workers_do_not_change_the_result(self):
        serial = greedy_pack(L2_2, seed=11, restarts=4, candidates=1200, workers=1)
        threaded = greedy_pack(L2_2, seed=11, restarts=4, candidates=1200, workers=3)
        assert np.array_equal(serial.points, threaded.points)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="positive"):
            greedy_pack(L2_1, restarts=0)


class TestBounds:
    def test_line_bounds_are_tight(self):
        bounds = packing_bounds(L2_1, seed=0, restarts=2, candidates=500)
        assert (bounds.lower, bounds.upper) == (5, 5)
        assert len(bounds.witness) == 5

    def test_grid_bounds_are_tight(self):
        bounds = packing_bounds(LINF_2, seed=0, restarts=2, candidates=1000)
        assert (bounds.lower, bounds.upper) == (25, 25)

    def test_lower_never_exceeds_upper(self):
        for dim in (1, 2):
            for p in (1.0, 2.0, math.inf):
                bounds = packing_bounds(lp_norm(p, dim), seed=1, restarts=1, candidates=400)
                assert 1 <= bounds.lower <= bounds.upper == 5**dim


class TestNineteenPointConfig:
    def test_is_a_valid_packing(self):
        cfg = euclidean_19_point_config()
        assert len(cfg) == 19
        assert validate_packing(cfg).ok

    def test_structure(self):
        cfg = euclidean_19_point_config()
        values = np.sort(norm_values(L2_2, cfg.points))
        assert values[0] == 0.0
        assert np.allclose(values[1:7], 1.0, atol=1e-12)
        assert np.allclose(values[7:], 2.0, atol=1e-12)
