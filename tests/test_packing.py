"""Tests for separated-point configurations in the radius-2 ball and the
greedy lower-bound search."""

import math
import tracemalloc

import numpy as np
import pytest

from siglab import packing
from siglab.norms import lp_norm, norm_values, pairwise_distances, polytope_norm, weighted_lp_norm
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
LINF_3 = lp_norm(math.inf, 3)
HEXAGON = polytope_norm([[1.0, 0.0], [0.6, 0.8], [-0.3, 0.9]])

# norms whose lattice pass leaves a packing the certificate proves maximal
CERTIFIED = {
    "l2 d=1": L2_1,
    "l2 d=2": L2_2,
    "l2 d=3": lp_norm(2.0, 3),
    "linf d=1": lp_norm(math.inf, 1),
    "linf d=2": LINF_2,
    "linf d=3": LINF_3,
    "lp:3 d=2": lp_norm(3.0, 2),
    "poly": polytope_norm([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    "wlp:2": weighted_lp_norm(2.0, [1.3, 0.7]),
}
# and norms it gives up on: l1 has zero slack at (0.5, 0.5), l2 d=4 needs
# more cells than the cap, and in d=40 one cell has 2^40 corners
UNCERTIFIED = {
    "l1 d=2": lp_norm(1.0, 2),
    "lp:1.5 d=3": lp_norm(1.5, 3),
    "hexagon": HEXAGON,
    "l2 d=4": lp_norm(2.0, 4),
    "l2 d=40": lp_norm(2.0, 40),
}


def lattice_pass(norm):
    return packing._lattice_pass(norm, packing._lattice_candidates(norm))


def dense_insert(norm, accepted, chunk):
    """Reference insert: every chunk row against every accepted point at once,
    from the full difference array, then the same in-order loop."""
    earlier = np.array(accepted)
    fits = (norm_values(norm, chunk[:, None, :] - earlier[None, :, :]) >= 1.0).all(axis=1)
    left = chunk[fits]
    while len(left):
        accepted.append(left[0].copy())
        rest = left[1:]
        left = rest[norm_values(norm, rest - left[0]) >= 1.0]


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

    def test_larger_candidate_budget_extends_a_smaller_one(self):
        norm = lp_norm(1.5, 3)
        small = greedy_pack(norm, seed=7, restarts=1, candidates=500)
        large = greedy_pack(norm, seed=7, restarts=1, candidates=5000)
        # both budgets add samples to the lattice points, so the prefix holds
        # sampled rows, not only the deterministic lattice pass
        assert len(large) > len(small) > len(packing._lattice_candidates(norm))
        assert large.points[: len(small)].tobytes() == small.points.tobytes()

    def test_restarts_keep_the_first_longest_run(self):
        lattice = packing._lattice_candidates(HEXAGON)
        # seed 2: one longest run, at restart 1; seed 3: restarts 1-5 tie on
        # length with different points, so only the earliest may be returned
        for seed in (2, 3):
            runs = [
                packing._sampled_restart(HEXAGON, seed, r, 400, packing._lattice_pass(HEXAGON, lattice))
                for r in range(6)
            ]
            longest = max(len(run) for run in runs)
            first = next(run for run in runs if len(run) == longest)
            tied = [run.tobytes() for run in runs if len(run) == longest]
            assert len(set(tied)) == (1 if seed == 2 else 5)
            cfg = greedy_pack(HEXAGON, seed=seed, restarts=6, candidates=400)
            assert cfg.points.tobytes() == first.tobytes()

    def test_sparse_ball_is_still_sampled(self):
        # about 1.4 of the 4096 box draws in a chunk fall in the l2 ball at d=12
        cfg = greedy_pack(lp_norm(2.0, 12), seed=0, restarts=1, candidates=200)
        assert len(cfg) > 100 and validate_packing(cfg).ok

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="positive"):
            greedy_pack(L2_1, restarts=0)


class TestSlabInsert:
    """The slab-by-slab insert keeps the rows a dense chunk x accepted test keeps."""

    @staticmethod
    def insert_both(norm, accepted, chunks):
        slabbed, dense = [a.copy() for a in accepted], [a.copy() for a in accepted]
        for chunk in chunks:
            packing._insert_chunk(norm, slabbed, chunk)
            dense_insert(norm, dense, chunk)
            assert np.array(slabbed).tobytes() == np.array(dense).tobytes()
        return slabbed

    @staticmethod
    def sampled_chunks(norm, seed, count):
        sampler = packing._ball_sampler(norm, np.random.default_rng(seed))
        return [next(sampler) for _ in range(count)]

    def test_linf_cube_after_the_lattice_pass(self):
        # 125 lattice points: slabs of 8, 16, 32, 64 and a partial one of 5
        lattice = packing._lattice_candidates(LINF_3)
        accepted = self.insert_both(LINF_3, [np.zeros(3)], [lattice])
        assert len(accepted) == 125
        self.insert_both(LINF_3, accepted, self.sampled_chunks(LINF_3, 0, 3))

    def test_polytope_norm_in_the_plane(self):
        chunks = [packing._lattice_candidates(HEXAGON)] + self.sampled_chunks(HEXAGON, 1, 4)
        accepted = self.insert_both(HEXAGON, [np.zeros(2)], chunks)
        # the samples add points to the 9 of the lattice pass
        assert len(accepted) > len(self.insert_both(HEXAGON, [np.zeros(2)], chunks[:1]))

    def test_rows_accepted_after_a_partial_slab(self):
        # the origin and 12 samples: a full slab of 8 and 5 of the next 16;
        # the chunk that follows still adds points
        norm = lp_norm(2.0, 3)
        first, second = self.sampled_chunks(norm, 2, 2)
        accepted = self.insert_both(norm, [np.zeros(3)], [first[:40]])
        accepted = accepted[:13]
        grown = self.insert_both(norm, accepted, [second])
        assert len(grown) > 13

    def test_l2_lattice_in_seven_dimensions(self):
        # 953 lattice points, pairwise >= 1 apart: blocks of 1, 2, 4, ... up to
        # the cap, each filtering the rows after it
        norm = lp_norm(2.0, 7)
        accepted = self.insert_both(norm, [np.zeros(7)], [packing._lattice_candidates(norm)])
        assert len(accepted) == 953

    @pytest.mark.parametrize("seed", range(4))
    def test_hexagon_lattice_and_samples(self, seed):
        # the hexagon's lattice rows clash inside blocks, and each sample
        # chunk leaves a few rows after the slabs
        chunks = [packing._lattice_candidates(HEXAGON)] + self.sampled_chunks(HEXAGON, seed, 6)
        self.insert_both(HEXAGON, [np.zeros(2)], chunks)

    def test_clashes_inside_a_grown_block(self):
        # blocks of 1, 2 and 4 rows are all accepted; in the block of 8, 7.5
        # clashes with 7 and is dropped, 8.25 clashes only with the dropped
        # 7.5 and is kept, and 9 clashes with 8.25; after the block, 12.75 is
        # filtered out, and 14 starts a block of 1 again
        rows = [0, 1, 2, 3, 4, 5, 6, 7, 7.5, 8.25, 9, 9.25, 10.25, 11.25, 12.25, 12.75, 14]
        accepted = self.insert_both(L2_1, [np.array([-10.0])], [np.array(rows, dtype=float)[:, None]])
        kept = np.array(accepted)[1:, 0].tolist()
        assert kept == [0, 1, 2, 3, 4, 5, 6, 7, 8.25, 9.25, 10.25, 11.25, 12.25, 14]

    def test_greedy_pack_matches_a_dense_run(self, monkeypatch):
        slabbed = greedy_pack(LINF_3, seed=0, restarts=1, candidates=20_000)
        monkeypatch.setattr(packing, "_insert_chunk", dense_insert)
        dense = greedy_pack(LINF_3, seed=0, restarts=1, candidates=20_000)
        assert slabbed.points.tobytes() == dense.points.tobytes()


class TestSaturationCertificate:
    @pytest.mark.parametrize(
        "name, expected", [(name, True) for name in CERTIFIED] + [(name, False) for name in UNCERTIFIED]
    )
    def test_which_norms_are_certified(self, name, expected):
        norm = {**CERTIFIED, **UNCERTIFIED}[name]
        assert packing._saturated(norm, lattice_pass(norm)) is expected

    @pytest.mark.parametrize("name", list(CERTIFIED))
    def test_no_sample_fits_a_certified_packing(self, name):
        norm = CERTIFIED[name]
        accepted = np.array(lattice_pass(norm))
        sampler = packing._ball_sampler(norm, np.random.default_rng(1))
        drawn = 0
        while drawn < 200_000:
            chunk = next(sampler)
            # the insert's own test: a row fits when it is >= 1 from every point
            assert not (pairwise_distances(norm, accepted, chunk) >= 1.0).all(axis=0).any()
            drawn += len(chunk)

    @pytest.mark.parametrize("name", ["l2 d=2", "l2 d=3", "linf d=3", "poly", "wlp:2"])
    def test_skipping_the_search_leaves_the_witness_unchanged(self, name, monkeypatch):
        norm = CERTIFIED[name]
        runs = [(seed, restarts) for seed in range(3) for restarts in (1, 2, 3)]
        certified = [greedy_pack(norm, seed, restarts, 3000).points.tobytes() for seed, restarts in runs]
        monkeypatch.setattr(packing, "_saturated", lambda norm, accepted: False)
        searched = [greedy_pack(norm, seed, restarts, 3000).points.tobytes() for seed, restarts in runs]
        assert certified == searched

    def test_a_certified_packing_draws_no_sample(self, monkeypatch):
        def no_sampler(norm, rng):
            raise AssertionError("sampled")

        monkeypatch.setattr(packing, "_ball_sampler", no_sampler)
        assert len(greedy_pack(LINF_3, seed=0, restarts=5, candidates=100_000)) == 125

    @pytest.mark.parametrize("removed", [(2.0, 0.0), (1.0, 1.0)])
    def test_a_packing_with_a_hole_is_not_certified(self, removed):
        accepted = lattice_pass(L2_2)
        kept = [p for p in accepted if p.tolist() != list(removed)]
        assert len(kept) == len(accepted) - 1
        assert packing._saturated(L2_2, accepted)
        assert not packing._saturated(L2_2, kept)

    @pytest.mark.parametrize(
        "norm, removed",
        [
            (lp_norm(2.0, 3), [(1.0, 1.0, 1.0)]),
            # one point of the max-norm grid leaves a hole no sample can hit
            # (every other point of its neighbourhood is within 1 of a grid
            # point), so a unit cube of 8 is removed
            (LINF_3, [(a, b, c) for a in (1.0, 2.0) for b in (1.0, 2.0) for c in (1.0, 2.0)]),
        ],
        ids=["l2 d=3", "linf d=3"],
    )
    def test_a_hole_a_sample_can_fill_is_not_certified(self, norm, removed):
        accepted = lattice_pass(norm)
        kept = [p for p in accepted if tuple(p.tolist()) not in removed]
        assert len(kept) == len(accepted) - len(removed)
        # the ball sampler draws a point that fits the packing with the hole
        sampler = packing._ball_sampler(norm, np.random.default_rng(0))
        assert (pairwise_distances(norm, np.array(kept), next(sampler)) >= 1.0).all(axis=0).any()
        assert packing._saturated(norm, accepted)
        assert not packing._saturated(norm, kept)

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_the_ceiling_is_the_largest_corner_norm(self, dim):
        # from d = 8 on the kernel sums with numpy's pairwise summation
        rng = np.random.default_rng(dim)
        norms = [lp_norm(p, dim) for p in (1.0, 2.0, math.inf, 3.0)]
        norms.append(weighted_lp_norm(2.0, rng.uniform(0.5, 2.0, dim)))
        norms += [polytope_norm(rng.normal(size=(max(f, dim), dim))) for f in (3, 4, 5, 6)]
        corners = np.indices((2,) * dim).reshape(dim, -1).T.astype(bool)
        for norm in norms:
            lo = rng.uniform(-2.0, 2.0, size=(40, dim))
            hi = lo + rng.uniform(0.0, 1.0, size=(40, dim))
            point = rng.uniform(-2.0, 2.0, size=(40, dim))
            low, high = lo - point, hi - point
            largest = norm_values(norm, np.where(corners, high[:, None], low[:, None])).max(axis=1)
            assert packing._norm_ceiling(norm, low, high).tobytes() == largest.tobytes(), norm.label()

    def test_the_certificate_runs_in_little_memory(self):
        accepted = lattice_pass(LINF_3)
        tracemalloc.start()
        try:
            assert packing._saturated(LINF_3, accepted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


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
