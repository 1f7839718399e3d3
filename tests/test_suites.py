"""Tests for the randomized verification suites themselves."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglab.norms import lp_norm
from siglab.sig import _STRICT, InfluenceGraph, PointSet, RadiusAssignment, _closed_pairs, _keyed_graph, build_ksig, kth_radii
from siglab.suites import (
    _subgraph,
    bitwise_stable_norm,
    edges_match_modulo_boundary,
    norm_family_samples,
    radii_match_oracle,
    random_instances,
    run_verify_suite,
)

EXPECTED_CATEGORIES = {
    "known-answers",
    "radius-oracle",
    "edge-rule",
    "aux-subgraph",
    "degree-bound",
    "edge-count-bound",
    "coloring",
    "k-monotonicity",
    "invariance",
    "determinism",
    "witness-counting",
    "packing-bounds",
    "norm-axioms",
    "bow-and-arrow",
    "satellite-separation",
    "retraction",
}


class TestInstanceGeneration:
    def test_count_and_ranges(self):
        instances = random_instances(30, seed=1, max_points=50)
        assert len(instances) == 30
        for inst in instances:
            assert 1 <= inst.k <= 5
            assert inst.k + 1 <= len(inst.points) <= 50
            assert inst.points.dim in (1, 2, 3, 4)
            assert inst.norm.dim == inst.points.dim

    def test_same_seed_same_instances(self):
        a = random_instances(10, seed=7)
        b = random_instances(10, seed=7)
        for x, y in zip(a, b):
            assert x.label == y.label
            assert np.array_equal(x.points.points, y.points.points)

    def test_labels_are_unique(self):
        labels = [inst.label for inst in random_instances(40, seed=2)]
        assert len(set(labels)) == 40


class TestComparators:
    def test_stability_classification(self):
        assert bitwise_stable_norm(lp_norm(1.0, 2))
        assert bitwise_stable_norm(lp_norm(2.0, 3))
        assert bitwise_stable_norm(lp_norm(math.inf, 4))
        assert not bitwise_stable_norm(lp_norm(3.0, 2))

    def test_oracle_comparison_is_exact_for_stable_norms(self):
        norm = lp_norm(2.0, 1)
        radii = RadiusAssignment(1, np.array([1.0, 1.0]))
        assert radii_match_oracle(radii, [1.0, 1.0], norm)
        assert not radii_match_oracle(radii, [1.0, 1.0 + 2**-52], norm)

    def test_oracle_comparison_tolerates_pow_jitter(self):
        norm = lp_norm(3.0, 1)
        radii = RadiusAssignment(1, np.array([1.0]))
        assert radii_match_oracle(radii, [1.0 + 2**-52], norm)
        assert not radii_match_oracle(radii, [1.0 + 1e-9], norm)

    def test_edge_comparison_allows_boundary_flips_only(self):
        # |0 - 3| == r_0 + r_2 exactly: dropping that edge is a boundary flip,
        # dropping (0, 1) is not
        norm = lp_norm(2.0, 1)
        ps = PointSet(np.array([[0.0], [1.0], [3.0]]))
        radii = kth_radii(ps, 1, norm)
        reference = build_ksig(ps, radii, norm)
        tied = _keyed_graph(_closed_pairs(ps, radii, norm), 3, _STRICT)
        assert edges_match_modulo_boundary(ps, radii, norm, reference, tied)
        broken = frozenset(reference.edges - {(0, 1)})
        assert not edges_match_modulo_boundary(
            ps, radii, norm, reference, InfluenceGraph(3, broken)
        )
        # empty graphs: nothing flips between two of them, and every edge
        # flips against the reference, (0, 1) included
        empty = InfluenceGraph(3, [])
        assert edges_match_modulo_boundary(ps, radii, norm, empty, InfluenceGraph(3, []))
        assert not edges_match_modulo_boundary(ps, radii, norm, reference, empty)
        assert not edges_match_modulo_boundary(ps, radii, norm, empty, reference)
        # a subgraph missing only the tie matches from either side; the
        # suite's test "a <= b" is that b absorbs a's edges
        assert edges_match_modulo_boundary(ps, radii, norm, tied, reference)
        assert InfluenceGraph(3, np.concatenate((reference.pairs, tied.pairs))) == reference
        assert InfluenceGraph(3, np.concatenate((tied.pairs, reference.pairs))) != tied
        assert InfluenceGraph(3, np.concatenate((tied.pairs, empty.pairs))) == tied

    def test_norm_family_labels(self):
        labels = [label for label, _ in norm_family_samples()]
        assert labels == ["lp1-d3", "lp2-d3", "lpinf-d3", "lp3-d2", "wlp2-d3", "poly-d2"]


def random_pairs(draw, n):
    """A random subset of the pairs i < j on n vertices."""
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    return [pair for pair, kept in zip(candidates, keep) if kept]


class TestSubgraphTest:
    """``_subgraph`` looks the keys up in the larger graph; the suite used to
    merge the two graphs and compare the union with the larger one."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_merged_graph(self, data):
        n = data.draw(st.integers(0, 9))
        graph = InfluenceGraph(n, random_pairs(data.draw, n))
        sub = InfluenceGraph(n, data.draw(st.sampled_from([
            random_pairs(data.draw, n),  # unrelated
            [tuple(p) for p in graph.pairs.tolist() if data.draw(st.booleans())],  # a subset
            graph.pairs,  # equal
            [],  # empty
        ])))
        merged = InfluenceGraph(n, np.concatenate((graph.pairs, sub.pairs)))
        assert _subgraph(sub, graph) == (merged == graph)

    def test_empty_and_equal_graphs(self):
        empty, path = InfluenceGraph(4, []), InfluenceGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert _subgraph(empty, empty) and _subgraph(empty, path) and _subgraph(path, path)
        assert not _subgraph(path, empty)
        assert not _subgraph(InfluenceGraph(4, [(2, 3), (0, 3)]), path)
        # a key past the last one of the larger graph
        assert not _subgraph(InfluenceGraph(4, [(0, 1), (2, 3)]), InfluenceGraph(4, [(0, 1)]))


class TestVerifySuite:
    def test_all_categories_pass(self):
        report = run_verify_suite(seed=0, instances=12, include_lemmas=True)
        assert report.passed
        assert {c.name for c in report.checks} == EXPECTED_CATEGORIES
        assert report.failures() == []

    def test_lines_and_dict_round_trip(self):
        report = run_verify_suite(seed=1, instances=6)
        lines = report.lines()
        assert lines[-1].endswith("checks passed")
        assert all(line.startswith("[PASS]") for line in lines[:-1])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["passed"] is True
        assert len(payload["checks"]) == len(report.checks)

    def test_broken_edge_rule_is_caught(self):
        report = run_verify_suite(seed=0, instances=12, inject_fault=True)
        assert not report.passed
        names = [c.name for c in report.failures()]
        assert "known-answers" in names

    def test_seed_sweep(self):
        for seed in range(3):
            assert run_verify_suite(seed=seed, instances=8).passed
