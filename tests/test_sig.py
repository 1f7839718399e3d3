"""Unit and property tests for radius computation, graph construction, and bounds."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siglab import sig
from siglab.io import export_graph
from siglab.lemmas import counting_check
from siglab.norms import _cyclic_distances, _differences, lp_norm, pairwise_distances, polytope_norm, weighted_lp_norm
from siglab.sig import (
    _BLOCK,
    Coloring,
    InfluenceGraph,
    PointSet,
    RadiusAssignment,
    build_aux_graph,
    build_ksig,
    degree_sequence,
    greedy_color,
    ksig_pipeline,
    kth_radii,
    sort_by_radius,
    verify_bounds,
)
from siglab.suites import bitwise_stable_norm, brute_force_radii, edges_from_rule

L2_1 = lp_norm(2.0, 1)
L2_2 = lp_norm(2.0, 2)
LINE = PointSet(np.array([[0.0], [1.0], [3.0], [7.0]]))


def random_graphs(draw):
    """(n, pairs): n of 0..12 vertices and a random subset of the pairs i < j."""
    n = draw(st.integers(0, 12))
    candidates = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(candidates), max_size=len(candidates)))
    return n, [pair for pair, kept in zip(candidates, keep) if kept]


def loop_coloring(n, pairs, order):
    """The greedy coloring by the plain loop: every neighbor read, from an
    adjacency list built here; uncolored neighbors have color 0."""
    adjacency = [[] for _ in range(n)]
    for i, j in pairs:
        adjacency[i].append(j)
        adjacency[j].append(i)
    colors = [0] * n
    for v in order:
        taken = {colors[u] for u in adjacency[v]}
        c = 1
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def point_sets(draw):
    # distinct sites on a coarse grid: the degree theorem assumes distinct
    # points (a coincident cluster has radius 0 and forms an arbitrarily large
    # clique), and rounding to 6 decimals keeps exact ties common without ever
    # letting a squared coordinate difference underflow to zero
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(2, 12))
    coord = st.floats(-10.0, 10.0, allow_nan=False).map(lambda c: round(c, 6))
    row = st.tuples(*[coord] * dim)
    rows = draw(st.lists(row, min_size=m, max_size=m, unique=True))
    return PointSet(np.array(rows, dtype=np.float64))


def _strict_graph(ps, radii, norm):
    """The graph of the broken rule dist < r_i + r_j, decoded from the closed-pass keys."""
    return sig._keyed_graph(sig._closed_pairs(ps, radii, norm), len(ps), sig._STRICT)


class TestContainers:
    def test_point_set_shape_checks(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            PointSet(np.zeros((1, 2)))
        with pytest.raises(ValueError, match=r"\(m, dim\)"):
            PointSet(np.zeros(4))
        with pytest.raises(ValueError, match="one coordinate"):
            PointSet(np.zeros((3, 0)))

    def test_point_set_is_read_only(self):
        ps = PointSet(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ps.points[0, 0] = 1.0

    def test_radius_assignment_rejects_bad_k(self):
        with pytest.raises(ValueError, match="positive integer"):
            RadiusAssignment(0, np.ones(3))

    @pytest.mark.parametrize("values, index", [([1.0, -1.0], 1), ([math.nan, 1.0], 0), ([0.0, math.inf], 1)])
    def test_radius_assignment_rejects_negative_and_non_finite_radii(self, values, index):
        # the subgraph rules filter the closed pairs, which needs max(r_i, r_j) <= r_i + r_j
        with pytest.raises(ValueError, match=f"radius {index} must be finite and >= 0"):
            RadiusAssignment(1, values)

    def test_graph_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError, match="bad edge"):
            InfluenceGraph(3, frozenset({(0, 3)}))
        with pytest.raises(ValueError, match="bad edge"):
            InfluenceGraph(3, frozenset({(2, 1)}))
        with pytest.raises(ValueError, match=r"bad edge \(2, 1\)"):
            InfluenceGraph(3, np.array([[0, 1], [2, 1], [0, 5]]))
        with pytest.raises(ValueError, match="integer"):
            InfluenceGraph(3, [(0.5, 1)])

    def test_graph_pairs_are_canonical(self):
        expected = [[0, 2], [0, 4], [1, 2], [3, 4]]
        given = [(3, 4), (0, 4), (0, 2), (1, 2), (0, 4)]
        for pairs in (given, frozenset(given), np.array(given, dtype=np.int32)):
            graph = InfluenceGraph(5, pairs)
            assert graph.pairs.tolist() == expected
            assert graph.pairs.dtype == np.int64 and not graph.pairs.flags.writeable
        assert graph == InfluenceGraph(5, expected) and graph != InfluenceGraph(6, expected)
        assert graph.edges == frozenset(map(tuple, expected))
        assert [graph.neighbors(v).tolist() for v in range(5)] == [[2, 4], [2], [0, 1], [4], [0, 3]]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sorted_unsorted_and_repeated_pairs_give_one_graph(self, data):
        n, pairs = random_graphs(data.draw)
        ordered = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        shuffled = ordered[data.draw(st.permutations(range(len(ordered))))]
        repeated = np.concatenate((shuffled, shuffled[: len(shuffled) // 2]))
        for given in (ordered, shuffled, repeated, np.repeat(ordered, 2, axis=0)):
            assert np.array_equal(InfluenceGraph(n, given).pairs, ordered)
            # the graph keeps a copy: the caller's array is never frozen
            assert given.flags.writeable

    def test_graph_from_adjacency(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[1, 2] = adj[2, 1] = True
        graph = InfluenceGraph(3, np.argwhere(np.triu(adj, 1)))
        assert graph.pairs.tolist() == [[0, 1], [1, 2]]
        assert [graph.neighbors(v).tolist() for v in range(3)] == [[1], [0, 2], [1]]


    def test_neighbors_rejects_vertices_out_of_range(self):
        graph = InfluenceGraph(3, [(0, 1)])
        for v in (-1, 3):
            with pytest.raises(ValueError, match=r"vertex .* out of range: the graph has vertices 0\.\.2"):
                graph.neighbors(v)
        with pytest.raises(ValueError, match="out of range"):
            InfluenceGraph(0, []).neighbors(0)
        with pytest.raises(TypeError):
            graph.neighbors(1.5)
        assert graph.neighbors(np.int64(1)).tolist() == [0]

    def test_neighbors_of_isolated_end_vertices(self):
        # vertices 0 and 5 have no edges; 3 has an earlier and a later neighbor
        graph = InfluenceGraph(6, [(1, 3), (2, 3), (1, 4), (3, 4)])
        assert [graph.neighbors(v).tolist() for v in range(6)] == [[], [3, 4], [3], [1, 2, 4], [1, 3], []]
        assert all(graph.neighbors(v).dtype == np.int64 for v in range(6))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_neighbors_are_the_dense_adjacency_rows(self, data):
        n, pairs = random_graphs(data.draw)
        adjacency = np.zeros((n, n), dtype=bool)
        for i, j in pairs:
            adjacency[i, j] = adjacency[j, i] = True
        graph = InfluenceGraph(n, pairs)
        for v in range(n):
            assert graph.neighbors(v).tolist() == np.flatnonzero(adjacency[v]).tolist()


class TestRadii:
    def test_line_example_k1(self):
        radii = kth_radii(LINE, 1, L2_1)
        assert radii.radii.tolist() == [1.0, 1.0, 2.0, 4.0]

    def test_line_example_k2(self):
        radii = kth_radii(LINE, 2, L2_1)
        assert radii.radii.tolist() == [3.0, 2.0, 3.0, 6.0]

    def test_two_points(self):
        ps = PointSet(np.array([[0.0, 0.0], [1.5, 2.0]]))
        radii = kth_radii(ps, 1, L2_2)
        assert radii.radii.tolist() == [2.5, 2.5]

    def test_duplicates_have_zero_radius(self):
        ps = PointSet(np.zeros((3, 2)))
        assert kth_radii(ps, 1, L2_2).radii.tolist() == [0.0, 0.0, 0.0]

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            kth_radii(LINE, 0, L2_1)

    @pytest.mark.parametrize("k", [2.0, 2.5, True, "2", None, np.float64(2.0), np.bool_(True)])
    def test_rejects_a_k_that_is_not_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            kth_radii(LINE, k, L2_1)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            RadiusAssignment(k, np.ones(4))

    def test_numpy_integer_k_is_stored_as_an_int(self, tmp_path):
        radii = kth_radii(LINE, np.int64(2), L2_1)
        assert type(radii.k) is int and radii.k == 2
        assert type(RadiusAssignment(np.int32(3), np.ones(2)).k) is int
        export_graph(build_ksig(LINE, radii, L2_1), radii, tmp_path / "g.json")
        assert '"k": 2,' in (tmp_path / "g.json").read_text()

    def test_rejects_k_too_large(self):
        ps = PointSet(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="insufficient points for k=3"):
            kth_radii(ps, 3, L2_1)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_sorted_distance_oracle(self, data):
        ps = point_sets(data.draw)
        k = data.draw(st.integers(1, min(len(ps) - 1, 4)))
        norm = data.draw(
            st.sampled_from(
                [lp_norm(1.0, ps.dim), lp_norm(2.0, ps.dim), lp_norm(math.inf, ps.dim)]
            )
        )
        fast = kth_radii(ps, k, norm)
        assert fast.radii.tolist() == brute_force_radii(ps, k, norm)


class TestGraphConstruction:
    def test_line_example_edges(self):
        radii = kth_radii(LINE, 1, L2_1)
        graph = build_ksig(LINE, radii, L2_1)
        assert graph.pairs.tolist() == [[0, 1], [0, 2], [1, 2], [2, 3]]
        assert degree_sequence(graph).tolist() == [2, 2, 3, 1]

    def test_boundary_tie_is_an_edge(self):
        # |0 - 3| equals r_0 + r_2 exactly; the closed rule keeps it
        ps = PointSet(np.array([[0.0], [1.0], [3.0]]))
        radii = kth_radii(ps, 1, L2_1)
        assert radii.radii.tolist() == [1.0, 1.0, 2.0]
        graph = build_ksig(ps, radii, L2_1)
        assert graph.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_strict_flag_drops_exact_ties(self):
        ps = PointSet(np.array([[0.0], [1.0], [3.0]]))
        radii = kth_radii(ps, 1, L2_1)
        graph = _strict_graph(ps, radii, L2_1)
        assert graph.pairs.tolist() == [[0, 1], [1, 2]]

    def test_duplicate_points_form_a_clique(self):
        ps = PointSet(np.zeros((3, 2)))
        graph = build_ksig(ps, kth_radii(ps, 1, L2_2), L2_2)
        assert graph.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_unit_square_under_max_norm(self):
        ps = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        norm = lp_norm(math.inf, 2)
        graph = build_ksig(ps, kth_radii(ps, 1, norm), norm)
        assert len(graph.edges) == 6

    def test_polytope_span_bound_reads_the_absolute_functionals(self):
        # under |functionals| the span (1e308, 1e308) has norm 2e308, so the
        # points are refused, though the functional (1, -1) gives 0 at the span
        norm = polytope_norm([[1.0, -1.0], [0.0, 1.0]])
        ps = PointSet(np.array([[0.0, 0.0], [1e308, 1e308], [1.0, 0.0]]))
        for call in (lambda: kth_radii(ps, 1, norm), lambda: build_ksig(ps, RadiusAssignment(1, np.ones(3)), norm)):
            with pytest.raises(ValueError, match=r"too far apart: their distances under poly\[2x2\] overflow"):
                call()
        # read from a cached spec; a norm other than a polytope is its own bound
        assert norm._bounding is norm._bounding
        assert norm._bounding.functionals.tolist() == [[1.0, 1.0], [0.0, 1.0]]
        assert L2_2._bounding is L2_2

    def test_length_mismatch_rejected(self):
        radii = RadiusAssignment(1, np.ones(3))
        with pytest.raises(ValueError, match="radii"):
            build_ksig(LINE, radii, L2_1)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_agrees_with_pairwise_rule(self, data):
        ps = point_sets(data.draw)
        k = data.draw(st.integers(1, min(len(ps) - 1, 4)))
        norm = lp_norm(2.0, ps.dim)
        radii = kth_radii(ps, k, norm)
        graph = build_ksig(ps, radii, norm)
        assert graph == edges_from_rule(ps, radii, norm)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_growing_k_only_adds_edges(self, data):
        ps = point_sets(data.draw)
        top = min(len(ps) - 1, 4)
        if top < 2:
            return
        norm = lp_norm(1.0, ps.dim)
        k = data.draw(st.integers(1, top - 1))
        small = kth_radii(ps, k, norm)
        large = kth_radii(ps, k + 1, norm)
        assert np.all(large.radii >= small.radii)
        assert build_ksig(ps, small, norm).edges <= build_ksig(ps, large, norm).edges


class TestAuxiliaryGraph:
    def test_line_example_is_edgeless(self):
        radii = kth_radii(LINE, 1, L2_1)
        assert build_aux_graph(LINE, radii, L2_1).edges == frozenset()

    def test_three_point_path(self):
        ps = PointSet(np.array([[0.0], [1.0], [3.0]]))
        radii = kth_radii(ps, 2, L2_1)
        assert radii.radii.tolist() == [3.0, 2.0, 3.0]
        aux = build_aux_graph(ps, radii, L2_1)
        assert aux.pairs.tolist() == [[0, 1], [1, 2]]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_subgraph_of_influence_graph(self, data):
        # dist < max(r_i, r_j) forces dist <= r_i + r_j, so every aux edge
        # must already be an influence edge
        ps = point_sets(data.draw)
        k = data.draw(st.integers(1, min(len(ps) - 1, 4)))
        norm = data.draw(
            st.sampled_from([lp_norm(1.0, ps.dim), lp_norm(math.inf, ps.dim)])
        )
        radii = kth_radii(ps, k, norm)
        assert build_aux_graph(ps, radii, norm).edges <= build_ksig(ps, radii, norm).edges


class TestColoring:
    def test_radius_order_is_stable(self):
        radii = RadiusAssignment(1, np.array([2.0, 1.0, 2.0, 1.0]))
        assert sort_by_radius(radii).tolist() == [1, 3, 0, 2]

    def test_path_coloring_in_radius_order(self):
        ps = PointSet(np.array([[0.0], [1.0], [3.0]]))
        radii = kth_radii(ps, 2, L2_1)
        aux = build_aux_graph(ps, radii, L2_1)
        coloring = greedy_color(aux, sort_by_radius(radii))
        assert coloring.colors.tolist() == [2, 1, 2] and coloring.num_colors == 2
        assert type(coloring.num_colors) is int

    def test_edgeless_graph_gets_one_color(self):
        graph = InfluenceGraph(4, frozenset())
        coloring = greedy_color(graph, [0, 1, 2, 3])
        assert coloring.colors.tolist() == [1, 1, 1, 1] and coloring.num_colors == 1

    def test_rejects_non_permutation_order(self):
        graph = InfluenceGraph(3, frozenset())
        with pytest.raises(ValueError, match="permutation"):
            greedy_color(graph, [0, 1, 1])

    @pytest.mark.parametrize(
        "order",
        [[0, 2, 2], [2, 0, 0], [0, 1, 3], [-1, 0, 1], [0, 1], [2, 1, 0, 1], [], [[0, 1, 2]]],
        ids=["duplicate", "duplicate-first", "missing", "negative", "short", "long", "empty", "2-d"],
    )
    def test_rejects_an_order_array_that_is_not_a_permutation(self, order):
        graph = InfluenceGraph(3, [(0, 1)])
        with pytest.raises(ValueError, match="permutation"):
            greedy_color(graph, np.array(order, dtype=np.int64))

    def test_rejects_an_order_of_floats(self):
        graph = InfluenceGraph(3, [(0, 1)])
        with pytest.raises(ValueError, match="permutation"):
            greedy_color(graph, [1.0, 0.0, 2.0])

    @pytest.mark.parametrize("case", ["float", "short", "duplicate", "negative", "too-large"])
    def test_a_large_graph_rejects_each_bad_order(self, case):
        # above _DENSE vertices, so the rounds would color the graph
        n = 300
        graph = InfluenceGraph(n, [(i, i + 1) for i in range(n - 1)])
        order = np.arange(n)
        bad = {
            "float": order.astype(np.float64),
            "short": order[:-1],
            "duplicate": np.r_[order[:-1], 0],
            "negative": np.r_[order[:-1], -1],
            "too-large": np.r_[order[:-1], n],
        }[case]
        with pytest.raises(ValueError, match="^order is not a permutation of the graph's vertices$"):
            greedy_color(graph, bad)

    def test_an_unsigned_order_colors_as_a_signed_one(self):
        graph = InfluenceGraph(300, [(i, i + 1) for i in range(299)])
        order = np.random.default_rng(0).permutation(300)
        unsigned = greedy_color(graph, order.astype(np.uint64))
        assert unsigned.colors.tolist() == greedy_color(graph, order).colors.tolist()

    def test_empty_graph_takes_an_empty_order(self):
        for order in ([], np.array([], dtype=np.int64)):
            coloring = greedy_color(InfluenceGraph(0, []), order)
            assert coloring.colors.tolist() == [] and coloring.num_colors == 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_aux_coloring_uses_at_most_k_colors(self, data):
        ps = point_sets(data.draw)
        k = data.draw(st.integers(1, min(len(ps) - 1, 4)))
        norm = lp_norm(2.0, ps.dim)
        radii = kth_radii(ps, k, norm)
        aux = build_aux_graph(ps, radii, norm)
        coloring = greedy_color(aux, sort_by_radius(radii))
        assert coloring.num_colors <= k
        for i, j in aux.edges:
            assert coloring.colors[i] != coloring.colors[j]


class TestGreedyColorMatchesTheLoop:
    """``greedy_color`` reads only earlier neighbors; the loop reads them all."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_graphs_in_random_orders(self, data):
        n, pairs = random_graphs(data.draw)
        order = data.draw(st.permutations(range(n)))
        coloring = greedy_color(InfluenceGraph(n, pairs), order)
        assert coloring.colors.tolist() == loop_coloring(n, pairs, order)

    def test_lattice_aux_graph_in_radius_order(self):
        # a permuted l1 integer lattice: radii and distances tie everywhere, and
        # at k = 5 an inner point's radius is 2, so it meets its 4 unit neighbors
        ps, norm = PointSet(_lattice(26, 1)), lp_norm(1.0, 2)
        radii = kth_radii(ps, 5, norm)
        aux = build_aux_graph(ps, radii, norm)
        assert len(aux.pairs) > len(ps)
        for order in (sort_by_radius(radii), sort_by_radius(radii)[::-1]):
            coloring = greedy_color(aux, order)
            assert coloring.colors.tolist() == loop_coloring(len(ps), aux.pairs.tolist(), order.tolist())
        assert greedy_color(aux, sort_by_radius(radii)).num_colors <= 5

    @pytest.mark.parametrize(
        "n, pairs, order, colors",
        [
            (0, [], [], []),
            (3, [], [2, 0, 1], [1, 1, 1]),
            (4, [(1, 2)], [3, 2, 1, 0], [1, 2, 1, 1]),
            (4, list(itertools.combinations(range(4), 2)), [2, 0, 3, 1], [2, 4, 1, 3]),
            (5, [(i, i + 1) for i in range(4)], [0, 1, 2, 3, 4], [1, 2, 1, 2, 1]),
            (5, [(i, i + 1) for i in range(4)], [4, 3, 2, 1, 0], [1, 2, 1, 2, 1]),
            (4, [(i, i + 1) for i in range(3)], [3, 2, 1, 0], [2, 1, 2, 1]),
            (4, [(i, i + 1) for i in range(3)], [0, 3, 1, 2], [1, 2, 3, 1]),
        ],
        ids=["empty", "isolated", "isolated-and-edge", "complete", "path", "chain-reversed",
             "even-chain-reversed", "path-needing-three"],
    )
    def test_small_graphs(self, n, pairs, order, colors):
        coloring = greedy_color(InfluenceGraph(n, pairs), order)
        assert coloring.colors.tolist() == colors == loop_coloring(n, pairs, order)
        assert coloring.num_colors == max(colors, default=0)


def _loop_colors(graph, order):
    """``greedy_color`` with no rounds: the loop in ``order`` colors every vertex."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sig, "_ROUNDS", 0)
        return greedy_color(graph, order).colors.tolist()


def _left_to_the_loop(graph, order):
    """The colors of ``greedy_color`` and how many vertices its loop colored."""
    left = []
    real = sig._color_loop

    def loop(early, late, colors):
        left.append(int(np.count_nonzero(colors == 0)))
        real(early, late, colors)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sig, "_color_loop", loop)
        coloring = greedy_color(graph, order)
    return coloring, left[0]


class TestRoundColoring:
    """Above ``_DENSE`` vertices ``greedy_color`` colors in rounds; against the
    loop on the same graph and order (``_ROUNDS`` = 0)."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_graphs_in_random_orders(self, data):
        n = data.draw(st.integers(sig._DENSE + 1, 600))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        ends = rng.integers(0, n, size=(data.draw(st.integers(0, 8 * n)), 2))
        graph = InfluenceGraph(n, np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1))
        order = rng.permutation(n)
        coloring, left = _left_to_the_loop(graph, order)
        assert coloring.colors.tolist() == _loop_colors(graph, order)
        assert coloring.num_colors == max(coloring.colors.tolist())
        assert left < n  # the first vertex in order has no earlier neighbor

    def test_tie_heavy_lattice_radii(self):
        ps, norm = PointSet(_lattice(26, 1)), lp_norm(1.0, 2)
        for k in (1, 4, 9):
            radii = kth_radii(ps, k, norm)
            aux = build_aux_graph(ps, radii, norm)
            for order in (sort_by_radius(radii), sort_by_radius(radii)[::-1]):
                coloring, left = _left_to_the_loop(aux, order)
                assert coloring.colors.tolist() == _loop_colors(aux, order)
                assert left == 0
            assert greedy_color(aux, sort_by_radius(radii)).num_colors <= k

    @pytest.mark.parametrize("n", [sig._DENSE, sig._DENSE + 1])
    def test_at_the_threshold(self, n):
        rng = np.random.default_rng(n)
        ends = rng.integers(0, n, size=(3 * n, 2))
        graph = InfluenceGraph(n, np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1))
        order = rng.permutation(n)
        coloring, left = _left_to_the_loop(graph, order)
        assert coloring.colors.tolist() == _loop_colors(graph, order)
        assert left == (n if n <= sig._DENSE else 0)

    def test_chain_longer_than_the_round_cap(self):
        n = sig._DENSE + 2 * sig._ROUNDS
        graph = InfluenceGraph(n, [(i, i + 1) for i in range(n - 1)])
        for order in (np.arange(n), np.arange(n)[::-1]):
            # each round colors the one vertex whose earlier neighbor has a color
            coloring, left = _left_to_the_loop(graph, order)
            expected = ([1, 2] * (n // 2))[:: 1 if order[0] == 0 else -1]
            assert coloring.colors.tolist() == _loop_colors(graph, order) == expected
            assert left == n - sig._ROUNDS

    def test_more_colors_than_the_mask_holds(self):
        # K_70 needs 70 colors; the rounds stop at the vertex that would take color 64
        n = sig._DENSE + 1
        graph = InfluenceGraph(n, list(itertools.combinations(range(70), 2)))
        order = np.random.default_rng(3).permutation(n)
        coloring, left = _left_to_the_loop(graph, order)
        assert coloring.colors.tolist() == _loop_colors(graph, order)
        assert coloring.num_colors == 70 and 0 < left <= n - 63

    def test_edgeless_graph(self):
        n = sig._DENSE + 1
        coloring, left = _left_to_the_loop(InfluenceGraph(n, []), np.arange(n)[::-1])
        assert coloring.colors.tolist() == [1] * n and coloring.num_colors == 1 and left == 0


class TestIntegerArrayResults:
    def test_per_vertex_results_are_int64_arrays(self):
        radii = kth_radii(LINE, 1, L2_1)
        graph = build_ksig(LINE, radii, L2_1)
        report = verify_bounds(graph, radii, dim=1)
        coloring = greedy_color(graph, sort_by_radius(radii))
        results = [
            (sort_by_radius(radii), [0, 1, 2, 3], True),
            (degree_sequence(graph), [2, 2, 3, 1], True),
            (report.degree_sequence, [2, 2, 3, 1], False),
            (coloring.colors, [1, 2, 3, 1], False),
        ]
        for array, values, writeable in results:
            assert type(array) is np.ndarray and array.dtype == np.int64
            assert array.tolist() == values
            assert array.flags.writeable == writeable

    def test_scalar_fields_stay_python_ints(self):
        radii = kth_radii(LINE, 1, L2_1)
        graph = build_ksig(LINE, radii, L2_1)
        report = verify_bounds(graph, radii, dim=1)
        coloring = greedy_color(graph, sort_by_radius(radii))
        assert report.witness_vertices == (0, 1) and type(report.witness_vertices) is tuple
        scalars = [*report.witness_vertices, report.bound, report.edge_count, report.edge_bound]
        assert all(type(v) is int for v in scalars + [coloring.num_colors])
        assert coloring.num_colors == 3
        assert type(report.passed) is bool and type(report.edge_bound_ok) is bool

    def test_coloring_stores_any_sequence_as_a_read_only_array(self):
        coloring = Coloring(colors=(1, 2, 1), num_colors=2)
        assert coloring.colors.dtype == np.int64 and coloring.colors.tolist() == [1, 2, 1]
        with pytest.raises(ValueError):
            coloring.colors[0] = 5


class TestBounds:
    def test_line_example_report(self):
        radii = kth_radii(LINE, 1, L2_1)
        graph = build_ksig(LINE, radii, L2_1)
        report = verify_bounds(graph, radii, dim=1)
        assert report.witness_vertices == (0, 1)
        assert report.bound == 5
        assert report.passed
        assert report.edge_bound == 16 and report.edge_count == 4
        assert report.edge_bound_ok
        # plain ints, so reports and the CLI print them as numbers
        values = report.witness_vertices + (report.bound, report.edge_count)
        assert all(type(v) is int for v in values)

    def test_degrees_count_the_pairs_without_copying_them(self):
        # np.bincount copies a read-only input, so the pairs are counted in
        # chunks of max(n, 2^16) entries: a chunk's copy and counts, 2 x 512 KB
        ps, norm = PointSet(np.random.default_rng(1).uniform(size=(2**16, 2))), lp_norm(2.0, 2)
        graph = build_ksig(ps, kth_radii(ps, 3, norm), norm)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            degrees = degree_sequence(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not graph.pairs.flags.writeable and graph.pairs.nbytes > 8 * degrees.nbytes
        assert np.array_equal(degrees, np.bincount(graph.pairs.ravel(), minlength=len(ps)))
        assert peak <= degrees.nbytes + 2 * 8 * 2**16 + 2**12

    def test_failure_is_reported_not_raised(self):
        # an inflated radius assignment can push a witness to full degree
        ps = PointSet(np.zeros((7, 1)))
        radii = RadiusAssignment(1, np.zeros(7))
        graph = build_ksig(ps, radii, L2_1)
        report = verify_bounds(graph, radii, dim=1)
        assert report.degree_sequence.tolist() == [6] * 7
        assert not report.passed

    @pytest.mark.parametrize(
        "values",
        [[1.5] * 6, [3.0, 1.0, 2.0, 1.0, 5.0], [4.0, 2.0, 2.0, 1.0], [2.0, 1.0], [1.0, 1.0], [0.0, 2.0]],
        ids=["all equal", "two tied minima", "tie for second", "n=2", "n=2 tied", "zero first"],
    )
    def test_witnesses_are_the_first_two_in_radius_order(self, values):
        radii = RadiusAssignment(1, values)
        assert sig._witnesses(radii).tolist() == sort_by_radius(radii)[:2].tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=0, max_size=9))
    def test_witnesses_match_the_stable_sort_on_tie_heavy_radii(self, values):
        radii = RadiusAssignment(1, np.array(values, dtype=np.float64))
        witnesses = sig._witnesses(radii)
        assert witnesses.dtype == np.int64
        assert witnesses.tolist() == sort_by_radius(radii)[:2].tolist()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_witness_degrees_below_bound(self, data):
        ps = point_sets(data.draw)
        k = data.draw(st.integers(1, min(len(ps) - 1, 4)))
        norm = data.draw(
            st.sampled_from([lp_norm(1.0, ps.dim), lp_norm(2.0, ps.dim)])
        )
        radii = kth_radii(ps, k, norm)
        graph = build_ksig(ps, radii, norm)
        report = verify_bounds(graph, radii, dim=ps.dim)
        assert report.passed
        assert len(graph.edges) <= (5**ps.dim * k - 1) * len(ps)


class TestPipeline:
    def test_matches_manual_composition(self):
        result = ksig_pipeline(LINE, 1, L2_1)
        radii = kth_radii(LINE, 1, L2_1)
        assert result.radii.radii.tolist() == radii.radii.tolist()
        assert result.graph == build_ksig(LINE, radii, L2_1)
        assert result.report.passed

    @pytest.mark.parametrize("m, passes, public", [(256, 1, []), (257, 2, ["kth_radii", "build_ksig"])])
    def test_a_dense_pipeline_evaluates_its_pairs_once(self, monkeypatch, m, passes, public):
        # up to 256 points the radii and closed passes read one cyclic half;
        # above, each pass evaluates each leaf's rows once, the passes share
        # nothing and the pipeline calls the public steps
        evaluated, called = [], []

        def counting(norm, points, t, work=None):
            evaluated.append(points[..., t, :])
            return _cyclic_distances(norm, points, t, work)

        def logged(fn):
            return lambda *args: called.append(fn.__name__) or fn(*args)

        ps = PointSet(np.random.default_rng(m).uniform(size=(m, 2)))
        radii = kth_radii(ps, 3, L2_2)
        graph = build_ksig(ps, radii, L2_2)
        monkeypatch.setattr(sig, "_cyclic_distances", counting)
        for name in ("kth_radii", "build_ksig"):
            monkeypatch.setattr(sig, name, logged(getattr(sig, name)))
        result = ksig_pipeline(ps, 3, L2_2)
        assert np.array_equal(_sorted_rows(evaluated), _sorted_rows([ps.points] * passes)) and called == public
        assert result.radii.radii.tobytes() == radii.radii.tobytes() and result.graph == graph

    def test_is_deterministic(self):
        rng = np.random.default_rng(19)
        ps = PointSet(rng.uniform(-5.0, 5.0, size=(30, 2)))
        first = ksig_pipeline(ps, 3, L2_2)
        second = ksig_pipeline(ps, 3, L2_2)
        assert np.array_equal(first.radii.radii, second.radii.radii)
        assert first.graph == second.graph

    def test_refuses_coincident_points(self):
        # -0.0 and 0.0 are one point, also with another point between them in index order
        ps = PointSet(np.array([[0.0, 1.0], [-0.0, 0.0], [3.0, 2.0], [-0.0, 1.0]]))
        with pytest.raises(ValueError, match=r"points 0 and 3 coincide at \[0.0, 1.0\]"):
            ksig_pipeline(ps, 1, L2_2)
        # the builders keep accepting a multiset
        assert kth_radii(ps, 1, L2_2).radii[0] == 0.0

    def test_refuses_distances_that_underflow(self):
        # |1e-9|^40 is below the smallest double, so distinct points sit at distance 0
        ps = PointSet(np.array([[0.0], [1e-9], [2e-9], [1.0]]))
        l40 = lp_norm(40.0, 1)
        assert kth_radii(ps, 1, l40).radii.tolist()[:3] == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="points 0 and 1 are distinct, but their distance under l40"):
            ksig_pipeline(ps, 1, l40)


class TestCoincidenceOnBothEnginePaths:
    """The pipeline's refusals on the dense path, and with 16-point leaves and
    ``_DENSE`` = 16 on the leaf path: coincident rows are found by their keys
    before the radii pass, and an underflow by a zero radius after it."""

    @staticmethod
    def _message(pts, k, norm, leaves):
        with pytest.MonkeyPatch.context() as patch:
            if leaves:
                patch.setattr(sig, "_DENSE", 16)
                patch.setattr(sig, "_BLOCK", 16)
            with pytest.raises(ValueError) as err:
                ksig_pipeline(PointSet(pts), k, norm)
        return str(err.value)

    @pytest.mark.parametrize("leaves", [False, True], ids=["dense", "leaves"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_names_the_first_coincident_pair_in_lexicographic_order(self, leaves, k):
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(60, 2))
        pts[41] = pts[7]
        pts[50] = pts[12] = pts[33]
        pts[12, 0] = -0.0 if pts[12, 0] == 0.0 else pts[12, 0]
        first = min((7, 41), (12, 33), key=lambda pair: pts[pair[0]].tolist())
        i, j = first
        message = self._message(pts, k, L2_2, leaves)
        assert message == f"points {i} and {j} coincide at {pts[i].tolist()}; the bounds need distinct points"

    @pytest.mark.parametrize("mix", [sig._MIX, np.uint64(0), np.uint64(1)], ids=["mixed", "last-column", "xor"])
    def test_colliding_keys_name_the_same_pair(self, monkeypatch, mix):
        # with a multiplier of 0 every row of an equal last coordinate shares a
        # key, and with 1 every row of an equal xor of both: the lexicographic
        # sort of the suspects still names the first equal pair
        pts = np.array([[3.0, 1.0], [1.0, 3.0], [2.0, 1.0], [-0.0, 5.0], [1.0, 1.0], [0.0, 5.0], [2.0, 1.0]])
        monkeypatch.setattr(sig, "_MIX", mix)
        assert sig._coincident_pair(pts) == (3, 5)
        assert sig._coincident_pair(pts[:5]) is None

    @pytest.mark.parametrize("leaves", [False, True], ids=["dense", "leaves"])
    def test_a_coincident_pair_is_refused_without_a_zero_radius(self, leaves):
        # at k = 2 the pair's radii are their distance to a third point
        pts = np.random.default_rng(5).uniform(size=(40, 2))
        pts[39] = pts[3]
        radii = kth_radii(PointSet(pts), 2, L2_2)
        assert radii.radii[3] > 0.0
        assert self._message(pts, 2, L2_2, leaves).startswith("points 3 and 39 coincide at ")

    @pytest.mark.parametrize("leaves", [False, True], ids=["dense", "leaves"])
    def test_coincidence_beats_an_underflow_elsewhere(self, leaves):
        # under l40, 0 and 1e-9 sit at distance 0; points 30 and 35 coincide
        pts = np.arange(40.0)[:, None]
        pts[1] = 1e-9
        pts[35] = pts[30]
        assert self._message(pts, 1, lp_norm(40.0, 1), leaves).startswith("points 30 and 35 coincide at [30.0]")

    @pytest.mark.parametrize("leaves", [False, True], ids=["dense", "leaves"])
    def test_underflow_only_at_a_zero_radius(self, leaves):
        l40 = lp_norm(40.0, 1)
        pts = np.arange(40.0)[:, None]
        pts[1] = 1e-9
        message = self._message(pts, 1, l40, leaves)
        assert message.startswith("points 0 and 1 are distinct, but their distance under l40 underflows to 0")
        # at k = 2 the radii of 0 and 1e-9 are their distance to 2.0: accepted
        with pytest.MonkeyPatch.context() as patch:
            if leaves:
                patch.setattr(sig, "_DENSE", 16)
                patch.setattr(sig, "_BLOCK", 16)
            assert ksig_pipeline(PointSet(pts), 2, l40).report.passed


def _lattice(side, seed):
    grid = np.array(list(itertools.product(range(side), range(side))), dtype=np.float64)
    return grid[np.random.default_rng(seed).permutation(len(grid))]


def _engine_case(name):
    """(points, k, norm) of at least 600 points, so the blocked, box-pruned path runs."""
    rng = np.random.default_rng(len(name))
    if name == "l1-lattice":
        return _lattice(26, 1), 1, lp_norm(1.0, 2)
    if name == "linf-lattice":
        return _lattice(26, 2), 4, lp_norm(math.inf, 2)
    if name.startswith("duplicates"):
        sites = np.repeat(rng.uniform(0.0, 5.0, size=(230, 2)), 3, axis=0)
        k, norm = (4, lp_norm(1.0, 2)) if name == "duplicates-k4" else (1, lp_norm(2.0, 2))
        return sites[rng.permutation(690)], k, norm
    if name == "clustered-linf":
        centers = rng.uniform(0.0, 10.0, size=(7, 2))
        pts = np.concatenate([rng.normal(c, 0.05, size=(100, 2)) for c in centers])
        return pts, 4, lp_norm(math.inf, 2)
    if name == "lp3":
        return rng.normal(size=(650, 3)), 1, lp_norm(3.0, 3)
    if name == "wlp":
        return rng.normal(size=(650, 3)), 4, weighted_lp_norm(3.0, (0.5, 1.0, 2.5))
    if name == "poly":
        functionals = np.vstack([np.eye(2), rng.uniform(-1.0, 1.0, size=(2, 2))])
        return rng.uniform(0.0, 1.0, size=(700, 2)), 4, polytope_norm(functionals)
    # spread reaches: a leaf's points reach from far below to far above its
    # largest in-leaf distance, so the reach boxes differ from point to point
    if name == "cauchy":
        return rng.standard_t(1.0, size=(1500, 2)), 3, lp_norm(2.0, 2)
    if name == "outliers":
        angle, dist = rng.uniform(0.0, 2.0 * math.pi, size=20), rng.uniform(2.0, 30.0, size=20)
        far = 0.5 + dist[:, None] * np.stack((np.cos(angle), np.sin(angle)), axis=1)
        pts = np.concatenate((rng.uniform(0.0, 1.0, size=(1480, 2)), far))
        return pts[rng.permutation(len(pts))], 2, lp_norm(2.0, 2)
    # coordinate gaps of 1e-9 under l40: |x|^40 underflows, so many distinct
    # points sit at computed distance 0 and only the box floor keeps them
    return rng.integers(0, 40, size=(600, 2)) * 1e-9, 1, lp_norm(40.0, 2)


ENGINE_CASES = [
    "l1-lattice", "linf-lattice", "duplicates", "duplicates-k4", "clustered-linf",
    "lp3", "wlp", "poly", "cauchy", "outliers", "l40-underflow",
]


class TestPairEngineMatchesDense:
    """Radii, graphs and the witness audit against one dense distance matrix, bit for bit."""

    @pytest.mark.parametrize("name", ENGINE_CASES)
    def test_matches_dense_oracle(self, name):
        pts, k, norm = _engine_case(name)
        assert len(pts) > _BLOCK
        ps = PointSet(pts)
        dense = pairwise_distances(norm, pts)
        np.fill_diagonal(dense, np.inf)
        r = np.sort(dense, axis=1)[:, k - 1]
        np.fill_diagonal(dense, 0.0)

        radii = kth_radii(ps, k, norm)
        assert radii.radii.tobytes() == r.tobytes()

        def dense_edges(adjacency):
            np.fill_diagonal(adjacency, False)
            return InfluenceGraph(len(adjacency), np.argwhere(np.triu(adjacency, 1))).edges

        closed = r[:, None] + r[None, :]
        graph = build_ksig(ps, radii, norm)
        assert graph.edges == dense_edges(dense <= closed)
        assert _strict_graph(ps, radii, norm).edges == dense_edges(dense < closed)
        aux = build_aux_graph(ps, radii, norm)
        assert aux.edges == dense_edges(dense < np.maximum(r[:, None], r[None, :]))

        coloring = greedy_color(aux, sort_by_radius(radii))
        one_color = Coloring(colors=(1,) * len(ps), num_colors=1)
        for center in sort_by_radius(radii)[:2]:
            if r[center] == 0.0:
                continue
            neighbors = graph.neighbors(center).tolist()
            outer = sum(dense[center, p] >= r[center] for p in neighbors)
            inside = (dense[center] < r[center]) & (np.arange(len(ps)) != center)
            report = counting_check(ps, radii, graph, coloring, center, norm)
            assert report.passed
            assert report.interior_count == int(inside.sum())
            assert report.degree == len(neighbors)
            assert report.decomposition_bound == outer + k - 1
            # one color is proper on the neighbors iff no two of them are aux-adjacent
            proper = all(
                dense[p, q] >= max(r[p], r[q]) for p, q in itertools.combinations(neighbors, 2)
            )
            if proper:
                counting_check(ps, radii, graph, one_color, center, norm)
            else:
                with pytest.raises(ValueError, match="not proper"):
                    counting_check(ps, radii, graph, one_color, center, norm)

    def test_many_blocks_match_a_slab_oracle(self):
        # a permuted 90 x 90 integer lattice under l1: exact ties everywhere, and
        # at least 32 leaves, so leaf x candidate pruning decides most pairs
        pts, k, norm = _lattice(90, 3), 3, lp_norm(1.0, 2)
        assert len(sig._split(pts, _BLOCK).lo) >= 32
        r, closed, aux = _slab_oracle(pts, k, norm)

        ps = PointSet(pts)
        radii = kth_radii(ps, k, norm)
        assert radii.radii.tobytes() == r.tobytes()
        assert np.array_equal(build_ksig(ps, radii, norm).pairs, closed)
        assert np.array_equal(build_aux_graph(ps, radii, norm).pairs, aux)


class TestPairEngineWithSmallLeaves(TestPairEngineMatchesDense):
    """The same oracles with 16-point leaves: many blocks, many merges of in-block
    and outside distances, and blocks without outside candidates."""

    @pytest.fixture(autouse=True)
    def small_leaves(self, monkeypatch):
        monkeypatch.setattr(sig, "_BLOCK", 16)


def _groups():
    """32 groups of 16 points in unit squares along the x axis: the first 16
    overlap their neighbours' reach, the last 16 lie 10 apart, so with 16-point
    leaves each group is one leaf and half the leaves have no outside candidates."""
    rng = np.random.default_rng(11)
    offsets = [1.2 * g if g < 16 else 100.0 + 10.0 * g for g in range(32)]
    pts = np.concatenate([rng.uniform(size=(16, 2)) + (x, 0.0) for x in offsets])
    return pts[rng.permutation(len(pts))]


class TestLeafBatches:
    """The batched leaf engine against the slab oracle with 16-point leaves,
    evaluations of at most 2^9 entries and candidate chunks of 8 leaf pairs: a
    leaf with more than 32 candidates spans several column chunks, fewer share
    a padded evaluation with other leaves, and every pass takes several chunks
    of leaves."""

    @pytest.fixture(autouse=True)
    def tiny_batches(self, monkeypatch):
        monkeypatch.setattr(sig, "_BLOCK", 16)
        monkeypatch.setattr(sig, "_BATCH", 2**9)
        monkeypatch.setattr(sig, "_TILE", 2**9)

    @staticmethod
    def check(pts, k, norm):
        r, closed, aux = _slab_oracle(pts, k, norm)
        ps = PointSet(pts)
        radii = kth_radii(ps, k, norm)
        assert radii.radii.tobytes() == r.tobytes()
        assert np.array_equal(build_ksig(ps, radii, norm).pairs, closed)
        assert np.array_equal(build_aux_graph(ps, radii, norm).pairs, aux)
        return radii

    @pytest.mark.parametrize("name", ENGINE_CASES)
    @pytest.mark.parametrize("own_k", [True, False], ids=["k", "k7"])
    def test_engine_cases(self, name, own_k):
        pts, k, norm = _engine_case(name)
        self.check(pts, k if own_k else 7, norm)

    @pytest.mark.parametrize("m", [517, 600])
    def test_uneven_leaves(self, m):
        # 517 points: leaves of 16 beside leaves of 8 and 9 a level deeper;
        # 600: leaves of 9 and 10
        pts = np.random.default_rng(m).normal(size=(m, 2))
        sizes = set(np.diff(sig._split(pts, 16).starts).tolist())
        assert sizes == ({8, 9, 16} if m == 517 else {9, 10})
        for k in (1, 4, 7):
            self.check(pts, k, lp_norm(2.0, 2))

    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_leaves_without_candidates(self, k):
        pts = _groups()
        assert np.diff(sig._split(pts, 16).starts).tolist() == [16] * 32
        radii = self.check(pts, k, lp_norm(math.inf, 2))
        # radii below the 9-unit gaps: the far groups have no outside candidates
        assert radii.radii.max() < 2.0

    @pytest.mark.parametrize("name", ["l1-lattice", "poly"])
    def test_closed_keys_ascend_once_each_with_the_bits_compared(self, name):
        # the pass itself, before InfluenceGraph reads its keys: a pair met
        # twice would leave every graph unchanged
        _check_closed_keys(*_engine_case(name))

    @pytest.mark.parametrize("k", [18, 25, 36])
    def test_radii_when_a_column_chunk_is_narrower_than_k(self, k):
        # leaves of at most 2(k + 1) points, of 37 or 38 for 300 points: 2^9
        # entries take 26 or 28 rows of a leaf's own half at once, and the
        # candidate blocks that merge into them are narrower than k
        pts = np.random.default_rng(k).normal(size=(300, 2))
        assert np.diff(sig._split(pts, 2 * (k + 1)).starts).max() == 38
        square = pairwise_distances(L2_2, pts)
        np.fill_diagonal(square, np.inf)
        assert kth_radii(PointSet(pts), k, L2_2).radii.tobytes() == np.sort(square, axis=1)[:, k - 1].tobytes()


class TestSelfPass:
    """Each point set meets itself in one self-pass, from its cyclic half, the
    leaves of one size in one evaluation (a set too big for one evaluation is
    in ``TestPairEngineLayout``).  Radii and closed keys against the square
    matrix."""

    @staticmethod
    def check(pts, k, norm):
        square = pairwise_distances(norm, pts)
        np.fill_diagonal(square, np.inf)
        r = np.sort(square, axis=1)[:, k - 1]
        ps = PointSet(pts)
        radii = kth_radii(ps, k, norm)
        assert radii.radii.tobytes() == r.tobytes()
        assert np.array_equal(sig._closed_pairs(ps, radii, norm), _square_keys(square, r))

    @pytest.mark.parametrize("m", [260, 517])
    @pytest.mark.parametrize("k", [1, 3, 15])
    def test_leaves_of_three_sizes(self, m, k):
        # both passes cut the points into leaves of 16, 17 and 32 (odd and even
        # sets); at k = 15 a row of a 16-point leaf holds exactly k distances
        pts = np.random.default_rng(m).normal(size=(m, 2))
        assert set(np.diff(sig._split(pts, max(_BLOCK, 2 * (k + 1))).starts).tolist()) == {16, 17, 32}
        self.check(pts, k, L2_2)

    @pytest.mark.parametrize("name", ["l1-lattice", "linf-lattice"])
    @pytest.mark.parametrize("k", [1, 4, 12])
    def test_tie_lattices(self, name, k):
        pts, _, norm = _engine_case(name)
        self.check(pts, k, norm)


class TestPairTraversal:
    """Every block of ``_pair_blocks`` with the reach forced to +inf, so no box
    test drops a pair, and with ``TestLeafBatches``' tiny leaves, batches and
    tiles, on the dense path (m <= 256, in row tiles) and on the leaf path."""

    @pytest.fixture(autouse=True)
    def tiny_batches(self, monkeypatch):
        monkeypatch.setattr(sig, "_BLOCK", 16)
        monkeypatch.setattr(sig, "_BATCH", 2**9)
        monkeypatch.setattr(sig, "_TILE", 2**9)

    @staticmethod
    def entries(pts, norm, closed):
        """(rows, cols, dist) of every entry that is not NaN; the radii pass
        lays no columns, so its cols are None."""
        m = len(pts)
        ids, found = np.arange(m + 1), []
        blocks = sig._pair_blocks(PointSet(pts), norm, 16, np.full(m + 1, np.inf), closed)
        for rows, cols, dist in blocks:
            kept = ~np.isnan(dist)
            i = np.broadcast_to(ids[rows][..., None], dist.shape)[kept]
            found.append((i, cols(ids)[kept] if closed else i, dist[kept]))
        i, j, dist = map(np.concatenate, zip(*found))
        assert i.max() < m and j.max() < m
        return i, j if closed else None, dist

    @pytest.mark.parametrize("m", [41, 42, 300])
    @pytest.mark.parametrize("cloud", ["l1-lattice", "lp3", "poly"])
    def test_each_pair_once_with_the_bits_of_the_square_matrix(self, m, cloud):
        rng = np.random.default_rng(m)
        if cloud == "l1-lattice":
            pts, norm = _lattice(20, m)[:m], lp_norm(1.0, 2)
        elif cloud == "lp3":
            pts, norm = rng.normal(size=(m, 3)), lp_norm(3.0, 3)
        else:
            pts, norm = rng.normal(size=(m, 2)), polytope_norm([[1.0, 0.0], [0.0, 1.0], [0.6, -0.8]])
        square = pairwise_distances(norm, pts)
        # the closed pass: each unordered pair exactly once
        lo, hi, dist = self.entries(pts, norm, True)
        keys = np.sort(np.minimum(lo, hi) * m + np.maximum(lo, hi))
        assert np.array_equal(keys, np.flatnonzero(np.triu(np.ones((m, m)), 1)))
        assert dist.tobytes() == square[lo, hi].tobytes()
        # the radii pass: per row, the distances to the m - 1 other points,
        # each exactly once, which is all the k-selection reads
        rows, _, dist = self.entries(pts, norm, False)
        order = np.lexsort((dist, rows))
        others = np.sort(square[~np.eye(m, dtype=bool)].reshape(m, m - 1), axis=1)
        assert np.array_equal(rows[order], np.repeat(np.arange(m), m - 1))
        assert dist[order].tobytes() == others.tobytes()


class TestSplitTree:
    @pytest.mark.parametrize("m, size", [(257, 32), (517, 16), (600, 16), (4000, 32), (70, 30)])
    def test_levels_cover_the_leaves(self, m, size):
        pts = np.random.default_rng(m).uniform(size=(m, 3))
        part = sig._split(pts, size)
        sizes = np.diff(part.starts)
        assert sizes.sum() == m and sizes.min() >= size // 2 and sizes.max() <= size
        assert np.array_equal(np.sort(part.order), np.arange(m))
        assert np.array_equal(part.pts, pts[part.order])
        assert np.array_equal(part.levels[-1].leaf, np.arange(len(sizes)))
        for level, below in itertools.pairwise(part.levels):
            # each node's children are the next level's nodes over the same leaves
            stops = np.append(level.leaf[1:], len(sizes))
            assert np.array_equal(below.leaf[level.first], level.leaf)
            last = level.first + level.count - 1
            assert np.array_equal(np.append(below.leaf[1:], len(sizes))[last], stops)
            # a node's box, as the descent takes it, bounds its leaves' boxes
            for node, (lo, hi) in enumerate(zip(*sig._union(part.lo, part.hi, level.leaf))):
                leaves = slice(level.leaf[node], stops[node])
                assert (lo <= part.lo[leaves]).all() and (hi >= part.hi[leaves]).all()
        padded = part.leaf_pos == m
        assert np.isnan(part.leaf_pts[padded]).all()
        assert np.array_equal(part.leaf_pts[~padded], part.pts[part.leaf_pos[~padded]])


def _slab_oracle(pts, k, norm):
    """Radii, closed pairs and aux pairs from ``pairwise_distances`` in row slabs."""
    m, slab = len(pts), 512
    r = np.empty(m)
    for s in range(0, m, slab):
        dist = pairwise_distances(norm, pts[s : s + slab], pts)
        rows = np.arange(len(dist))
        dist[rows, s + rows] = np.inf
        r[s : s + slab] = np.partition(dist, k - 1, axis=1)[:, k - 1]
    closed, aux = [], []
    for s in range(0, m, slab):
        # the rows s.. against the columns s..: each pair i < j once
        dist = pairwise_distances(norm, pts[s : s + slab], pts[s:])
        i = np.arange(s, s + len(dist))[:, None]
        j = np.arange(s, m)[None, :]
        ri, rj = r[i], r[j]
        for found, hit in ((closed, dist <= ri + rj), (aux, dist < np.maximum(ri, rj))):
            a, b = np.nonzero(hit & (j > i))
            found.append(np.stack((a + s, b + s), axis=1))
    return r, np.concatenate(closed), np.concatenate(aux)


def _check_closed_keys(pts, k, norm):
    """``_closed_pairs`` against the square ``pairwise_distances`` matrix: each
    pair i < j with dist <= r_i + r_j once, ascending, as the key
    (i * m + j) * 4 + 2 * (dist < max(r_i, r_j)) + (dist < r_i + r_j)."""
    ps = PointSet(pts)
    radii = kth_radii(ps, k, norm)
    keys = sig._closed_pairs(ps, radii, norm)
    assert keys.dtype == np.uint64 and np.all(keys[1:] > keys[:-1])
    assert np.array_equal(keys, _square_keys(pairwise_distances(norm, pts), radii.radii))
    assert not np.any((keys & 3) == 2)  # aux implies strict


def _sorted_rows(chunks):
    """The points of ``chunks`` (arrays of points on the last axis), in lexicographic order."""
    rows = np.concatenate([c.reshape(-1, c.shape[-1]) for c in chunks])
    return rows[np.lexsort(rows.T[::-1])]


def _square_keys(square, r):
    """The closed-pass keys of radii r, from the square distance matrix."""
    m = len(r)
    i, j = np.nonzero(np.triu(square <= r[:, None] + r[None, :], 1))
    dist, ri, rj = square[i, j], r[i], r[j]
    aux, strict = (dist < np.maximum(ri, rj)).astype(np.uint64), (dist < ri + rj).astype(np.uint64)
    return (i * m + j).astype(np.uint64) * 4 + aux * 2 + strict


def _one_block_case(draw):
    """(points, k, norm): 20 to 200 points of a permuted integer lattice under l1
    or linf (exact ties), or of a normal cloud under lp:3, wlp or a polytope."""
    m = draw(st.integers(20, 200))
    k = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["l1-lattice", "linf-lattice", "lp3", "wlp", "poly"]))
    rng = np.random.default_rng(seed)
    if kind.endswith("lattice"):
        norm = lp_norm(1.0 if kind == "l1-lattice" else math.inf, 2)
        return _lattice(15, seed)[:m], k, norm
    if kind == "poly":
        functionals = np.vstack([np.eye(2), rng.uniform(-1.0, 1.0, size=(2, 2))])
        return rng.normal(size=(m, 2)), k, polytope_norm(functionals)
    norm = lp_norm(3.0, 3) if kind == "lp3" else weighted_lp_norm(3.0, (0.5, 1.0, 2.5))
    return rng.normal(size=(m, 3)), k, norm


def _engine_bytes(pts, k, norm):
    """Radii and the closed, strict and aux pairs, as bytes."""
    ps = PointSet(pts)
    radii = kth_radii(ps, k, norm)
    graphs = (build_ksig(ps, radii, norm), _strict_graph(ps, radii, norm), build_aux_graph(ps, radii, norm))
    return [radii.radii.tobytes(), *(g.pairs.tobytes() for g in graphs)]


class TestOneBlockPath:
    """Inputs of at most ``_DENSE`` points skip the blocks; with 16-point leaves
    and ``_DENSE`` = 16 the same inputs run through the block loop."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_the_block_loop(self, data):
        pts, k, norm = _one_block_case(data.draw)
        one_block = _engine_bytes(pts, k, norm)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sig, "_DENSE", 16)
            patch.setattr(sig, "_BLOCK", 16)
            assert _engine_bytes(pts, k, norm) == one_block

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_row_tiles_keep_the_bits(self, data):
        pts, k, norm = _one_block_case(data.draw)
        one_block = _engine_bytes(pts, k, norm)
        with pytest.MonkeyPatch.context() as patch:
            # 2**10 entries: tiles of a few rows, at least 2 of them
            patch.setattr(sig, "_TILE", 2**10)
            assert _engine_bytes(pts, k, norm) == one_block


class TestCyclicHalf:
    """The dense passes read each pair once from the cyclic half; against the
    square ``pairwise_distances`` matrix for every small m: odd and even m (the
    offset m / 2 met twice), the wrap past the last point, and every k."""

    @pytest.mark.parametrize("m", range(2, 13))
    def test_matches_the_square_matrix(self, m):
        rng = np.random.default_rng(m)
        clouds = [
            (_lattice(4, m)[:m], lp_norm(1.0, 2)),  # exact ties
            (rng.integers(0, 3, size=(m, 1)).astype(float), lp_norm(math.inf, 1)),  # duplicates
            (rng.normal(size=(m, 3)), lp_norm(3.0, 3)),
            (rng.normal(size=(m, 2)), polytope_norm([[1.0, 0.0], [0.0, 1.0], [0.6, -0.8]])),
        ]
        for pts, norm in clouds:
            ps = PointSet(pts)
            square = pairwise_distances(norm, pts)
            np.fill_diagonal(square, np.inf)
            for k in range(1, m):
                r = np.sort(square, axis=1)[:, k - 1]
                radii = kth_radii(ps, k, norm)
                assert radii.radii.tobytes() == r.tobytes()
                shared, keys = sig._radii_and_keys(ps, k, norm)
                assert shared.radii.tobytes() == r.tobytes()
                assert np.array_equal(keys, _square_keys(square, r))
                upper = np.triu(np.ones((m, m), dtype=bool), 1)
                closed = r[:, None] + r[None, :]
                for graph, rule in (
                    (build_ksig(ps, radii, norm), square <= closed),
                    (_strict_graph(ps, radii, norm), square < closed),
                    (build_aux_graph(ps, radii, norm), square < np.maximum(r[:, None], r[None, :])),
                ):
                    assert np.array_equal(graph.pairs, np.argwhere(rule & upper))

    @pytest.mark.parametrize("m, ks", [(61, (1, 2, 3, 5)), (400, (199, 250))])
    def test_radii_of_rows_wider_than_a_full_sort(self, m, ks):
        # numpy may sort rows of up to a few hundred entries whole when it
        # partitions them, which hides a selection at the wrong index; at
        # k >= 199 the dense path takes 400 points, rows of 399
        pts = np.random.default_rng(m).normal(size=(m, 2))
        square = pairwise_distances(L2_2, pts)
        np.fill_diagonal(square, np.inf)
        ordered = np.sort(square, axis=1)
        for k in ks:
            assert kth_radii(PointSet(pts), k, L2_2).radii.tobytes() == ordered[:, k - 1].tobytes()

    @pytest.mark.parametrize("m", [96, 97])
    def test_closed_keys_ascend_once_each_with_the_bits_compared(self, m):
        _check_closed_keys(_lattice(10, 4)[:m], 3, lp_norm(1.0, 2))


class TestClosedKeys:
    def test_keys_near_2_31_decode_to_the_exact_pairs(self):
        # keys above 2^53: a decode that mixed uint64 with int64 would round
        # them through float64; every bit pattern, 2 (aux alone) included
        n = 2**31 - 1
        pairs = [[0, 1], [0, n - 1], [n - 4, n - 3], [n - 3, n - 2], [n - 2, n - 1]]
        assert sig._closed_pairs(LINE, kth_radii(LINE, 1, L2_1), L2_1).dtype == np.uint64
        for bits in range(4):
            keys = np.array([(i * n + j) * 4 + bits for i, j in pairs], dtype=np.uint64)
            assert keys.dtype == np.uint64 and int(keys[-1]) >= 2**63
            for bit in (0, sig._STRICT, sig._AUX):
                want = pairs if bits & bit or not bit else []
                assert sig._keyed_graph(keys, n, bit).pairs.tolist() == want


class TestPairEngineLayout:
    def test_dense_up_to_256_points(self, monkeypatch):
        # inputs of at most 256 points are one evaluation of the cyclic half per
        # pass, m * (m // 2) entries, unpruned and without the leaf batches
        calls = []

        def counting(norm, points, rows, work=None):
            dist = _cyclic_distances(norm, points, rows, work)
            calls.append(dist.size)
            return dist

        monkeypatch.setattr(sig, "_cyclic_distances", counting)
        monkeypatch.setattr(sig, "_differences", None)
        pts = np.random.default_rng(8).uniform(size=(257, 2))
        for m in (199, 200, 256):
            calls.clear()
            ps = PointSet(pts[:m])
            radii = kth_radii(ps, 3, L2_2)
            assert calls == [m * (m // 2)]
            build_ksig(ps, radii, L2_2)
            assert calls == [m * (m // 2)] * 2
            assert "_partition" not in vars(ps)
        starts = PointSet(pts)._partition.starts
        assert len(starts) > 2 and np.diff(starts).max() <= _BLOCK

    @pytest.mark.parametrize("m, k, passes", [(256, 3, 1), (256, 200, 1), (257, 3, 2), (300, 150, 2)])
    def test_radii_and_keys_evaluate_a_dense_half_once(self, monkeypatch, m, k, passes):
        # up to 256 points both passes read one half, in two row tiles of 2^14
        # entries; at 257 both take the leaves, and at 300 points and k = 150
        # the radii pass is one set (in row tiles) and the closed pass takes
        # the leaves.  Each pass evaluates each set's rows once
        calls, tiled = [], []

        def counting(norm, points, rows, work=None):
            calls.append(points[..., rows, :])
            tiled.append(rows.stop - rows.start < points.shape[-2])
            return _cyclic_distances(norm, points, rows, work)

        monkeypatch.setattr(sig, "_cyclic_distances", counting)
        monkeypatch.setattr(sig, "_TILE", 2**14)
        pts = np.random.default_rng(m).integers(0, 12, size=(m, 2)).astype(float)  # exact ties
        norm = lp_norm(1.0, 2)
        radii, keys = sig._radii_and_keys(PointSet(pts), k, norm)
        assert np.array_equal(_sorted_rows(calls), _sorted_rows([pts] * passes))
        assert any(tiled) == (m != 257)
        square = pairwise_distances(norm, pts)
        np.fill_diagonal(square, np.inf)
        r = np.sort(square, axis=1)[:, k - 1]
        assert radii.radii.tobytes() == r.tobytes()
        assert np.array_equal(keys, _square_keys(square, r))

    def test_radii_of_two_leaves_wider_than_a_batch(self, monkeypatch):
        # k = 130: leaves of at most 262 points, two of 260 for 520 points;
        # an evaluation of 2^15 entries takes 252 rows of a leaf's own half,
        # one of 2^13 entries 63 rows; the closed keys too
        pts = np.random.default_rng(520).normal(size=(520, 2))
        assert np.diff(sig._split(pts, 262).starts).tolist() == [260, 260]
        for tile, tiles in ((2**20, 2), (2**13, 5)):
            monkeypatch.setattr(sig, "_TILE", tile)
            assert len(sig._tiles(260, 130)) == tiles
            TestSelfPass.check(pts, 130, L2_2)

    def test_degenerate_radii_are_evaluated_in_row_tiles(self, monkeypatch):
        # a tight cluster and five far outliers: the outliers' radii span the
        # cloud, so their blocks, and every block before them in the closed
        # pass, see nearly all 3005 points as candidates
        rng = np.random.default_rng(5)
        far = [[1e3, 0.0], [0.0, 1e3], [-1e3, 0.0], [0.0, -1e3], [1e3, 1e3]]
        pts = np.concatenate((rng.uniform(0.0, 1e-3, size=(3000, 2)), far))
        pts = pts[rng.permutation(len(pts))]
        k, norm = 3, lp_norm(2.0, 2)
        r, closed, _ = _slab_oracle(pts, k, norm)
        # 2**14 entries per evaluation; untiled, one 128 x 3005 array is 3 MB
        monkeypatch.setattr(sig, "_TILE", 2**14)
        ps = PointSet(pts)
        tracemalloc.start()
        try:
            radii = kth_radii(ps, k, norm)
            radii_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            graph = build_ksig(ps, radii, norm)
            build_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert radii.radii.tobytes() == r.tobytes()
        assert np.array_equal(graph.pairs, closed)
        assert radii_peak < 2 * 2**20 and build_peak < 2 * 2**20

    def test_closed_pass_memory_stays_near_the_output(self):
        # 8 bytes of key per edge from the pass, then the 16-byte pairs; the
        # radii pass caches the partition first, so the peak is the build's
        ps, norm = PointSet(np.random.default_rng(1).uniform(size=(2**16, 2))), lp_norm(2.0, 2)
        radii = kth_radii(ps, 3, norm)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            graph = build_ksig(ps, radii, norm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.4 * graph.pairs.nbytes

    def test_a_decode_holds_the_keys_and_its_pairs_only(self):
        # the graph takes the decoded pairs as they are: no sort key, no copy
        ps, norm = PointSet(np.random.default_rng(1).uniform(size=(2**14, 2))), lp_norm(2.0, 2)
        keys = sig._closed_pairs(ps, kth_radii(ps, 3, norm), norm)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            graph = sig._keyed_graph(keys, len(ps))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph == InfluenceGraph(len(ps), graph.pairs.tolist())
        assert not graph.pairs.flags.writeable
        assert peak <= graph.pairs.nbytes + 2**12

    @staticmethod
    def entries_per_point(monkeypatch, pts, k, norm):
        """Entries evaluated per point by ``kth_radii`` and then by ``build_ksig``,
        padding included, and the graph: every evaluation goes through one of
        the two names counted here."""
        count = [0]

        def counting(norm, here, there, work=None):
            dist = _differences(norm, here, there, work)
            count[0] += dist.size
            return dist

        def counting_half(norm, points, rows, work=None):
            dist = _cyclic_distances(norm, points, rows, work)
            count[0] += dist.size
            return dist

        monkeypatch.setattr(sig, "_differences", counting)
        monkeypatch.setattr(sig, "_cyclic_distances", counting_half)
        ps = PointSet(pts)
        radii = kth_radii(ps, k, norm)
        per_radii, count[0] = count[0] / len(ps), 0
        graph = build_ksig(ps, radii, norm)
        return per_radii, count[0] / len(ps), graph

    def test_pruning_gate(self, monkeypatch):
        # a deterministic stand-in for wall time: entries evaluated per point on
        # a uniform l2 cloud (61 for the radii and 46 for the closed rule, 15
        # of each in the leaves' own cyclic halves; a leaf widened by its
        # largest reach would take 74 and 55)
        m = 4000
        radii, closed, graph = self.entries_per_point(
            monkeypatch, np.random.default_rng(0).uniform(size=(m, 2)), 3, lp_norm(2.0, 2)
        )
        # the lower bounds hold only if the evaluations were counted
        assert 3 <= radii <= 70
        assert len(graph.pairs) / m <= closed <= 52

    def test_heavy_tail_pruning_gate(self, monkeypatch):
        # a Cauchy cloud, as many edges per point as a uniform one (5.7), but
        # leaves whose points' reaches span orders of magnitude: each leaf's
        # reach box is the union of its points' own, 295 entries per point for
        # the radii and 63 for the closed rule (a leaf widened by its largest
        # reach would take 999 and 369)
        m = 2**14
        radii, closed, graph = self.entries_per_point(
            monkeypatch, np.random.default_rng(0).standard_t(1.0, size=(m, 2)), 3, lp_norm(2.0, 2)
        )
        assert 3 <= radii <= 400
        assert len(graph.pairs) / m <= closed <= 100


def _digest_clouds():
    """(points, k, norm): uniform clouds of 300 and 2000 points under l1, l2,
    linf and a polytope in d = 1, 2, 3, 5, at k = 1 for one size and 3 for the
    other, then a permuted 45 x 45 integer lattice under l1 (exact ties), all
    from ``random`` draws."""
    for d in (1, 2, 3, 5):
        rng = np.random.default_rng(d)
        functionals = np.vstack([np.eye(d), rng.random((2, d)) - 0.5])
        norms = (lp_norm(1.0, d), lp_norm(2.0, d), lp_norm(math.inf, d), polytope_norm(functionals))
        for i, norm in enumerate(norms):
            for m, k in ((300, (1, 3)[i % 2]), (2000, (3, 1)[i % 2])):
                yield rng.random((m, d)), k, norm
    grid = np.array(list(itertools.product(range(45), repeat=2)), dtype=np.float64)
    yield grid[np.argsort(np.random.default_rng(0).random(len(grid)))], 3, lp_norm(1.0, 2)


def _dense_digest_clouds():
    """(points, k, norm) of the dense path: m = 2 to 13 at every k, then m = 31
    to 256, odd and even, at five k; a permuted l1 lattice (exact ties), linf on
    a 4 x 4 grid (duplicates), an lp:3 cloud and a polytope."""
    functionals = np.vstack([np.eye(2), [[0.6, -0.8], [0.3, 0.7]]])
    for m in (*range(2, 14), 31, 32, 64, 65, 127, 128, 199, 200, 255, 256):
        rng = np.random.default_rng(m)
        clouds = (
            (_lattice(16, m)[:m], lp_norm(1.0, 2)),
            (rng.integers(0, 4, size=(m, 2)).astype(float), lp_norm(math.inf, 2)),
            (rng.normal(size=(m, 3)), lp_norm(3.0, 3)),
            (rng.normal(size=(m, 2)), polytope_norm(functionals)),
        )
        ks = range(1, m) if m <= 13 else sorted({1, 2, 5, m // 2, m - 1})
        for pts, norm in clouds:
            for k in ks:
                yield pts, k, norm


class TestEngineDigest:
    def test_dense_outputs_keep_their_bits(self):
        # the radii and the closed-pass keys (closed, aux and strict bits) of 512
        # dense inputs: the shared half of ``_radii_and_keys`` gives the bytes
        # of the passes one after the other, and one sha256 pins those of the
        # bit-stable norms (lp:3 goes through pow, which may differ by machine)
        digest = hashlib.sha256()
        for pts, k, norm in _dense_digest_clouds():
            ps = PointSet(pts)
            radii = kth_radii(ps, k, norm)
            apart = radii.radii.tobytes() + sig._closed_pairs(ps, radii, norm).tobytes()
            radii, keys = sig._radii_and_keys(PointSet(pts), k, norm)
            assert radii.radii.tobytes() + keys.tobytes() == apart
            if bitwise_stable_norm(norm):
                digest.update(apart)
        assert digest.hexdigest() == "092d703070b3d5a370e68c06cda2d102e15788f2d29e1b943faa1e708ae4f660"

    def test_outputs_keep_their_bits(self):
        # one sha256 over the radii and the closed, aux and strict pairs of the
        # leaf engine, for bit-stable norms below 8 coordinates only: any change
        # to a radius, a tie or the order of a sum shows here
        digest = hashlib.sha256()
        for pts, k, norm in _digest_clouds():
            for part in _engine_bytes(pts, k, norm):
                digest.update(part)
        assert digest.hexdigest() == "5c96ccb86cce30361658de7575fe60dde96aedb73b457678658bb64d272f09b1"
