"""Acceptance gate: the full-scale property suites.

Each criterion is one test; each prints a single summary line (visible in the
captured-output section of the run) and fails loudly if any instance breaks
the claimed bound.
"""

import math
import time

import numpy as np
import pytest

from siglab.io import export_graph, parse_points, read_graph_json, write_points
from siglab.lemmas import (
    bow_and_arrow_gaps,
    counting_check,
    sample_nonzero_pairs,
    sample_satellite_configs,
    satellite_separations,
)
from siglab.norms import lp_norm
from siglab.packing import (
    euclidean_19_point_config,
    greedy_pack,
    packing_bounds,
    validate_packing,
)
from siglab.sig import (
    build_aux_graph,
    build_ksig,
    degree_sequence,
    greedy_color,
    kth_radii,
    sort_by_radius,
    verify_bounds,
)
from siglab.suites import (
    bitwise_stable_norm,
    brute_force_radii,
    edges_match_modulo_boundary,
    norm_family_samples,
    radii_match_oracle,
    random_instances,
    satellite_norms,
)

SEED = 20260822


def _verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def instance_pool():
    """500 random instances with radii and graphs built once, shared by the
    degree, edge-count, and coloring criteria."""
    start = time.perf_counter()
    instances = random_instances(500, seed=SEED, max_points=200)
    built = []
    for inst in instances:
        radii = kth_radii(inst.points, inst.k, inst.norm)
        graph = build_ksig(inst.points, radii, inst.norm)
        built.append((inst, radii, graph))
    return built, time.perf_counter() - start


def test_criterion_1_witness_degree_bound(instance_pool):
    built, build_seconds = instance_pool
    start = time.perf_counter()
    bad = []
    for inst, radii, graph in built:
        report = verify_bounds(graph, radii, dim=inst.points.dim)
        below = sum(1 for d in report.degree_sequence if d < report.bound)
        if not report.passed or below < 2:
            bad.append(inst.label)
    elapsed = build_seconds + (time.perf_counter() - start)
    ok = not bad and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"two smallest-radius vertices have degree < 5^d*k on "
        f"{len(built) - len(bad)}/{len(built)} instances in {elapsed:.1f} s"
        + (f"; first failures {bad[:3]}" if bad else ""),
    )


def test_criterion_2_edge_count_bound(instance_pool):
    built, _ = instance_pool
    bad = [
        inst.label
        for inst, radii, graph in built
        if len(graph.edges) > (5**inst.points.dim * inst.k - 1) * len(inst.points)
    ]
    _verdict(
        2,
        not bad,
        f"|E| <= (5^d*k - 1)*n on {len(built) - len(bad)}/{len(built)} instances"
        + (f"; first failures {bad[:3]}" if bad else ""),
    )


def test_criterion_3_aux_coloring(instance_pool):
    built, _ = instance_pool
    bad = []
    for inst, radii, graph in built:
        aux = build_aux_graph(inst.points, radii, inst.norm)
        coloring = greedy_color(aux, sort_by_radius(radii))
        proper = all(
            coloring.colors[i] != coloring.colors[j] for i, j in aux.edges
        )
        if coloring.num_colors > inst.k or not proper:
            bad.append(inst.label)
    _verdict(
        3,
        not bad,
        f"greedy coloring of the auxiliary graph uses <= k colors on "
        f"{len(built) - len(bad)}/{len(built)} instances"
        + (f"; first failures {bad[:3]}" if bad else ""),
    )


def test_criterion_4_normalized_difference_gap():
    pairs = 100_000
    start = time.perf_counter()
    worst = math.inf
    worst_family = ""
    for label, norm in norm_family_samples():
        A, B = sample_nonzero_pairs(norm, pairs, seed=SEED)
        low = float(bow_and_arrow_gaps(norm, A, B).min())
        if low < worst:
            worst, worst_family = low, label
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12 and elapsed < 10.0
    _verdict(
        4,
        ok,
        f"gap >= -1e-12 on {pairs} pairs per family; worst {worst:.3e} "
        f"({worst_family}) in {elapsed:.1f} s",
    )


def test_criterion_5_satellite_separation():
    count = 10_000
    worst = math.inf
    worst_case = ""
    for dim in (1, 2, 3):
        for label, norm in satellite_norms(dim):
            configs = sample_satellite_configs(norm, count, seed=SEED)
            low = float(satellite_separations(norm, configs).min())
            if low < worst:
                worst, worst_case = low, label
    ok = worst >= 1.0 - 1e-9
    _verdict(
        5,
        ok,
        f"projected separation >= 1 - 1e-9 on {count} configurations per norm "
        f"in d=1,2,3; worst {worst:.12f} ({worst_case})",
    )


def test_criterion_6_counting_at_witnesses():
    instances = random_instances(100, seed=SEED + 6, max_points=120)
    bad = []
    for inst in instances:
        radii = kth_radii(inst.points, inst.k, inst.norm)
        graph = build_ksig(inst.points, radii, inst.norm)
        aux = build_aux_graph(inst.points, radii, inst.norm)
        order = sort_by_radius(radii)
        coloring = greedy_color(aux, order)
        for center in order[:2]:
            report = counting_check(inst.points, radii, graph, coloring, center, inst.norm)
            if not report.passed:
                bad.append(f"{inst.label}@{center}")
    _verdict(
        6,
        not bad,
        f"interior and separation audit passed at both witnesses on "
        f"{len(instances) - len(bad)}/{len(instances)} instances"
        + (f"; first failures {bad[:3]}" if bad else ""),
    )


def test_criterion_7_packing_bounds():
    problems = []
    for p in (1.0, 1.7, 2.0, 3.0, math.inf):
        line = packing_bounds(lp_norm(p, 1), seed=SEED, restarts=3, candidates=2000)
        if (line.lower, line.upper) != (5, 5) or not validate_packing(line.witness).ok:
            problems.append(f"d=1 p={p}: ({line.lower}, {line.upper}) != (5, 5)")
    grid = packing_bounds(lp_norm(math.inf, 2), seed=SEED, restarts=3, candidates=5000)
    if (grid.lower, grid.upper) != (25, 25) or not validate_packing(grid.witness).ok:
        problems.append(f"d=2 max norm: ({grid.lower}, {grid.upper}) != (25, 25)")
    start = time.perf_counter()
    disk = packing_bounds(lp_norm(2.0, 2), seed=SEED, restarts=20, candidates=100_000)
    elapsed = time.perf_counter() - start
    if disk.lower < 13 or not validate_packing(disk.witness).ok:
        problems.append(f"d=2 euclidean lower {disk.lower} < 13")
    if elapsed >= 30.0:
        problems.append(f"d=2 euclidean search took {elapsed:.1f} s")
    ring = euclidean_19_point_config()
    if len(ring) != 19 or not validate_packing(ring).ok:
        problems.append("19-point construction rejected")
    _verdict(
        7,
        not problems,
        f"(5, 5) on the line, (25, 25) for the planar max norm, euclidean "
        f"lower {disk.lower} >= 13 in {elapsed:.1f} s, 19-point witness valid"
        + (f"; {problems[:3]}" if problems else ""),
    )


def test_criterion_8_oracle_and_structure(tmp_path):
    problems = []

    # independent brute-force radius oracle
    for inst in random_instances(50, seed=SEED + 81, max_points=200):
        fast = kth_radii(inst.points, inst.k, inst.norm)
        brute = brute_force_radii(inst.points, inst.k, inst.norm)
        if not radii_match_oracle(fast, brute, inst.norm):
            problems.append(f"oracle: {inst.label}")

    # edges only grow with k
    for inst in random_instances(100, seed=SEED + 82, max_points=100):
        if len(inst.points) < inst.k + 2:
            continue
        small = kth_radii(inst.points, inst.k, inst.norm)
        large = kth_radii(inst.points, inst.k + 1, inst.norm)
        if np.any(large.radii < small.radii) or not (
            build_ksig(inst.points, small, inst.norm).edges
            <= build_ksig(inst.points, large, inst.norm).edges
        ):
            problems.append(f"monotonicity: {inst.label}")

    # translation and positive-scaling invariance (boundary ties may flip
    # under rounding; doubling is exact for bit-stable norms)
    from siglab.sig import PointSet

    for inst in random_instances(30, seed=SEED + 83, max_points=80):
        radii = kth_radii(inst.points, inst.k, inst.norm)
        graph = build_ksig(inst.points, radii, inst.norm)
        rng = np.random.default_rng([SEED, 83])
        shift = rng.uniform(-5.0, 5.0, size=inst.points.dim)
        moved = PointSet(1.75 * (inst.points.points + shift))
        moved_radii = kth_radii(moved, inst.k, inst.norm)
        moved_graph = build_ksig(moved, moved_radii, inst.norm)
        if not edges_match_modulo_boundary(
            inst.points, radii, inst.norm, graph, moved_graph
        ):
            problems.append(f"invariance: {inst.label}")
        doubled = PointSet(2.0 * inst.points.points)
        doubled_graph = build_ksig(
            doubled, kth_radii(doubled, inst.k, inst.norm), inst.norm
        )
        if bitwise_stable_norm(inst.norm):
            if doubled_graph.edges != graph.edges:
                problems.append(f"doubling: {inst.label}")
        elif not edges_match_modulo_boundary(
            inst.points, radii, inst.norm, graph, doubled_graph
        ):
            problems.append(f"doubling: {inst.label}")

    # serialization round-trips are bit-exact
    for inst in random_instances(10, seed=SEED + 84, max_points=60):
        radii = kth_radii(inst.points, inst.k, inst.norm)
        graph = build_ksig(inst.points, radii, inst.norm)
        gpath = tmp_path / f"graph_{inst.label[:3]}.json"
        export_graph(graph, radii, gpath)
        graph2, radii2 = read_graph_json(gpath)
        ppath = tmp_path / f"points_{inst.label[:3]}.csv"
        write_points(inst.points, ppath)
        points2 = parse_points(ppath)
        if (
            graph2 != graph
            or radii2.k != radii.k
            or not np.array_equal(radii2.radii, radii.radii)
            or not np.array_equal(points2.points, inst.points.points)
        ):
            problems.append(f"round-trip: {inst.label}")

    # the search is a function of its seed, and a larger candidate budget
    # extends a smaller one
    for norm in (lp_norm(2.0, 2), lp_norm(1.0, 2)):
        first = greedy_pack(norm, seed=SEED, restarts=6, candidates=3000)
        again = greedy_pack(norm, seed=SEED, restarts=6, candidates=3000)
        if first.points.tobytes() != again.points.tobytes():
            problems.append(f"search determinism: {norm.label()}")
        longer = greedy_pack(norm, seed=SEED, restarts=6, candidates=6000)
        if longer.points[: len(first)].tobytes() != first.points.tobytes():
            problems.append(f"budget prefix: {norm.label()}")

    _verdict(
        8,
        not problems,
        "radius oracle (50), k-monotonicity (100), invariance (30), exact "
        "round-trips (10), deterministic search extended by a larger budget"
        + (f"; first failures {problems[:3]}" if problems else ""),
    )
