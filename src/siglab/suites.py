"""Randomized self-verification of the whole stack.

Three layers: fixed instances with hand-derived answers, structural checks on
seeded random instances (radius oracle, edge rules, subgraph/monotonicity/
invariance relations, degree and edge bounds, coloring, witness counting), and
vectorized sweeps of the geometric inequalities.  The CLI verify command is a
thin wrapper around run_verify_suite.

``inject_fault`` threads a deliberate bug (strict instead of closed edge test)
through graph construction, via the strict bit of the closed pass's keys, so
the suite can demonstrate it catches one; the tie-rich fixed instances make
detection deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import DISTRIBUTIONS, generate_points
from .lemmas import (
    SEPARATION_SLACK,
    _checked_separations,
    _sampled_satellites,
    bow_and_arrow_gaps,
    counting_check,
    project_ball2_many,
    sample_nonzero_pairs,
)
from .norms import (
    POLYTOPE,
    NormSpec,
    lp_norm,
    norm_values,
    polytope_norm,
    weighted_lp_norm,
)
from .packing import euclidean_19_point_config, packing_bounds, validate_packing
from .sig import (
    InfluenceGraph,
    PointSet,
    _AUX,
    _STRICT,
    _closed_pairs,
    _keyed_graph,
    _radii_and_keys,
    build_aux_graph,
    build_ksig,
    degree_sequence,
    greedy_color,
    kth_radii,
    sort_by_radius,
    verify_bounds,
)

__all__ = [
    "GAP_TOL",
    "CheckResult",
    "SuiteReport",
    "Instance",
    "random_instances",
    "norm_family_samples",
    "satellite_norms",
    "brute_force_radii",
    "edges_from_rule",
    "bitwise_stable_norm",
    "radii_match_oracle",
    "edges_match_modulo_boundary",
    "run_verify_suite",
]

# absolute slack allowed below 0 for the bow-and-arrow gap
GAP_TOL = 1e-12

# the leading instances that also run the pairwise oracles, the witness
# audit and the invariance transforms; samples per lemma sweep and axiom check
_ORACLE_INSTANCES = 12
_COUNTING_INSTANCES = 10
_INVARIANCE_INSTANCES = 12
_GAP_SAMPLES = 10_000
_SATELLITE_SAMPLES = 1_000
_AXIOM_SAMPLES = 5_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            out.append(f"[{mark}] {c.name}: {c.detail}")
        out.append(f"{len(self.checks) - len(self.failures())}/{len(self.checks)} checks passed")
        return out

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


@dataclass(frozen=True, eq=False)
class Instance:
    label: str
    points: PointSet
    k: int
    norm: NormSpec


def _random_norm(rng: np.random.Generator, dim: int) -> NormSpec:
    labels = ["l1", "l2", "linf", "l3"] + (["poly"] if dim == 2 else [])
    pick = labels[int(rng.integers(len(labels)))]
    if pick == "l1":
        return lp_norm(1.0, dim)
    if pick == "l2":
        return lp_norm(2.0, dim)
    if pick == "linf":
        return lp_norm(math.inf, dim)
    if pick == "l3":
        return lp_norm(3.0, dim)
    functionals = np.vstack([np.eye(2), rng.uniform(-1.0, 1.0, size=(2, 2))])
    return polytope_norm(functionals)


def random_instances(count: int, seed: int = 0, max_points: int = 60) -> list[Instance]:
    """Seeded instance mix covering dimensions 1..4, k in 1..5, all norm kinds.

    An instance has k + 1 to ``max_points`` points, so ``max_points`` is at least 6.
    """
    if count < 0:
        raise ValueError(f"the instance count must be >= 0, got {count}")
    if max_points < 6:
        raise ValueError(f"max points must be >= 6 (k reaches 5, and k + 1 points are needed), got {max_points}")
    rng = np.random.default_rng(seed)
    out: list[Instance] = []
    for idx in range(count):
        dim = int(rng.integers(1, 5))
        k = int(rng.integers(1, 6))
        n = int(rng.integers(k + 1, max(k + 2, max_points + 1)))
        norm = _random_norm(rng, dim)
        distribution = DISTRIBUTIONS[int(rng.integers(len(DISTRIBUTIONS)))]
        points = generate_points(n, dim, distribution, seed=int(rng.integers(2**63)))
        label = f"{idx:03d}[d={dim} k={k} n={n} norm={norm.label()} {distribution}]"
        out.append(Instance(label=label, points=points, k=k, norm=norm))
    return out


def norm_family_samples() -> list[tuple[str, NormSpec]]:
    """One representative per norm family for the inequality sweeps."""
    return [
        ("lp1-d3", lp_norm(1.0, 3)),
        ("lp2-d3", lp_norm(2.0, 3)),
        ("lpinf-d3", lp_norm(math.inf, 3)),
        ("lp3-d2", lp_norm(3.0, 2)),
        ("wlp2-d3", weighted_lp_norm(2.0, (0.5, 1.0, 2.5))),
        ("poly-d2", polytope_norm([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])),
    ]


def satellite_norms(dim: int) -> list[tuple[str, NormSpec]]:
    return [
        (f"l1-d{dim}", lp_norm(1.0, dim)),
        (f"l2-d{dim}", lp_norm(2.0, dim)),
        (f"linf-d{dim}", lp_norm(math.inf, dim)),
    ]


def brute_force_radii(points: PointSet, k: int, norm: NormSpec) -> list[float]:
    """Per-point k-th smallest distance from a full sorted row of distances; the
    radius oracle.  A row entry has the bits of the lone vector's norm."""
    pts = points.points
    out = []
    for i in range(len(pts)):
        dists = np.sort(np.delete(norm_values(norm, pts - pts[i]), i))
        out.append(float(dists[k - 1]))
    return out


def edges_from_rule(points: PointSet, radii, norm: NormSpec) -> InfluenceGraph:
    """Direct pairwise re-derivation of the closed edge rule, one row per point."""
    pts = points.points
    r = radii.radii
    hit = np.zeros((len(pts), len(pts)), dtype=bool)
    for i in range(len(pts) - 1):
        hit[i, i + 1 :] = norm_values(norm, pts[i] - pts[i + 1 :]) <= r[i] + r[i + 1 :]
    return InfluenceGraph(len(pts), np.argwhere(hit))


def bitwise_stable_norm(norm: NormSpec) -> bool:
    """True when evaluation uses only correctly-rounded primitives.

    Addition, multiplication, sqrt, abs, and max give the same bits no matter
    how numpy batches them; pow with a general exponent does not, so lp values
    for p outside {1, 2, inf} may drift a final ulp with the array shape.
    """
    return norm.kind == POLYTOPE or norm.p in (1.0, 2.0, math.inf)


def radii_match_oracle(radii, brute: list[float], norm: NormSpec) -> bool:
    """Computed radii against the brute-force oracle; bit-exact where possible."""
    values = radii.radii.tolist()
    if bitwise_stable_norm(norm):
        return values == brute
    return all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(values, brute))


def edges_match_modulo_boundary(points, radii, norm, reference, transformed) -> bool:
    """Edge sets equal except possibly at closed-ball boundary ties.

    A pair with ||c_i - c_j|| exactly r_i + r_j sits on the non-strict
    threshold; re-rounding after a translation or scaling can move it one ulp
    to either side, so such pairs may differ.  Any other difference is a real
    violation.  Pairs are compared by their keys i * n + j, unique in a graph.
    """
    n = reference.n
    flipped = np.setxor1d(reference.pairs @ [n, 1], transformed.pairs @ [n, 1], assume_unique=True)
    i, j = np.divmod(flipped, n)
    dist = norm_values(norm, points.points[i] - points.points[j])
    r = radii.radii
    return bool(np.all(np.abs(dist - (r[i] + r[j])) <= 1e-9 * np.maximum(dist, 1.0)))


def _strict_ksig(points: PointSet, radii, norm: NormSpec) -> InfluenceGraph:
    """The influence graph under the broken rule ||c_i - c_j|| < r_i + r_j: exact
    ties are dropped, which the suite's fault self-test must detect."""
    return _keyed_graph(_closed_pairs(points, radii, norm), len(points), _STRICT)


def _rebuilt(points: PointSet, k: int, norm: NormSpec, bit: int) -> InfluenceGraph:
    """The graph of ``kth_radii`` and then the closed pass, ``bit`` as in
    ``_keyed_graph``: ``build_ksig``'s, or ``_strict_ksig``'s with ``_STRICT``."""
    return _keyed_graph(_radii_and_keys(points, k, norm)[1], len(points), bit)


def _subgraph(sub: InfluenceGraph, graph: InfluenceGraph) -> bool:
    """Whether each edge key i * n + j of ``sub`` is among the ascending keys of ``graph``."""
    keys, want = (g.pairs[:, 0] * graph.n + g.pairs[:, 1] for g in (graph, sub))
    pos = np.searchsorted(keys, want)
    return bool((pos < len(keys)).all() and np.array_equal(keys[pos], want))


def _category(name: str, failures: list[str], total: int) -> CheckResult:
    if failures:
        return CheckResult(name, False, f"{len(failures)}/{total} failed; first: {failures[0]}")
    return CheckResult(name, True, f"{total} cases ok")


def _known_answer_check(build) -> CheckResult:
    failures: list[str] = []
    total = 0

    def expect(label: str, got, want):
        nonlocal total
        total += 1
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    norm1 = lp_norm(2.0, 1)
    line = PointSet(points=np.array([[0.0], [1.0], [3.0], [7.0]]))
    r1 = kth_radii(line, 1, norm1)
    expect("line k=1 radii", r1.radii.tolist(), [1.0, 1.0, 2.0, 4.0])
    g1 = build(line, r1, norm1)
    expect("line k=1 edges", g1.edges, frozenset([(0, 1), (0, 2), (1, 2), (2, 3)]))
    expect("line k=1 degrees", degree_sequence(g1).tolist(), [2, 2, 3, 1])
    expect("line k=1 aux edges", build_aux_graph(line, r1, norm1).edges, frozenset())
    expect("line k=1 bound", verify_bounds(g1, r1, 1).passed, True)
    r2 = kth_radii(line, 2, norm1)
    expect("line k=2 radii", r2.radii.tolist(), [3.0, 2.0, 3.0, 6.0])

    tri = PointSet(points=np.array([[0.0], [1.0], [3.0]]))
    rt = kth_radii(tri, 2, norm1)
    expect("triple k=2 radii", rt.radii.tolist(), [3.0, 2.0, 3.0])
    ht = build_aux_graph(tri, rt, norm1)
    expect("triple k=2 aux edges", ht.edges, frozenset([(0, 1), (1, 2)]))
    order = sort_by_radius(rt)
    expect("triple k=2 order", order.tolist(), [1, 0, 2])
    coloring = greedy_color(ht, order)
    expect("triple k=2 colors", coloring.colors.tolist(), [2, 1, 2])
    expect("triple k=2 color count", coloring.num_colors, 2)

    pair = PointSet(points=np.array([[0.0], [2.5]]))
    rp = kth_radii(pair, 1, norm1)
    expect("pair radii", rp.radii.tolist(), [2.5, 2.5])
    expect("pair edges", build(pair, rp, norm1).edges, frozenset([(0, 1)]))

    norm2 = lp_norm(2.0, 2)
    twins = PointSet(points=np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]))
    rw = kth_radii(twins, 1, norm2)
    far = float(norm_values(norm2, np.array([5.0, 5.0])))
    expect("twins radii", rw.radii.tolist(), [0.0, 0.0, far])
    expect(
        "twins edges",
        build(twins, rw, norm2).edges,
        frozenset([(0, 1), (0, 2), (1, 2)]),
    )

    # integer simplex under the max norm: every pairwise distance is exactly 1
    norminf = lp_norm(math.inf, 2)
    simplex = PointSet(points=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    rs = kth_radii(simplex, 1, norminf)
    expect("simplex radii", rs.radii.tolist(), [1.0, 1.0, 1.0])
    expect("simplex aux edges", build_aux_graph(simplex, rs, norminf).edges, frozenset())
    expect(
        "simplex edges",
        build(simplex, rs, norminf).edges,
        frozenset([(0, 1), (0, 2), (1, 2)]),
    )

    path = InfluenceGraph(3, [(0, 1), (1, 2)])
    expect("path greedy colors", greedy_color(path, [1, 0, 2]).colors.tolist(), [2, 1, 2])

    return _category("known-answers", failures, total)


def _packing_check(seed: int) -> CheckResult:
    failures: list[str] = []
    total = 4
    line = packing_bounds(lp_norm(2.0, 1), seed=seed, restarts=2, candidates=1000)
    if (line.lower, line.upper) != (5, 5) or not validate_packing(line.witness).ok:
        failures.append(f"d=1 bounds ({line.lower}, {line.upper}) != (5, 5) or witness invalid")
    grid = packing_bounds(lp_norm(math.inf, 2), seed=seed, restarts=2, candidates=1000)
    if (grid.lower, grid.upper) != (25, 25) or not validate_packing(grid.witness).ok:
        failures.append(f"d=2 max-norm bounds ({grid.lower}, {grid.upper}) != (25, 25)")
    disk = packing_bounds(lp_norm(2.0, 2), seed=seed, restarts=2, candidates=2000)
    if disk.lower < 13 or disk.lower > disk.upper or not validate_packing(disk.witness).ok:
        failures.append(f"d=2 euclidean lower {disk.lower} outside [13, {disk.upper}]")
    ring = euclidean_19_point_config()
    report = validate_packing(ring)
    if not report.ok or len(ring) != 19:
        failures.append(f"19-point construction rejected: {report.violations[:1]}")
    return _category("packing-bounds", failures, total)


def _norm_axiom_check(seed: int) -> CheckResult:
    failures: list[str] = []
    total = 0
    rng = np.random.default_rng([seed, 7])
    for label, norm in norm_family_samples():
        total += 1
        X = rng.uniform(-3.0, 3.0, size=(_AXIOM_SAMPLES, norm.dim))
        Y = rng.uniform(-3.0, 3.0, size=(_AXIOM_SAMPLES, norm.dim))
        t = rng.uniform(-4.0, 4.0, size=_AXIOM_SAMPLES)
        nx, ny = norm_values(norm, X), norm_values(norm, Y)
        triangle = norm_values(norm, X + Y) - (nx + ny)
        if float(triangle.max()) > 1e-9 * float((nx + ny).max()):
            failures.append(f"{label}: triangle inequality violated")
            continue
        homo = np.abs(norm_values(norm, X * t[:, None]) - np.abs(t) * nx)
        if float(homo.max()) > 1e-12 * max(1.0, float((np.abs(t) * nx).max())):
            failures.append(f"{label}: homogeneity violated")
            continue
        if not np.array_equal(norm_values(norm, -X), nx):
            failures.append(f"{label}: symmetry violated")
            continue
        if float(norm_values(norm, np.zeros(norm.dim))) != 0.0:
            failures.append(f"{label}: zero vector has nonzero norm")
    return _category("norm-axioms", failures, total)


def _lemma_checks(seed: int) -> list[CheckResult]:
    checks: list[CheckResult] = []

    failures: list[str] = []
    families = norm_family_samples()
    for i, (label, norm) in enumerate(families):
        A, B = sample_nonzero_pairs(norm, _GAP_SAMPLES, seed=seed * 1000 + i)
        worst = float(bow_and_arrow_gaps(norm, A, B).min())
        if worst < -GAP_TOL:
            failures.append(f"{label}: min gap {worst:.3e}")
    checks.append(_category("bow-and-arrow", failures, len(families)))

    failures = []
    total = 0
    for dim in (1, 2, 3):
        for label, norm in satellite_norms(dim):
            total += 1
            batch = _sampled_satellites(norm, _SATELLITE_SAMPLES, seed * 100 + dim)
            worst = float(_checked_separations(norm, *batch, "config {}: ").min())
            if worst < 1.0 - SEPARATION_SLACK:
                failures.append(f"{label}: min separation {worst:.12f}")
    checks.append(_category("satellite-separation", failures, total))

    failures = []
    total = 0
    rng = np.random.default_rng([seed, 11])
    for label, norm in norm_family_samples():
        total += 1
        X = rng.uniform(-6.0, 6.0, size=(2000, norm.dim))
        P = project_ball2_many(norm, X)
        if float(norm_values(norm, P).max()) > 2.0 + 1e-12:
            failures.append(f"{label}: retraction leaves the ball")
            continue
        if float(np.abs(P - project_ball2_many(norm, P)).max()) > 1e-12:
            failures.append(f"{label}: retraction is not idempotent")
            continue
        inside = norm_values(norm, X) <= 2.0
        if not np.array_equal(P[inside], X[inside]):
            failures.append(f"{label}: retraction moves interior points")
    checks.append(_category("retraction", failures, total))
    return checks


def run_verify_suite(
    seed: int = 0,
    instances: int = 40,
    max_points: int = 60,
    include_lemmas: bool = False,
    inject_fault: bool = False,
) -> SuiteReport:
    """Run every check layer; the report lists one result per category."""
    build = _strict_ksig if inject_fault else build_ksig
    bit = _STRICT if inject_fault else 0  # ``build``'s graph, decoded from closed-pass keys
    checks: list[CheckResult] = [_known_answer_check(build)]

    insts = random_instances(instances, seed, max_points)
    shift_rng = np.random.default_rng([seed, 3])

    oracle_fail: list[str] = []
    rule_fail: list[str] = []
    subgraph_fail: list[str] = []
    degree_fail: list[str] = []
    edge_fail: list[str] = []
    color_fail: list[str] = []
    mono_fail: list[str] = []
    inv_fail: list[str] = []
    det_fail: list[str] = []
    count_fail: list[str] = []
    mono_total = inv_total = count_total = 0

    for idx, inst in enumerate(insts):
        points, k, norm = inst.points, inst.k, inst.norm
        # the radii and one closed pass: the graph and the aux graph decoded from its keys
        radii, keys = _radii_and_keys(points, k, norm)
        graph = _keyed_graph(keys, len(points), bit)
        aux = _keyed_graph(keys, len(points), _AUX)
        order = sort_by_radius(radii)
        coloring = greedy_color(aux, order)
        report = verify_bounds(graph, radii, points.dim)

        if idx < _ORACLE_INSTANCES:
            if not radii_match_oracle(radii, brute_force_radii(points, k, norm), norm):
                oracle_fail.append(inst.label)
            if graph != edges_from_rule(points, radii, norm):
                rule_fail.append(inst.label)
        if not inject_fault and not _subgraph(aux, graph):
            subgraph_fail.append(inst.label)
        if not report.passed:
            degree_fail.append(f"{inst.label}: witnesses {report.witness_vertices}")
        if not report.edge_bound_ok:
            edge_fail.append(f"{inst.label}: {report.edge_count} > {report.edge_bound}")
        if coloring.num_colors > k:
            color_fail.append(f"{inst.label}: {coloring.num_colors} colors")

        if len(points) >= k + 2:
            mono_total += 1
            if not _subgraph(graph, _rebuilt(points, k + 1, norm, bit)):
                mono_fail.append(inst.label)

        if idx < _INVARIANCE_INSTANCES:
            inv_total += 1
            shift = shift_rng.uniform(-5.0, 5.0, size=points.dim)
            # doubling commutes with correct rounding, so for those norms the
            # edge set must match bitwise; elsewhere, and for the shifted and
            # oddly-scaled copies, differences are only allowed at boundary ties
            doubled = PointSet(points=points.points * 2.0)
            doubled_graph = _rebuilt(doubled, k, norm, bit)
            if bitwise_stable_norm(norm):
                ok = doubled_graph == graph
            else:
                ok = edges_match_modulo_boundary(points, radii, norm, graph, doubled_graph)
            for factor_pts in (points.points + shift, points.points * 1.75):
                other = PointSet(points=factor_pts)
                other_graph = _rebuilt(other, k, norm, bit)
                ok = ok and edges_match_modulo_boundary(points, radii, norm, graph, other_graph)
            if not ok:
                inv_fail.append(inst.label)

        if _rebuilt(points, k, norm, bit) != graph:
            det_fail.append(inst.label)

        if idx < _COUNTING_INSTANCES and (radii.radii[order[:2]] > 0.0).all():
            count_total += 1
            for witness in order[:2].tolist():
                try:
                    audit = counting_check(points, radii, graph, coloring, witness, norm)
                except ValueError as exc:  # a coloring of more than k colors, or an improper one
                    count_fail.append(f"{inst.label} witness {witness}: {exc}")
                    break
                if not audit.passed:
                    count_fail.append(f"{inst.label} witness {witness}")
                    break

    oracle_total = min(_ORACLE_INSTANCES, len(insts))
    checks.append(_category("radius-oracle", oracle_fail, oracle_total))
    checks.append(_category("edge-rule", rule_fail, oracle_total))
    checks.append(_category("aux-subgraph", subgraph_fail, len(insts)))
    checks.append(_category("degree-bound", degree_fail, len(insts)))
    checks.append(_category("edge-count-bound", edge_fail, len(insts)))
    checks.append(_category("coloring", color_fail, len(insts)))
    checks.append(_category("k-monotonicity", mono_fail, mono_total))
    checks.append(_category("invariance", inv_fail, inv_total))
    checks.append(_category("determinism", det_fail, len(insts)))
    checks.append(_category("witness-counting", count_fail, count_total))
    checks.append(_packing_check(seed))
    checks.append(_norm_axiom_check(seed))
    if include_lemmas:
        checks.extend(_lemma_checks(seed))
    return SuiteReport(checks=tuple(checks))
