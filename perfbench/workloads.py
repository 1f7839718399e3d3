"""The benchmark's workloads: inputs, jobs and the checks on each job's output.

A workload is a list of jobs. Each job calls siglab in-process through the
same entry points a user reaches (``cli.main`` and the public functions of the
library modules), and returns a record of what it produced. ``Job.check`` then
decides, outside the timed region, whether that record is correct:

* invariants that hold for every seed (exit codes, the paper's bounds, an
  independent numpy oracle on a sample of vertices, witness validity);
* exact agreement with the reference recorded at the seed commit, when
  ``perfbench/references/seed-<n>.json`` exists for the seed.

Calls go through module attributes (``sig.build_aux_graph``, not a name bound
at import time) so that the tracer in ``spans.py`` sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from siglab import cli, generators, lemmas, sig
from siglab import io as sio
from siglab import norms

# same-output tolerance for general-p radii (ROADMAP "same"), and the relative
# slack the sample oracle allows at closed-rule ties, where its own rounding
# may land on the other side of the threshold
LP_RADII_RTOL = 1e-12
ORACLE_RTOL = 1e-12
ORACLE_SAMPLE = 40


@dataclass(frozen=True)
class Job:
    """``run`` returns a record; ``check`` lists what is wrong with it and adds
    the outputs named by ``reference_keys``, which ``compare`` holds to a reference."""

    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]
    reference_keys: tuple[str, ...]

    def compare(self, record: dict, reference: dict) -> list[str]:
        """ROADMAP's "same": exact for every stored key, except general-p radii to 1e-12."""
        problems = []
        for key in self.reference_keys:
            want, got = reference.get(key), record.get(key)
            if key == "radii" and want is not None and got is not None and len(want) == len(got):
                close = np.isclose(got, want, rtol=LP_RADII_RTOL, atol=0.0)
                if not close.all():
                    problems.append(f"radii differ from the reference at {int((~close).sum())} vertices")
            elif got != want:
                problems.append(f"{key} differs from the reference")
        return problems


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.default_rng([seed, index]).integers(2**31))


# --------------------------------------------------------------------------
# graph-large: siglab build, read-back, aux graph + colouring, witness audit
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Cloud:
    name: str
    norm: str  # CLI norm text; "poly" gets a seeded functionals file
    dim: int
    dist: str  # a generators distribution, or "lattice"
    k: int
    m: int


CLOUDS = (
    Cloud("l2-m2000", "l2", 2, "uniform-box", 3, 2000),
    Cloud("l2-m4000", "l2", 2, "uniform-box", 3, 4000),
    Cloud("linf-clustered", "linf", 2, "clustered", 5, 2000),
    Cloud("l1-lattice", "l1", 2, "lattice", 4, 45 * 45),
    Cloud("lp3-gaussian", "lp:3", 3, "gaussian", 1, 1500),
    Cloud("poly4", "poly", 2, "uniform-box", 5, 1400),
)
WARMUP_M = 60


def _cloud_points(cloud: Cloud, m: int, seed: int):
    if cloud.dist == "lattice":
        side = math.isqrt(m)
        grid = np.array(list(itertools.product(range(side), range(side))), dtype=np.float64)
        order = np.random.default_rng(seed).permutation(len(grid))
        return sig.PointSet(points=grid[order])
    return generators.generate_points(m, cloud.dim, cloud.dist, seed=seed)


def _poly_functionals(seed: int) -> list[list[float]]:
    rng = np.random.default_rng(seed)
    return np.vstack([np.eye(2), rng.uniform(-1.0, 1.0, size=(2, 2))]).tolist()


def _own_distances(norm_text: str, functionals, diffs: np.ndarray) -> np.ndarray:
    """Norms computed by the benchmark itself, independently of siglab."""
    a = np.abs(diffs)
    if norm_text == "l1":
        return a.sum(axis=-1)
    if norm_text == "l2":
        return np.sqrt((a * a).sum(axis=-1))
    if norm_text == "linf":
        return a.max(axis=-1)
    if norm_text.startswith("lp:"):
        p = float(norm_text[3:])
        return (a**p).sum(axis=-1) ** (1.0 / p)
    return np.abs(diffs @ np.asarray(functionals).T).max(axis=-1)


def _graph_job(cloud: Cloud, seed: int, index: int, workdir: Path, m: int, tag: str) -> Job:
    cloud_seed = _derived_seed(seed, index)
    points = _cloud_points(cloud, m, cloud_seed)
    csv = workdir / f"{tag}{cloud.name}.csv"
    out = workdir / f"{tag}{cloud.name}.graph.json"
    sio.write_points(points, csv)
    norm_text = cloud.norm
    functionals = None
    if cloud.norm == "poly":
        functionals = _poly_functionals(cloud_seed)
        poly_file = workdir / f"{tag}{cloud.name}.poly.json"
        poly_file.write_text(json.dumps({"functionals": functionals}) + "\n")
        norm_text = f"poly:{poly_file}"
    argv = ["build", "--in", str(csv), "--k", str(cloud.k), "--norm", norm_text, "--out", str(out)]

    def run() -> dict:
        code, stdout, stderr = _cli(argv)
        record = {"exit": code, "stdout": stdout, "stderr": stderr}
        if code != 0:
            return record
        graph, radii = sio.read_graph_json(out)
        norm = norms.parse_norm(norm_text, cloud.dim)
        aux = sig.build_aux_graph(points, radii, norm)
        order = sig.sort_by_radius(radii)
        coloring = sig.greedy_color(aux, order)
        audits = [
            lemmas.counting_check(points, radii, graph, coloring, w, norm) for w in order[:2]
        ]
        record.update(
            aux_edges=len(aux.edges),
            colors=coloring.num_colors,
            counting=[a.passed for a in audits],
        )
        return record

    def check(record: dict) -> list[str]:
        if record["exit"] != 0:
            return [f"build exited {record['exit']}: {record['stderr'].strip()[:200]}"]
        problems = []
        if record["stdout"].count("-> ok") != 2:
            problems.append(f"build did not report both bounds ok: {record['stdout'].strip()!r}")
        payload = json.loads(out.read_text())
        radii = np.array(payload["radii"], dtype=np.float64)
        edges = np.array(payload["edges"], dtype=np.int64).reshape(-1, 2)
        if payload["n"] != m or payload["k"] != cloud.k or len(radii) != m:
            problems.append("graph file has the wrong n, k or radius count")
            return problems
        if record["colors"] > cloud.k:
            problems.append(f"aux colouring used {record['colors']} colours > k={cloud.k}")
        if not all(record["counting"]):
            problems.append(f"witness counting audit failed: {record['counting']}")
        problems += _sample_oracle(points.points, radii, edges, cloud, norm_text, functionals, index)
        record["radii_sha256"] = _sha256(radii)
        record["edges_sha256"] = _sha256(edges[np.lexsort((edges[:, 1], edges[:, 0]))])
        record["edges"] = len(edges)
        if cloud.norm.startswith("lp:"):
            record["radii"] = radii.tolist()
        return problems

    keys = ("radii",) if cloud.norm.startswith("lp:") else ("radii_sha256", "edges_sha256", "edges", "aux_edges")
    return Job(cloud.name, run, check, keys)


def _sample_oracle(pts, radii, edges, cloud, norm_text, functionals, index) -> list[str]:
    """Recompute radii and the closed edge rule for a seeded sample of vertices."""
    m = len(pts)
    rng = np.random.default_rng([index, m])
    sample = rng.choice(m, size=min(ORACLE_SAMPLE, m), replace=False)
    neighbours = {int(v): set() for v in sample}
    for i, j in edges.tolist():
        if i in neighbours:
            neighbours[i].add(j)
        if j in neighbours:
            neighbours[j].add(i)
    problems = []
    for v in sample.tolist():
        dist = _own_distances(norm_text, functionals, pts - pts[v])
        dist[v] = np.inf
        kth = float(np.partition(dist, cloud.k - 1)[cloud.k - 1])
        if not math.isclose(kth, radii[v], rel_tol=ORACLE_RTOL):
            problems.append(f"vertex {v}: radius {radii[v]!r}, oracle {kth!r}")
            continue
        threshold = radii[v] + radii
        expected = set(np.flatnonzero(dist <= threshold).tolist())
        for u in expected ^ neighbours[v]:
            if abs(dist[u] - threshold[u]) > ORACLE_RTOL * threshold[u]:
                problems.append(f"edge ({v}, {u}) disagrees with the closed rule")
                break
    return problems


def graph_large(seed: int, workdir: Path, warmup: bool = False) -> list[Job]:
    tag = "warmup-" if warmup else ""
    return [
        _graph_job(c, seed, i, workdir, WARMUP_M if warmup else c.m, tag)
        for i, c in enumerate(CLOUDS)
    ]


# --------------------------------------------------------------------------
# verify-many-small: the randomized suites, and the fault-injection self-test
# --------------------------------------------------------------------------

VERIFY_CHECKS = (
    "known-answers", "radius-oracle", "edge-rule", "aux-subgraph", "degree-bound",
    "edge-count-bound", "coloring", "k-monotonicity", "invariance", "determinism",
    "witness-counting", "packing-bounds", "norm-axioms", "bow-and-arrow",
    "satellite-separation", "retraction",
)
_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] ([^:]+): (.*)$")


def _verify_job(name: str, argv: list[str], expect_exit: int) -> Job:
    """A clean suite must pass every check; the fault self-test must be caught.

    With the strict edge rule injected, the tie-rich known-answer instances
    fail whatever the seed, so that check is the one that must report it.
    """

    # the last three checks are the lemma sweeps
    expected = VERIFY_CHECKS if "--lemmas" in argv else VERIFY_CHECKS[:-3]

    def run() -> dict:
        code, stdout, stderr = _cli(argv)
        return {"exit": code, "lines": stdout.splitlines(), "stderr": stderr}

    def check(record: dict) -> list[str]:
        if record["exit"] != expect_exit:
            return [f"verify exited {record['exit']}, expected {expect_exit}"]
        parsed = [_CHECK_LINE.match(line) for line in record["lines"][:-1]]
        if not all(parsed):
            return ["verify printed a line that is not a check result"]
        failed = {p.group(2) for p in parsed if p.group(1) == "FAIL"}
        if expect_exit == 0 and failed:
            return [f"checks failed: {sorted(failed)}"]
        if expect_exit == 1 and "known-answers" not in failed:
            return [f"the injected fault was not caught by known-answers: {sorted(failed)}"]
        if tuple(p.group(2) for p in parsed) != expected:
            return ["verify ran a different list of checks"]
        return []

    return Job(name, run, check, ("lines",))


def verify_many_small(seed: int, workdir: Path, warmup: bool = False) -> list[Job]:
    # the suites are seeded by siglab's own default seed, as `siglab verify`
    # is run with no options but the named ones; `seed` does not change them
    if warmup:
        return [_verify_job("warmup", ["verify", "--instances", "3", "--max-points", "12"], 0)]
    return [
        _verify_job(
            "lemmas",
            ["verify", "--lemmas", "--instances", "400", "--max-points", "200"],
            0,
        ),
        _verify_job("inject-fault", ["verify", "--inject-fault"], 1),
    ]


# --------------------------------------------------------------------------
# theta-search: greedy packing search in the radius-2 ball
# --------------------------------------------------------------------------

# (name, options, lattice floor): the lattice pass alone already places every
# integer point of B(o, 2), which bounds the result from below
THETA_RUNS = (
    ("l2-d2", ["--dim", "2"], 13),
    ("l2-d3", ["--dim", "3", "--restarts", "8"], 33),
    ("linf-d3", ["--norm", "linf", "--dim", "3", "--restarts", "2"], 125),
)


def _theta_job(name: str, options: list[str], floor: int, workdir: Path) -> Job:
    witness = workdir / f"{name}.witness.json"
    argv = ["theta", *options, "--witness", str(witness)]
    dim = int(options[options.index("--dim") + 1])
    norm_text = options[options.index("--norm") + 1] if "--norm" in options else "l2"

    def run() -> dict:
        code, stdout, stderr = _cli(argv)
        return {"exit": code, "stdout": stdout, "stderr": stderr}

    def check(record: dict) -> list[str]:
        if record["exit"] != 0:
            return [f"theta exited {record['exit']}: {record['stderr'].strip()[:200]}"]
        found = re.match(r"lower=(\d+) upper=(\d+) ", record["stdout"])
        if not found:
            return [f"unexpected theta output {record['stdout']!r}"]
        lower, upper = int(found.group(1)), int(found.group(2))
        pts = np.array(json.loads(witness.read_text())["points"], dtype=np.float64).reshape(-1, dim)
        record["lower"] = lower
        record["witness_sha256"] = _sha256(pts)
        problems = []
        if upper != 5**dim or not floor <= lower <= upper or len(pts) != lower:
            problems.append(f"bounds lower={lower} upper={upper} for {len(pts)} witness points")
        # separations are certified with siglab's VALIDATION_TOL of 1e-12
        dist = _own_distances(norm_text, None, pts[:, None, :] - pts[None, :, :])
        np.fill_diagonal(dist, np.inf)
        radius = _own_distances(norm_text, None, pts)
        if dist.min() < 1.0 - 1e-12 or radius.max() > 2.0 + 1e-12 or radius.min() > 1e-12:
            problems.append("witness is not a packing of B(o, 2) containing the origin")
        return problems

    return Job(name, run, check, ("lower", "witness_sha256"))


def theta_search(seed: int, workdir: Path, warmup: bool = False) -> list[Job]:
    # as for verify, `siglab theta` keeps its default seed
    if warmup:
        # one 4096-row chunk against the 125-point linf lattice lets the allocator
        # grow to the size of the chunks the timed runs use
        return [
            _theta_job("warmup-l2", ["--dim", "2", "--restarts", "1", "--candidates", "2000"], 13, workdir),
            _theta_job("warmup-linf", ["--norm", "linf", "--dim", "3", "--restarts", "1", "--candidates", "4096"], 125, workdir),
        ]
    return [_theta_job(name, options, floor, workdir) for name, options, floor in THETA_RUNS]


WORKLOADS = {
    "graph-large": graph_large,
    "verify-many-small": verify_many_small,
    "theta-search": theta_search,
}

