"""Self-test of the benchmark's correctness gate.

    python3 -m pytest perfbench/test_gate.py

A job whose output no longer matches its reference, or a fault-injection run
that is not caught, must be counted as failed.
"""

import copy
import json
import shutil

import pytest

import run

run.bootstrap()

import workloads  # noqa: E402


@pytest.fixture()
def workdir():
    path = run.ROOT / ".perfbench_work" / "test-gate"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _failures(jobs, reference) -> int:
    runner = run.Runner(jobs, reference)
    runner.run_pass()
    assert runner.attempted == len(jobs)
    return runner.failed


def test_fault_injection_is_detected_not_an_error(workdir):
    fault = [j for j in workloads.verify_many_small(0, workdir) if j.name == "inject-fault"]
    assert _failures(fault, run.load_reference(0, "verify-many-small")) == 0


def test_corrupted_reference_fails_the_job(workdir):
    reference = run.load_reference(0, "verify-many-small")
    corrupted = copy.deepcopy(reference)
    corrupted["inject-fault"]["lines"][0] += " (corrupted)"
    fault = [j for j in workloads.verify_many_small(0, workdir) if j.name == "inject-fault"]
    assert _failures(fault, corrupted) == 1


def test_corrupted_graph_reference_fails_the_job(workdir):
    reference = run.load_reference(0, "graph-large")
    lattice = [j for j in workloads.graph_large(0, workdir) if j.name == "l1-lattice"]
    assert _failures(lattice, reference) == 0
    corrupted = copy.deepcopy(reference)
    corrupted["l1-lattice"]["edges_sha256"] = "0" * 64
    assert _failures(lattice, corrupted) == 1


def test_uncaught_fault_counts_as_failed(workdir):
    # a fault-injection job whose run exits 0 (here: no fault injected at all)
    job = workloads._verify_job("inject-fault", ["verify", "--instances", "3", "--max-points", "12"], 1)
    assert _failures([job], None) == 1


def test_every_per_layer_metric_has_a_documented_target():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    documented = json.loads((run.HERE / "metrics.json").read_text())["per_layer"]
    assert [m["name"] for m in spec["per_layer"]] == list(documented)
