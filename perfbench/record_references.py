"""Record the reference outputs that later runs must reproduce.

    python3 perfbench/record_references.py 0 7

For each seed, runs every job of every workload once, checks it, and writes
the outputs ROADMAP's "same" compares (``Job.reference_keys``) to
``perfbench/references/seed-<n>.json``. Run it only at the commit whose
outputs define "same"; a job that fails its own checks is not recorded.
"""

import json
import shutil
import sys

import run


def record(seed: int) -> dict:
    import workloads

    out = {}
    workdir = run.ROOT / ".perfbench_work" / f"record-{seed}"
    try:
        for name, make_jobs in workloads.WORKLOADS.items():
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            out[name] = {}
            for job in make_jobs(seed, workdir):
                record = job.run()
                problems = job.check(record)
                if problems:
                    raise SystemExit(f"seed {seed} {name}/{job.name}: {problems[0]}")
                out[name][job.name] = {key: record[key] for key in job.reference_keys}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def main(argv: list[str]) -> int:
    run.bootstrap()
    (run.HERE / "references").mkdir(exist_ok=True)
    for seed in map(int, argv):
        path = run.HERE / "references" / f"seed-{seed}.json"
        path.write_text(json.dumps(record(seed), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
