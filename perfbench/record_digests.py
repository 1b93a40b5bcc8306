"""Record the reference sha256 of every CLI job the benchmark can generate.

    python3 perfbench/record_digests.py [--out perfbench/digests.json]

Each job runs from a cold start, as in the benchmark.  A job that exits
nonzero or reports a failed verify check is not recorded, and the script
exits 1.  Run it twice under different PYTHONHASHSEED values and compare the
files to confirm that the outputs do not depend on string hashing.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def all_cli_jobs() -> list:
    jobs = []
    for label, _ in workloads.POLYTOPE_MIX:
        for order in workloads.all_orders(label):
            jobs.append({"argv": ["polytope", label, "--coxeter", order, "--format", "json"]})
    for label in workloads.ORACLE_TYPES:
        for order in workloads.all_orders(label):
            for suite in workloads.SUITES:
                jobs.append({"argv": ["verify", label, "--coxeter", order, "--suite", suite,
                                      "--format", "json"]})
    return jobs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(HERE / "digests.json"))
    args = ap.parse_args()
    caches = workloads.process_caches()
    digests, bad = {}, 0
    for job in all_cli_jobs():
        key = workloads.job_key(job)
        workloads.cold_start(caches)
        t0 = time.perf_counter()
        code, out, err = workloads.run_cli(job["argv"])
        seconds = time.perf_counter() - t0
        failed = code != 0
        if not failed and job["argv"][0] == "verify":
            failed = not json.loads(out)["ok"]
        if failed:
            bad += 1
            sys.stderr.write(f"FAILED {key}: exit {code} {err.strip()}\n")
            continue
        digests[key] = workloads.sha256_text(out)
        sys.stderr.write(f"{seconds:8.3f} s  {key}\n")
    with open(args.out, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
