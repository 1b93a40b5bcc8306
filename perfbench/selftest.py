"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs a few real jobs through ``worker.measure`` with their outputs tampered
with after the call, and checks that each tampered job, and no other, is
counted as failed: a CLI stdout with one byte changed, a verify report with a
check turned to ``ok: false``, and cluster expansions that are wrong in
coefficient, sign or support.  Exits 0 when every tampering is caught.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
import worker  # noqa: E402


class Tampered:
    """A runner whose results pass through ``tamper(job, result)`` before the check."""

    def __init__(self, inner, jobs, tamper):
        self.inner = inner
        self.fresh_models = inner.fresh_models
        self.blocks = iter([jobs])
        self.tamper = tamper

    def prepare(self, job):
        self.inner.prepare(job)

    def run(self, job):
        return self.tamper(job, self.inner.run(job))

    def check(self, job, result):
        return self.inner.check(job, result)


def flip_byte(job, result):
    code, out, err = result
    if job.get("bad") == "byte":
        k = len(out) // 2
        out = out[:k] + ("0" if out[k] != "0" else "1") + out[k + 1:]
    if job.get("bad") == "verify-ok":
        data = json.loads(out)
        data["checks"][0]["ok"] = False
        out = json.dumps(data, indent=2, sort_keys=True) + "\n"
    return code, out, err


def incompatible_pair(model):
    """Two positive labels that are not compatible, and the root-side sum of both."""
    table = model.compat_table()
    positive = [lab.index for lab in model.labels if not lab.is_negative]
    a, b = next((a, b) for a in positive for b in positive if a < b and table[a][b] != 0)
    point = tuple(x + y for x, y in zip(model.labels[a].root, model.labels[b].root))
    return a, b, point


def bad_expansion(model):
    def tamper(job, expansion):
        kind = job.get("bad")
        expansion = dict(expansion)
        first = min(expansion)
        if kind == "coefficient":
            expansion[first] += 1
        elif kind == "sign":
            expansion[first] = -expansion[first]
        elif kind == "support":
            # Recombines to the point with positive coefficients, but over an
            # incompatible pair: only the compatibility check can catch it.
            a, b, _ = incompatible_pair(model)
            expansion = {a: 1, b: 1}
        return expansion

    return tamper


def main() -> int:
    problems = []
    caches = workloads.process_caches()

    cli = worker.CliRunner("oracle-suites", 0, caches)
    cli_jobs = [
        {"argv": ["verify", "B4", "--coxeter", workloads.all_orders("B4")[0], "--suite", "sorting",
                  "--format", "json"], "cls": "B4/sorting"},
        {"argv": ["verify", "D4", "--coxeter", workloads.all_orders("D4")[1], "--suite", "cambrian",
                  "--format", "json"], "cls": "D4/cambrian", "bad": "byte"},
        {"argv": ["verify", "B4", "--coxeter", workloads.all_orders("B4")[2], "--suite", "sorting",
                  "--format", "json"], "cls": "B4/sorting", "bad": "verify-ok"},
        {"argv": ["polytope", "D5", "--coxeter", workloads.all_orders("D5")[3], "--format", "json"],
         "cls": "D5", "bad": "byte"},
    ]
    records = worker.measure(Tampered(cli, cli_jobs, flip_byte), 0.0)
    model = worker.warm_model("F4", "1,2,3,4")
    expand = worker.ExpandRunner({("F4", "1,2,3,4"): model}, iter(()))
    exp_jobs = [
        {"type": "F4", "order": "1,2,3,4", "side": "root", "point": (3, -2, 5, 1), "cls": "F4/root/miss"},
        {"type": "F4", "order": "1,2,3,4", "side": "root", "point": (4, 7, -1, 2), "cls": "F4/root/miss",
         "bad": "coefficient"},
        {"type": "F4", "order": "1,2,3,4", "side": "weight", "point": (-6, 2, 9, -3), "cls": "F4/weight/miss",
         "bad": "sign"},
        {"type": "F4", "order": "1,2,3,4", "side": "root", "point": incompatible_pair(model)[2], "cls": "F4/root/miss",
         "bad": "support"},
    ]
    records += worker.measure(Tampered(expand, exp_jobs, bad_expansion(model)), 0.0)

    jobs = cli_jobs + exp_jobs
    for job, rec in zip(jobs, records):
        caught = rec[2] is not None
        want = "bad" in job
        verdict = "ok  " if caught == want else "FAIL"
        if caught != want:
            problems.append(rec[3])
        print(f"{verdict} tamper={job.get('bad', 'none'):11s} failed={caught!s:5s} {rec[3]}"
              + (f"  ({rec[2]})" if rec[2] else ""))
    failed = sum(1 for rec in records if rec[2] is not None)
    print(f"{failed} of {len(records)} jobs counted as failed; "
          f"{sum('bad' in j for j in jobs)} were tampered with")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
