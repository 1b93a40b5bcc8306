"""One measuring process: a fresh interpreter per run or per set-up probe.

    python3 perfbench/worker.py --workload W --seed N --seconds S [--setup-only] [--trace FILE]

``run.py`` starts this script and reads its ``READY <seconds>`` line, printed
with the CPU time the process has used once the interpreter has started,
coxfan is imported, the job stream is generated and, for expand-stream, the
warm models are built.  It then runs whole job blocks within ``--seconds``,
checks every output, and prints one JSON line with the per-job records.  With ``--trace FILE`` it also records spans, writes them
to FILE and adds the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


class CliRunner:
    """CLI jobs, each from the process state of a fresh ``coxfan`` invocation."""

    fresh_models = True

    def __init__(self, workload: str, seed: int, caches: list):
        self.blocks = workloads.BLOCKS[workload](seed)
        with open(HERE / "digests.json") as fh:
            self.digests = json.load(fh)
        self.caches = caches

    def prepare(self, job) -> None:
        workloads.cold_start(self.caches)

    def run(self, job):
        return workloads.run_cli(job["argv"])

    def check(self, job, result):
        return workloads.check_cli(job, result, self.digests)


def warm_model(label: str, order: str):
    """The model of (label, 1-based order) with its clusters already built."""
    from coxfan import build_model, coxeter_from_order, make_datum

    datum = make_datum(label)
    model = build_model(datum, coxeter_from_order(datum, tuple(int(i) - 1 for i in order.split(","))))
    model.clusters()
    return model


class ExpandRunner:
    """Expansion queries against warm models built during set-up."""

    fresh_models = False

    def __init__(self, models: dict, blocks):
        self.models = models
        self.blocks = blocks

    def prepare(self, job) -> None:
        pass

    def run(self, job):
        model = self.models[job["type"], job["order"]]
        query = model.expand_root if job["side"] == "root" else model.expand_weight
        return query(job["point"])

    def check(self, job, result):
        return workloads.check_expansion(self.models[job["type"], job["order"]], job, result)


def make_runner(workload: str, seed: int, caches: list):
    if workload == "expand-stream":
        models = {key: warm_model(*key) for key in workloads.expand_models()}
        return ExpandRunner(models, workloads.expand_blocks(seed))
    return CliRunner(workload, seed, caches)


def measure(runner, seconds: float, tracer=None):
    """Run whole blocks within ``seconds``; one record per job.

    At least one block runs.  Another starts only if, judging by the one just
    finished, it can end before ``seconds`` have passed, so every run measures
    the exact block mix and a long block is never cut or half repeated.

    A record is ``[class, job seconds, failure reason or None, job key]``.
    Only the call into coxfan is timed; set-up for a cold start and the
    output check happen outside the timed region.  Job time is the process's
    CPU time: the code is single-threaded and does no I/O, so on an idle
    machine it equals wall time, and unlike wall time it leaves out the time a
    shared host gives the CPU to other guests.
    """
    records = []
    start = perf_counter()
    for block in runner.blocks:
        block_start = perf_counter()
        for job in block:
            runner.prepare(job)
            if tracer is not None:
                tracer.begin_job(len(records), runner.fresh_models)
            t0 = process_time()
            try:
                result, error = runner.run(job), None
            except (Exception, SystemExit) as exc:
                # A job that raises is a failed job; the run goes on.
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = process_time() - t0
            if error is None:
                error = runner.check(job, result)
            records.append([job["cls"], elapsed, error, workloads.job_key(job)])
        now = perf_counter()
        if (now - start) + (now - block_start) > seconds:
            break
    return records


def trace_report(tracer, records) -> dict:
    """Per-layer metrics plus the check that layer self times fit in each job's time."""
    per_job = tracer.per_job()
    ratios = [sum(per_job[i].values()) / rec[1] for i, rec in enumerate(records) if rec[1] > 0]
    sample = max(range(len(records)), key=lambda i: records[i][1])
    return {
        "metrics": tracer.metrics(len(records)),
        "spans": len(tracer.spans),
        "self_over_job_max": max(ratios),
        "sample_job": {"key": records[sample][3], "job_s": records[sample][1],
                       "layer_self_s": dict(per_job[sample])},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="measuring process of perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="FILE", help="record spans and write them to FILE")
    args = ap.parse_args()
    out = sys.stdout

    import coxfan.cli  # noqa: F401  (imports every layer)

    caches = workloads.process_caches()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    runner = make_runner(args.workload, args.seed, caches)
    # CPU time since the interpreter started: the set-up cost of this process.
    out.write(f"READY {process_time()!r}\n")
    out.flush()
    if args.setup_only:
        return 0

    records = measure(runner, args.seconds, tracer)
    if tracer is not None:
        tracer.begin_job("teardown", False)
    report = {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs_sha256": workloads.inputs_digest(args.workload, args.seed),
    }
    if tracer is not None:
        report["trace"] = trace_report(tracer, records)
        tracer.write(args.trace)
    out.write(json.dumps(report) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
