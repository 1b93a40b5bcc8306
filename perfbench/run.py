"""coxfan benchmark: polytope-sweep, expand-stream and oracle-suites.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each run starts fresh worker processes (``worker.py``), one client in a closed
loop, and times each job from outside the library.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A human-readable row per workload comes before it.  The
reasoning behind the workloads and metrics is in ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("polytope-sweep", "expand-stream", "oracle-suites")

# Set-up is measured this many times per run (separate fresh processes plus the
# measuring one) and reported as the median.
SETUP_PROBES = 4
# Jobs that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
READY_TIMEOUT_S = 60
RUN_GRACE_S = 120


class BenchError(RuntimeError):
    pass


def start_worker(workload: str, seed: int, seconds: float, setup_only=False, trace_file=None):
    """Launch a worker; return (process, its CPU seconds from launch to READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    # One thread per worker: the benchmark is a single client in one process.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    ready = sel.select(timeout=READY_TIMEOUT_S)
    sel.close()
    word, _, setup_s = (proc.stdout.readline() if ready else "").partition(" ")
    if word != "READY":
        stop(proc)
        raise BenchError(f"worker for {workload} did not become ready (exit {proc.returncode})")
    return proc, float(setup_s)


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish_worker(proc, seconds: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker overran its time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        proc, setup_s = start_worker(workload, seed, 0.0, setup_only=True)
        try:
            code = proc.wait(timeout=READY_TIMEOUT_S)
        finally:
            stop(proc)
        if code != 0:
            raise BenchError(f"set-up probe exited {code}")
        samples.append(setup_s)
    return samples


def tail(times: list):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def jobs_per_s(report: dict) -> float:
    return len(report["records"]) / sum(rec[1] for rec in report["records"])


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Return (row text, attempted, failed, metrics {name: (value, unit)})."""
    if trace:
        return run_traced(workload, seed, seconds)
    setup_samples = measure_setup(workload, seed)
    proc, setup_s = start_worker(workload, seed, seconds)
    try:
        report = finish_worker(proc, seconds)
    finally:
        stop(proc)
    setup_samples.append(setup_s)
    records = report["records"]
    times = [rec[1] for rec in records]
    tail_s, tail_pct = tail(times)
    metrics = {
        "jobs_per_s": (jobs_per_s(report), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    failures = [f"{rec[3]}: {rec[2]}" for rec in records if rec[2] is not None]
    repeats = sum(1 for rec in records if rec[0].endswith("/hit"))
    row = (f"{workload:15s} "
           + "  ".join(f"{name}={value:.6g} {unit}" for name, (value, unit) in metrics.items())
           + f"  fail_ratio={len(failures) / len(records):.4g} ({len(failures)}/{len(records)})"
           + f"  [tail is p{tail_pct:.1f} of {len(records)} jobs;"
           + f" repeat_share={repeats / len(records):.3f}; inputs_sha256={report['inputs_sha256']}]")
    for line in failures[:3]:
        row += f"\n  failed: {line}"
    return row, len(records), len(failures), metrics


def run_traced(workload: str, seed: int, seconds: float):
    """An untraced and a traced worker on the same seed; per-layer metrics plus overhead."""
    from tracing import METRICS

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload}-seed{seed}.json"
    reports = []
    for trace_file in (None, span_file):
        proc, _ = start_worker(workload, seed, seconds, trace_file=trace_file)
        try:
            reports.append(finish_worker(proc, seconds))
        finally:
            stop(proc)
    plain, traced = (jobs_per_s(r) for r in reports)
    tr = reports[1]["trace"]
    metrics = {name: (tr["metrics"][name], unit) for name, unit in METRICS}
    metrics["trace.jobs_per_s"] = (traced, "1/s")
    metrics["trace.overhead_share"] = (1 - traced / plain, "ratio")
    metrics["trace.self_over_job_max"] = (tr["self_over_job_max"], "ratio")
    failed = sum(1 for r in reports for rec in r["records"] if rec[2] is not None)
    attempted = sum(len(r["records"]) for r in reports)
    sample = tr["sample_job"]
    layers = ", ".join(f"{k}={v:.4f}" for k, v in sorted(sample["layer_self_s"].items()))
    row = (f"{workload:15s} traced jobs_per_s={traced:.6g} untraced={plain:.6g} 1/s "
           f"overhead={1 - traced / plain:+.2%}  spans={tr['spans']}  "
           f"max layer-self/job time={tr['self_over_job_max']:.6f}\n"
           f"  longest job {sample['key']!r}: {sample['job_s']:.4f} s, layer self times "
           f"sum to {sum(sample['layer_self_s'].values()):.4f} s ({layers})\n"
           f"  spans written to {span_file.relative_to(ROOT)}")
    return row, attempted, failed, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "coxfan" / "__init__.py").is_file():
        sys.stderr.write(f"error: no coxfan sources under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            row, a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(row, flush=True)
            attempted += a
            failed += f
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
