"""Benchmark for tprabi: four workloads, each job in its own fresh process.

    python3 perfbench/run.py --workload survey_table --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 7            # all four workloads, one table

Run from the repository root. A run draws its inputs from --seed
(``workloads.generate``), then starts fresh ``worker.py`` processes one at a
time (RABI_THREADS unset, one BLAS thread) until --seconds have passed and at
least three jobs ran. Each job sets up, answers once and checks its answer
after the timed region.

End-to-end metrics (--trace 0), medians over the run's jobs:
  wall_s       time for the workload's answer (table, g_c estimate, spectra,
               oracle verdicts);
  setup_s      process start to ready: imports, inputs, one warm-up solve;
  peak_rss_mb  ru_maxrss of the job's process, read before the checks.

--trace 1 alternates traced and untraced jobs and prints the per-layer
metrics of the traced job with the median wall time (see tracing.py); their
self times plus unattributed_s add up to traced_wall_s. trace_overhead_frac
is the median traced over the median untraced wall time, minus one.

Also printed, not part of the JSON result: failed_frac (jobs with a wrong
answer, a nonzero exit or a failed row, over jobs run), time_to_gc_s (median
time per located critical coupling) and gc_abs_err (worst |estimate -
omega/2|). The last stdout line is the JSON result; `failed` counts the
failed jobs of `attempted`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("survey_table", "locate_gc", "full_spectrum", "oracle")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "model.build_calls": "count",
    "model.build_s": "s",
    "model.matrix_bytes": "bytes",
    "solver.lapack_calls": "count",
    "solver.lapack_s": "s",
    "solver.lapack_dim_sum": "count",
    "solver.eigvec_bytes": "bytes",
    "solver.package_s": "s",
    "solver.pairs_built": "count",
    "solver.filter_s": "s",
    "solver.pairs_judged": "count",
    "solver.converged_ratio": "ratio",
    "sweep.points_solved": "count",
    "sweep.points_per_gc": "count",
    "sweep.rows_failed": "count",
    "sweep.self_s": "s",
    "sweep.detect_s": "s",
    "analytic.calls": "count",
    "analytic.s": "s",
    "cli.parse_s": "s",
    "cli.format_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.write_s": "s",
    "cli.other_s": "s",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_frac": "ratio",
}
BLAS_THREADS = "1"
MIN_JOBS = 3
JOB_TIMEOUT_S = 150.0


class BenchmarkError(Exception):
    """The benchmark could not measure: no program, or a job that did not report."""


def child_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key != "RABI_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def run_job(name: str, seed: int, job: int, workdir: Path, spans: Path | None) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(seed), "--job", str(job),
        "--workdir", str(workdir),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    start = time.monotonic()
    try:
        done = subprocess.run(
            command, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{name} job {job} ran past {JOB_TIMEOUT_S} s") from None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{name} job {job} exited with {done.returncode}:\n{done.stderr[-3000:]}"
        )
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - start
    if spans is not None:
        report["layers"] = tracing.layer_metrics(
            tracing.read_spans(str(spans)), report["wall_s"], len(report["located"])
        )
    return report


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Reports of the jobs of one run, in the order they ran."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    reports: list[dict] = []
    start = time.monotonic()
    try:
        while len(reports) < MIN_JOBS or time.monotonic() - start < seconds:
            job = len(reports)
            spans = workdir / f"job{job}.spans.json" if trace and job % 2 == 0 else None
            reports.append(run_job(name, seed, job, workdir, spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return reports


def summarize(reports: list[dict], trace: bool) -> dict:
    """Metric values of one run, plus the printed-only figures."""
    if trace:
        traced = [r for r in reports if "layers" in r]
        plain = [r for r in reports if "layers" not in r]
        walls = [r["wall_s"] for r in traced]
        chosen = traced[sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]]
        values = dict(chosen["layers"], traced_wall_s=chosen["wall_s"])
        values["trace_overhead_frac"] = statistics.median(walls) / statistics.median(
            r["wall_s"] for r in plain
        ) - 1.0
        units = PER_LAYER
    else:
        values = {key: statistics.median(r[key] for r in reports) for key in END_TO_END}
        units = END_TO_END
    per_gc = [r["wall_s"] / len(r["located"]) for r in reports if r["located"]]
    errors = [abs(est - gc) for r in reports for gc, est in r["located"]]
    failed = sum(1 for r in reports if r["failures"])
    return {
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
        "attempted": len(reports),
        "failed": failed,
        "failed_frac": failed / len(reports),
        "time_to_gc_s": statistics.median(per_gc) if per_gc else None,
        "gc_abs_err": max(errors) if errors else None,
    }


def describe(name: str, seed: int, reports: list[dict], summary: dict) -> list[str]:
    lines = [
        f"{name} seed={seed}: {summary['attempted']} jobs, {summary['failed']} failed",
        f"  inputs {json.dumps(reports[0]['inputs'])}",
        "  job wall_s " + " ".join(f"{r['wall_s']:.4g}" for r in reports),
    ]
    for report in reports:
        for failure in report["failures"][:5]:
            lines.append(f"  FAILED: {failure}")
    for key, metric in summary["metrics"].items():
        lines.append(f"  {key:24s} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"  {'failed_frac':24s} {summary['failed_frac']:.6g} ratio")
    for key in ("time_to_gc_s", "gc_abs_err"):
        value = summary[key]
        lines.append(f"  {key:24s} " + ("n/a" if value is None else f"{value:.6g}"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "tprabi" / "__init__.py").is_file():
        print(f"error: no tprabi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for name in names:
            reports = run_workload(name, args.seed, args.seconds, bool(args.trace))
            summaries[name] = summarize(reports, bool(args.trace))
            print("\n".join(describe(name, args.seed, reports, summaries[name])), flush=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        metrics = summaries[names[0]]["metrics"]
    else:
        metrics = {
            f"{name}.{key}": metric
            for name, summary in summaries.items()
            for key, metric in summary["metrics"].items()
        }
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
