"""One benchmark job in a fresh Python process: set up, answer once, check.

    python3 perfbench/worker.py --workload NAME --seed N --job J --workdir DIR [--spans FILE]

Set-up is the imports, the run's inputs, this job's config files and one
warm-up solve; it ends when the process records ``ready`` (CLOCK_MONOTONIC,
comparable with the parent's clock). Only the job's calls are timed. The peak
resident size is read before the checks run. With ``--spans`` the layer
functions are traced and the spans written to FILE. The last stdout line is a
JSON report; ``run.py`` reads it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--job", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    programs = workloads.Programs(ROOT)
    inputs = workloads.generate(args.workload, args.seed)
    calls = workload.calls(inputs, args.job, args.workdir)
    workloads.warm_up()
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.install(callers=(programs.refine,))
    ready = time.monotonic()

    start = time.perf_counter()
    outputs = [programs.call(entry, argv) for entry, argv in calls]
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
        tracing.write_spans(tracer.spans, args.spans)
    try:
        verdict = workload.check(inputs, args.job, args.workdir, outputs)
    except Exception as exc:  # unreadable output is a wrong answer
        verdict = workloads.Verdict([f"check raised {type(exc).__name__}: {exc}"])
    report = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024.0,
        "inputs": inputs,
        "failures": verdict.failures,
        "located": verdict.located,
    }
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
