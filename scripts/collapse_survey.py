"""Survey converged-state counts over a coupling comb and report where each
slice collapses.

Typical runs:
    python scripts/collapse_survey.py --omega0 0 --omega 0.45 --out degenerate.csv
    python scripts/collapse_survey.py --omega0 0.95 1.0 1.05 --omega 0.5 --steps 200
"""

import argparse
import sys
from functools import partial

from tprabi import (
    RelativeComb,
    SweepConfig,
    detect_collapse,
    locate_collapse,
    run_sweep,
    subspace_from_name,
)
from tprabi.cli import sweep_csv


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--omega0", type=float, nargs="+", default=[1.0])
    parser.add_argument("--omega", type=float, nargs="+", default=[0.5])
    parser.add_argument("--subspace", default="q14+", help="q14+/q14-/q34+/q34-/full")
    parser.add_argument("--cutoff", type=int, default=2**10)
    parser.add_argument("--steps", type=int, default=200, help="comb intervals over [0, 2] g_c")
    parser.add_argument("--eigenpairs", type=int, default=25)
    parser.add_argument("--out", default=None, help="write the row table as CSV")
    args = parser.parse_args(argv)
    try:  # a value the config rejects is a usage error: exit 2
        config = SweepConfig(
            omega0_grid=tuple(args.omega0),
            omega_grid=tuple(args.omega),
            coupling_spec=RelativeComb(steps=args.steps, lo=0.0, hi=2.0),
            subspaces=(subspace_from_name(args.subspace),),
            cutoff=args.cutoff,
            requested_eigenpairs=args.eigenpairs,
        )
    except ValueError as exc:
        parser.error(str(exc))
    return args, config


def main(argv=None):
    args, config = parse_args(argv)
    # without a table to write, each slice's estimate searches its comb from g_c
    estimate_for = partial(locate_collapse, config)
    if args.out is not None:
        result = run_sweep(config)
        with open(args.out, "w", newline="") as handle:
            handle.write(sweep_csv(result))
        print(f"wrote {len(result.rows)} rows to {args.out}")
        estimate_for = partial(detect_collapse, result)

    for omega0 in config.omega0_grid:
        for omega in config.omega_grid:
            estimate = estimate_for(omega0, omega)
            label = f"omega0={omega0:g} omega={omega:g}"
            if estimate.found:
                print(
                    f"{label}: collapse at g2 = {estimate.coupling:.6g}"
                    f" +- {estimate.step:.2g} (g_c/omega = {estimate.coupling / omega:.4f})"
                )
            else:
                print(f"{label}: no collapse inside the comb")
    return 0


if __name__ == "__main__":
    sys.exit(main())
