"""Search each slice of a coupling comb from g_c and report where it collapses.

Typical run:
    python scripts/collapse_survey.py --omega0 0.95 1.0 1.05 --omega 0.5 --steps 200

The whole row table comes from `tprabi sweep`, which solves every comb point.
This config writes the table of `--omega0 0 --omega 0.45` at the defaults
here (g2_rel = grid(0, 2, steps + 1)):

    omega0 = 0
    omega = 0.45
    g2_rel = grid(0, 2, 201)
    subspaces = q14+
    cutoff = 1024
    eigenpairs = 25

    python -m tprabi sweep degenerate.cfg --out degenerate.csv
"""

import argparse
import sys

from tprabi import RelativeComb, SweepConfig, locate_collapse, subspace_from_name


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--omega0", type=float, nargs="+", default=[1.0])
    parser.add_argument("--omega", type=float, nargs="+", default=[0.5])
    parser.add_argument("--subspace", default="q14+", help="q14+/q14-/q34+/q34-/full")
    parser.add_argument("--cutoff", type=int, default=2**10)
    parser.add_argument("--steps", type=int, default=200, help="comb intervals over [0, 2] g_c")
    parser.add_argument("--eigenpairs", type=int, default=25)
    args = parser.parse_args(argv)
    try:  # a value the config rejects is a usage error: exit 2
        return SweepConfig(
            omega0_grid=tuple(args.omega0),
            omega_grid=tuple(args.omega),
            coupling_spec=RelativeComb(steps=args.steps, lo=0.0, hi=2.0),
            subspaces=(subspace_from_name(args.subspace),),
            cutoff=args.cutoff,
            requested_eigenpairs=args.eigenpairs,
        )
    except ValueError as exc:
        parser.error(str(exc))


def main(argv=None):
    config = parse_args(argv)
    for omega0 in config.omega0_grid:
        for omega in config.omega_grid:
            estimate = locate_collapse(config, omega0, omega)
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
