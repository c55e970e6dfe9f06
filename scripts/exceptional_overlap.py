"""Track the lone filter survivor exactly at the critical coupling across
basis sizes: its energy, tail norm, and overlap with the near-critical
ground state.

    python scripts/exceptional_overlap.py --omega0 1 --omega 0.5
"""

import argparse
import sys

from tprabi import (
    ModelParams,
    critical_coupling,
    exceptional_state,
    solve_point,
    subspace_from_name,
)
from tprabi.model import _check_cutoff


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--omega0", type=float, default=1.0)
    parser.add_argument("--omega", type=float, default=0.5)
    parser.add_argument("--subspace", default="q14+")
    parser.add_argument(
        "--cutoffs", type=int, nargs="+", default=[2**11, 2**12, 2**13]
    )
    args = parser.parse_args(argv)
    try:  # a value the model rejects is a usage error: exit 2
        for cutoff in args.cutoffs:  # checked here, not mid-table
            _check_cutoff(cutoff)
        label = subspace_from_name(args.subspace)
        at_gc = ModelParams(args.omega0, args.omega, critical_coupling(args.omega))
    except ValueError as exc:
        parser.error(str(exc))
    return args, label, at_gc


def main(argv=None):
    args, label, at_gc = parse_args(argv)

    print(f"g_c = {at_gc.g2:g}; filter: tail fraction 0.2, tolerance 1e-6")
    print("cutoff  count  energy          tail_norm   overlap(0.98 g_c ground)")
    for cutoff in args.cutoffs:
        filtered = solve_point(at_gc, label, cutoff, 25)
        state = exceptional_state(filtered, at_gc, label, cutoff)
        if state is None:
            print(f"{cutoff:6d}  {filtered.converged_count:5d}  (no lone survivor)")
            continue
        print(
            f"{cutoff:6d}  {filtered.converged_count:5d}  {state.pair.value:+.8e}"
            f"  {filtered.tails[filtered.converged][0]:.2e}  {state.overlap:.6f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
