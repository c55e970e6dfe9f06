"""Track the lone filter survivor exactly at the critical coupling across
basis sizes: its energy, tail norm, and overlap with the near-critical
ground state.

    python scripts/exceptional_overlap.py --omega0 1 --omega 0.5
"""

import argparse
import sys

import numpy as np

from tprabi import ModelParams, critical_coupling, solve_point, subspace_from_name


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--omega0", type=float, default=1.0)
    parser.add_argument("--omega", type=float, default=0.5)
    parser.add_argument("--subspace", default="q14+")
    parser.add_argument(
        "--cutoffs", type=int, nargs="+", default=[2**11, 2**12, 2**13]
    )
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    label = subspace_from_name(args.subspace)
    gc = critical_coupling(args.omega)
    at_gc = ModelParams(args.omega0, args.omega, gc)
    near_gc = ModelParams(args.omega0, args.omega, 0.98 * gc)

    print(f"g_c = {gc:g}; filter: tail fraction 0.2, tolerance 1e-6")
    print("cutoff  count  energy          tail_norm   overlap(0.98 g_c ground)")
    for cutoff in args.cutoffs:
        filtered = solve_point(at_gc, label, cutoff, 25)
        if filtered.converged_count != 1:
            print(f"{cutoff:6d}  {filtered.converged_count:5d}  (no lone survivor)")
            continue
        survivor = int(np.flatnonzero(filtered.converged)[0])
        lone = filtered.pairs[survivor]
        ground = solve_point(near_gc, label, cutoff, 1).pairs[0]
        overlap = float(abs(np.vdot(lone.vector, ground.vector)))
        print(
            f"{cutoff:6d}  {filtered.converged_count:5d}  {lone.value:+.8e}"
            f"  {filtered.tails[survivor]:.2e}  {overlap:.6f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
