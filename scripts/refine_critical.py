"""Two-stage estimate of the critical coupling: a coarse comb over [0, 2] g_c
followed by a 200-point comb over a +-2% window around the first hit.

Both stages bisect their comb with locate_collapse (about ten solves each).

    python scripts/refine_critical.py --omega0 1 --omega 0.5 --cutoff 1024
"""

import argparse
import sys

from tprabi import (
    RelativeComb,
    SweepConfig,
    locate_collapse,
    refine_comb,
    subspace_from_name,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--omega0", type=float, default=1.0)
    parser.add_argument("--omega", type=float, default=0.5)
    parser.add_argument("--subspace", default="q14+")
    parser.add_argument("--cutoff", type=int, default=2**10)
    parser.add_argument("--steps", type=int, default=200)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    config = SweepConfig(
        omega0_grid=(args.omega0,),
        omega_grid=(args.omega,),
        coupling_spec=RelativeComb(steps=args.steps, lo=0.0, hi=2.0),
        subspaces=(subspace_from_name(args.subspace),),
        cutoff=args.cutoff,
    )
    coarse = locate_collapse(config, args.omega0, args.omega)
    if not coarse.found:
        print("no collapse inside the coarse comb; widen it or raise the cutoff")
        return 1
    print(f"coarse:  g_c ~= {coarse.coupling:.8g} +- {coarse.step:.2g}")

    refined = locate_collapse(refine_comb(config, coarse.coupling), args.omega0, args.omega)
    if not refined.found:
        # the fine window can sit entirely past the drop; report the coarse hit
        print("refined comb saw no count drop; the coarse estimate stands")
        return 0
    print(f"refined: g_c ~= {refined.coupling:.8g} +- {refined.step:.2g}")
    print(f"g_c/omega = {refined.coupling / args.omega:.6f} (0.5 expected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
