"""Two-stage estimate of the critical coupling: a coarse comb over [0, 2] g_c
followed by a 51-point comb over the bracket [c - step, c] below its hit c.

Both stages search their comb with refine_collapse: each starts at the
analytic edge g_c = omega/2, and the two share one row store, so the refine
stage reuses the coarse rows at both bracket ends instead of solving them
again. At cutoff 1024 the defaults take 3 probes, one of them, the coarse
hit c, solved at all k levels. c is solved at all k levels only when the
refine stage closes on it; a refine that closes below c leaves it solved
at its 3 lowest levels.

    python scripts/refine_critical.py --omega0 1 --omega 0.5 --cutoff 1024
"""

import argparse
import sys

from tprabi import (
    RelativeComb,
    SweepConfig,
    refine_collapse,
    subspace_from_name,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--omega0", type=float, default=1.0)
    parser.add_argument("--omega", type=float, default=0.5)
    parser.add_argument("--subspace", default="q14+")
    parser.add_argument("--cutoff", type=int, default=2**10)
    parser.add_argument("--steps", type=int, default=200)
    args = parser.parse_args(argv)
    try:  # a value the config rejects is a usage error: exit 2
        config = SweepConfig(
            omega0_grid=(args.omega0,),
            omega_grid=(args.omega,),
            coupling_spec=RelativeComb(steps=args.steps, lo=0.0, hi=2.0),
            subspaces=(subspace_from_name(args.subspace),),
            cutoff=args.cutoff,
        )
    except ValueError as exc:
        parser.error(str(exc))
    return args, config


def main(argv=None):
    args, config = parse_args(argv)
    coarse, refined = refine_collapse(config, args.omega0, args.omega)
    if not coarse.found:
        print("no collapse inside the coarse comb; widen it or raise the cutoff")
        return 1
    print(f"coarse:  g_c ~= {coarse.coupling:.8g} +- {coarse.step:.2g}")
    print(f"refined: g_c ~= {refined.coupling:.8g} +- {refined.step:.2g}")
    print(f"g_c/omega = {refined.coupling / args.omega:.6f} (0.5 expected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
