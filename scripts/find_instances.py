#!/usr/bin/env python3
"""Search for trajectory instances to pin in shipped configs.

Scans deterministic candidate matrices at a given prime and prints the ones
whose seed `admissible_instance` accepts (a closed form and a pole-free
orbit) and whose scalar period lies in the requested range, plus
a quick look at the twisted-sum decay for the strongest candidate.
"""

import argparse
import math
import random

from mobiusdyn.arith_fn import mobius_segments
from mobiusdyn.char_sums import twisted_sum_schedule
from mobiusdyn.field_arith import PrimeModulus
from mobiusdyn.mobius_dynamics import DegenerateSpectral
from mobiusdyn.sampling import admissible_instance, random_sl2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--min-period", type=float, default=0.0)
    ap.add_argument("--max-period", type=float, default=float("inf"))
    ap.add_argument("--count", type=int, default=5)
    ap.add_argument("--rng-seed", type=int, default=7)
    ap.add_argument("--twisted-demo", action="store_true")
    args = ap.parse_args()

    modulus = PrimeModulus(args.p)
    rng = random.Random(args.rng_seed)
    found = []
    while len(found) < args.count:
        matrix = random_sl2(rng, modulus)
        xi0 = modulus.elem(rng.randrange(args.p))
        try:
            traj, _ = admissible_instance(matrix, xi0)
        except DegenerateSpectral:
            continue
        if not args.min_period <= traj.period <= args.max_period:
            continue
        found.append((matrix, xi0, traj))
        a, b, c, d = matrix.entries()
        print(
            f"matrix=({a},{b},{c},{d}) xi0={xi0.value} "
            f"t={traj.period} ord(theta^2)={traj.theta_sq_order} "
            f"t/p^0.55={traj.period / args.p ** 0.55:.2f}"
        )

    if args.twisted_demo and found:
        matrix, xi0, traj = max(found, key=lambda item: item[2].period)
        reports = twisted_sum_schedule(matrix, xi0, [1], [10**3, 10**4, 10**5], mobius_segments(10**5))
        for r in reports:
            print(f"N={r.term_count}: |S|/N = {r.ratio:.6f}")
        print(f"period {traj.period}, sqrt-envelope check {math.sqrt(10**5) / 10**5:.6f}")


if __name__ == "__main__":
    main()
