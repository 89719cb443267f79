"""Measure how close the purple-MST approximation gets to its worst case.

The lower-bound family places the purple points on a unit equilateral triangle
with red and blue chains running toward the Fermat point; as the chains get
denser the approximation ratio climbs toward 1 + 1/sqrt(3) ~ 1.577.

Usage: python3 demos/approximation_ratio.py
"""

import math

from rbpspan.approx import GUARANTEE, approx_a, ratio_report
from rbpspan.generators import gen_steiner_family


def main():
    limit = 1.0 + 1.0 / math.sqrt(3.0)
    print(f"proven guarantee: {GUARANTEE}   asymptotic family limit: {limit:.4f}")
    print(f"{'t':>4} {'points':>7} {'approx':>10} {'two-chain':>10} {'ratio':>8}")
    for t in (1, 2, 5, 10, 20, 50):
        family = gen_steiner_family(t)
        solution = approx_a(family.instance)
        report = ratio_report(solution, family.two_chain)
        print(f"{t:>4} {family.instance.n:>7} {solution.weight:>10.4f} "
              f"{family.two_chain.weight:>10.4f} {report.ratio:>8.4f}")


if __name__ == "__main__":
    main()
