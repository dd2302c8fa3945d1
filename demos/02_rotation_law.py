#!/usr/bin/env python3
"""How a small displacement rotates a cat qubit, and what it costs.

A kick D(i epsilon) rotates the logical Bloch vector of a cat qubit by
theta = 2 alpha epsilon while pushing each coherent branch a distance
epsilon off its orbit.  The branch fidelity against the ideal rotation is
exp(-epsilon^2), independent of alpha: larger cats buy a given angle with
a smaller kick.
"""

from math import exp, pi

from catbell.encoding import rotation_fidelity
from catbell.params import EncodingParams

print("branch fidelity of D(i eps) vs the ideal rx(2 alpha eps)")
print(f"{'alpha':>6} {'eps':>8} {'theta/pi':>9} {'f(num)':>12} "
      f"{'exp(-eps^2)':>12} {'deviation':>10}")
for alpha in (2.0, 3.0, 8.0):
    params = EncodingParams.for_amplitudes(alpha)
    for eps in (0.05, 0.1, 0.2, 0.5236):
        r = rotation_fidelity(eps, params, "a")
        dev = abs(r["f_zero"] - r["analytic"])
        print(f"{alpha:6.1f} {eps:8.4f} {r['theta'] / pi:9.4f} "
              f"{r['f_zero']:12.8f} {r['analytic']:12.8f} {dev:10.2e}")
    print()

# the kick that buys a quarter turn, used by the conditional gate
for alpha in (4.0, 8.0):
    eps = pi / (4.0 * alpha)
    print(f"alpha {alpha:.0f}: quarter-turn kick eps = pi/(4 alpha) = {eps:.5f}"
          f" -> fidelity {exp(-eps * eps):.6f}")
