#!/usr/bin/env python3
"""Truth tables for the mode-ion gates and the three-step exchange.

Four builds are compared, each run on the cat code in coherent states,
with no Fock cutoff, as the pipeline runs it:
  u_ve[ideal]    parity-controlled ion flip on the odd part of the mode
  u_ve[literal]  the product of two exponentials taken as written; they
                 compose to diag((-1)^n, 1) on the ion, a pure phase on
                 the odd branch, so its flipping rows score exactly zero
  u_ev           CNOT with the ion as control, realized by a conditional
                 displacement kick (approximate on the flipping rows)
  u_swap         ve . ev . ve, the qubit exchange between mode and ion
"""

from math import exp, pi

from catbell.gates import report_u_ev, report_u_swap, report_u_ve
from catbell.params import EncodingParams

alpha = 4.0
params = EncodingParams.for_amplitudes(alpha)


def show(rows):
    print(f"{rows[0]['gate']}  (isometry residual {rows[0]['unitarity']:.1e})")
    for row in rows:
        print(f"  {row['input']} -> {row['target']}   "
              f"fidelity {row['fidelity']:.10f}")
    print(f"  worst row: {min(row['fidelity'] for row in rows):.10f}")
    print()


show(report_u_ve("ideal", "a", params))
show(report_u_ve("literal", "a", params))
show(report_u_ev("a", params))
show(report_u_swap("a", params, "ideal", "ideal"))
show(report_u_swap("a", params, "ideal", "displacement"))

quarter = exp(-((pi / (4.0 * alpha)) ** 2))
print(f"conditional-kick flipping rows sit on exp(-(pi/4 alpha)^2) = "
      f"{quarter:.10f} at alpha = {alpha:.0f}")
