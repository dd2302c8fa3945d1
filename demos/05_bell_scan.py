#!/usr/bin/env python3
"""CHSH violation of the parity-flip mixture, exact and sampled.

Storage errors turn the even Bell state into the mixture
(1 - delta) |phi+> + delta |psi+>, whose CHSH value at the standard
angles is B = 2 sqrt(2) (1 - delta).  The violation survives until
delta = 1 - 1/sqrt(2) ~ 0.2929.
"""

from math import sqrt

import numpy as np

from catbell.bell import DELTA_STAR, chsh, mixed_bell, violation_scan

deltas = np.round(np.arange(0.0, 0.501, 0.05), 10)
scan = violation_scan(deltas)

print(f"{'delta':>7} {'B':>10} {'2rt2(1-d)':>10}")
for d, b in zip(scan.deltas, scan.b_values):
    print(f"{d:7.3f} {b:10.6f} {2.0 * sqrt(2.0) * (1.0 - d):10.6f}")
print(f"\nviolation crossing B = 2 at delta = {scan.crossing:.6f} "
      f"(closed form {DELTA_STAR:.6f})")

# finite shots blur the same curve but keep it reproducible for a seed
print("\nsampled with 4096 shots (seed 5):")
for d in (0.0, 0.15, 0.3):
    out = chsh(mixed_bell(d), method="sampled", shots=4096, seed=5)
    print(f"  delta {d:4.2f}: B = {out.b_value:.4f} +/- {out.std_error:.4f}")
