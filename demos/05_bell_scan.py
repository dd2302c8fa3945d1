#!/usr/bin/env python3
"""CHSH violation of the parity-flip mixture, exact and sampled.

Storage errors turn the even Bell state into the mixture
(1 - delta) |phi+> + delta |psi+>, whose CHSH value at the standard
angles is B = 2 sqrt(2) (1 - delta).  The violation survives until
delta = 1 - 1/sqrt(2) ~ 0.2929.  As `catbell run` does for bell-scan, the
mixture is read from its correlation tensor, (1 - delta) T(phi+) + delta
T(psi+), with no density matrix built.
"""

from math import sqrt

from catbell.bell import (
    DELTA_STAR,
    PHI_PLUS_T,
    PSI_PLUS_T,
    crossing,
    mixed_tensor,
    tensor_chsh,
)


def mixture(delta: float) -> tuple:
    """The correlation tensor of (1 - delta) |phi+><phi+| + delta |psi+><psi+|."""
    return mixed_tensor(PHI_PLUS_T, PSI_PLUS_T, delta)


deltas = [round(0.05 * k, 10) for k in range(11)]
b_values = [tensor_chsh(mixture(d)).b_value for d in deltas]

print(f"{'delta':>7} {'B':>10} {'2rt2(1-d)':>10}")
for d, b in zip(deltas, b_values):
    print(f"{d:7.3f} {b:10.6f} {2.0 * sqrt(2.0) * (1.0 - d):10.6f}")
print(f"\nviolation crossing B = 2 at delta = {crossing(deltas, b_values):.6f} "
      f"(closed form {DELTA_STAR:.6f})")

# finite shots blur the same curve but keep it reproducible for a seed
print("\nsampled with 4096 shots (seed 5):")
for d in (0.0, 0.15, 0.3):
    out = tensor_chsh(mixture(d), method="sampled", shots=4096, seed=5)
    print(f"  delta {d:4.2f}: B = {out.b_value:.4f} +/- {out.std_error:.4f}")
