#!/usr/bin/env python3
"""Heating of a stored cat qubit: the channel's law vs jump trajectories.

The storage noise is a balanced pair of reservoirs that pump occupation
upward at a constant net rate gamma while leaving the mode amplitude
fixed.  Every absorbed or emitted phonon flips the cat qubit's parity, so
the encoded qubit suffers a bit flip whenever the jump count is odd.  The
channel is a Gaussian random displacement, so <n> and the parity follow in
closed form from the cat's populations (params.heated_moments).
"""

import numpy as np

from catbell.bosonic import cat
from catbell.noise import (
    HeatingParams,
    propagate,
    sample_trajectory,
    trajectory_rng,
)
from catbell.params import ModeParams, heated_moments

alpha = 1.5
gamma = 2e-3
mode = ModeParams(16, leak_tol=1e-6)
psi0 = cat(alpha, "+", mode)
populations = np.abs(psi0.amps) ** 2

print(f"even cat, alpha = {alpha}, gamma = {gamma}")
print(f"{'T':>6} {'<n>':>9} {'parity':>9} {'p_flip':>9}")
for duration in (1.0, 5.0, 10.0, 20.0):
    n_mean, parity = heated_moments(populations, gamma * duration)
    print(f"{duration:6.1f} {n_mean:9.5f} {parity:9.5f} {(1.0 - parity) / 2.0:9.5f}")

# unravel the same channel into jump trajectories and compare the
# ensemble parity with the master equation's rho at one duration
duration = 10.0
n_traj = 2000
flips = 0
parity = 0.0
for i in range(n_traj):
    t = sample_trajectory(psi0, HeatingParams(gamma, duration),
                          trajectory_rng(11, i))
    flips += t.parity_flipped
    parity += -1.0 if t.parity_flipped else 1.0
parity /= n_traj
rho = propagate(psi0.to_density(), HeatingParams(gamma, duration)).matrix
master = float(((-1.0) ** np.arange(mode.cutoff) * rho.diagonal().real).sum())
se = np.sqrt((1.0 - parity**2) / n_traj)
print(f"\nT = {duration}: ensemble parity {parity:.4f} +/- {se:.4f} "
      f"({n_traj} trajectories)")
print(f"          master equation {master:.4f}")
print(f"          channel law     {heated_moments(populations, gamma * duration)[1]:.4f}")
print(f"          flip fraction   {flips / n_traj:.4f}")
