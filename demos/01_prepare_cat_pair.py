#!/usr/bin/env python3
"""Entangle two coherent states into a pair of cat-encoded qubits.

A cross-Kerr interaction held for half a period maps |alpha>|beta> onto a
four-component superposition that factorizes as even/odd cats on one mode
entangled with +/- coherent branches on the other.  This script builds the
state as its two Schmidt terms, each a sum of coherent states with no Fock
cutoff (catbell.coherent, the preparation that `prepare` and
`full-pipeline` run), checks it against the closed-form target and both
factorizations, and reads the reduced state of mode a from the 2 x 2 Gram
tables of the terms.
"""

from math import log2, sqrt

from catbell.coherent import cat_form, preparation, register_fidelity
from catbell.params import EncodingParams

alpha = 2.0
params = EncodingParams.for_amplitudes(alpha)
print(f"amplitudes alpha = beta = {alpha}, no Fock cutoff")

mode_a, mode_b, psi, target = preparation(params)
print(f"fidelity with the analytic target : "
      f"{register_fidelity(mode_a, mode_b, psi, target):.12f}")

# the same state written with the cat factor on either side
for side in ("a", "b"):
    form = cat_form(mode_a, mode_b, side)
    print(f"cat factorization on mode {side}    : "
          f"{register_fidelity(mode_a, mode_b, psi, form):.12f}")


def gram(mode, terms):
    """<u|v> of each pair of terms (ion |0> ket, ion |1> ket) of a side."""
    return [[sum(mode.inner(x, y) for x, y in zip(u, v)) for v in terms]
            for u in terms]


# a maximally entangled pair of qubits leaves each mode in a rank-2
# mixture with weights 1/2.  psi = sum_k L_k (x) R_k, so rho_a = sum_kl
# <R_l|R_k> |L_k><L_l|, and on the span of the L_k its spectrum is that of
# W G, W_kl = <R_l|R_k> and G_lk = <L_l|L_k>
left, right = psi
g = gram(mode_a, left)
w = [list(row) for row in zip(*gram(mode_b, right))]
m = [[sum(w[k][j] * g[j][l] for j in range(2)) for l in range(2)]
     for k in range(2)]
half = (m[0][0] + m[1][1]).real / 2.0
gap = sqrt(max(half * half - (m[0][0] * m[1][1] - m[0][1] * m[1][0]).real, 0.0))
spectrum = (half + gap, half - gap)
print("reduced mode-a spectrum           :",
      "  ".join(f"{p:.6f}" for p in spectrum))
entropy = -sum(p * log2(p) for p in spectrum if p > 0.0)
print(f"entanglement entropy              : {entropy:.6f} bits")
