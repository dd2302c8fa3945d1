"""Correlation tests on the electronic pair after the state exchange.

Measurement axes live in the equatorial plane of the Bloch sphere:
sigma(theta) = cos(theta) sigma_x + sin(theta) sigma_y.  The readout starts
from the Pauli correlation tensor T_mn = tr rho (sigma_m (x) sigma_n) with
sigma = (1, x, y, z) (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200,
340 (1995)).  With u(theta) = (cos theta, sin theta) on its x, y block, a
setting's correlator is E = u(theta_a)^T T u(theta_b), and the populations
of the four outcomes after both axes are rotated onto sigma_z are
(T_00 + s_a r_a + s_b r_b + s_a s_b E) / 4, with signs s = +-1 and r_a,
r_b the Bloch components of each qubit along its axis.  tensor_chsh is
the one readout, and it reads the four settings of a BellAngles from T two
ways: exact correlators, and shot sampling from the populations.  It
refuses a T whose T_00, the trace, is not 1; chsh reads a state through
it.  The fidelity to the delta mixture is read from T too (block_fidelity).
T is linear in rho, so a mixture of states is read from the mixture of
their tensors (pipeline.run_pipeline).  The carrier pulses that rotate each
axis onto sigma_z are never built here: they are an oracle of
catbell.reference, which both readouts are checked against.  The
two-qubit combination

    B = |E(a, b) + E(a, b') + E(a', b) - E(a', b')|

reaches 2 sqrt(2) on the even Bell state at the default settings and
decays linearly to 2 sqrt(2) (1 - delta) when a parity-flipped component of
weight delta is mixed in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from math import isfinite, pi, sqrt

import numpy as np

from .encoding import SchmidtState
from .hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, DensityMatrix, check_unit
from .params import CHSH_METHODS, SpaceLayout

TSIRELSON = 2.0 * sqrt(2.0)
DELTA_STAR = 1.0 - 1.0 / sqrt(2.0)   # mixture weight where B drops to 2

# |phi+> and |psi+>, read-only.  The pair layout is built where a state is
# made, so that its size meets the cap in force.
_BELLS = (np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / sqrt(2.0),
          np.array([0.0, 1.0, 1.0, 0.0], dtype=np.complex128) / sqrt(2.0))
for _amps in _BELLS:
    _amps.flags.writeable = False

_PAULIS = np.stack([np.eye(2, dtype=np.complex128), SIGMA_X, SIGMA_Y, SIGMA_Z])
_PAULIS.flags.writeable = False


def mixed_bell(delta: float) -> DensityMatrix:
    """Electronic two-qubit mixture (1-delta)|phi+><phi+| + delta|psi+><psi+|.

    Both components are unit-normalized Bell projectors, so the weights are
    exactly (1-delta, delta).
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    phi, psi = _BELLS
    m = ((1.0 - delta) * np.outer(phi, phi.conj())
         + delta * np.outer(psi, psi.conj()))
    return DensityMatrix(SpaceLayout((2, 2)), m)


def block_fidelity(t: np.ndarray, delta: float) -> float:
    """Uhlmann fidelity to mixed_bell(delta) of a two-qubit state whose
    correlation tensor (correlation_tensor) is t.

    The block M_ij = <b_i|rho|b_j> on b = (phi+, psi+) is linear in T: M_00
    = (T_00 + T_xx - T_yy + T_zz) / 4, M_11 = (T_00 + T_xx + T_yy - T_zz) / 4,
    M_01 = (T_x0 + T_0x - i (T_yz + T_zy)) / 4.  With weights w = (1-delta,
    delta) on b, sqrt(sigma) is sum_i sqrt(w_i)|b_i><b_i| exactly, so
    sqrt(sigma) rho sqrt(sigma) is the 2x2 block B_ij = sqrt(w_i w_j) M_ij
    on span{phi+, psi+} and F = (tr sqrt(B))^2 = tr B + 2 sqrt(det B), in
    Python floats.  No eigenvalue of a rank-deficient matrix is
    square-rooted; at delta = 0 the result is <phi+|rho|phi+>.  The caller
    holds the state to its trace.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    (t00, t0x, _, _), (tx0, txx, _, _), (_, _, tyy, tyz), (_, _, tzy, tzz) = t.tolist()
    m00 = (t00 + txx - tyy + tzz) / 4
    m11 = (t00 + txx + tyy - tzz) / 4
    m01 = complex(tx0 + t0x, -(tyz + tzy)) / 4
    w0, w1 = 1.0 - delta, delta
    b00, b01, b11 = sqrt(w0 * w0) * m00, sqrt(w0 * w1) * m01, sqrt(w1 * w1) * m11
    det = b00 * b11 - abs(b01) ** 2
    return b00 + b11 + 2.0 * sqrt(max(det, 0.0))


@dataclass(frozen=True)
class BellAngles:
    """The four analyzer settings, first qubit unprimed/primed then second."""

    theta_a: float = 0.0
    theta_a_prime: float = pi / 2
    theta_b: float = -pi / 4
    theta_b_prime: float = pi / 4

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")

    def settings(self) -> tuple[tuple[float, float], ...]:
        """Setting pairs in combination order; the last enters with a minus."""
        return ((self.theta_a, self.theta_b),
                (self.theta_a, self.theta_b_prime),
                (self.theta_a_prime, self.theta_b),
                (self.theta_a_prime, self.theta_b_prime))


DEFAULT_ANGLES = BellAngles()


def correlation_tensor(rho: DensityMatrix) -> np.ndarray:
    """T_mn = tr rho (sigma_m (x) sigma_n), sigma = (1, x, y, z), real 4 x 4.

    T_00 is the trace, T_m0 and T_0n the Bloch vectors of the two qubits
    and the 3 x 3 block their correlations.  One einsum over the
    (2, 2, 2, 2) view of rho; einsum calls no BLAS, so T does not depend on
    the BLAS thread count.
    """
    if rho.layout.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.layout.dims}")
    return np.einsum("abcd,mca,ndb->mn", rho.matrix.reshape(2, 2, 2, 2),
                     _PAULIS, _PAULIS).real


# s_a s_b of the outcomes |00>, |01>, |10>, |11> once the pulses map each
# axis onto sigma_z, where |0> reads +1
OUTCOME_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


# every chsh call reads one angle set, most often DEFAULT_ANGLES; an entry
# is 16 floats in four tuples, about 0.7 KB with their Python headers
@lru_cache(maxsize=64)
def _setting_vectors(angles: BellAngles) -> tuple:
    """For the four settings of `angles` in combination order, the axes
    u(theta) = (cos theta, sin theta) of both qubits as four Python-float
    rows (ua_x, ua_y, ub_x, ub_y).  Memoized per angle set."""
    ua, ub = (np.stack([np.cos(t), np.sin(t)], axis=-1)
              for t in zip(*angles.settings()))
    return tuple(map(tuple, np.hstack([ua, ub]).tolist()))


def _readings(t: np.ndarray, angles: BellAngles) -> tuple[float, list]:
    """T_00 and (r_a, r_b, E) of each setting of `angles`, in combination
    order and Python floats.  E is summed from +0.0 term by term in the
    order of np.einsum("ki,ij,kj->k"), whose bits it reproduces."""
    (t00, b_x, b_y, _), (a_x, x00, x01, _), (a_y, x10, x11, _), _ = t.tolist()
    return t00, [(ua_x * a_x + ua_y * a_y, b_x * ub_x + b_y * ub_y,
                  0.0 + ua_x * x00 * ub_x + ua_x * x01 * ub_y
                  + ua_y * x10 * ub_x + ua_y * x11 * ub_y)
                 for ua_x, ua_y, ub_x, ub_y in _setting_vectors(angles)]


def _populations(t00: float, readings: list) -> np.ndarray:
    """(k, 4) outcome populations (T_00 + s_a r_a + s_b r_b + s_a s_b E) / 4
    of the settings' readings (_readings), clipped at 0, normalized and
    rounded to 12 decimals, so sampled counts cannot depend on last-ulp
    jitter of the upstream linear algebra (thread-count independent
    reruns)."""
    p = np.maximum([((t00 + ra + rb + e) / 4, (t00 + ra - rb - e) / 4,
                     (t00 - ra + rb - e) / 4, (t00 - ra - rb + e) / 4)
                    for ra, rb, e in readings], 0.0)
    p = np.round(p / p.sum(axis=1, keepdims=True), 12)
    return p / p.sum(axis=1, keepdims=True)


def _draw(p: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """(k, 4) counts: one multinomial draw of shots per row of p, in row
    order, as successive draws of one row each take them from rng."""
    if shots < 1:
        raise ValueError("shots must be positive")
    return rng.multinomial(shots, p)


@dataclass(frozen=True)
class BellOutcome:
    b_value: float
    correlations: tuple[float, float, float, float]
    std_error: float | None = None


def chsh(rho: DensityMatrix,
         angles: BellAngles = DEFAULT_ANGLES,
         method: str = "exact",
         shots: int = 4096,
         seed: int | list[int] = 0) -> BellOutcome:
    """CHSH combination over the four settings of `angles`: tensor_chsh of
    the correlation tensor of the two-qubit density matrix rho.  A rho whose
    trace is not 1 is a ContractError."""
    return tensor_chsh(correlation_tensor(rho), angles, method, shots, seed)


def tensor_chsh(t: np.ndarray, angles: BellAngles = DEFAULT_ANGLES,
                method: str = "exact", shots: int = 4096,
                seed: int | list[int] = 0) -> BellOutcome:
    """CHSH combination over the four settings of `angles`, read from the
    correlation tensor T of a two-qubit state (correlation_tensor).

    A T_00 = tr rho not 1 within NORM_TOL is a ContractError.  The exact
    readout's correlators are the E of _readings.  sampled draws the four
    settings in combination order from one np.random.default_rng(seed),
    from the populations of the same readings (_populations).
    The seed may be any value default_rng accepts, including a list used to
    derive independent per-grid-point streams.
    """
    if method not in CHSH_METHODS:
        raise ValueError(f"method must be one of {CHSH_METHODS}, got {method!r}")
    t00, readings = _readings(t, angles)
    check_unit(t00, "readout state")
    err = None
    if method == "exact":
        es = [e for _, _, e in readings]
    else:
        rng = np.random.default_rng(seed)
        counts = _draw(_populations(t00, readings), shots, rng)
        es = [float(c @ OUTCOME_SIGNS) / shots for c in counts]
        # sums the squares of the per-setting errors sqrt((1 - E^2) / shots),
        # not the variances themselves: the two differ in the last bit
        err = sqrt(sum(sqrt(max(1.0 - e * e, 0.0) / shots) ** 2 for e in es))
    combo = es[0] + es[1] + es[2] - es[3]
    return BellOutcome(abs(combo), tuple(es), err)


def crossing(deltas, b_values) -> float | None:
    """The mixture weight where B(delta) falls through 2 on a scanned grid.

    Scanning the grid in order, a point whose B is exactly 2 is the
    crossing, and a pair of neighbours whose B straddle 2 is interpolated
    linearly; the first of either wins.  None if B never reaches 2.
    """
    if len(deltas) != len(b_values) or len(deltas) < 1:
        raise ValueError("need one B per mixture weight, and at least one")
    pairs = list(zip(deltas, b_values))
    for (d0, b0), (d1, b1) in zip(pairs, pairs[1:]):
        if b0 == 2.0:
            return float(d0)
        if (b0 - 2.0) * (b1 - 2.0) < 0.0:
            return float(d0 + (2.0 - b0) * (d1 - d0) / (b1 - b0))
    d, b = pairs[-1]
    return float(d) if b == 2.0 else None


def reduced_electronic_schmidt(state: SchmidtState) -> DensityMatrix:
    """The two electronic qubits of a Schmidt-form register, the modes
    traced out, at O(d K^2) with no register built.

    rho = sum_kl G^L_kl (x) G^R_kl, with G^L_kl = tr_a |L_k><L_l| the 2x2
    ion-1 Gram table of the left factor and G^R_kl that of the right.
    """
    gl = np.einsum("aik,ajl->ijkl", state.left, state.left.conj())
    gr = np.einsum("aik,ajl->ijkl", state.right, state.right.conj())
    rho = np.einsum("ijkl,mnkl->imjn", gl, gr)
    return DensityMatrix(SpaceLayout((2, 2)), rho.reshape(4, 4))
