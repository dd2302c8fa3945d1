"""Correlation tests on the electronic pair after the state exchange.

Measurement axes live in the equatorial plane of the Bloch sphere:
sigma(theta) = cos(theta) sigma_x + sin(theta) sigma_y.  Each setting can be
evaluated three ways: exact expectation values, expectation values after an
explicit carrier pulse maps the axis onto sigma_z, and shot sampling from the
rotated populations.  The two-qubit combination

    B = |E(a, b) + E(a, b') + E(a', b) - E(a', b')|

reaches 2 sqrt(2) on the even Bell state at the default settings and
decays linearly to 2 sqrt(2) (1 - delta) when a parity-flipped component of
weight delta is mixed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi, sqrt

import numpy as np

from .encoding import BELL_KINDS, ION_1, ION_2, SchmidtState
from .gates import SIGMA_X, SIGMA_Y, SIGMA_Z, carrier_rotation
from .hilbert import (
    DensityMatrix,
    SpaceLayout,
    StateVector,
    check_normalized,
    partial_trace,
)

PAIR = SpaceLayout((2, 2))
TSIRELSON = 2.0 * sqrt(2.0)
DELTA_STAR = 1.0 - 1.0 / sqrt(2.0)   # mixture weight where B drops to 2


def electronic_bell(kind: str) -> StateVector:
    """|phi+> = (|00> + |11>)/sqrt(2) or |psi+> = (|01> + |10>)/sqrt(2)."""
    if kind == "phi_plus":
        amps = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128)
    elif kind == "psi_plus":
        amps = np.array([0.0, 1.0, 1.0, 0.0], dtype=np.complex128)
    else:
        raise ValueError(f"kind must be one of {BELL_KINDS}, got {kind!r}")
    return StateVector(PAIR, amps / sqrt(2.0))


def mixed_bell(delta: float) -> DensityMatrix:
    """Electronic two-qubit mixture (1-delta)|phi+><phi+| + delta|psi+><psi+|.

    Both components are unit-normalized Bell projectors, so the weights are
    exactly (1-delta, delta).
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    phi = electronic_bell("phi_plus").amps
    psi = electronic_bell("psi_plus").amps
    m = ((1.0 - delta) * np.outer(phi, phi.conj())
         + delta * np.outer(psi, psi.conj()))
    return DensityMatrix(PAIR, m)


def mixed_bell_fidelity(rho: DensityMatrix, delta: float) -> float:
    """Uhlmann fidelity of a two-qubit state to mixed_bell(delta), in closed form.

    With weights w = (1-delta, delta) on b = (phi+, psi+), sqrt(sigma) is
    sum_i sqrt(w_i)|b_i><b_i| exactly, so sqrt(sigma) rho sqrt(sigma) lives
    on span{phi+, psi+} as the 2x2 block B_ij = sqrt(w_i w_j) <b_i|rho|b_j>
    and F = (tr sqrt(B))^2 = tr B + 2 sqrt(det B).  No eigenvalue of a
    rank-deficient matrix is square-rooted, so rounding noise stays at the
    level of machine epsilon; at delta = 0 the result is <phi+|rho|phi+>.
    Same normalization contract as hilbert.dm_fidelity.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    if rho.layout != PAIR:
        raise ValueError("states live on different layouts")
    check_normalized(rho, "first state")
    weights = (1.0 - delta, delta)
    bells = [electronic_bell(kind).amps for kind in BELL_KINDS]
    block = np.array([[sqrt(wi * wj) * np.vdot(bi, rho.matrix @ bj)
                       for wj, bj in zip(weights, bells)]
                      for wi, bi in zip(weights, bells)])
    det = (block[0, 0] * block[1, 1]).real - abs(block[0, 1]) ** 2
    return float(np.trace(block).real) + 2.0 * sqrt(max(det, 0.0))


@dataclass(frozen=True)
class BellAngles:
    """The four analyzer settings, first qubit unprimed/primed then second."""

    theta_a: float = 0.0
    theta_a_prime: float = pi / 2
    theta_b: float = -pi / 4
    theta_b_prime: float = pi / 4

    def settings(self) -> tuple[tuple[float, float], ...]:
        """Setting pairs in combination order; the last enters with a minus."""
        return ((self.theta_a, self.theta_b),
                (self.theta_a, self.theta_b_prime),
                (self.theta_a_prime, self.theta_b),
                (self.theta_a_prime, self.theta_b_prime))


DEFAULT_ANGLES = BellAngles()


def sigma_theta(theta: float) -> np.ndarray:
    return np.cos(theta) * SIGMA_X + np.sin(theta) * SIGMA_Y


@lru_cache(maxsize=64)
def measurement_pulse(theta: float) -> np.ndarray:
    """Half-rotation carrier pulse that maps sigma(theta) onto sigma_z.

    Conjugation by a half pulse with phase phi turns sigma_z into an
    equatorial axis at angle -phi - pi/2, so measuring along theta takes
    phi = -theta - pi/2.  Memoized per angle; the result is read-only.
    """
    pulse = carrier_rotation(0.5, -theta - pi / 2).matrix
    pulse.flags.writeable = False
    return pulse


def _as_pair_dm(state: StateVector | DensityMatrix) -> DensityMatrix:
    rho = state.to_density() if isinstance(state, StateVector) else state
    if rho.layout.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.layout.dims}")
    return rho


def correlation_exact(state: StateVector | DensityMatrix,
                      theta_a: float, theta_b: float) -> float:
    rho = _as_pair_dm(state)
    obs = np.kron(sigma_theta(theta_a), sigma_theta(theta_b))
    return float(np.trace(rho.matrix @ obs).real)


def correlation_rotated(state: StateVector | DensityMatrix,
                        theta_a: float, theta_b: float) -> float:
    """Same correlator, but the axes come from explicit carrier pulses."""
    rho = _as_pair_dm(state)
    va = measurement_pulse(theta_a)
    vb = measurement_pulse(theta_b)
    obs = np.kron(va @ SIGMA_Z @ va.conj().T, vb @ SIGMA_Z @ vb.conj().T)
    return float(np.trace(rho.matrix @ obs).real)


def _outcome_probabilities(rho: DensityMatrix,
                           theta_a: float, theta_b: float) -> np.ndarray:
    w = np.kron(measurement_pulse(theta_a), measurement_pulse(theta_b))
    rotated = w.conj().T @ rho.matrix @ w
    p = np.clip(np.diag(rotated).real, 0.0, None)
    # quantized so sampled counts cannot depend on last-ulp jitter of the
    # upstream linear algebra (thread-count independent reruns)
    p = np.round(p / p.sum(), 12)
    return p / p.sum()


OUTCOME_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


@dataclass(frozen=True)
class SampledCorrelation:
    value: float
    std_error: float
    counts: tuple[int, int, int, int]


def correlation_sampled(state: StateVector | DensityMatrix,
                        theta_a: float, theta_b: float,
                        shots: int, rng: np.random.Generator) -> SampledCorrelation:
    """Multinomial draw from the four rotated populations."""
    if shots < 1:
        raise ValueError("shots must be positive")
    rho = _as_pair_dm(state)
    p = _outcome_probabilities(rho, theta_a, theta_b)
    counts = rng.multinomial(shots, p)
    value = float(counts @ OUTCOME_SIGNS) / shots
    std_error = sqrt(max(1.0 - value * value, 0.0) / shots)
    return SampledCorrelation(value, std_error, tuple(int(c) for c in counts))


@dataclass(frozen=True)
class BellOutcome:
    b_value: float
    correlations: tuple[float, float, float, float]
    angles: BellAngles
    method: str
    shots: int | None = None
    std_error: float | None = None


CHSH_METHODS = ("exact", "rotated", "sampled")


def chsh(state: StateVector | DensityMatrix,
         angles: BellAngles = DEFAULT_ANGLES,
         method: str = "exact",
         shots: int = 4096,
         seed: int | list[int] = 0) -> BellOutcome:
    """CHSH combination over the four settings of `angles`.

    The seed may be any value np.random.default_rng accepts, including a
    list used to derive independent per-grid-point streams.
    """
    if method not in CHSH_METHODS:
        raise ValueError(f"method must be one of {CHSH_METHODS}, got {method!r}")
    if method == "sampled":
        rng = np.random.default_rng(seed)
        sampled = [correlation_sampled(state, ta, tb, shots, rng)
                   for ta, tb in angles.settings()]
        es = [s.value for s in sampled]
        err = sqrt(sum(s.std_error ** 2 for s in sampled))
        combo = es[0] + es[1] + es[2] - es[3]
        return BellOutcome(abs(combo), tuple(es), angles, method, shots, err)
    corr = correlation_exact if method == "exact" else correlation_rotated
    es = [corr(state, ta, tb) for ta, tb in angles.settings()]
    combo = es[0] + es[1] + es[2] - es[3]
    return BellOutcome(abs(combo), tuple(es), angles, method)


@dataclass(frozen=True)
class ViolationScan:
    deltas: np.ndarray
    b_values: np.ndarray
    crossing: float | None      # interpolated weight where B falls through 2
    angles: BellAngles


def violation_scan(deltas, angles: BellAngles = DEFAULT_ANGLES) -> ViolationScan:
    """B(delta) over a mixture-weight grid, with the B = 2 crossing."""
    ds = np.asarray(list(deltas), dtype=np.float64)
    if ds.size < 1:
        raise ValueError("need at least one mixture weight to scan")
    if np.any(ds < 0.0) or np.any(ds > 1.0):
        raise ValueError("mixture weights must lie in [0, 1]")
    bs = np.array([chsh(mixed_bell(d), angles).b_value for d in ds])
    crossing = None
    for i in range(ds.size - 1):
        lo, hi = bs[i] - 2.0, bs[i + 1] - 2.0
        if lo == 0.0:
            crossing = float(ds[i])
            break
        if lo * hi < 0.0:
            crossing = float(ds[i] + (2.0 - bs[i]) * (ds[i + 1] - ds[i])
                             / (bs[i + 1] - bs[i]))
            break
    else:
        if bs[-1] == 2.0:
            crossing = float(ds[-1])
    return ViolationScan(ds, bs, crossing, angles)


def reduced_electronic(state: StateVector) -> DensityMatrix:
    """Trace the four-factor register down to the two electronic qubits."""
    layout = state.layout
    if layout.nsites != 4 or layout.dims[ION_1:] != (2, 2):
        raise ValueError(f"expected a mode/mode/qubit/qubit register, got {layout.dims}")
    return partial_trace(state, keep=(ION_1, ION_2))


def reduced_electronic_schmidt(state: SchmidtState) -> DensityMatrix:
    """reduced_electronic of a Schmidt-form register, at O(d K^2).

    rho = sum_kl G^L_kl (x) G^R_kl, with G^L_kl = tr_a |L_k><L_l| the 2x2
    ion-1 Gram table of the left factor and G^R_kl that of the right.
    """
    gl = np.einsum("aik,ajl->ijkl", state.left, state.left.conj())
    gr = np.einsum("aik,ajl->ijkl", state.right, state.right.conj())
    rho = np.einsum("ijkl,mnkl->imjn", gl, gr)
    return DensityMatrix(PAIR, rho.reshape(4, 4))
