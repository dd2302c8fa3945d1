"""Correlation tests on the electronic pair after the state exchange.

Measurement axes live in the equatorial plane of the Bloch sphere:
sigma(theta) = cos(theta) sigma_x + sin(theta) sigma_y.  The readout starts
from the Pauli correlation tensor T_mn = tr rho (sigma_m (x) sigma_n) with
sigma = (1, x, y, z) (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200,
340 (1995)).  With u(theta) = (cos theta, sin theta) on its x, y block, a
setting's correlator is E = u(theta_a)^T T u(theta_b), and the populations
of the four outcomes after both axes are rotated onto sigma_z are
(T_00 + s_a r_a + s_b r_b + s_a s_b E) / 4, with signs s = +-1 and r_a,
r_b the Bloch components of each qubit along its axis.  chsh is the one
readout, and it reads the four settings of a BellAngles three ways: exact
correlators read from T, correlators after an explicit carrier pulse maps
each axis onto sigma_z (an audit of the pulses), and shot sampling from the
populations.  It refuses a state whose trace is not 1.  The two-qubit
combination

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

from .encoding import CHSH_METHODS, SchmidtState
from .hilbert import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    SpaceLayout,
    StateVector,
    check_normalized,
)

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
    if rho.layout.dims != (2, 2):
        raise ValueError("states live on different layouts")
    check_normalized(rho, "first state")
    weights = (1.0 - delta, delta)
    block = np.array([[sqrt(wi * wj) * np.vdot(bi, rho.matrix @ bj)
                       for wj, bj in zip(weights, _BELLS)]
                      for wi, bi in zip(weights, _BELLS)])
    det = (block[0, 0] * block[1, 1]).real - abs(block[0, 1]) ** 2
    return float(np.trace(block).real) + 2.0 * sqrt(max(det, 0.0))


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


def measurement_pulse(theta: float) -> np.ndarray:
    """Half-rotation carrier pulse that maps sigma(theta) onto sigma_z.

    Conjugation by a half pulse with phase phi turns sigma_z into an
    equatorial axis at angle -phi - pi/2, so measuring along theta takes
    phi = -theta - pi/2.  Only the rotated readout builds a pulse, so gates
    is loaded here, not with this module.
    """
    from .gates import carrier_rotation
    return carrier_rotation(0.5, -theta - pi / 2)


def _as_pair_dm(state: StateVector | DensityMatrix) -> DensityMatrix:
    rho = state.to_density() if isinstance(state, StateVector) else state
    if rho.layout.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.layout.dims}")
    return rho


def correlation_tensor(state: StateVector | DensityMatrix) -> np.ndarray:
    """T_mn = tr rho (sigma_m (x) sigma_n), sigma = (1, x, y, z), real 4 x 4.

    T_00 is the trace, T_m0 and T_0n the Bloch vectors of the two qubits
    and the 3 x 3 block their correlations.  One einsum over the
    (2, 2, 2, 2) view of rho; einsum calls no BLAS, so T does not depend on
    the BLAS thread count.
    """
    rho = _as_pair_dm(state).matrix.reshape(2, 2, 2, 2)
    return np.einsum("abcd,mca,ndb->mn", rho, _PAULIS, _PAULIS).real


OUTCOME_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
# s_a and s_b of the outcomes |00>, |01>, |10>, |11> once the pulses map
# each axis onto sigma_z, where |0> reads +1; OUTCOME_SIGNS = s_a s_b
_SIGNS_A = np.array([1.0, 1.0, -1.0, -1.0])
_SIGNS_B = np.array([1.0, -1.0, 1.0, -1.0])


def _projectors(u: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """(k, 4, 3) components on (1, sigma_x, sigma_y) of the projector
    (1 + s sigma(theta)) / 2 onto sign s = signs[o] of axis row k of u."""
    out = np.full((len(u), len(signs), 3), 0.5)
    out[..., 1:] = 0.5 * signs[:, None] * u[:, None, :]
    return out


# every chsh call reads one angle set, most often DEFAULT_ANGLES; an entry
# is two (4, 2) and two (4, 4, 3) float arrays, 896 B of data
@lru_cache(maxsize=64)
def _setting_vectors(angles: BellAngles) -> tuple[np.ndarray, ...]:
    """For the four settings of `angles` in combination order: the axes
    u(theta) = (cos theta, sin theta) of both qubits as (4, 2) rows, and the
    (4, 4, 3) projector components of both qubits' outcome signs.  Memoized
    per angle set; the arrays are read-only."""
    ua, ub = (np.stack([np.cos(t), np.sin(t)], axis=-1)
              for t in zip(*angles.settings()))
    vectors = (ua, ub, _projectors(ua, _SIGNS_A), _projectors(ub, _SIGNS_B))
    for v in vectors:
        v.flags.writeable = False
    return vectors


def _populations(t: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """(k, 4) outcome probabilities of the settings, quantized.

    The population of outcome (s_a, s_b) is tr rho (P_a (x) P_b) =
    pa^T T pb = (T_00 + s_a r_a + s_b r_b + s_a s_b E) / 4, the diagonal
    of the pulse-rotated rho; it is clipped at 0, normalized and rounded to
    12 decimals, so sampled counts cannot depend on last-ulp jitter of the
    upstream linear algebra (thread-count independent reruns).
    """
    p = np.maximum(np.einsum("koi,ij,koj->ko", pa, t[:3, :3], pb), 0.0)
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
    method: str
    shots: int | None = None
    std_error: float | None = None


def chsh(state: StateVector | DensityMatrix,
         angles: BellAngles = DEFAULT_ANGLES,
         method: str = "exact",
         shots: int = 4096,
         seed: int | list[int] = 0) -> BellOutcome:
    """CHSH combination over the four settings of `angles`.

    exact and sampled read all four settings from one correlation tensor;
    sampled draws the four settings in combination order from one
    np.random.default_rng(seed).  The seed may be any value default_rng
    accepts, including a list used to derive independent per-grid-point
    streams.  rotated takes tr rho (V sigma_z V^dag (x) W sigma_z W^dag)
    with the carrier pulses V, W of measurement_pulse, an audit of the
    pulses.  A state whose trace is not 1 is a ContractError.
    """
    if method not in CHSH_METHODS:
        raise ValueError(f"method must be one of {CHSH_METHODS}, got {method!r}")
    rho = _as_pair_dm(state)
    check_normalized(rho, "readout state")
    drawn = err = None
    if method == "rotated":
        es = []
        for ta, tb in angles.settings():
            va, vb = measurement_pulse(ta), measurement_pulse(tb)
            obs = np.kron(va @ SIGMA_Z @ va.conj().T, vb @ SIGMA_Z @ vb.conj().T)
            es.append(float(np.trace(rho.matrix @ obs).real))
    else:
        t = correlation_tensor(rho)
        ua, ub, pa, pb = _setting_vectors(angles)
        if method == "exact":
            # E_k = u(theta_a)^T T_xy u(theta_b) for each setting row k
            es = np.einsum("ki,ij,kj->k", ua, t[1:3, 1:3], ub).tolist()
        else:
            rng = np.random.default_rng(seed)
            counts = _draw(_populations(t, pa, pb), shots, rng)
            es = [float(c @ OUTCOME_SIGNS) / shots for c in counts]
            drawn = shots
            # sums the squares of the per-setting errors sqrt((1 - E^2) / shots),
            # not the variances themselves: the two differ in the last bit
            err = sqrt(sum(sqrt(max(1.0 - e * e, 0.0) / shots) ** 2 for e in es))
    combo = es[0] + es[1] + es[2] - es[3]
    return BellOutcome(abs(combo), tuple(es), method, drawn, err)


@dataclass(frozen=True)
class ViolationScan:
    deltas: np.ndarray
    b_values: np.ndarray
    crossing: float | None      # interpolated weight where B falls through 2


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
    return ViolationScan(ds, bs, crossing)


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
