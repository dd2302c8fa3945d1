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
their tensors (mixed_tensor): bell-scan mixes those of phi+ and psi+, and
full-pipeline those of its two branches.  The carrier pulses that rotate each
axis onto sigma_z are never built here: they are an oracle of
catbell.reference, which both readouts are checked against.  The
two-qubit combination

    B = |E(a, b) + E(a, b') + E(a', b) - E(a', b')|

reaches 2 sqrt(2) on the even Bell state at the default settings and
decays linearly to 2 sqrt(2) (1 - delta) when a parity-flipped component of
weight delta is mixed in.

An import of this module loads params and errors alone: numpy only for a
density matrix, and neither dataclasses nor inspect, because the angle set
(BellAngles, a memo key) and the readout's record (BellOutcome) are
NamedTuples.  The sampled readout draws its counts in catbell.sampler, on
the standard library's Mersenne Twister, and imports it on its first call,
so an exact readout never compiles it; tensor_chsh loads no numpy for
either readout.
"""

from __future__ import annotations

from functools import lru_cache
from math import cos, isfinite, pi, sin, sqrt
from typing import TYPE_CHECKING, NamedTuple

from .errors import ContractError
from .params import CHSH_METHODS, check_unit

if TYPE_CHECKING:
    import numpy as np

    from .hilbert import DensityMatrix

TSIRELSON = 2.0 * sqrt(2.0)
DELTA_STAR = 1.0 - 1.0 / sqrt(2.0)   # mixture weight where B drops to 2


# the correlation tensors of |phi+> and |psi+>, T_mn = <sigma_m (x) sigma_n>
PHI_PLUS_T = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
              (0.0, 0.0, -1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
PSI_PLUS_T = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
              (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, -1.0))


# numpy's Pauli stack, built on the first call that needs it so that an
# import of this module loads no numpy; it is read-only
@lru_cache(maxsize=1)
def _pauli_stack() -> np.ndarray:
    """(4, 2, 2): the identity, sigma_x, sigma_y and sigma_z."""
    import numpy as np

    from .hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z
    paulis = np.stack([np.eye(2, dtype=np.complex128), SIGMA_X, SIGMA_Y, SIGMA_Z])
    paulis.flags.writeable = False
    return paulis


def mixed_tensor(keep: tuple, flip: tuple, delta: float) -> tuple:
    """(1 - delta) keep + delta flip, entry by entry in Python floats: T of
    the mixture of weights (1 - delta, delta) of two states of tensors keep
    and flip."""
    w = 1.0 - delta
    return tuple(tuple(w * k + delta * f for k, f in zip(row_k, row_f))
                 for row_k, row_f in zip(keep, flip))


def block_fidelity(t: tuple, delta: float) -> float:
    """Uhlmann fidelity to the mixture (1-delta)|phi+><phi+| +
    delta|psi+><psi+| of a two-qubit state whose correlation tensor
    (correlation_tensor) is t.

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
    (t00, t0x, _, _), (tx0, txx, _, _), (_, _, tyy, tyz), (_, _, tzy, tzz) = t
    m00 = (t00 + txx - tyy + tzz) / 4
    m11 = (t00 + txx + tyy - tzz) / 4
    m01 = complex(tx0 + t0x, -(tyz + tzy)) / 4
    w0, w1 = 1.0 - delta, delta
    b00, b01, b11 = sqrt(w0 * w0) * m00, sqrt(w0 * w1) * m01, sqrt(w1 * w1) * m11
    det = b00 * b11 - abs(b01) ** 2
    return b00 + b11 + 2.0 * sqrt(max(det, 0.0))


class _AngleFields(NamedTuple):
    theta_a: float
    theta_a_prime: float
    theta_b: float
    theta_b_prime: float


class BellAngles(_AngleFields):
    """The four analyzer settings, first qubit unprimed/primed then second:
    a checked tuple of its fields, as catbell.params' settings are."""

    __slots__ = ()

    def __new__(cls, theta_a: float = 0.0, theta_a_prime: float = pi / 2,
                theta_b: float = -pi / 4, theta_b_prime: float = pi / 4
                ) -> BellAngles:
        for name, value in (("theta_a", theta_a), ("theta_a_prime", theta_a_prime),
                            ("theta_b", theta_b), ("theta_b_prime", theta_b_prime)):
            if not isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        return super().__new__(cls, theta_a, theta_a_prime, theta_b, theta_b_prime)

    def settings(self) -> tuple[tuple[float, float], ...]:
        """Setting pairs in combination order; the last enters with a minus."""
        return ((self.theta_a, self.theta_b),
                (self.theta_a, self.theta_b_prime),
                (self.theta_a_prime, self.theta_b),
                (self.theta_a_prime, self.theta_b_prime))


DEFAULT_ANGLES = BellAngles()


def correlation_tensor(rho: DensityMatrix) -> tuple:
    """T_mn = tr rho (sigma_m (x) sigma_n), sigma = (1, x, y, z), as four
    rows of four Python floats.

    T_00 is the trace, T_m0 and T_0n the Bloch vectors of the two qubits
    and the 3 x 3 block their correlations.  One einsum over the
    (2, 2, 2, 2) view of rho; einsum calls no BLAS, so T does not depend on
    the BLAS thread count.
    """
    import numpy as np
    if rho.layout.dims != (2, 2):
        raise ValueError(f"expected a two-qubit state, got dims {rho.layout.dims}")
    paulis = _pauli_stack()
    t = np.einsum("abcd,mca,ndb->mn", rho.matrix.reshape(2, 2, 2, 2),
                  paulis, paulis).real
    return tuple(map(tuple, t.tolist()))


# s_a s_b of the outcomes |00>, |01>, |10>, |11> once the pulses map each
# axis onto sigma_z, where |0> reads +1
OUTCOME_SIGNS = (1.0, -1.0, -1.0, 1.0)


# every chsh call reads one angle set, most often DEFAULT_ANGLES; an entry
# is 16 floats in four tuples, about 0.7 KB with their Python headers
@lru_cache(maxsize=64)
def _setting_vectors(angles: BellAngles) -> tuple:
    """For the four settings of `angles` in combination order, the axes
    u(theta) = (cos theta, sin theta) of both qubits as four Python-float
    rows (ua_x, ua_y, ub_x, ub_y).  Memoized per angle set."""
    return tuple((cos(ta), sin(ta), cos(tb), sin(tb))
                 for ta, tb in angles.settings())


def _readings(t: tuple, angles: BellAngles) -> tuple[float, list]:
    """T_00 and (r_a, r_b, E) of each setting of `angles`, in combination
    order and Python floats, from T's rows of floats.  E is
    summed from +0.0 term by term in the order of
    np.einsum("ki,ij,kj->k"), whose bits it reproduces."""
    (t00, b_x, b_y, _), (a_x, x00, x01, _), (a_y, x10, x11, _), _ = t
    return t00, [(ua_x * a_x + ua_y * a_y, b_x * ub_x + b_y * ub_y,
                  0.0 + ua_x * x00 * ub_x + ua_x * x01 * ub_y
                  + ua_y * x10 * ub_x + ua_y * x11 * ub_y)
                 for ua_x, ua_y, ub_x, ub_y in _setting_vectors(angles)]


def _populations(t00: float, readings: list) -> list[tuple]:
    """The outcome populations (T_00 + s_a r_a + s_b r_b + s_a s_b E) / 4
    of the settings' readings (_readings), one row of four Python floats
    per setting: clipped at 0, normalized and rounded to 12 decimals, so
    sampled counts cannot depend on last-ulp jitter of the upstream linear
    algebra (thread-count independent reruns), and normalized again.

    Each step gives the bits of the same step on a (k, 4) array: the clip
    those of np.maximum(p, 0.0), which maps -0.0 to +0.0 and keeps a NaN,
    the row sum ((p0 + p1) + p2) + p3 those of p.sum(axis=1), and
    round(y * 1e12) / 1e12, which rounds half to even, those of
    np.round(y, 12), which is rint(y * 1e12) / 1e12.
    """
    rows = []
    # written out, not as comprehensions, which cost a frame each
    for ra, rb, e in readings:
        p0 = (t00 + ra + rb + e) / 4
        p1 = (t00 + ra - rb - e) / 4
        p2 = (t00 - ra + rb - e) / 4
        p3 = (t00 - ra - rb + e) / 4
        p0 = p0 if p0 > 0.0 or p0 != p0 else 0.0
        p1 = p1 if p1 > 0.0 or p1 != p1 else 0.0
        p2 = p2 if p2 > 0.0 or p2 != p2 else 0.0
        p3 = p3 if p3 > 0.0 or p3 != p3 else 0.0
        s = ((p0 + p1) + p2) + p3
        p0 = round(p0 / s * 1e12) / 1e12
        p1 = round(p1 / s * 1e12) / 1e12
        p2 = round(p2 / s * 1e12) / 1e12
        p3 = round(p3 / s * 1e12) / 1e12
        s = ((p0 + p1) + p2) + p3
        rows.append((p0 / s, p1 / s, p2 / s, p3 / s))
    return rows


class BellOutcome(NamedTuple):
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


def tensor_chsh(t: tuple, angles: BellAngles = DEFAULT_ANGLES,
                method: str = "exact", shots: int = 4096,
                seed: int | list[int] = 0) -> BellOutcome:
    """CHSH combination over the four settings of `angles`, read from the
    correlation tensor T of a two-qubit state (correlation_tensor), four
    rows of four floats.

    A T_00 = tr rho not 1 within NORM_TOL, or a reading (r_a, r_b, E)
    that is not finite, is a ContractError, for both methods.  The exact
    readout's correlators are the E of _readings, in Python floats with no
    numpy.  sampled draws the four settings in combination order from one
    stream of the seed (catbell.sampler.draw), from the populations of the
    same readings (_populations), and each E is the signed sum of the
    counts over OUTCOME_SIGNS in index order, over shots, in Python floats;
    these are the bits of float(counts @ OUTCOME_SIGNS) / shots.  The seed
    is a non-negative int, or a list or tuple of them, such as bell-scan's
    [seed, i] per grid point; any other seed, or shots below 1, is refused
    before any draw (catbell.sampler.seed_key).
    """
    if method not in CHSH_METHODS:
        raise ValueError(f"method must be one of {CHSH_METHODS}, got {method!r}")
    t00, readings = _readings(t, angles)
    check_unit(t00, "readout state")
    for k, (ra, rb, e) in enumerate(readings):
        if not (isfinite(ra) and isfinite(rb) and isfinite(e)):
            raise ContractError(f"readout state has a non-finite reading at "
                                f"setting {k}: r_a = {ra}, r_b = {rb}, E = {e}")
    err = None
    if method == "exact":
        es = [e for _, _, e in readings]
    else:
        from .sampler import draw
        counts = draw(_populations(t00, readings), shots, seed)
        s0, s1, s2, s3 = OUTCOME_SIGNS
        es = [(s0 * c0 + s1 * c1 + s2 * c2 + s3 * c3) / shots
              for c0, c1, c2, c3 in counts]
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
