"""Slow, independent reference calculations used to cross-check the library.

Nothing here imports the main numerical modules: coherent amplitudes come
from log-space series instead of the recurrence, displacement matrix elements
from the closed Laguerre form instead of exponentiation, master-equation
propagation from a dense superoperator exponential instead of step
integration, the as-written vibration-controlled gate from dense exponentials
instead of indexing, CHSH optima from exhaustive grid search instead of
the known angles, the readout's outcome populations from explicit carrier
pulses on the two-qubit density matrix instead of the Pauli correlation
tensor, and the sampled readout's counts from a pure-Python Mersenne
Twister and the binomial law's exact acceptance ratio instead of
random.Random and catbell.sampler's floats.  Tests freeze values produced
here into JSON fixtures and hold the fast paths to them.  scipy is imported
only by the three oracles that call it (displacement_elements,
liouvillian_expm and u_ve_literal_oracle), and decimal only by the
sampler's oracle (binomial_draw), so a checker that reads the numpy-only
series loads neither: perfbench's checks import this module in every
worker, whose peak memory it counts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from math import factorial, floor, lgamma, log, pi, sqrt
from pathlib import Path

import numpy as np


@dataclass
class OracleReport:
    """One frozen reference value with the settings that produced it."""

    quantity: str
    value: object
    config: dict = field(default_factory=dict)
    tolerance: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def write_fixture(path: str | Path, reports: list[OracleReport]) -> None:
    payload = json.dumps([asdict(r) for r in reports], indent=2, sort_keys=True)
    Path(path).write_text(payload + "\n")


def read_fixture(path: str | Path) -> dict[str, OracleReport]:
    raw = json.loads(Path(path).read_text())
    out = {}
    for rec in raw:
        rep = OracleReport(**rec)
        out[rep.quantity] = rep
    return out


def coherent_amplitudes(alpha: complex, n_terms: int) -> np.ndarray:
    """Series amplitudes of |alpha> computed term by term in log space."""
    alpha = complex(alpha)
    n = np.arange(n_terms)
    if alpha == 0:
        c = np.zeros(n_terms, dtype=np.complex128)
        c[0] = 1.0
        return c
    log_mod = -abs(alpha) ** 2 / 2.0 + n * log(abs(alpha)) - 0.5 * np.array(
        [lgamma(k + 1.0) for k in n]
    )
    phase = n * np.angle(alpha)
    return np.exp(log_mod) * np.exp(1j * phase)


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """<alpha|beta> in closed form, exp(-|alpha - beta|^2 / 2 + i Im(alpha*
    beta)).  The real part of the exponent, -|alpha|^2 / 2 - |beta|^2 / 2 +
    Re(alpha* beta), is taken as the one difference, so that its large
    terms do not cancel in rounding."""
    return np.exp(-abs(alpha - beta) ** 2 / 2.0
                  + 1j * (np.conj(alpha) * beta).imag)


def cat_amplitudes(alpha: complex, sign: int, n_terms: int) -> np.ndarray:
    """Normalized even (+1) or odd (-1) cat state from the series route."""
    c = coherent_amplitudes(alpha, n_terms)
    v = c + sign * c * (-1.0) ** np.arange(n_terms)
    return v / np.linalg.norm(v)


def displacement_elements(beta: complex, dim: int) -> np.ndarray:
    """<m|D(beta)|n> from the closed Laguerre-polynomial form."""
    from scipy.special import eval_genlaguerre
    x = abs(beta) ** 2
    out = np.zeros((dim, dim), dtype=np.complex128)
    for m in range(dim):
        for n in range(dim):
            k = min(m, n)
            d = abs(m - n)
            # sqrt(k!/(k+d)!) without overflow
            ratio = np.exp(0.5 * (lgamma(k + 1.0) - lgamma(k + d + 1.0)))
            lag = eval_genlaguerre(k, d, x)
            amp = ratio * np.exp(-x / 2.0) * lag
            if m >= n:
                out[m, n] = amp * beta**d
            else:
                out[m, n] = amp * (-np.conj(beta)) ** d
    return out


def entangled_amplitudes(alpha: complex, beta: complex,
                         na: int, nb: int) -> np.ndarray:
    """Joint amplitudes of the cross-phase-entangled pair of coherent states.

    exp(-i pi n_a n_b)|alpha, beta> expands exactly into the normalized
    four-term superposition (|a,b> + |-a,b> + |a,-b> - |-a,-b>)/2.
    """
    ca_p = coherent_amplitudes(alpha, na)
    ca_m = coherent_amplitudes(-alpha, na)
    cb_p = coherent_amplitudes(beta, nb)
    cb_m = coherent_amplitudes(-beta, nb)
    grid = 0.5 * (np.outer(ca_p, cb_p) + np.outer(ca_m, cb_p)
                  + np.outer(ca_p, cb_m) - np.outer(ca_m, cb_m))
    return grid / np.linalg.norm(grid)


def _ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=np.float64)), 1)


def liouvillian_matrix(gamma: float, dim: int) -> np.ndarray:
    """Dense superoperator of the balanced heating master equation.

    Generator gamma (D[a] + D[a+]) acting on row-major vectorized matrices:
    vec(A rho B) = (A kron B^T) vec(rho).
    """
    a = _ladder(dim)
    ad = a.conj().T
    eye = np.eye(dim)
    n_op = ad @ a
    aad = a @ ad

    def sandwich(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return np.kron(left, right.T)

    lv = sandwich(a, ad) + sandwich(ad, a)
    lv -= 0.5 * (sandwich(n_op, eye) + sandwich(eye, n_op))
    lv -= 0.5 * (sandwich(aad, eye) + sandwich(eye, aad))
    return gamma * lv


def liouvillian_expm(rho0: np.ndarray, gamma: float, t: float) -> np.ndarray:
    """Propagate a single-mode density matrix by exponentiating the generator.

    Deliberately restricted to small cutoffs: the superoperator is dim^2 by
    dim^2 dense.
    """
    import scipy.linalg
    dim = rho0.shape[0]
    if rho0.shape != (dim, dim):
        raise ValueError(f"square matrix expected, got {rho0.shape}")
    if dim > 12:
        raise ValueError(f"superoperator oracle is limited to cutoff 12, got {dim}")
    lv = liouvillian_matrix(gamma, dim)
    prop = scipy.linalg.expm(lv * t)
    return (prop @ rho0.reshape(-1)).reshape(dim, dim)


def poisson_jump_stats(rate_up: float, rate_down: float, duration: float) -> dict:
    """Count statistics of two merged Poisson jump processes.

    Returns the total intensity and the probabilities of zero jumps, exactly
    one jump, and an odd number of jumps (a net parity flip).
    """
    lam = (rate_up + rate_down) * duration
    p0 = np.exp(-lam)
    return {
        "lam": float(lam),
        "p_zero": float(p0),
        "p_one": float(lam * p0),
        "p_odd": float((1.0 - np.exp(-2.0 * lam)) / 2.0),
    }


def chsh_grid_search(e_fn, resolution: int = 64) -> OracleReport:
    """Exhaustive grid maximum of |E(t1,u1)+E(t1,u2)+E(t2,u1)-E(t2,u2)|.

    ``e_fn(theta1, theta2)`` must accept numpy broadcasting.  The grid covers
    [0, 2 pi); with resolution a multiple of 8 it contains the pi/4 multiples
    where the known optimum sits.  For fixed first-party settings the two
    second-party maxima are independent, so memory stays at resolution^3.
    """
    grid = np.arange(resolution) * (2.0 * pi / resolution)
    e = np.asarray(e_fn(grid[:, None], grid[None, :]), dtype=np.float64)
    s = e[:, None, :] + e[None, :, :]   # s[t1, t2, u] = E(t1,u) + E(t2,u)
    d = e[:, None, :] - e[None, :, :]
    signed = s.max(axis=2) + d.max(axis=2)
    flipped = (-s).max(axis=2) + (-d).max(axis=2)
    best = np.maximum(signed, flipped)
    idx = np.unravel_index(np.argmax(best), best.shape)
    t1, t2 = int(idx[0]), int(idx[1])
    if signed[t1, t2] >= flipped[t1, t2]:
        u1, u2 = int(np.argmax(s[t1, t2])), int(np.argmax(d[t1, t2]))
    else:
        u1, u2 = int(np.argmax(-s[t1, t2])), int(np.argmax(-d[t1, t2]))
    angles = (float(grid[t1]), float(grid[t2]), float(grid[u1]), float(grid[u2]))
    return OracleReport(
        quantity="chsh_grid_max",
        value=float(best[t1, t2]),
        config={"resolution": resolution, "angles": angles},
    )


def su2_exp(nx: float, ny: float, nz: float, angle: float) -> np.ndarray:
    """Closed form exp(-i angle (n . sigma)) for a unit axis n."""
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    ns = nx * sx + ny * sy + nz * sz
    return np.cos(angle) * np.eye(2) - 1j * np.sin(angle) * ns


def carrier_pulse(k: float, phase: float) -> np.ndarray:
    """The carrier pulse exp[-i k pi/2 G] on one ion, G = |1><0| e^{-i phase}
    + |0><1| e^{i phase}.

    G is n . sigma about the equatorial axis n = (cos phase, -sin phase, 0),
    so the pulse is su2_exp about n by the angle k pi/2.
    """
    return su2_exp(np.cos(phase), -np.sin(phase), 0.0, k * pi / 2.0)


def analyzer_pulse(theta: float) -> np.ndarray:
    """The half carrier pulse V with V sigma_z V^dag = sigma(theta) =
    cos(theta) sigma_x + sin(theta) sigma_y.

    A half pulse turns the Bloch sphere a quarter turn about its axis n,
    which carries z to n x z = (-sin phase, -cos phase, 0): the equatorial
    axis at angle -phase - pi/2.  The axis theta takes phase -theta - pi/2.
    """
    return carrier_pulse(0.5, -theta - pi / 2.0)


def pulse_populations(rho: np.ndarray, theta_a: float,
                      theta_b: float) -> np.ndarray:
    """Probabilities of the outcomes |00>, |01>, |10>, |11> of the two-qubit
    density matrix rho when each ion's analyzer pulse has rotated its axis
    onto sigma_z: the diagonal of W^dag rho W, W = V(theta_a) (x) V(theta_b).
    """
    w = np.kron(analyzer_pulse(theta_a), analyzer_pulse(theta_b))
    return np.diag(w.conj().T @ rho @ w).real


def pulse_correlators(rho: np.ndarray, settings) -> list[float]:
    """E = p_00 - p_01 - p_10 + p_11 of pulse_populations for each setting
    pair (theta_a, theta_b): tr rho (sigma(theta_a) (x) sigma(theta_b))."""
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    return [float(pulse_populations(rho, ta, tb) @ signs) for ta, tb in settings]


def u_ve_literal_oracle(cutoff: int) -> np.ndarray:
    """The vibration-controlled gate as written, exp(-i pi n sigma_y)
    exp(i pi n |1><1|), on the pair [mode, ion], mode factor slowest.

    Both factors are scipy's scaling-and-squaring expm of the dense
    generator, so the audit of the formula does not run the index build it
    checks.
    """
    import scipy.linalg
    n = np.diag(np.arange(cutoff, dtype=np.float64))
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    proj1 = np.diag([0.0, 1.0]).astype(np.complex128)
    first = scipy.linalg.expm(-1j * pi * np.kron(n, sy))
    second = scipy.linalg.expm(1j * pi * np.kron(n, proj1))
    return first @ second


def exchange_matrix_oracle(cutoff: int, eps: float) -> np.ndarray:
    """Pair-level three-step exchange built from closed-form ingredients.

    Parity-controlled flip from index masks, conditional displacement from
    Laguerre matrix elements; mode factor slowest.  Only plain numpy products
    are used.
    """
    n = np.arange(cutoff)
    even_mask = ((n + 1) % 2).astype(np.float64)
    odd_mask = (n % 2).astype(np.float64)
    eye2 = np.eye(2, dtype=np.complex128)
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    proj1 = np.diag([0.0, 1.0]).astype(np.complex128)

    u_ve = np.kron(np.diag(even_mask), eye2) + np.kron(np.diag(odd_mask), sx)
    d_eps = displacement_elements(1j * eps, cutoff)
    u_cond = (np.kron(np.eye(cutoff), np.diag([1.0, 0.0]))
              + np.kron(d_eps, proj1))
    phase = np.kron(np.eye(cutoff), np.diag([1.0, np.exp(-1j * pi / 2.0)]))
    u_ev = u_cond @ phase
    return u_ve @ u_ev @ u_ve


def swap_truth_oracle(alpha: float, cutoff: int, eps: float) -> dict:
    """Truth table of the state-exchange gate from closed-form ingredients.

    Composes the three-step exchange via exchange_matrix_oracle and reports
    row fidelities and the end state of the superposition transfer.
    """
    u_swap = exchange_matrix_oracle(cutoff, eps)
    c0 = cat_amplitudes(alpha, +1, cutoff)
    c1 = cat_amplitudes(alpha, -1, cutoff)
    e0 = np.array([1.0, 0.0], dtype=np.complex128)
    e1 = np.array([0.0, 1.0], dtype=np.complex128)

    rows = {}
    table = [
        ("00", np.kron(c0, e0), np.kron(c0, e0)),
        ("01", np.kron(c0, e1), np.kron(c1, e0)),
        ("10", np.kron(c1, e0), np.kron(c0, e1)),
        ("11", np.kron(c1, e1), np.kron(c1, e1)),
    ]
    for label, vec_in, vec_tgt in table:
        out = u_swap @ vec_in
        rows[label] = float(abs(np.vdot(vec_tgt, out)) ** 2)

    plus_in = np.kron((c0 + c1) / np.sqrt(2.0), e0)
    plus_tgt = np.kron(c0, (e0 + e1) / np.sqrt(2.0))
    out = u_swap @ plus_in
    transfer = float(abs(np.vdot(plus_tgt, out)) ** 2)
    return {"rows": rows, "superposition_transfer": transfer}


# the sampled readout's counts, read from the MT19937 stream and the exact
# binomial law by code that shares nothing with catbell.sampler

def seed_words(seed) -> list[int]:
    """The init_by_array key of a readout seed, a non-negative int or a
    list of them: per key its 32-bit word count and its words, low word
    first, then a top word 1.  These are the 32-bit words of the one int
    that catbell.sampler.seed_key packs, which CPython's int seeding hands
    to init_by_array."""
    key = []
    for value in ([seed] if isinstance(seed, int) else list(seed)):
        words = [value & 0xFFFFFFFF]
        while value >> 32 * len(words):
            words.append((value >> 32 * len(words)) & 0xFFFFFFFF)
        key += [len(words), *words]
    return key + [1]


class MT19937:
    """The Mersenne Twister of Matsumoto and Nishimura (ACM TOMACS 8, 3
    (1998)) in Python ints, from their reference code mt19937ar.c:
    init_by_array seeding and genrand_res53 doubles, which are what
    random.Random(int).random() runs."""

    N, M = 624, 397

    def __init__(self, key: list[int]):
        mt = [19650218]
        for i in range(1, self.N):
            mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & 0xFFFFFFFF)
        i, j = 1, 0
        for _ in range(max(self.N, len(key))):
            prev = mt[i - 1] ^ (mt[i - 1] >> 30)
            mt[i] = ((mt[i] ^ (prev * 1664525)) + key[j] + j) & 0xFFFFFFFF
            i, j = i + 1, (j + 1) % len(key)
            if i == self.N:
                mt[0], i = mt[-1], 1
        for _ in range(self.N - 1):
            prev = mt[i - 1] ^ (mt[i - 1] >> 30)
            mt[i] = ((mt[i] ^ (prev * 1566083941)) - i) & 0xFFFFFFFF
            i += 1
            if i == self.N:
                mt[0], i = mt[-1], 1
        mt[0] = 0x80000000
        self.state, self.index = mt, self.N

    def genrand_int32(self) -> int:
        mt = self.state
        if self.index == self.N:
            for kk in range(self.N):
                y = (mt[kk] & 0x80000000) | (mt[(kk + 1) % self.N] & 0x7FFFFFFF)
                mt[kk] = mt[(kk + self.M) % self.N] ^ (y >> 1) ^ (0x9908B0DF * (y & 1))
            self.index = 0
        y = mt[self.index]
        self.index += 1
        y ^= y >> 11
        y ^= (y << 7) & 0x9D2C5680
        y ^= (y << 15) & 0xEFC60000
        return y ^ (y >> 18)

    def genrand_res53(self) -> float:
        """A double in [0, 1) on 53 bits of two outputs."""
        a, b = self.genrand_int32() >> 5, self.genrand_int32() >> 6
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)


# the Bernoulli numbers B_2 ... B_16 of the Stirling series of log Gamma
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
              (7, 6), (-3617, 510))
_PI = "3.14159265358979323846264338327950288419716939937510582097494459"


def _log_factorial(k: int):
    """log k! as a Decimal of the current context: the log of the exact
    factorial below 256, else eight terms of the Stirling series of log
    Gamma(k + 1), whose remainder is below 1e-41 there."""
    from decimal import Decimal
    if k < 256:
        return Decimal(factorial(k)).ln()
    z = Decimal(k + 1)
    out = (z - Decimal("0.5")) * z.ln() - z + (2 * Decimal(_PI)).ln() / 2
    for j, (num, den) in enumerate(_BERNOULLI, start=1):
        out += Decimal(num) / (den * 2 * j * (2 * j - 1) * z ** (2 * j - 1))
    return out


def _log1m(p: float):
    """log(1 - p) as a Decimal, 0 < p < 1, by its series below 1e-10."""
    from decimal import Decimal
    if p >= 1e-10:
        return (1 - Decimal(p)).ln()
    x = Decimal(p)
    return -sum(x ** j / j for j in range(1, 8))


def binomial_log_ratio(n: int, k: int, m: int, p: float):
    """log f(k) / f(m) for the Binomial(n, p) pmf f, 0 < p < 1, as a
    60-digit Decimal: log m! (n - m)! / (k! (n - k)!) + (k - m) log(p / (1
    - p)), from the log factorials."""
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = 60
        return (_log_factorial(m) + _log_factorial(n - m) - _log_factorial(k)
                - _log_factorial(n - k) + (k - m) * (Decimal(p).ln() - _log1m(p)))


def binomial_draw(n: int, p: float, uniform) -> int:
    """One Binomial(n, p) count by the readout's spec: 0 for n = 0 or p <=
    0, n for p >= 1, n - Binomial(n, 1 - p) for p > 1/2, waiting times
    below n p = 10 and BTRS (Hörmann, J. Stat. Comput. Simul. 46, 101
    (1993)) from there.  The hat, the squeeze and k are the spec's floats;
    the waiting times and the acceptance ratio f(k) / f(m)
    (binomial_log_ratio) are exact, from 60-digit decimal logarithms."""
    from decimal import Decimal, localcontext
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - binomial_draw(n, 1.0 - p, uniform)
    with localcontext() as ctx:
        ctx.prec = 60
        if n * p < 10.0:
            log_q = _log1m(p)
            successes, trials = 0, 0
            while True:
                # trials up to and including the next success
                gap = int(Decimal(1.0 - uniform()).ln() / log_q) + 1
                trials += gap
                if trials > n:
                    return successes
                successes += 1
        q = 1.0 - p
        spq = sqrt(n * p * q)
        b = 1.15 + 2.53 * spq
        a = -0.0873 + 0.0248 * b + 0.01 * p
        c = n * p + 0.5
        v_r = 0.92 - 4.2 / b
        alpha = (2.83 + 5.1 / b) * spq
        m = floor((n + 1) * p)
        while True:
            u, v = uniform() - 0.5, uniform()
            us = 0.5 - abs(u)
            if us == 0.0:
                continue
            k = floor((2.0 * a / us + b) * u + c)
            if us >= 0.07 and v <= v_r:
                return k
            if not 0 <= k <= n:
                continue
            v = v * alpha / (a / (us * us) + b)
            if v == 0.0 or Decimal(v).ln() <= binomial_log_ratio(n, k, m, p):
                return k


def multinomial_counts(rows, shots: int, seed) -> list[list[int]]:
    """The sampled readout's counts of each row of outcome populations: for
    each row in order, outcome j draws binomial_draw(shots left, p_j /
    mass left), mass left being 1 - p_0 - ... - p_{j-1} subtracted in
    floats, and the last outcome takes the shots left; the uniforms are
    MT19937(seed_words(seed)).genrand_res53."""
    uniform = MT19937(seed_words(seed)).genrand_res53
    out = []
    for row in rows:
        counts, mass = [], 1.0
        for p in row[:-1]:
            left = shots - sum(counts)
            counts.append(binomial_draw(left, p / mass, uniform) if left > 0 else 0)
            mass -= p
        out.append(counts + [shots - sum(counts)])
    return out
