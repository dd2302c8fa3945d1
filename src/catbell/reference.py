"""Slow, independent reference calculations used to cross-check the library.

Nothing here imports the main numerical modules: coherent amplitudes come
from log-space series instead of the recurrence, displacement matrix elements
from the closed Laguerre form instead of exponentiation, master-equation
propagation from a dense superoperator exponential instead of step
integration, the as-written vibration-controlled gate from dense exponentials
instead of indexing, and CHSH optima from exhaustive grid search instead of
the known angles.  Tests freeze values produced here into JSON fixtures and
hold the fast paths to them.  scipy is imported only by the three oracles
that call it (displacement_elements, liouvillian_expm and
u_ve_literal_oracle), so a checker that reads the numpy-only series does not
load it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from math import lgamma, log, pi
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
    """<alpha|beta> in closed form."""
    return np.exp(
        -abs(alpha) ** 2 / 2.0 - abs(beta) ** 2 / 2.0 + np.conj(alpha) * beta
    )


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
