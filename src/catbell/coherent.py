"""Every stage of the program in coherent states, with no cutoff.

The paper writes every stage in coherent states: the cross-Kerr pair is
(|a,b> + |-a,b> + |a,-b> - |-a,-b>)/2, the kick is D(i eps)|g> =
e^{i eps Re g}|g + i eps>, and the parity-controlled flip splits |g> into
its even and odd parts (|g> +- |-g>)/2.  This module runs those maps
exactly, in Python complex floats, with no Fock truncation and no numpy.

A ket of one mode of amplitude a is a dict {(eta, s): c}: the sum of
c D(i eta) E_s over the parity components E_s = (|a> + s|-a>)/2, s = +1 or
-1, each displaced by a kick along the momentum axis (eta = 0 or +-eps).
Every map is exact on these terms: kicks add (D(i eps) D(i eta) = D(i (eta
+ eps))), and the parity Pi takes D(i eta) E_s to s D(-i eta) E_s, so the
parity projections (1 +- Pi)/2 of u_ve split a term in two.  The Gram
entries are closed forms, <D(i eta) E_s|D(i eta') E_t> = M(eta' - eta, s,
t) (Mode.overlap), with no difference of two near-equal coherent states:
the odd component's norm^2, (1 - exp(-2 a^2))/2, keeps its digits at any
amplitude, where |a> - |-a> cancels to nothing below a ~ 1e-8.

A factor of one side of the cut (mode a, ion 1) | (mode b, ion 2) is a list
of terms, each a pair of kets (ion |0>, ion |1>), and the register is the
sum over k of left[k] (x) right[k].  The Hadamard, the ideal rx(pi/2) and
the flip branch's sigma_x are rank-2 updates of the cat code through
<C+-|x>, C+- = 2 N+- E_+-.  The electronic pair is rho = sum_kl G^L_kl (x)
G^R_kl, G_kl the 2 x 2 ion Gram table of terms k and l of a side, so its
correlation tensor is T_mn = sum_kl tr(G^L_kl sigma_m) tr(G^R_kl sigma_n).

Each stage has this one implementation: prepare and full-pipeline read
one preparation (preparation), swap-report's truth tables (catbell.gates)
run _flip, the phased Mode.kick and exchange on the pair inputs |C+->|i>,
and rotate reads the kick's Gram entries (rotation_fidelity).
"""

from __future__ import annotations

import cmath
from math import cos, exp, expm1, isfinite, pi, sin, sqrt

from .params import EVEN, ODD, EncodingParams, cat_norm

EXCITED_PHASE = cmath.exp(-1j * pi / 2.0)  # -i, as the rounded exponential
HADAMARD = ((1 / sqrt(2.0), 1 / sqrt(2.0)), (1 / sqrt(2.0), -1 / sqrt(2.0)))
SIGMA_X = ((0.0, 1.0), (1.0, 0.0))
RX_HALF_PI = ((cos(pi / 2.0), 1j * sin(pi / 2.0)),
              (1j * sin(pi / 2.0), cos(pi / 2.0)))
PARITIES = (1, -1)


def _add(ket: dict, key: tuple, c: complex) -> None:
    ket[key] = ket.get(key, 0.0) + c


class Mode:
    """One mode's cat code: its amplitude a > 0, its kick eps, the cat norms
    N+- (params.cat_norm) and the overlaps of its terms, kept per
    (eta, s, t) as they are read."""

    def __init__(self, amplitude: float, epsilon: float) -> None:
        self.amplitude = amplitude
        self.epsilon = epsilon
        self.norms = {1: cat_norm(amplitude, EVEN), -1: cat_norm(amplitude, ODD)}
        self._overlaps: dict = {}

    def overlap(self, eta: float, s: int, t: int) -> complex:
        """M = <E_s|D(i eta)|E_t>.  Over the four <+-a|D(i eta)|+-a> it is

            e^{-eta^2/2} [e^{-a^2} f_s f_t - expm1(-a^2) (P - e^{-a^2} Q) / 4]

        with theta = a eta, f_+ = cos theta, f_- = i sin theta, P =
        e^{2 i theta} + s t e^{-2 i theta} and Q = s + t: the a -> 0 limit
        f_s f_t and a correction that expm1 keeps exact to the last bits.
        No exponent is positive, so nothing overflows."""
        key = (eta, s, t)
        value = self._overlaps.get(key)
        if value is None:
            a = self.amplitude
            theta = a * eta
            f = {1: cos(theta), -1: 1j * sin(theta)}
            p = 2.0 * cos(2.0 * theta) if s == t else 2j * sin(2.0 * theta)
            small = exp(-a * a)
            value = exp(-eta * eta / 2.0) * (
                small * f[s] * f[t] - expm1(-a * a) * (p - small * (s + t)) / 4.0)
            self._overlaps[key] = value
        return value

    def inner(self, u: dict, v: dict) -> complex:
        """<u|v> of two kets."""
        total = 0j
        for (eta, s), c in u.items():
            c = c.conjugate()
            for (zeta, t), d in v.items():
                total += c * d * self.overlap(zeta - eta, s, t)
        return total

    def rotate(self, m: tuple, x: dict) -> dict:
        """(1 - B B^dag) x + B m B^dag x with B = [C+, C-]: the 2 x 2 unitary
        m on the cat code, the rest of x fixed."""
        code = [2.0 * self.norms[s] * self.inner({(0.0, s): 1.0}, x)
                for s in PARITIES]
        out = dict(x)
        for p, s in enumerate(PARITIES):
            step = sum((m[p][q] - (p == q)) * code[q] for q in (0, 1))
            _add(out, (0.0, s), 2.0 * self.norms[s] * step)
        return out

    def kick(self, x: dict) -> dict:
        """D(i eps) x."""
        out: dict = {}
        for (eta, s), c in x.items():
            _add(out, (eta + self.epsilon, s), c)
        return out


def _project(out: dict, x: dict, p: int) -> dict:
    """out += (1 + p Pi) x / 2, Pi D(i eta) E_s = s D(-i eta) E_s."""
    for (eta, s), c in x.items():
        if eta == 0.0:
            if s == p:
                _add(out, (eta, s), c)
        else:
            _add(out, (eta, s), c / 2.0)
            _add(out, (-eta, s), p * s * c / 2.0)
    return out


def _flip(term: tuple, literal: bool) -> tuple:
    """u_ve on one term (ion |0> ket, ion |1> ket): the ion flips on the odd
    part, or for the literal build diag((-1)^n, 1), the parity on ion |0>."""
    zero, one = term
    if literal:
        return {(-eta, s): s * c for (eta, s), c in zero.items()}, one
    return (_project(_project({}, zero, 1), one, -1),
            _project(_project({}, one, 1), zero, -1))


def exchange(mode: Mode, side: list, literal: bool, ideal: bool) -> list:
    """u_ve u_ev u_ve on each term of a side: the flip, the electronic
    phase and the kick on the ion |1> ket (D(i eps), or the code-space
    rx(pi/2) of the ideal build), and the flip again."""
    out = []
    for term in side:
        zero, one = _flip(term, literal)
        one = {key: EXCITED_PHASE * c for key, c in one.items()}
        one = mode.rotate(RX_HALF_PI, one) if ideal else mode.kick(one)
        out.append(_flip((zero, one), literal))
    return out


def register_inner(mode_l: Mode, mode_r: Mode, a: tuple, b: tuple) -> complex:
    """<a|b> of two registers (left terms, right terms), from the Gram
    tables of their terms across the cut."""
    (al, ar), (bl, br) = a, b
    return sum(sum(mode_l.inner(x, y) for x, y in zip(lk, ll))
               * sum(mode_r.inner(x, y) for x, y in zip(rk, rl))
               for lk, rk in zip(al, ar) for ll, rl in zip(bl, br))


def register_fidelity(mode_l: Mode, mode_r: Mode, a: tuple, b: tuple) -> float:
    """|<a|b>|^2 of two registers; both are unit vectors up to rounding."""
    return abs(register_inner(mode_l, mode_r, a, b)) ** 2


def _pauli_traces(mode: Mode, side: list, k: int, l: int) -> tuple:
    """tr(G_kl sigma_m), sigma = (1, x, y, z), of G_kl[i][j] =
    <side[l][j]|side[k][i]>."""
    (g00, g01), (g10, g11) = [[mode.inner(side[l][j], side[k][i])
                               for j in (0, 1)] for i in (0, 1)]
    return g00 + g11, g01 + g10, 1j * (g01 - g10), g00 - g11


def correlation_tensor(mode_l: Mode, left: list, mode_r: Mode,
                       right: list) -> tuple:
    """T of the electronic pair of the register sum_k left[k] (x)
    right[k], the modes traced out, as a 4 x 4 nested tuple of floats."""
    pairs = [(k, l) for k in range(len(left)) for l in range(len(left))]
    a = [_pauli_traces(mode_l, left, k, l) for k, l in pairs]
    b = [_pauli_traces(mode_r, right, k, l) for k, l in pairs]
    return tuple(tuple(sum(x[m] * y[n] for x, y in zip(a, b)).real
                       for n in range(4)) for m in range(4))


def rotation_fidelity(eps: float, params: EncodingParams,
                      which_mode: str = "a") -> dict:
    """rotate's row of the kick D(i eps), in its columns: eps itself, theta =
    2 alpha eps (alpha the named mode's amplitude), both code branches'
    fidelities against the ideal rx(theta) and the law exp(-eps^2), which
    holds up to terms of order exp(-2 alpha^2).  <C_s|D(i eps)|C_t> = 4 N_s
    N_t M(eps, s, t) (Mode.overlap), so f_zero = |cos theta <C+|D|C+> - i
    sin theta <C-|D|C+>|^2, and f_one alike.  An angle past the float range
    is a ValueError."""
    alpha = params.amplitude(which_mode)
    theta = 2.0 * alpha * eps
    if not isfinite(theta):
        raise ValueError(f"epsilon = {eps!r} makes the angle 2 alpha epsilon "
                         "overflow")
    mode = Mode(alpha, eps)

    def element(s: int, t: int) -> complex:
        return 4.0 * mode.norms[s] * mode.norms[t] * mode.overlap(eps, s, t)

    c, i_s = cos(theta), 1j * sin(theta)
    f0 = abs(c * element(1, 1) - i_s * element(-1, 1)) ** 2
    f1 = abs(-i_s * element(1, -1) + c * element(-1, -1)) ** 2
    return {"epsilon": eps, "theta": theta, "f_zero": f0, "f_one": f1,
            "analytic": exp(-eps * eps)}


def _kick_scale(params: EncodingParams, amplitude: float) -> float:
    """params.epsilon when set, else pi / (4 amplitude), the full flip."""
    if params.epsilon is not None:
        return params.epsilon
    return pi / (4.0 * amplitude)


def _ground(*kets: dict) -> list:
    """Terms of a side with the ion in |0>, one per ket."""
    return [(ket, {}) for ket in kets]


PLUS = {(0.0, 1): 1.0, (0.0, -1): 1.0}   # |g> = E_+ + E_-
MINUS = {(0.0, 1): 1.0, (0.0, -1): -1.0}  # |-g> = E_+ - E_-


def preparation(params: EncodingParams) -> tuple[Mode, Mode, tuple, tuple]:
    """The two modes, the chi_t = pi preparation and the four-component
    pair it equals, each a register (left terms, right terms) with both
    ions in |0>.  The preparation is E_+|b> + E_-|-b>: exp(-i pi n_a n_b)
    keeps |beta> on the even part of |alpha> and takes it to |-beta> on the
    odd part.  The target is (|a,b> + |-a,b> + |a,-b> - |-a,-b>) / 2."""
    alpha, beta = params.alpha, params.beta
    mode_a = Mode(alpha, _kick_scale(params, alpha))
    mode_b = mode_a if beta == alpha else Mode(beta, _kick_scale(params, beta))
    prepared = (_ground({(0.0, 1): 1.0}, {(0.0, -1): 1.0}), _ground(PLUS, MINUS))
    half = {key: c / 2.0 for key, c in PLUS.items()}
    target = (_ground(PLUS, MINUS, PLUS, MINUS),
              _ground(half, half, *({key: sign * c / 2.0 for key, c in MINUS.items()}
                                    for sign in (1.0, -1.0))))
    return mode_a, mode_b, prepared, target


def cat_form(mode_a: Mode, mode_b: Mode, side: str) -> tuple:
    """The prepared pair with the cats C+- on one side and the coherent
    kets |+-g> on the other, the weights 1 / (2 N+-) of the cat side's norms
    on mode a: sum_s C+-^a |+-b> / (2 N+-^a) for side "a", sum_s |+-a>
    C+-^b / (2 N+-^b) for side "b"."""
    cats = mode_a if side == "a" else mode_b
    coded = [{(0.0, s): 2.0 * cats.norms[s]} for s in PARITIES]
    left, right = (coded, (PLUS, MINUS)) if side == "a" else ((PLUS, MINUS), coded)
    weights = [0.5 / cats.norms[s] for s in PARITIES]
    return (_ground(*({key: w * c for key, c in ket.items()}
                      for w, ket in zip(weights, left))),
            _ground(*right))


def stages(params: EncodingParams, ve_variant: str, ev_variant: str
           ) -> tuple[float, float, tuple, tuple]:
    """The preparation and Hadamard fidelities, and the correlation tensors
    T of the electronic pair after both exchanges of the Hadamard-stage
    register (keep) and of the same register with mode a's code flipped
    (flip)."""
    mode_a, mode_b, (left, right), target = preparation(params)
    prep = register_fidelity(mode_a, mode_b, (left, right), target)

    left = [tuple(mode_a.rotate(HADAMARD, ket) for ket in term) for term in left]
    # (C+ C+ + C- C-) / sqrt(2), ions in |00>
    bell = (_ground(*({(0.0, s): sqrt(2.0) * mode_a.norms[s]} for s in PARITIES)),
            _ground(*({(0.0, s): 2.0 * mode_b.norms[s]} for s in PARITIES)))
    had = register_fidelity(mode_a, mode_b, (left, right), bell)

    literal, ideal = ve_variant == "literal", ev_variant == "ideal"
    right = exchange(mode_b, right, literal, ideal)
    flipped = [tuple(mode_a.rotate(SIGMA_X, ket) for ket in term) for term in left]
    keep, flip = (correlation_tensor(mode_a, exchange(mode_a, branch, literal,
                                                      ideal), mode_b, right)
                  for branch in (left, flipped))
    return prep, had, keep, flip
