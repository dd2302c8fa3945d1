"""Regenerate the frozen fixtures under tests/golden/.

Run from the repository root:

    python3 tests/make_golden.py            # rewrite the fixtures
    python3 tests/make_golden.py sampled_counts.json   # rewrite the named ones
    python3 tests/make_golden.py --check    # also print main-path values side by side

Every frozen value comes from the independent slow routes in
catbell.reference (log-space series amplitudes, Laguerre displacement
elements, dense superoperator exponentials, closed-form Poisson arithmetic,
and the sampled readout's counts from a pure-Python MT19937 and the exact
binomial law).
The --check pass is the only part that touches the fast constructors, and it
never writes anything.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import pi
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from catbell.reference import (  # noqa: E402
    OracleReport,
    cat_amplitudes,
    exchange_matrix_oracle,
    liouvillian_expm,
    multinomial_counts,
    poisson_jump_stats,
    swap_truth_oracle,
    write_fixture,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SWAP_ALPHA = 8.0
SWAP_CUTOFF = 122          # default truncation for amplitude 8
SWAP_EPS = pi / 32.0       # displacement scale for a pi/2 logical rotation

HEAT_ALPHA = 1.5
HEAT_CUTOFF = 12           # superoperator oracle limit
HEAT_GAMMA = 0.02
HEAT_DURATION = 1.0

JUMP_ALPHA = 2.0
JUMP_GAMMA = 1e-3
JUMP_DURATION = 10.0       # gamma * alpha^2 * T = 0.04


def bell_transfer_register(alpha: float, cutoff: int, eps: float) -> float:
    """Electronic Bell fidelity after exchanging both pairs, oracle route.

    Builds the even-Bell state of two cat qubits (ions in |00>), applies the
    closed-form exchange to (mode a, ion 1) and (mode b, ion 2), traces out
    the modes, and projects on the electronic |00>+|11> state.
    """
    c0 = cat_amplitudes(alpha, +1, cutoff)
    c1 = cat_amplitudes(alpha, -1, cutoff)
    psi = np.zeros((cutoff, cutoff, 2, 2), dtype=np.complex128)
    psi[:, :, 0, 0] = (np.outer(c0, c0) + np.outer(c1, c1)) / np.sqrt(2.0)

    u4 = exchange_matrix_oracle(cutoff, eps).reshape(cutoff, 2, cutoff, 2)
    out = np.tensordot(u4, psi, axes=([2, 3], [0, 2]))   # (na, i1, nb, i2)
    out = out.transpose(0, 2, 1, 3)
    out = np.tensordot(u4, out, axes=([2, 3], [1, 3]))   # (nb, i2, na, i1)
    out = out.transpose(2, 0, 3, 1)

    rho = np.tensordot(out, out.conj(), axes=([0, 1], [0, 1])).reshape(4, 4)
    phi = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
    return float(np.real(phi @ rho @ phi))


def heated_cat_parity(alpha: float, cutoff: int, gamma: float, t: float) -> float:
    c = cat_amplitudes(alpha, +1, cutoff)
    rho = liouvillian_expm(np.outer(c, c.conj()), gamma, t)
    signs = (-1.0) ** np.arange(cutoff)
    return float(np.real((signs * np.diag(rho)).sum()))


def build_swap_fixture() -> list[OracleReport]:
    truth = swap_truth_oracle(SWAP_ALPHA, SWAP_CUTOFF, SWAP_EPS)
    config = {"alpha": SWAP_ALPHA, "cutoff": SWAP_CUTOFF, "epsilon": SWAP_EPS}
    reports = [
        OracleReport("swap_rows", truth["rows"], config, 1e-6),
        OracleReport("swap_superposition_transfer",
                     truth["superposition_transfer"], config, 1e-6),
        OracleReport(
            "electronic_bell_fidelity",
            bell_transfer_register(SWAP_ALPHA, SWAP_CUTOFF, SWAP_EPS),
            {**config, "beta": SWAP_ALPHA,
             "state": "even Bell pair of cat qubits, ions |00>"},
            1e-6,
        ),
    ]
    return reports


def build_heating_fixture() -> list[OracleReport]:
    value = heated_cat_parity(HEAT_ALPHA, HEAT_CUTOFF, HEAT_GAMMA, HEAT_DURATION)
    return [OracleReport(
        "cat_parity_after_heating", value,
        {"alpha": HEAT_ALPHA, "parity": "+", "cutoff": HEAT_CUTOFF,
         "gamma": HEAT_GAMMA, "duration": HEAT_DURATION},
        1e-6,
    )]


def build_jump_fixture() -> list[OracleReport]:
    # occupancy of the even cat from the series route, for the sampler's
    # initial rates gamma <a a+> and gamma <a+ a>
    c = cat_amplitudes(JUMP_ALPHA, +1, 60)
    n_mean = float((np.arange(60) * np.abs(c) ** 2).sum())
    initial = poisson_jump_stats(
        JUMP_GAMMA * (n_mean + 1.0), JUMP_GAMMA * n_mean, JUMP_DURATION)
    nominal = JUMP_GAMMA * JUMP_ALPHA ** 2
    balanced = poisson_jump_stats(nominal, nominal, JUMP_DURATION)
    base = {"alpha": JUMP_ALPHA, "gamma": JUMP_GAMMA,
            "duration": JUMP_DURATION}
    return [
        OracleReport("jump_stats_initial_rates", initial,
                     {**base, "n_mean": n_mean,
                      "rates": "gamma*(n+1) up, gamma*n down, frozen at t=0"},
                     0.0),
        OracleReport("jump_stats_balanced", balanced,
                     {**base, "rates": "gamma*alpha^2 for both directions"},
                     0.0),
    ]


# (name, seed, shots, outcome populations): seeds as the readout gets them,
# an int or bell-scan's [seed, i]; rows of phi+ at the default angles and of
# its mixture, zeros, a clipped edge (the aligned settings of
# test_bell.py's clip example), p = 1/2, a tiny p, waiting-time rows (n p <
# 10) and a row whose third conditional ratio rounds past 1
PHI_PLUS_ROWS = [(0.426776695297, 0.073223304703, 0.073223304703, 0.426776695297)] * 3 + [
    (0.073223304703, 0.426776695297, 0.426776695297, 0.073223304703)]
EDGE_ROWS = [(0.5, 0.0, 0.0, 0.5),
             (0.499200426576, 0.000799573424, 0.000799573424, 0.499200426576),
             (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
MIXED_ROWS = [(0.320710678119, 0.179289321881, 0.179289321881, 0.320710678119),
              (0.179289321881, 0.320710678119, 0.320710678119, 0.179289321881),
              (0.5, 0.5, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25)]
SMALL_ROWS = [(0.001, 0.002, 0.3, 0.697), (1e-12, 0.999999999999, 0.0, 0.0),
              (0.20653979926290988, 0.4723600995629812, 0.321100101174109, 0.0),
              (0.0, 0.5, 0.0, 0.5)]
COUNT_CASES = [
    ("phi_plus", 0, 4096, PHI_PLUS_ROWS),
    ("phi_plus_grid_point", [1201, 3], 4096, PHI_PLUS_ROWS),
    ("edges", 5, 4096, EDGE_ROWS),
    ("mixed", [2 ** 64 - 1, 0], 4096, MIXED_ROWS),
    ("small", [7, 2], 4096, SMALL_ROWS),
    ("one_shot", 11, 1, MIXED_ROWS + EDGE_ROWS),
    ("seven_shots", [0, 9], 7, SMALL_ROWS + PHI_PLUS_ROWS),
    ("beyond_2_53", 2 ** 32, 2 ** 53 + 1, MIXED_ROWS + EDGE_ROWS + SMALL_ROWS),
]


def build_sampled_fixture() -> list[OracleReport]:
    return [OracleReport(f"counts[{name}]", multinomial_counts(rows, shots, seed),
                         {"seed": seed, "shots": shots, "rows": [list(r) for r in rows]},
                         0.0)
            for name, seed, shots, rows in COUNT_CASES]


FIXTURES = {
    "swap_alpha8.json": build_swap_fixture,
    "heating_parity.json": build_heating_fixture,
    "jump_stats.json": build_jump_fixture,
    "sampled_counts.json": build_sampled_fixture,
}


def check_against_main_path() -> None:
    """Print fast-path values next to the oracle values; writes nothing."""
    os.environ["CATBELL_MAX_DIM"] = "65536"
    from catbell.bell import block_fidelity
    from catbell.bosonic import cat
    from catbell.coherent import PARITIES, correlation_tensor, exchange
    from catbell.gates import _mode, report_u_swap
    from conftest import readouts, superposition_transfer
    from catbell.noise import HeatingParams, propagate
    from catbell.params import EVEN, EncodingParams, ModeParams

    enc = EncodingParams.for_amplitudes(SWAP_ALPHA)
    rep = report_u_swap("a", enc, "ideal", "displacement")
    print("swap rows (main path):",
          {r["input"]: round(r["fidelity"], 12) for r in rep})
    print("transfer (main path):", superposition_transfer(enc))

    # (C+ C+ + C- C-) / sqrt(2), ions in |00>, through both exchanges
    mode = _mode("a", enc)
    left = [({(0.0, s): np.sqrt(2.0) * mode.norms[s]}, {}) for s in PARITIES]
    right = [({(0.0, s): 2.0 * mode.norms[s]}, {}) for s in PARITIES]
    t = correlation_tensor(mode, exchange(mode, left, False, False),
                           mode, exchange(mode, right, False, False))
    print("electronic fidelity (main path):", block_fidelity(t, 0.0))

    rho0 = cat(HEAT_ALPHA, EVEN, ModeParams(HEAT_CUTOFF, leak_tol=1e-5)).to_density()
    rho = propagate(rho0, HeatingParams(HEAT_GAMMA, HEAT_DURATION)).matrix
    print("heated parity (main path):", readouts(rho)[2])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"the fixtures to rewrite, of {', '.join(FIXTURES)} "
                             "(default: all of them)")
    parser.add_argument("--check", action="store_true",
                        help="also print main-path values for comparison")
    args = parser.parse_args()
    unknown = sorted(set(args.names) - set(FIXTURES))
    if unknown:
        parser.error(f"no fixture named {', '.join(unknown)}")

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in args.names or FIXTURES:
        reports = FIXTURES[name]()
        path = GOLDEN_DIR / name
        write_fixture(path, reports)
        for rep in reports:
            print(f"{name}: {rep.quantity} = {rep.value}")

    if args.check:
        print("\n--- main-path comparison ---")
        check_against_main_path()


if __name__ == "__main__":
    main()
