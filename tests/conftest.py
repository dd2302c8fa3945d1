"""Shared fixtures, test helpers and the acceptance summary block.

The acceptance tests record one verdict line per criterion in
ACCEPTANCE_LINES; a terminal-summary hook prints them after the run so
the verdicts stay visible regardless of output capture.

The helpers build states and operators that the library has no use for
but several tests do; test modules import them with `from conftest import`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from catbell.bosonic import ModeParams, parity_projectors
from catbell.encoding import EncodingParams, full_layout
from catbell.hilbert import OperatorMatrix, SpaceLayout, StateVector, on_layout, tensor
from catbell.reference import entangled_amplitudes, read_fixture

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

ACCEPTANCE_LINES: dict[str, str] = {}

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for key in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(ACCEPTANCE_LINES[key])


@pytest.fixture(scope="session")
def acceptance_log() -> dict[str, str]:
    return ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def enc2() -> EncodingParams:
    return EncodingParams.for_amplitudes(2.0)


@pytest.fixture(scope="session")
def enc3() -> EncodingParams:
    return EncodingParams.for_amplitudes(3.0)


@pytest.fixture(scope="session")
def golden():
    """Load a frozen fixture file from tests/golden by name."""

    def load(name: str):
        return read_fixture(GOLDEN_DIR / name)

    return load


def basis_state(layout: SpaceLayout, occupations: tuple[int, ...]) -> StateVector:
    """Product basis vector |n1, n2, ...>, the tensor of one unit vector per factor."""
    if len(occupations) != layout.nsites:
        raise ValueError("need one occupation per factor")
    parts = []
    for n, d in zip(occupations, layout.dims):
        unit = np.zeros(d, dtype=np.complex128)
        unit[n] = 1.0
        parts.append(StateVector(SpaceLayout((d,)), unit))
    return tensor(parts)


def parity_op(mode: ModeParams) -> OperatorMatrix:
    """Phonon parity (-1)^n, the difference of the two parity projectors."""
    even, odd = parity_projectors(mode)
    return OperatorMatrix(mode.layout, (0,), even.matrix - odd.matrix)


def on_register(op: OperatorMatrix, slot: int, params: EncodingParams) -> OperatorMatrix:
    """A single-factor operator placed at one slot of the four-factor register."""
    return on_layout(op, full_layout(params), (slot,))


def reference_preparation(params: EncodingParams) -> StateVector:
    """The chi_t = pi preparation on the register, both ions in |0>, from
    the independent reference.entangled_amplitudes."""
    grid = entangled_amplitudes(params.alpha, params.beta,
                                params.mode_a.cutoff, params.mode_b.cutoff)
    ions = np.array([1.0, 0.0, 0.0, 0.0])
    return StateVector(full_layout(params), np.kron(grid.reshape(-1), ions))
