"""Entanglement-transfer gates between a vibrational mode and its ion.

Each gate matrix lives on the compact pair layout [mode, ion]; lift_pair
places it on the four-factor register.  Two controlled-flip constructions
are provided for the vibration-controlled gate:

* u_ve_ideal: parity projectors routing an electronic flip, an exact CNOT
  with the mode's phonon parity as control.
* u_ve_literal: the product exp(-i pi n sigma_y) exp(i pi n |1><1|) taken at
  face value.  On an odd-phonon state exp(-i pi n sigma_y) equals -1, not an
  electronic flip, so this operator is diagonal in parity and does not
  perform the flip its construction suggests.  Its report records how far
  each truth-table row lands from the intended action; no claim is made that
  it matches the ideal variant.

The electron-controlled gate u_ev is the conditional displacement
exp(i eps (a + a+) |1><1|) followed by exp(-i pi |1><1| / 2).  A full logical
flip needs the displacement-rotation angle 2*alpha*eps to equal pi/2, so the
default scale is eps = pi/(4 alpha); the flipped rows then reach the ideal
targets with fidelity exp(-eps^2).  The trailing electronic phase exactly
cancels the i of the rotated branch, which is what makes the three-gate
sequence u_ve u_ev u_ve an exchange of the mode and ion qubits.  An explicit
epsilon wins over params.epsilon, which wins over the default; the one
params.epsilon is the kick of both modes, whatever their amplitudes.

u_swap returns the exchange as an Exchange, a pair operator whose apply
runs the three factors and never a dense product: u_ve[ideal] swaps the two
ion slices on odd Fock rows, which is indexing only, and u_ev multiplies
the ion's |1> half by the phase and then by the d x d kick, D(i eps) or the
code-space rx(pi/2), at 2 d^3 per column of the other factors.
u_ve[literal] enters as its pair matrix.  The dense matrix, which the
reports and hilbert.apply read, is the same action run on the pair
identity, so there is one definition of the sequence; the single-gate
builds keep their matrices for the truth-table reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import pi

import numpy as np

from . import bosonic, encoding
from .encoding import EncodingParams
from .hilbert import (
    OperatorMatrix,
    SpaceLayout,
    StateVector,
    apply,
    matrix_exp,
    on_layout,
    overlap,
    tensor,
    unitarity_residual,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
EXCITED = np.diag([0.0, 1.0]).astype(np.complex128)


def pair_layout(which_mode: str, params: EncodingParams) -> SpaceLayout:
    return SpaceLayout((params.mode(which_mode).cutoff, 2))


def lift_pair(op: OperatorMatrix, which_mode: str,
              params: EncodingParams) -> OperatorMatrix:
    """Place a [mode, ion] pair operator on the full register layout."""
    slots = (encoding.MODE_A, encoding.ION_1) if which_mode == "a" \
        else (encoding.MODE_B, encoding.ION_2)
    return on_layout(op, encoding.full_layout(params), slots)


def u_ve_ideal(which_mode: str, params: EncodingParams) -> OperatorMatrix:
    """CNOT with phonon parity as control: flip the ion on odd parity."""
    mode = params.mode(which_mode)
    even, odd = bosonic.parity_projectors(mode)
    m = np.kron(even.matrix, np.eye(2)) + np.kron(odd.matrix, SIGMA_X)
    return OperatorMatrix(pair_layout(which_mode, params), (0, 1), m)


def u_ve_literal(which_mode: str, params: EncodingParams) -> OperatorMatrix:
    """The two-exponential construction evaluated exactly as written."""
    mode = params.mode(which_mode)
    n = bosonic.number_op(mode).matrix
    layout = pair_layout(which_mode, params)
    first = matrix_exp(
        OperatorMatrix(layout, (0, 1), np.kron(n, SIGMA_Y)), scale=-1j * pi
    )
    second = matrix_exp(
        OperatorMatrix(layout, (0, 1), np.kron(n, EXCITED)), scale=1j * pi
    )
    return OperatorMatrix(layout, (0, 1), first.matrix @ second.matrix)


EXCITED_PHASE = np.exp(-1j * pi / 2.0)  # -i, as the rounded exponential


def electronic_phase() -> np.ndarray:
    """exp(-i pi |1><1| / 2) on one ion."""
    return np.diag([1.0, EXCITED_PHASE]).astype(np.complex128)


def _kick(which_mode: str, params: EncodingParams, ev_variant: str,
          epsilon: float | None = None) -> np.ndarray:
    """The d x d mode matrix that u_ev applies on the ion's |1> half.

    D(i eps) for the displacement build, with eps the explicit epsilon, else
    params.epsilon, else pi / (4 alpha); the exact code-space rx(pi/2) for
    the ideal build, which takes no scale.
    """
    if ev_variant == "ideal":
        basis = encoding.logical_basis(which_mode, params)
        return basis.subspace_unitary(encoding.rx_matrix(pi / 2.0)).matrix
    if epsilon is None:
        epsilon = params.epsilon
    if epsilon is None:
        epsilon = pi / (4.0 * params.amplitude(which_mode))
    return bosonic.displacement(1j * epsilon, params.mode(which_mode)).matrix


def u_ev(which_mode: str, params: EncodingParams,
         epsilon: float | None = None) -> OperatorMatrix:
    """CNOT with the ion as control, realized by a conditional displacement.

    epsilon defaults to params.epsilon when that is set, else to
    pi / (4 alpha), the scale at which D(i eps) rotates the cat qubit by pi/2.
    """
    kick = _kick(which_mode, params, "displacement", epsilon)
    eye = np.eye(kick.shape[0], dtype=np.complex128)
    cond = np.kron(eye, np.diag([1.0, 0.0])) + np.kron(kick, EXCITED)
    m = cond @ np.kron(eye, electronic_phase())
    return OperatorMatrix(pair_layout(which_mode, params), (0, 1), m)


VE_VARIANTS = ("ideal", "literal")
EV_VARIANTS = ("displacement", "ideal")


class Exchange(OperatorMatrix):
    """u_ve u_ev u_ve for one mode: a pair operator with its factors kept apart.

    kick is the d x d mode matrix of u_ev; ve is the 2d x 2d pair matrix of
    u_ve[literal], or None for the parity-routed flip of u_ve[ideal].
    apply runs the factors on a state tensor; the dense pair matrix is
    formed only when .matrix is first read, by running them on the pair
    identity.
    """

    def __init__(self, layout: SpaceLayout, kick: np.ndarray,
                 ve: np.ndarray | None = None) -> None:
        self.layout = layout
        self.acts_on = (0, 1)
        self.kick = kick
        self.ve = ve

    @cached_property
    def matrix(self) -> np.ndarray:
        d = self.kick.shape[0]
        eye = np.eye(2 * d, dtype=np.complex128).reshape(d, 2, 2 * d)
        return self.apply(eye, 0, 1).reshape(2 * d, 2 * d)

    def _flip(self, x: np.ndarray) -> np.ndarray:
        if self.ve is None:
            x[1::2] = x[1::2, ::-1]  # odd Fock rows: swap the two ion slices
            return x
        return (self.ve @ x.reshape(2 * x.shape[0], -1)).reshape(x.shape)

    def apply(self, psi: np.ndarray, mode_axis: int, ion_axis: int) -> np.ndarray:
        """u_ve u_ev u_ve on the (mode_axis, ion_axis) pair of a state tensor.

        psi has one axis per factor; any further axes (the columns of an
        operator, say) ride along.  Returns a new tensor of the same shape.
        u_ev is the electronic phase and then the kick on the ion = 1 half,
        2 d^3 per column of the other factors; u_ve[ideal] is indexing only.
        """
        t = np.moveaxis(psi, (mode_axis, ion_axis), (0, 1))
        shape = t.shape
        x = np.array(t, dtype=np.complex128, order="C").reshape(shape[0], 2, -1)
        x = self._flip(x)
        x[:, 1] = self.kick @ (EXCITED_PHASE * x[:, 1])
        x = self._flip(x)
        return np.moveaxis(x.reshape(shape), (0, 1), (mode_axis, ion_axis))


def u_swap(which_mode: str, params: EncodingParams,
           ve_variant: str = "ideal", ev_variant: str = "displacement",
           epsilon: float | None = None) -> Exchange:
    """Three-step exchange of the mode qubit and its ion qubit."""
    if ve_variant not in VE_VARIANTS:
        raise ValueError(f"ve_variant must be one of {VE_VARIANTS}")
    if ev_variant not in EV_VARIANTS:
        raise ValueError(f"ev_variant must be one of {EV_VARIANTS}")
    ve = None if ve_variant == "ideal" else u_ve_literal(which_mode, params).matrix
    return Exchange(pair_layout(which_mode, params),
                    _kick(which_mode, params, ev_variant, epsilon), ve)


def carrier_rotation(k: float, phase: float) -> OperatorMatrix:
    """Carrier-pulse rotation exp[-i k pi/2 (|1><0| e^{-i phase} + h.c.)].

    The generator is the equatorial axis (cos phase, -sin phase) on the Bloch
    sphere; conjugating sigma_z with the k = 1/2 pulse therefore lands on an
    equatorial measurement axis set by the pulse phase.
    """
    g = np.array(
        [[0.0, np.exp(1j * phase)], [np.exp(-1j * phase), 0.0]],
        dtype=np.complex128,
    )
    return matrix_exp(
        OperatorMatrix(SpaceLayout((2,)), (0,), g), scale=-1j * k * pi / 2.0
    )


@dataclass
class RowReport:
    input_label: str
    target_label: str
    fidelity: float
    amplitude: complex  # phase-aware overlap <target|U|input>


@dataclass
class GateReport:
    """Truth-table fidelities and a unitarity check for one gate build."""

    gate: str
    rows: list[RowReport]
    unitarity: float

    @property
    def min_fidelity(self) -> float:
        return min(r.fidelity for r in self.rows)


def _pair_basis(which_mode: str, params: EncodingParams) -> dict[str, StateVector]:
    basis = encoding.logical_basis(which_mode, params)
    out = {}
    for vlabel, vstate in (("0L", basis.zero), ("1L", basis.one)):
        for elabel, bit in (("0e", 0), ("1e", 1)):
            out[f"{vlabel},{elabel}"] = tensor([vstate, encoding.qubit_state(bit)])
    return out


def _report(gate: OperatorMatrix, name: str, which_mode: str,
            params: EncodingParams, table: list[tuple[str, str]]) -> GateReport:
    states = _pair_basis(which_mode, params)
    rows = []
    for in_label, tgt_label in table:
        out = apply(gate, states[in_label])
        amp = overlap(states[tgt_label], out)
        rows.append(RowReport(in_label, tgt_label, float(abs(amp) ** 2), amp))
    return GateReport(name, rows, unitarity_residual(gate))


CNOT_VE_TABLE = [("0L,0e", "0L,0e"), ("0L,1e", "0L,1e"),
                 ("1L,0e", "1L,1e"), ("1L,1e", "1L,0e")]
CNOT_EV_TABLE = [("0L,0e", "0L,0e"), ("0L,1e", "1L,1e"),
                 ("1L,0e", "1L,0e"), ("1L,1e", "0L,1e")]
SWAP_TABLE = [("0L,0e", "0L,0e"), ("0L,1e", "1L,0e"),
              ("1L,0e", "0L,1e"), ("1L,1e", "1L,1e")]


def report_u_ve(variant: str, which_mode: str, params: EncodingParams) -> GateReport:
    """Row-by-row comparison of a ve build against the intended CNOT action."""
    gate = (u_ve_ideal if variant == "ideal" else u_ve_literal)(which_mode, params)
    return _report(gate, f"u_ve[{variant}]", which_mode, params, CNOT_VE_TABLE)


def report_u_ev(which_mode: str, params: EncodingParams,
                epsilon: float | None = None) -> GateReport:
    gate = u_ev(which_mode, params, epsilon=epsilon)
    return _report(gate, "u_ev[displacement]", which_mode, params, CNOT_EV_TABLE)


def report_u_swap(which_mode: str, params: EncodingParams,
                  ve_variant: str = "ideal",
                  ev_variant: str = "displacement") -> GateReport:
    gate = u_swap(which_mode, params, ve_variant, ev_variant)
    return _report(gate, f"u_swap[{ve_variant},{ev_variant}]",
                   which_mode, params, SWAP_TABLE)
