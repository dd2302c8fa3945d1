"""Entanglement-transfer gates between a vibrational mode and its ion.

Each gate matrix lives on the pair layout [mode, ion]; Exchange.apply runs on
the (mode, ion) axes of any tensor, such as a register's Schmidt factor.  Two
controlled-flip constructions are provided for the vibration-controlled gate:

* u_ve_ideal: the ion flipped on the odd Fock rows, an exact CNOT with the
  mode's phonon parity as control.
* u_ve_literal: the product exp(-i pi n sigma_y) exp(i pi n |1><1|) taken at
  face value.  exp(-i pi n sigma_y) = (-1)^n is not an electronic flip, so
  the product is exactly diag((-1)^n, 1) on the ion and does not perform the
  flip its construction suggests.  Its report records how far each
  truth-table row lands from the intended action.

The electron-controlled gate u_ev is the conditional displacement
exp(i eps (a + a+) |1><1|) followed by exp(-i pi |1><1| / 2).  A full logical
flip needs the displacement-rotation angle 2*alpha*eps to equal pi/2, so the
default scale is eps = pi/(4 alpha); the flipped rows then reach the ideal
targets with fidelity exp(-eps^2).  The trailing electronic phase exactly
cancels the i of the rotated branch, which is what makes the three-gate
sequence u_ve u_ev u_ve an exchange of the mode and ion qubits.  The kick is
params.epsilon when that is set, else the default; the one params.epsilon,
validated by EncodingParams, is the kick of both modes, whatever their
amplitudes.

u_swap returns the exchange as an Exchange, a pair operator whose apply
runs the three factors and never a dense product: either u_ve is indexing
on the odd Fock rows (_flip: u_ve[ideal] swaps the two ion slices,
u_ve[literal] negates the ion-|0> slice), and u_ev (_phase_kick) multiplies
the ion's |1> half by the phase and then applies the kick as an action,
never as a d x d matrix: D(i eps) in the cached eigenbasis of a + a+
(bosonic.displacement_action, 8 d^2 flops per column of the other factors)
or the code-space rx(pi/2) as a rank-2 update (LogicalBasis.rotate, O(d)
per column).  The dense matrices that the reports read, the exchange's,
u_ve_ideal's and u_ev's, are those steps run on the pair identity, so each
gate has one definition; only u_ve_literal, the audit of the formula as
written, is built from its exponentials.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial
from math import cos, pi, sin

import numpy as np

from . import bosonic, encoding
from .encoding import EncodingParams
from .hilbert import (
    OperatorMatrix,
    SpaceLayout,
    StateVector,
    apply,
    matrix_exp,
    overlap,
    tensor,
    unitarity_residual,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
EXCITED = np.diag([0.0, 1.0]).astype(np.complex128)
EXCITED_PHASE = np.exp(-1j * pi / 2.0)  # -i, as the rounded exponential


def pair_layout(which_mode: str, params: EncodingParams) -> SpaceLayout:
    return SpaceLayout((params.mode(which_mode).cutoff, 2))


def _flip(x: np.ndarray, literal: bool = False) -> np.ndarray:
    """u_ve on axes (mode, ion) of x, in place, by indexing the odd Fock rows."""
    if literal:
        x[1::2, 0] *= -1.0  # diag((-1)^n, 1) on the ion
    else:
        x[1::2] = x[1::2, ::-1]  # swap the two ion slices
    return x


def _phase_kick(x: np.ndarray, kick: Callable[[np.ndarray], np.ndarray]
                ) -> np.ndarray:
    """u_ev on axes (mode, ion) of x, in place: the electronic phase and then
    the kick on the ion-|1> half."""
    x[:, 1] = kick(EXCITED_PHASE * x[:, 1])
    return x


def _pair_matrix(layout: SpaceLayout,
                 step: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The dense pair matrix of a step: the step run on the pair identity."""
    d = layout.dims[0]
    eye = np.eye(2 * d, dtype=np.complex128).reshape(d, 2, 2 * d)
    return step(eye).reshape(2 * d, 2 * d)


def u_ve_ideal(which_mode: str, params: EncodingParams) -> OperatorMatrix:
    """CNOT with phonon parity as control: flip the ion on odd parity."""
    layout = pair_layout(which_mode, params)
    return OperatorMatrix(layout, (0, 1), _pair_matrix(layout, _flip))


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


def _kick(which_mode: str, params: EncodingParams, ev_variant: str
          ) -> Callable[[np.ndarray], np.ndarray]:
    """The action x -> K x on the mode axis that u_ev applies on the ion's
    |1> half; the d x d K is never formed.

    D(i eps) in its cached eigenbasis for the displacement build, with eps
    params.epsilon (validated by EncodingParams), else pi / (4 alpha); the
    exact code-space rx(pi/2), a rank-2 update at O(d) per column on the
    memoized code basis (encoding.logical_basis), for the ideal build, which
    takes no scale.
    """
    if ev_variant == "ideal":
        basis = encoding.logical_basis(which_mode, params)
        return partial(basis.rotate, encoding.rx_matrix(pi / 2.0))
    epsilon = params.epsilon
    if epsilon is None:
        epsilon = pi / (4.0 * params.amplitude(which_mode))
    return bosonic.displacement_action(1j * epsilon, params.mode(which_mode))


def u_ev(which_mode: str, params: EncodingParams) -> OperatorMatrix:
    """CNOT with the ion as control, realized by a conditional displacement.

    eps is params.epsilon when that is set, else pi / (4 alpha), the scale
    at which D(i eps) rotates the cat qubit by pi/2.
    """
    layout = pair_layout(which_mode, params)
    kick = _kick(which_mode, params, "displacement")  # D(i eps)
    return OperatorMatrix(layout, (0, 1),
                          _pair_matrix(layout, partial(_phase_kick, kick=kick)))


VE_VARIANTS = ("ideal", "literal")
EV_VARIANTS = ("displacement", "ideal")


class Exchange(OperatorMatrix):
    """u_ve u_ev u_ve for one mode: a pair operator with its factors kept apart.

    kick is u_ev's action on the mode axis (gates._kick), never a d x d
    matrix; literal selects the u_ve build (gates._flip).  apply runs the
    factors on a state tensor; the dense pair matrix is formed only when
    .matrix is first read, by running them on the pair identity.
    """

    def __init__(self, layout: SpaceLayout,
                 kick: Callable[[np.ndarray], np.ndarray],
                 literal: bool = False) -> None:
        self.layout = layout
        self.acts_on = (0, 1)
        self.kick = kick
        self.literal = literal

    @cached_property
    def matrix(self) -> np.ndarray:
        return _pair_matrix(self.layout, partial(self.apply, mode_axis=0, ion_axis=1))

    def apply(self, psi: np.ndarray, mode_axis: int, ion_axis: int) -> np.ndarray:
        """u_ve u_ev u_ve on the (mode_axis, ion_axis) pair of a state tensor.

        psi has one axis per factor; any further axes (the columns of an
        operator, say) ride along.  Returns a new tensor of the same shape.
        u_ev is the electronic phase and then the kick on the ion = 1 half,
        8 d^2 flops per column of the other factors for D(i eps) and O(d)
        for the code-space rx(pi/2); u_ve is indexing only.
        """
        t = np.moveaxis(psi, (mode_axis, ion_axis), (0, 1))
        shape = t.shape
        x = np.array(t, dtype=np.complex128, order="C").reshape(shape[0], 2, -1)
        x = _flip(x, self.literal)
        x = _phase_kick(x, self.kick)
        x = _flip(x, self.literal)
        return np.moveaxis(x.reshape(shape), (0, 1), (mode_axis, ion_axis))


def u_swap(which_mode: str, params: EncodingParams, ve_variant: str,
           ev_variant: str) -> Exchange:
    """Three-step exchange of the mode qubit and its ion qubit."""
    if ve_variant not in VE_VARIANTS:
        raise ValueError(f"ve_variant must be one of {VE_VARIANTS}")
    if ev_variant not in EV_VARIANTS:
        raise ValueError(f"ev_variant must be one of {EV_VARIANTS}")
    return Exchange(pair_layout(which_mode, params),
                    _kick(which_mode, params, ev_variant),
                    literal=ve_variant == "literal")


def carrier_rotation(k: float, phase: float) -> OperatorMatrix:
    """Carrier-pulse rotation exp[-i k pi/2 (|1><0| e^{-i phase} + h.c.)].

    The generator is the equatorial axis (cos phase, -sin phase) on the Bloch
    sphere; conjugating sigma_z with the k = 1/2 pulse therefore lands on an
    equatorial measurement axis set by the pulse phase.  The generator G
    squares to 1, so the pulse is cos(k pi/2) 1 - i sin(k pi/2) G.
    """
    g = np.array(
        [[0.0, np.exp(1j * phase)], [np.exp(-1j * phase), 0.0]],
        dtype=np.complex128,
    )
    angle = k * pi / 2.0
    return OperatorMatrix(SpaceLayout((2,)), (0,),
                          cos(angle) * np.eye(2) - 1j * sin(angle) * g)


@dataclass
class RowReport:
    input_label: str
    target_label: str
    fidelity: float


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
        rows.append(RowReport(in_label, tgt_label, float(abs(amp) ** 2)))
    return GateReport(name, rows, unitarity_residual(gate))


CNOT_VE_TABLE = [("0L,0e", "0L,0e"), ("0L,1e", "0L,1e"),
                 ("1L,0e", "1L,1e"), ("1L,1e", "1L,0e")]
CNOT_EV_TABLE = [("0L,0e", "0L,0e"), ("0L,1e", "1L,1e"),
                 ("1L,0e", "1L,0e"), ("1L,1e", "0L,1e")]
SWAP_TABLE = [("0L,0e", "0L,0e"), ("0L,1e", "1L,0e"),
              ("1L,0e", "0L,1e"), ("1L,1e", "1L,1e")]


def report_u_ve(variant: str, which_mode: str, params: EncodingParams) -> GateReport:
    """Row-by-row comparison of a ve build against the intended CNOT action."""
    if variant not in VE_VARIANTS:
        raise ValueError(f"ve_variant must be one of {VE_VARIANTS}")
    gate = (u_ve_ideal if variant == "ideal" else u_ve_literal)(which_mode, params)
    return _report(gate, f"u_ve[{variant}]", which_mode, params, CNOT_VE_TABLE)


def report_u_ev(which_mode: str, params: EncodingParams) -> GateReport:
    gate = u_ev(which_mode, params)
    return _report(gate, "u_ev[displacement]", which_mode, params, CNOT_EV_TABLE)


def report_u_swap(which_mode: str, params: EncodingParams, ve_variant: str,
                  ev_variant: str) -> GateReport:
    gate = u_swap(which_mode, params, ve_variant, ev_variant)
    return _report(gate, f"u_swap[{ve_variant},{ev_variant}]",
                   which_mode, params, SWAP_TABLE)
