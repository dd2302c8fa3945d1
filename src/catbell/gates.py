"""Entanglement-transfer gates between a vibrational mode and its ion.

Every gate is a step: a function that acts in place on axes (mode, ion) of
a (d, 2, ...) tensor, such as a register's Schmidt factor or a stack of pair
states.  Two controlled-flip builds are provided for the
vibration-controlled gate u_ve, both indexing on the odd Fock rows (_flip):

* u_ve[ideal] swaps the two ion slices: an exact CNOT with the mode's
  phonon parity as control.
* u_ve[literal] is the product exp(-i pi n sigma_y) exp(i pi n |1><1|)
  taken at face value.  exp(-i pi n sigma_y) = (-1)^n is not an electronic
  flip, so the product is exactly diag((-1)^n, 1) on the ion: it negates
  the ion-|0> slice and does not perform the flip its construction
  suggests.  Its report records how far each truth-table row lands from
  the intended action; reference.u_ve_literal_oracle evaluates the two
  exponentials as written, and the tests hold this build to it.

The electron-controlled gate u_ev (_phase_kick) is the conditional
displacement exp(i eps (a + a+) |1><1|) after exp(-i pi |1><1| / 2): it
multiplies the ion's |1> half by the phase and then applies the kick as an
action, never as a d x d matrix.  A full logical flip needs the
displacement-rotation angle 2*alpha*eps to equal pi/2, so the default scale
is eps = pi/(4 alpha); the flipped rows then reach the ideal targets with
fidelity exp(-eps^2).  The trailing electronic phase exactly cancels the i
of the rotated branch, which is what makes the three-gate sequence
u_ve u_ev u_ve an exchange of the mode and ion qubits.  The kick is
params.epsilon when that is set, else the default; the one params.epsilon,
validated by EncodingParams, is the kick of both modes, whatever their
amplitudes.  The kick is D(i eps) in the cached eigenbasis of a + a+
(bosonic.displacement_action, 8 d^2 flops per column of the other factors)
or, for the ideal build, the code-space rx(pi/2) as a rank-2 update
(LogicalBasis.rotate, O(d) per column).

u_swap returns the exchange as an Exchange, whose apply runs the three
steps and never a dense product.  swap-report's reports run each step once
on the stack of the four pair basis states; the one dense array they form
is the step run on the pair identity, for the unitarity column.  A report
of D(i eps) first holds the kicked cats to leak_tol (_check_kick).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bosonic, encoding
from .coherent import EXCITED_PHASE, RX_HALF_PI, _kick_scale
from .hilbert import unitarity_residual
from .params import EV_VARIANTS, VE_VARIANTS, EncodingParams, SpaceLayout


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
        return partial(basis.rotate, RX_HALF_PI)
    epsilon = _kick_scale(params, params.amplitude(which_mode))
    return bosonic.displacement_action(1j * epsilon, params.mode(which_mode))


def _check_kick(which_mode: str, params: EncodingParams) -> None:
    """bosonic.check_kicked_cats of the displacement build's kick."""
    amplitude = params.amplitude(which_mode)
    bosonic.check_kicked_cats(amplitude, _kick_scale(params, amplitude),
                              params.mode(which_mode))


@dataclass(frozen=True)
class Exchange:
    """u_ve u_ev u_ve for one mode, its factors kept apart.

    kick is u_ev's action on the mode axis (gates._kick), never a d x d
    matrix; literal selects the u_ve build (gates._flip).
    """

    kick: Callable[[np.ndarray], np.ndarray]
    literal: bool = False

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
    return Exchange(_kick(which_mode, params, ev_variant),
                    literal=ve_variant == "literal")


# the pair basis |code> |ion>, in the column order of _report's stack and in
# the form of swap-report's input and target columns
PAIR_LABELS = ("0L|0e", "0L|1e", "1L|0e", "1L|1e")


def _report(step: Callable[[np.ndarray], np.ndarray], name: str,
            which_mode: str, params: EncodingParams,
            table: list[tuple[str, str]]) -> list[dict]:
    """swap-report's rows of a step on axes (mode, ion), in its columns: one
    per (input, target) pair of table, its fidelity |<target|step|input>|^2.

    The step runs once on the (d, 2, 4) stack of the pair basis.  The
    unitarity, the same on every row, is read off the step's pair matrix.
    """
    layout = pair_layout(which_mode, params)
    basis = encoding.logical_basis(which_mode, params)
    states = np.zeros(layout.dims + (len(PAIR_LABELS),), dtype=np.complex128)
    for k, label in enumerate(PAIR_LABELS):
        code = basis.zero if label[:2] == "0L" else basis.one
        states[:, int(label[3]), k] = code.amps
    out = step(states.copy()).reshape(layout.total_dim, -1)
    states = states.reshape(layout.total_dim, -1)
    unitarity = unitarity_residual(_pair_matrix(layout, step))
    col = PAIR_LABELS.index
    return [{"gate": name, "input": inp, "target": tgt,
             "fidelity": float(abs(np.vdot(states[:, col(tgt)],
                                           out[:, col(inp)])) ** 2),
             "unitarity": unitarity} for inp, tgt in table]


CNOT_VE_TABLE = [("0L|0e", "0L|0e"), ("0L|1e", "0L|1e"),
                 ("1L|0e", "1L|1e"), ("1L|1e", "1L|0e")]
CNOT_EV_TABLE = [("0L|0e", "0L|0e"), ("0L|1e", "1L|1e"),
                 ("1L|0e", "1L|0e"), ("1L|1e", "0L|1e")]
SWAP_TABLE = [("0L|0e", "0L|0e"), ("0L|1e", "1L|0e"),
              ("1L|0e", "0L|1e"), ("1L|1e", "1L|1e")]


def report_u_ve(variant: str, which_mode: str, params: EncodingParams) -> list[dict]:
    """swap-report's rows of a ve build against CNOT_VE_TABLE."""
    if variant not in VE_VARIANTS:
        raise ValueError(f"ve_variant must be one of {VE_VARIANTS}")
    step = partial(_flip, literal=variant == "literal")
    return _report(step, f"u_ve[{variant}]", which_mode, params, CNOT_VE_TABLE)


def report_u_ev(which_mode: str, params: EncodingParams) -> list[dict]:
    """swap-report's rows of the kick build of u_ev against CNOT_EV_TABLE."""
    _check_kick(which_mode, params)
    kick = _kick(which_mode, params, "displacement")  # D(i eps)
    return _report(partial(_phase_kick, kick=kick), "u_ev[displacement]",
                   which_mode, params, CNOT_EV_TABLE)


def report_u_swap(which_mode: str, params: EncodingParams, ve_variant: str,
                  ev_variant: str) -> list[dict]:
    """swap-report's rows of the exchange u_swap against SWAP_TABLE."""
    if ev_variant == "displacement":
        _check_kick(which_mode, params)
    gate = u_swap(which_mode, params, ve_variant, ev_variant)
    return _report(partial(gate.apply, mode_axis=0, ion_axis=1),
                   f"u_swap[{ve_variant},{ev_variant}]",
                   which_mode, params, SWAP_TABLE)
