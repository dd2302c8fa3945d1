"""Truth tables of the mode-ion gates and of their exchange, in coherent states.

swap-report's reports run the steps of catbell.coherent on the four pair
inputs |C+->|i>, the cat code C+- = 2 N+- E_+- of one mode with its ion in
|i>, with no Fock truncation.  Two controlled-flip builds are provided for
the vibration-controlled gate u_ve (coherent._flip):

* u_ve[ideal] flips the ion on the odd part (|g> - |-g>)/2 of the mode: an
  exact CNOT with the mode's phonon parity as control.
* u_ve[literal] is the product exp(-i pi n sigma_y) exp(i pi n |1><1|)
  taken at face value.  exp(-i pi n sigma_y) = (-1)^n is not an electronic
  flip, so the product is exactly diag((-1)^n, 1) on the ion: the phonon
  parity on the ion-|0> part, which does not perform the flip its
  construction suggests.  Its report records how far each truth-table row
  lands from the intended action; reference.u_ve_literal_oracle evaluates
  the two exponentials as written, and the tests hold this build to it.

The electron-controlled gate u_ev is the conditional displacement
exp(i eps (a + a+) |1><1|) after exp(-i pi |1><1| / 2): the phase, then the
kick D(i eps)|g> = e^{i eps Re g}|g + i eps> (Mode.kick) on the ion's |1>
part.  A full logical flip needs the displacement-rotation angle 2 alpha
eps to equal pi/2, so the default scale is eps = pi/(4 alpha); the flipped
rows then reach the ideal targets with fidelity exp(-eps^2).  The trailing
electronic phase exactly cancels the i of the rotated branch, which is what
makes the three-gate sequence u_ve u_ev u_ve (coherent.exchange) an
exchange of the mode and ion qubits.  The kick is params.epsilon when that
is set, else the default; the ideal build of the exchange takes the exact
code-space rx(pi/2) in its place.

Each row's fidelity |<target|S|input>|^2 and the unitarity column come from
Mode.inner's closed-form overlaps: the unitarity is the step's isometry
residual on the four inputs, max |<S x_i|S x_j> - <x_i|x_j>|, rounding
residue of the exact maps.
"""

from __future__ import annotations

from collections.abc import Callable

from .coherent import EXCITED_PHASE, Mode, _flip, _kick_scale, exchange
from .params import EV_VARIANTS, VE_VARIANTS, EncodingParams

# the pair inputs |code> |ion>, in the form of swap-report's input and
# target columns
PAIR_LABELS = ("0L|0e", "0L|1e", "1L|0e", "1L|1e")

CNOT_VE_TABLE = [("0L|0e", "0L|0e"), ("0L|1e", "0L|1e"),
                 ("1L|0e", "1L|1e"), ("1L|1e", "1L|0e")]
CNOT_EV_TABLE = [("0L|0e", "0L|0e"), ("0L|1e", "1L|1e"),
                 ("1L|0e", "1L|0e"), ("1L|1e", "0L|1e")]
SWAP_TABLE = [("0L|0e", "0L|0e"), ("0L|1e", "1L|0e"),
              ("1L|0e", "0L|1e"), ("1L|1e", "1L|1e")]


def _mode(which_mode: str, params: EncodingParams) -> Mode:
    """The named mode's cat code, with the kick of the displacement build."""
    amplitude = params.amplitude(which_mode)
    return Mode(amplitude, _kick_scale(params, amplitude))


def _pair_inner(mode: Mode, x: tuple, y: tuple) -> complex:
    """<x|y> of two pair states (ion |0> ket, ion |1> ket)."""
    return mode.inner(x[0], y[0]) + mode.inner(x[1], y[1])


def _report(step: Callable[[tuple], tuple], name: str, mode: Mode,
            table: list[tuple[str, str]]) -> list[dict]:
    """swap-report's rows of a step on pair states, in its columns: one per
    (input, target) pair of table, its fidelity |<target|step|input>|^2, and
    the step's isometry residual on the four inputs, the same on every row."""
    inputs = []
    for label in PAIR_LABELS:
        s = 1 if label[:2] == "0L" else -1
        code = {(0.0, s): 2.0 * mode.norms[s]}
        inputs.append((code, {}) if label[3] == "0" else ({}, code))
    outputs = [step(x) for x in inputs]
    unitarity = max(abs(_pair_inner(mode, u, v) - _pair_inner(mode, x, y))
                    for u, x in zip(outputs, inputs)
                    for v, y in zip(outputs, inputs))
    col = PAIR_LABELS.index
    return [{"gate": name, "input": inp, "target": tgt,
             "fidelity": abs(_pair_inner(mode, inputs[col(tgt)],
                                         outputs[col(inp)])) ** 2,
             "unitarity": unitarity} for inp, tgt in table]


def report_u_ve(variant: str, which_mode: str, params: EncodingParams) -> list[dict]:
    """swap-report's rows of a ve build against CNOT_VE_TABLE."""
    if variant not in VE_VARIANTS:
        raise ValueError(f"ve_variant must be one of {VE_VARIANTS}")
    literal = variant == "literal"
    return _report(lambda x: _flip(x, literal), f"u_ve[{variant}]",
                   _mode(which_mode, params), CNOT_VE_TABLE)


def report_u_ev(which_mode: str, params: EncodingParams) -> list[dict]:
    """swap-report's rows of the kick build of u_ev against CNOT_EV_TABLE:
    the electronic phase, then D(i eps) on the ion's |1> part."""
    mode = _mode(which_mode, params)

    def step(x: tuple) -> tuple:
        zero, one = x
        return zero, mode.kick({key: EXCITED_PHASE * c for key, c in one.items()})
    return _report(step, "u_ev[displacement]", mode, CNOT_EV_TABLE)


def report_u_swap(which_mode: str, params: EncodingParams, ve_variant: str,
                  ev_variant: str) -> list[dict]:
    """swap-report's rows of the exchange u_ve u_ev u_ve against SWAP_TABLE."""
    if ve_variant not in VE_VARIANTS:
        raise ValueError(f"ve_variant must be one of {VE_VARIANTS}")
    if ev_variant not in EV_VARIANTS:
        raise ValueError(f"ev_variant must be one of {EV_VARIANTS}")
    mode = _mode(which_mode, params)
    literal, ideal = ve_variant == "literal", ev_variant == "ideal"
    return _report(lambda x: exchange(mode, [x], literal, ideal)[0],
                   f"u_swap[{ve_variant},{ev_variant}]", mode, SWAP_TABLE)
