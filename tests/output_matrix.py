"""Write the CSV of every config of the fixed output comparison set.

Run from the repository root:

    python3 tests/output_matrix.py OUTDIR              # alpha 2, 3 and 4
    python3 tests/output_matrix.py OUTDIR --alpha 2    # one amplitude

The set is every protocol but full-pipeline at each amplitude at its
defaults (exact readout), and full-pipeline over both ve_variants and both
ev_variants, exact and sampled readout, at delta = 0, 0.1 and 1: 29 CSVs
per amplitude, 87 in all.  OUTDIR must be empty or missing, so that no CSV
of an earlier run, or of a config the set has dropped, passes for this
run's in a comparison.  Every config runs in this one
process through cli.execute, so the memoized stages are warm for most of
them, as in a sweep.  Beside them, jump-ensemble.txt holds the jump
sampler's output: criterion 06's loop (heated phi+ register, trajectories
projected on the logical basis) at alpha 2 and 3, modes a and b and three
master seeds, whatever --alpha says, as the flip and jump counts and the
bytes of the projected 4 x 4 mixture.  And full-pipeline-results.txt
holds every full-pipeline config's named results as float.hex, one line
per config, and protocol-results.txt every other config's rows and named
results, one line per config, so that a last-bit move the 12-digit CSVs
round away shows in a diff; both are read from a second run of the
config, which the memo's warm-equals-cold tests tie to the run that wrote
the CSV.  Two checkouts, or two BLAS thread counts, compare with `diff -r`
of their output directories.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from catbell import cli, encoding, hilbert, noise  # noqa: E402
from catbell.params import EV_VARIANTS, VE_VARIANTS, EncodingParams  # noqa: E402

ALPHAS = (2.0, 3.0, 4.0)
DELTAS = (0.0, 0.1, 1.0)
READOUTS = ("exact", "sampled")
ENSEMBLE_ALPHAS = (2.0, 3.0)
ENSEMBLE_SEEDS = (2718, 1801, 4294967295)
ENSEMBLE_TRAJECTORIES = 2000
ENSEMBLE_HEATING = noise.HeatingParams(1e-3, 10.0)


def configs(alphas=ALPHAS) -> dict[str, dict]:
    """The comparison set at the given amplitudes, by output name."""
    out = {}
    for alpha in alphas:
        enc = {"alpha": alpha}
        for protocol in cli.PROTOCOLS:
            if protocol != "full-pipeline":
                out[f"{protocol}-a{alpha:g}"] = {"protocol": protocol,
                                                 "encoding": enc}
        for ve in VE_VARIANTS:
            for ev in EV_VARIANTS:
                for mode in READOUTS:
                    for delta in DELTAS:
                        name = (f"full-pipeline-a{alpha:g}-{ve}-{ev}-{mode}"
                                f"-d{delta:g}")
                        out[name] = {"protocol": "full-pipeline",
                                     "encoding": enc,
                                     "noise": {"delta": delta},
                                     "bell": {"mode": mode},
                                     "gates": {"ve_variant": ve,
                                               "ev_variant": ev}}
    return out


def jump_ensemble(alpha: float, mode_index: int, master_seed: int) -> str:
    """One line of criterion 06's loop: flips, jumps and the bytes of the
    unnormalized projected mixture, in hex."""
    enc = EncodingParams.for_amplitudes(alpha)
    psi0 = encoding.bell_target("phi_plus", enc)
    ba, bb = encoding.logical_basis("a", enc), encoding.logical_basis("b", enc)
    ion = encoding.qubit_state(0)
    proj = np.stack([hilbert.tensor([x, y, ion, ion]).amps.conj()
                     for x in (ba.zero, ba.one) for y in (bb.zero, bb.one)])
    rho4 = np.zeros((4, 4), dtype=np.complex128)
    flips = jumps = 0
    for i in range(ENSEMBLE_TRAJECTORIES):
        res = noise.sample_trajectory(psi0, ENSEMBLE_HEATING,
                                      noise.trajectory_rng(master_seed, i),
                                      mode_index=mode_index)
        flips += res.parity_flipped
        jumps += res.n_jumps
        vec = proj @ res.final.amps
        rho4 += np.outer(vec, vec.conj())
    return (f"alpha={alpha:g} mode={'ab'[mode_index]} seed={master_seed} "
            f"flips={flips} jumps={jumps} rho4={rho4.tobytes().hex()}\n")


def _cells(record: dict) -> str:
    """A row or named results as key=value pairs, each float as float.hex
    and any other value (a gate name, a pair label, a null crossing) as
    str."""
    return ",".join(f"{k}={v.hex() if isinstance(v, float) else v}"
                    for k, v in record.items())


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("outdir", help="directory for the CSVs, empty or missing")
    parser.add_argument("--alpha", type=float, action="append",
                        help="cat amplitude (repeatable; default 2, 3 and 4)")
    args = parser.parse_args(argv)
    outdir = Path(args.outdir)
    if outdir.exists() and (not outdir.is_dir() or any(outdir.iterdir())):
        parser.error(f"OUTDIR {outdir} is not an empty directory; a file left "
                     "there by an earlier run would be compared as this run's")
    results, others = [], []
    for name, raw in configs(args.alpha or ALPHAS).items():
        cfg = cli.normalize_config(dict(raw, output={"path": name}))
        cli.execute(cfg, args.outdir)
        rows, named, _ = cli.RUNNERS[cfg["protocol"]](cfg)
        if cfg["protocol"] == "full-pipeline":
            results.append(" ".join([name] + [f"{k}={float(v).hex()}"
                                              for k, v in named.items()]) + "\n")
        else:
            others.append(" ".join(
                [name] + [f"row{i}:{_cells(row)}" for i, row in enumerate(rows)]
                + [f"results:{_cells(named)}"]) + "\n")
    Path(args.outdir, "full-pipeline-results.txt").write_text("".join(results))
    Path(args.outdir, "protocol-results.txt").write_text("".join(others))
    lines = [jump_ensemble(alpha, mode_index, seed)
             for alpha in ENSEMBLE_ALPHAS
             for mode_index in (encoding.MODE_A, encoding.MODE_B)
             for seed in ENSEMBLE_SEEDS]
    Path(args.outdir, "jump-ensemble.txt").write_text("".join(lines))


if __name__ == "__main__":
    main()
