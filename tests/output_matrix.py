"""Write the CSV of every config of the fixed output comparison set.

Run from the repository root:

    python3 tests/output_matrix.py OUTDIR              # alpha 2, 3 and 4
    python3 tests/output_matrix.py OUTDIR --alpha 2    # one amplitude

The set is every protocol at each amplitude, and full-pipeline over both
ve_variants and both ev_variants, exact and sampled readout, at delta = 0,
0.1 and 1: 29 CSVs per amplitude, 87 in all.  Every config runs in this one
process through cli.execute, so the memoized stages are warm for most of
them, as in a sweep.  Two checkouts, or two BLAS thread counts, compare
with `diff -r` of their output directories.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from catbell import cli  # noqa: E402
from catbell.gates import EV_VARIANTS, VE_VARIANTS  # noqa: E402

ALPHAS = (2.0, 3.0, 4.0)
DELTAS = (0.0, 0.1, 1.0)
READOUTS = ("exact", "sampled")


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


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("outdir", help="directory for the CSVs")
    parser.add_argument("--alpha", type=float, action="append",
                        help="cat amplitude (repeatable; default 2, 3 and 4)")
    args = parser.parse_args(argv)
    for name, raw in configs(args.alpha or ALPHAS).items():
        cfg = cli.normalize_config(dict(raw, output={"path": name}))
        cli.execute(cfg, args.outdir)


if __name__ == "__main__":
    main()
