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
the CSV.

    python3 tests/output_matrix.py --against REV [--allow PROTOCOL]

compares this checkout's working tree with the revision REV.  It exports
REV with `git archive` into a temporary directory, leaving the working tree
and its index alone, and writes both trees' outputs, each with its own
tests/output_matrix.py in a fresh interpreter and a new directory, at one
BLAS thread and again at four.  It prints the cells that moved from REV to
the working tree, grouped by config (amplitude and delta aside) and column:
each group's class, the number of cells moved and the largest move.  A
column is physical unless RESIDUE_COLUMNS names it, or it is b_value and
both values are within ZERO_RESIDUE of its exact 0 (the literal builds):
those last bits move with any reordering of float operations.  The exit
code is 1 if a physical column moved in a protocol that no --allow names,
if a file or a cell is new or missing, or if the working tree's outputs
differ between the thread counts, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
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

ROOT = Path(__file__).resolve().parent.parent
# the columns whose last bits move with any reordering of float operations
# (ROADMAP Standing notes cite this list), and b_value where it is 0 exactly
RESIDUE_COLUMNS = ("trace_drift", "unitarity", "max_law_deviation")
ZERO_RESIDUE = {"b_value": 1e-12}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
THREAD_COUNTS = (1, 4)


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


def _split_cells(text: str) -> list[str]:
    """text split at its commas, but not at one inside brackets, as in
    u_swap[ideal,ideal]."""
    return re.split(r",(?![^\[]*\])", text)


def _split_pairs(text: str) -> list[tuple[str, str]]:
    """key=value pairs joined by commas (_cells); a key or a value may hold
    a comma inside brackets, as in u_swap[ideal,ideal], which splits no
    pair."""
    return [tuple(pair.split("=", 1)) for pair in _split_cells(text)]


def read_cells(outdir: Path) -> dict[str, dict[tuple[str, str], str]]:
    """Every cell of an output directory, by file name: {(row, column):
    text}.  A quantity,value CSV keys each row by its quantity."""
    out = {}
    for path in sorted(Path(outdir).iterdir()):
        cells = {}
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            # the writer quotes nothing: a comma inside brackets, as in
            # u_swap[ideal,ideal], splits no cell (_split_cells)
            header, *rows = map(_split_cells, text.splitlines())
            for i, row in enumerate(rows):
                if header == ["quantity", "value"]:
                    cells["", row[0]] = row[1]
                else:
                    cells.update(((f"row{i}", column), value)
                                 for column, value in zip(header, row))
        elif path.name == "jump-ensemble.txt":
            for line in text.splitlines():
                fields = line.split(" ")
                for pair in fields[3:]:
                    column, value = pair.split("=", 1)
                    cells[" ".join(fields[:3]), column] = value
        else:  # a config per line: its name, then key=value or part:pairs
            for line in text.splitlines():
                name, *parts = line.split(" ")
                for part in parts:
                    head, _, rest = part.partition(":")
                    if "=" in head:
                        column, value = part.split("=", 1)
                        cells[name, column] = value
                    else:
                        cells.update(((f"{name} {head}", column), value)
                                     for column, value in _split_pairs(rest))
        out[path.name] = cells
    return out


def _number(text: str) -> float | None:
    """A cell's value: float.hex where the text holds 0x (the results
    files), else a decimal (the CSVs' .12g cells, which float.fromhex would
    also accept, as hex digits); None for text that is no number."""
    try:
        return float.fromhex(text) if "0x" in text else float(text)
    except ValueError:
        return None


def cell_class(column: str, before: str, after: str) -> str:
    """"residue" for a column whose moves are rounding (RESIDUE_COLUMNS,
    or ZERO_RESIDUE's columns where both values are 0 to its tolerance),
    else "physical"."""
    if column in RESIDUE_COLUMNS:
        return "residue"
    values = (_number(before), _number(after))
    if column in ZERO_RESIDUE and None not in values and all(
            abs(v) <= ZERO_RESIDUE[column] for v in values):
        return "residue"
    return "physical"


def config_of(file: str, row: str) -> str:
    """The config a cell belongs to: its CSV's stem, or the name that opens
    its line (jump-ensemble for the ensemble lines)."""
    if file.endswith(".csv"):
        return file[:-len(".csv")]
    if file == "jump-ensemble.txt":
        return "jump-ensemble"
    return row.split(" ", 1)[0]


def compare(before: Path, after: Path) -> tuple[list[dict], list[str]]:
    """The cells that moved from one output directory to the other, and
    the files and cells that one has and the other lacks."""
    old, new = read_cells(before), read_cells(after)
    moved, unmatched = [], []
    for file in sorted(set(old) | set(new)):
        if file not in old or file not in new:
            unmatched.append(f"{'new' if file in new else 'missing'} file {file}")
            continue
        for key in sorted(set(old[file]) | set(new[file])):
            if key not in old[file] or key not in new[file]:
                side = "new" if key in new[file] else "missing"
                unmatched.append(f"{side} cell {file} {key}")
            elif old[file][key] != new[file][key]:
                row, column = key
                config = config_of(file, row)
                moved.append({"file": file, "row": row, "column": column,
                              "config": config,
                              "protocol": next((p for p in cli.PROTOCOLS
                                                if config.startswith(p)), config),
                              "before": old[file][key], "after": new[file][key],
                              "class": cell_class(column, old[file][key],
                                                  new[file][key])})
    return moved, unmatched


def verdict(moved: list[dict], unmatched: list[str],
            allow: tuple[str, ...] = ()) -> list[str]:
    """Why the comparison fails, if it does: each new or missing file or
    cell, and each physical move of a protocol that allow does not name."""
    return list(unmatched) + [
        f"physical move: {m['file']} {m['row']} {m['column']}"
        for m in moved if m["class"] == "physical" and m["protocol"] not in allow]


def _move(m: dict) -> float | None:
    before, after = _number(m["before"]), _number(m["after"])
    return None if None in (before, after) else abs(after - before)


def summary(moved: list[dict]) -> list[str]:
    """A Markdown table of the moved cells, one row per config (amplitude
    and delta aside), file kind, column and class."""
    groups: dict = {}
    for m in moved:
        kind = "csv" if m["file"].endswith(".csv") else m["file"]
        config = re.sub(r"-[ad][0-9.e+-]+(?=-|$)", "", m["config"])
        groups.setdefault((config, kind, m["column"], m["class"]), []).append(m)
    lines = ["| config | file | column | class | cells | max abs move |",
             "|---|---|---|---|---|---|"]
    for (config, kind, column, cls), cells in sorted(groups.items()):
        moves = [d for d in map(_move, cells) if d is not None]
        largest = f"{max(moves):.2g}" if moves else "-"
        lines.append(f"| {config} | {kind} | {column} | {cls} | {len(cells)} "
                     f"| {largest} |")
    return lines


def export(rev: str, where: Path) -> Path:
    """The files of revision rev, from git archive, under where."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(where, filter="data")
    return where


def write_tree(tree: Path, outdir: Path, threads: int, alphas) -> None:
    """tree's own output matrix, in a fresh interpreter at `threads` BLAS
    threads."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               **{var: str(threads) for var in BLAS_THREAD_VARS})
    argv = [sys.executable, str(tree / "tests" / "output_matrix.py"), str(outdir)]
    for alpha in alphas or ():
        argv += ["--alpha", repr(alpha)]
    subprocess.run(argv, env=env, cwd=tree, check=True,
                   stdout=subprocess.DEVNULL)


def against(rev: str, allow: tuple[str, ...], alphas) -> int:
    """Compare the working tree's outputs with rev's (the module
    docstring); the exit code."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": export(rev, Path(tmp, "base")), "change": ROOT}
        outs = {}
        for name, tree in trees.items():
            for threads in THREAD_COUNTS:
                outs[name, threads] = Path(tmp, f"{name}-{threads}")
                write_tree(tree, outs[name, threads], threads, alphas)
        for name in trees:
            moved, unmatched = compare(*(outs[name, t] for t in THREAD_COUNTS))
            if moved or unmatched:
                print(f"{name}: {len(moved) + len(unmatched)} cells differ "
                      f"between {THREAD_COUNTS} BLAS threads")
                if name == "change":
                    failures.append("the working tree's outputs depend on the "
                                    "BLAS thread count")
        moved, unmatched = compare(outs["base", 1], outs["change", 1])
    print(f"{rev} -> working tree: {len(moved)} cells moved, "
          f"{sum(m['class'] == 'physical' for m in moved)} of them physical")
    if moved:
        print("\n".join(summary(moved)))
    failures += verdict(moved, unmatched, allow)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("outdir", nargs="?",
                        help="directory for the CSVs, empty or missing")
    parser.add_argument("--alpha", type=float, action="append",
                        help="cat amplitude (repeatable; default 2, 3 and 4)")
    parser.add_argument("--against", metavar="REV",
                        help="compare the working tree's outputs with REV's")
    parser.add_argument("--allow", action="append", default=[],
                        metavar="PROTOCOL",
                        help="a protocol whose physical columns may move")
    args = parser.parse_args(argv)
    if args.against is not None:
        if args.outdir is not None:
            parser.error("--against writes to temporary directories; give no OUTDIR")
        return against(args.against, tuple(args.allow), args.alpha)
    if args.outdir is None:
        parser.error("give an OUTDIR, or --against REV")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
