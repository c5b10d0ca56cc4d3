#!/usr/bin/env python3
"""Regenerate the headline numbers and figure data in one go.

Runs the ``ionsim`` subcommands that write the CSV tables under results/
(override with --outdir) and prints the scalar benchmarks read back from
them: the scaled Rabi factor at the ground sector, shared-temperature
occupations with the channel-fidelity triple, the teleportation-fidelity
surface floors, and the ideal swap table.
"""

import argparse
import csv
import sys
from pathlib import Path

from ionsim import cli


def tables(points: int) -> dict[str, list[str]]:
    """CSV file name -> ionsim command line that writes it."""
    grid = f"nbar=0:0.2:{points},eta=0.05:0.25:{points}"
    return {
        "rabi_surface.csv": ["rabi-surface"],
        "channel_fidelity_eta_0.15.csv": ["channel-fidelity", "--eta", "0.15"],
        "channel_fidelity_eta_0.2.csv": ["channel-fidelity", "--eta", "0.2"],
        "fidelity_surface_eps_0.0.csv": ["fidelity-surface", "--eps", "0.0", "--grid", grid],
        "fidelity_surface_eps_0.05.csv": ["fidelity-surface", "--eps", "0.05", "--grid", grid],
        "swap_ideal.csv": ["swap"],
    }


def summary(name: str, rows: list[dict]) -> str:
    if name.startswith("rabi"):
        return f"|scaled Rabi|(0,0) = {abs(float(rows[0]['rabi'])):.5f}"
    if name.startswith("channel"):
        return ", ".join(f"nbar={r['nbar']}: nbar_r={float(r['nbar_r']):.4f} "
                         f"F={float(r['fidelity']):.4f}" for r in rows)
    if name.startswith("fidelity"):
        return f"min F = {min(float(r['fidelity']) for r in rows):.4f}"
    return ", ".join(f"{r['outcome']}->{r['herald']}" for r in rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--points", type=int, default=20, help="surface grid points per axis")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name, argv in tables(args.points).items():
        path = outdir / name
        # swap prints its report as well as writing the table
        if cli.main([*argv, "--out", str(path)]) != 0:
            return 1
        rows = list(csv.DictReader(line for line in path.read_text().splitlines()
                                   if not line.startswith("#")))
        print(f"{name}: {summary(name, rows)}")
    print(f"tables written to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
