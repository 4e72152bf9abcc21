#!/usr/bin/env python3
"""Compare the periodic-interval schedule's closed-form latency at its
real-valued optimum against the exact symmetric bound over a duty-cycle
sweep, and report the normalized RMS gap."""

import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ndlab import bounds as bd

OMEGA = 32
STEPS = 1000


def main() -> None:
    out = Path(__file__).resolve().parent / "pi0m_vs_symmetric.csv"
    rows, nrmse = bd.pi0m_vs_symmetric(OMEGA, 1, steps=STEPS)
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eta", "symmetric_exact", "pi0m_optimal", "relative_gap"])
        w.writerows([float(x) for x in row] for row in rows)
    print(f"wrote {out.name}; NRMSE = {nrmse * 100:.3f}%")


if __name__ == "__main__":
    main()
