#!/usr/bin/env python3
"""Compare the periodic-interval schedule's closed-form latency at its
real-valued optimum against the exact symmetric bound over a duty-cycle
sweep, and report the normalized RMS gap."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ndlab import bounds as bd
from ndlab.schedule import write_csv

OMEGA = 32


def main() -> None:
    out = Path(__file__).resolve().parent / "pi0m_vs_symmetric.csv"
    rows, nrmse = bd.pi0m_vs_symmetric(OMEGA, 1)
    with out.open("w", newline="") as fh:
        write_csv(
            ("eta", "symmetric_exact", "pi0m_optimal", "relative_gap"),
            (tuple(map(float, row)) for row in rows),
            fh,
        )
    print(f"wrote {out.name}; NRMSE = {nrmse * 100:.3f}%")


if __name__ == "__main__":
    main()
