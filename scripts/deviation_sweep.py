#!/usr/bin/env python3
"""Sweep the relaxed-assumption latency bound against the ideal one.

Writes deviation_ideal.csv and deviation_nrf51822.csv next to this script
through ``nd-lab bounds --deviation`` and prints the observed deviation
ranges for both radio models.
"""

import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ndlab import RadioModel, Semantics
from ndlab import bounds as bd
from ndlab.cli import main as nd_lab

OMEGA = 32  # ticks (1 us each): a 4-byte beacon on a 1 Mbit/s radio
BETA_LO, BETA_HI = F(11, 20000), F(111, 2000)  # 0.055% .. 5.55%
K_LO, K_HI = 19, 1818  # reciprocal listening duty cycles in the same range


def sweep(overhead_us: int, path: Path) -> None:
    rc = nd_lab([
        "bounds", "--deviation", "--omega-us", str(OMEGA), "--beta-steps", "40",
        "--beta-lo", str(BETA_LO), "--beta-hi", str(BETA_HI),
        "--k-lo", str(K_LO), "--k-hi", str(K_HI),
        "--doTx-us", str(overhead_us), "--doRx-us", str(overhead_us), "--out", str(path),
    ])
    if rc:
        sys.exit(rc)
    radio = RadioModel(omega=OMEGA, d_oTx=overhead_us, d_oRx=overhead_us,
                       semantics=Semantics.CONTAINED)
    lo, hi = bd.relaxed_deviation_range(OMEGA, radio, BETA_LO, BETA_HI, K_LO, K_HI)
    print(f"{path.name}: deviation {float(lo) * 100:.3f}% .. {float(hi) * 100:.3f}%")


def main() -> None:
    here = Path(__file__).resolve().parent
    sweep(0, here / "deviation_ideal.csv")
    sweep(140, here / "deviation_nrf51822.csv")


if __name__ == "__main__":
    main()
