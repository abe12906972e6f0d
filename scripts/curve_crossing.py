#!/usr/bin/env python3
"""Emit a pair of crossing thermal curves together with their standard free
energies: a state can have lower free energy than another and still be
unreachable from it, because the curves are incomparable.

Writes curve_x.csv / curve_y.csv and a summary JSON next to them.
"""
import json
import math
from pathlib import Path

from thermops.cli import write_curve_csv
from thermops.core import EnergySpectrum, GibbsContext, ProbVec
from thermops.divergences import free_energy_alpha, second_laws_check
from thermops.thermo import thermo_curve, thermo_majorizes

OUT = Path(__file__).resolve().parent / "out"


def main():
    OUT.mkdir(exist_ok=True)
    ctx = GibbsContext(EnergySpectrum([0.0, 1.0, 2.0]), 1.2)
    x = ProbVec([1 / 3, 1 / 3, 1 / 3])
    y = ProbVec([2 / 3, 1 / 3, 0.0])
    write_curve_csv(OUT / "curve_x.csv", thermo_curve(x, ctx).points)
    write_curve_csv(OUT / "curve_y.csv", thermo_curve(y, ctx).points)
    verdict = second_laws_check(x, y, ctx)
    summary = {
        "F1_x": free_energy_alpha(x, ctx, 1.0),
        "F1_y": free_energy_alpha(y, ctx, 1.0),
        "x_to_y": thermo_majorizes(x, y, ctx),
        "y_to_x": thermo_majorizes(y, x, ctx),
        "grid_violations": len(verdict.violations),
    }
    (OUT / "curve_crossing.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))
    if not (summary["F1_x"] > summary["F1_y"] and not summary["x_to_y"]):
        raise RuntimeError("expected a free-energy drop from x to y together with an infeasible transition")
    print("standard free energy drops, yet the transition is infeasible")


if __name__ == "__main__":
    main()
