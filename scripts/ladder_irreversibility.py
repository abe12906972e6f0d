#!/usr/bin/env python3
"""Tabulate coherence transport through the ladder bath against temperature:
downward transport stays perfect while upward transport decays as
exp(-beta dE), matching the covariant-channel bound.
"""
import json
import math
from pathlib import Path

import numpy as np

from thermops.coherence import ladder_simulate, mode_shift_bound
from thermops.core import DensityMatrix, EnergySpectrum, GibbsContext

OUT = Path(__file__).resolve().parent / "out"
DE = 1.0


def coherent(entry, value=0.25):
    rho = np.eye(3, dtype=complex) / 3
    a, b = entry
    rho[a, b] = rho[b, a] = value
    return DensityMatrix(rho)


def main():
    OUT.mkdir(exist_ok=True)
    rows = []
    for beta in [0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0]:
        # bath depth scaled so the discarded thermal mass is negligible
        n_trunc = max(60, math.ceil(35.0 / (beta * DE)))
        down = ladder_simulate(coherent((2, 1)), DE, beta, n_trunc, "down")
        up = ladder_simulate(coherent((1, 0)), DE, beta, n_trunc, "up")
        ctx = GibbsContext(EnergySpectrum([0.0, DE, 2 * DE]), beta)
        tail = math.exp(-beta * DE * n_trunc) / (1 - math.exp(-beta * DE))
        rows.append(
            {
                "beta": beta,
                "n_trunc": n_trunc,
                "down_factor": abs(down.rho[1, 0]) / 0.25,
                "up_factor": abs(up.rho[2, 1]) / 0.25,
                "bound": mode_shift_bound(ctx, DE),
                "tail": tail,
            }
        )
    (OUT / "ladder_irreversibility.json").write_text(json.dumps(rows, indent=2))
    for r in rows:
        print(
            f"beta={r['beta']:<4} down={r['down_factor']:.12f} "
            f"up={r['up_factor']:.12f} bound={r['bound']:.12f}"
        )
        if abs(r["up_factor"] - r["bound"]) > r["tail"] + 1e-12:
            raise RuntimeError(f"upward transport misses the mode-shift bound at beta={r['beta']}")
        if abs(r["down_factor"] - 1.0) > r["tail"] + 1e-12:
            raise RuntimeError(f"downward transport is not perfect at beta={r['beta']}")


if __name__ == "__main__":
    main()
