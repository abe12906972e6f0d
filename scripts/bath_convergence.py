#!/usr/bin/env python3
"""Show the degenerate-bath realisation converging to its target: the induced
matrix from one constant-energy block approaches any Gibbs-stochastic target
as the degeneracy scale grows, with residual bounded by n / scale.
"""
import json
from pathlib import Path

import numpy as np

from thermops.core import EnergySpectrum, GibbsContext
from thermops.sampling import random_gibbs_stochastic
from thermops.thermo import bath_model_simulate

OUT = Path(__file__).resolve().parent / "out"
SCALES = [100, 316, 1000, 3162, 10_000, 31_623]


def main():
    OUT.mkdir(exist_ok=True)
    rng = np.random.default_rng(7)
    ctx = GibbsContext(EnergySpectrum([0.0, 0.2, 0.4]), 1.0)
    target = random_gibbs_stochastic(rng, ctx)
    rows = []
    for g_e in SCALES:
        _, residual = bath_model_simulate(target, ctx, g_e)
        rows.append({"gE": g_e, "residual": residual, "bound": 3 / g_e})
        print(f"gE={g_e:<6} residual={residual:.3e}  bound={3 / g_e:.3e}")
        if residual > 3 / g_e:
            raise RuntimeError(f"bath residual {residual:.3e} exceeds the bound 3/gE at gE={g_e}")
    (OUT / "bath_convergence.json").write_text(json.dumps(rows, indent=2))


if __name__ == "__main__":
    main()
