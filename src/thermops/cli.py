"""Command-line front end.

Usage:
    thermops check --context ctx.json --x x.json --y y.json
    thermops curve --context ctx.json --state x.json --out curve.csv
    thermops construct --context ctx.json --x x.json --y y.json --d-max 128
    thermops free-energies --context ctx.json --state x.json
    thermops work det --context ctx.json --state x.json --oracle
    thermops modes --context ctx.json --state rho.json
    thermops asymmetry --context ctx.json --state rho.json --alpha 2
    thermops split --context ctx.json --state rho.json
    thermops qubit-region --context ctx.json --p 0.4 --c 0.3 --out region.csv
    thermops cp-bound --context ctx.json --state rho.json --pmatrix P.json --xp 1 --yp 2
    thermops simulate-bath --context ctx.json --target G.json --ge 1000
    thermops ladder --state rho.json --de 1 --beta 1 --n-trunc 40 --direction down

Input files: context {"energies": [...], "beta": r}; states either
{"diag": [...]} or {"re": [[...]], "im": [[...]]}; matrices {"entries": [[...]]}.
Results are printed as JSON on stdout (12 significant digits); curves and
point sweeps are written as CSV with header "x,y" to --out. Exit codes:
0 success, 1 domain error (unreachable / infeasible / ordering), 2 input error.
"""
from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import coherence, divergences, thermo, work
from .core import (
    DensityMatrix,
    EnergySpectrum,
    GibbsContext,
    PLCurve,
    ProbVec,
    StochasticMatrix,
    population_of,
)
from .errors import InvalidInputError, ThermopsError

EXIT_DOMAIN = 1
EXIT_INPUT = 2


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_context(path: str, beta_override: float | None = None) -> GibbsContext:
    doc = _load_json(path)
    if "energies" not in doc:
        raise InvalidInputError(f"{path}: missing field 'energies'")
    beta = beta_override if beta_override is not None else doc.get("beta")
    if beta is None:
        raise InvalidInputError(f"{path}: missing field 'beta' (or pass --beta)")
    return GibbsContext(EnergySpectrum(doc["energies"]), float(beta))


def load_state(path: str) -> DensityMatrix:
    doc = _load_json(path)
    if "diag" in doc:
        return DensityMatrix.from_diag(doc["diag"])
    if "re" in doc:
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc.get("im", np.zeros_like(re)), dtype=float)
        return DensityMatrix(re + 1j * im)
    raise InvalidInputError(f"{path}: state needs 'diag' or 're'/'im' fields")


def load_prob_vec(path: str) -> ProbVec:
    return population_of(load_state(path))


def load_matrix(path: str) -> StochasticMatrix:
    doc = _load_json(path)
    if "entries" not in doc:
        raise InvalidInputError(f"{path}: missing field 'entries'")
    return StochasticMatrix(np.asarray(doc["entries"], dtype=float))


def _fmt(value):
    """Round-trip floats through 12 significant digits for deterministic output."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value == 0:
            return 0.0
        return float(f"{value:.12g}")
    if isinstance(value, (np.floating,)):
        return _fmt(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _fmt(value.tolist())
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def emit(doc: dict):
    click.echo(json.dumps(_fmt(doc), sort_keys=True))


def write_curve_csv(path: str, points):
    # curves are data for downstream comparison, not display: full precision
    # (the 12-digit rule applies to JSON results only)
    with open(path, "w") as fh:
        fh.write("x,y\n")
        for x, y in points:
            fh.write(f"{x:.17g},{y:.17g}\n")


def _complex_doc(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


class _Cli(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InvalidInputError as exc:
            emit({"error": type(exc).__name__, "message": str(exc)})
            sys.exit(EXIT_INPUT)
        except ThermopsError as exc:
            doc = {"error": type(exc).__name__, "message": str(exc)}
            extra = getattr(exc, "approx_error", None)
            if extra is not None:
                doc["approx_error"] = extra
            emit(doc)
            sys.exit(EXIT_DOMAIN)


@click.group(cls=_Cli)
def main():
    """Ordering checks, matrix synthesis, free energies, work and coherence
    bounds for small thermal systems."""


def _positive(ctx, param, value):
    if value is not None and value <= 0:
        raise click.BadParameter("must be positive")
    return value


_context_opt = click.option("--context", "context_path", required=True, help="context JSON file")
_beta_opt = click.option("--beta", type=float, default=None, help="override beta from the file")
_eps_opt = click.option(
    "--epsilon",
    type=float,
    default=1e-9,
    show_default=True,
    callback=_positive,
    help="ordering tolerance",
)


@main.command()
@_context_opt
@click.option("--x", "x_path", required=True, help="initial state JSON")
@click.option("--y", "y_path", required=True, help="target state JSON")
@_beta_opt
@_eps_opt
@click.option("--laws/--no-laws", default=False, help="include the full violation table")
@click.option("--lp-cross-check", is_flag=True, help="also run the LP feasibility oracle")
def check(context_path, x_path, y_path, beta, epsilon, laws, lp_cross_check):
    """Decide thermo-majorisation between two states (both directions)."""
    ctx = load_context(context_path, beta)
    x, y = load_prob_vec(x_path), load_prob_vec(y_path)
    doc = {
        "thermo_majorizes": thermo.thermo_majorizes(x, y, ctx, epsilon),
        "reverse": thermo.thermo_majorizes(y, x, ctx, epsilon),
        "alpha_laws": None,  # undefined at infinite temperature
    }
    if ctx.beta > 0:
        verdict = divergences.second_laws_check(x, y, ctx)
        doc["alpha_laws"] = {
            "passed": verdict.passed,
            "n_violations": len(verdict.violations),
            "strict_count": verdict.strict_count,
            "nonstrict_count": verdict.nonstrict_count,
        }
        if laws:
            doc["alpha_laws"]["alpha_grid"] = list(verdict.alpha_grid)
            doc["alpha_laws"]["violations"] = [list(v) for v in verdict.violations]
    if lp_cross_check:
        doc["lp_feasible"] = thermo.feasibility_lp_oracle(x, y, ctx.gibbs)
    emit(doc)


@main.command()
@_context_opt
@click.option("--state", "state_path", required=True)
@_beta_opt
@click.option("--out", "out_path", required=True, help="CSV output path")
def curve(context_path, state_path, beta, out_path):
    """Write the thermo-majorisation curve of a state as CSV."""
    ctx = load_context(context_path, beta)
    x = load_prob_vec(state_path)
    c = thermo.thermo_curve(x, ctx)
    write_curve_csv(out_path, c.points)
    emit({"points": len(c.points), "Z": ctx.Z, "end": list(c.end()), "out": out_path})


@main.command()
@_context_opt
@click.option("--x", "x_path", required=True)
@click.option("--y", "y_path", required=True)
@_beta_opt
@_eps_opt
@click.option(
    "--d-max", type=int, default=128, show_default=True, help="denominator cap of the reported embedding"
)
def construct(context_path, x_path, y_path, beta, epsilon, d_max):
    """Synthesise a Gibbs-stochastic matrix mapping x to y.

    The map fixes the thermal vector itself; d, D and approx_error report the
    paper's rational embedding g ~ d/D with D <= d-max, which the map does
    not use."""
    ctx = load_context(context_path, beta)
    x, y = load_prob_vec(x_path), load_prob_vec(y_path)
    g = thermo.construct_gibbs_stochastic(x, y, ctx, d_max, epsilon)
    spec = thermo.rationalize(ctx, d_max)
    emit(
        {
            "matrix": g.entries.tolist(),
            "d": spec.d.tolist(),
            "D": spec.D,
            "approx_error": spec.approx_error,
            "map_residual": float(np.max(np.abs(g.entries @ x.p - y.p))),
            "fixed_point_residual": float(np.max(np.abs(g.entries @ ctx.gibbs.p - ctx.gibbs.p))),
        }
    )


@main.command("free-energies")
@_context_opt
@click.option("--state", "state_path", required=True)
@_beta_opt
@click.option("--alpha-grid", default=None, help="JSON list of alpha values")
def free_energies(context_path, state_path, beta, alpha_grid):
    """Table of generalized free energies F_alpha plus the Burg free energy."""
    ctx = load_context(context_path, beta)
    x = load_prob_vec(state_path)
    grid = json.loads(alpha_grid) if alpha_grid else divergences.default_alpha_grid()
    *values, burg = divergences.free_energies(x, ctx, [*grid, divergences.BURG])
    emit(
        {
            "alpha_grid": grid,
            "free_energies": [list(row) for row in zip(grid, values)],
            "burg": burg,
            "kT": ctx.kT,
            "log_Z": float(np.log(ctx.Z)),
        }
    )


@main.command()
@click.argument("kind", type=click.Choice(["det", "for"]))
@_context_opt
@click.option("--state", "state_path", required=True)
@_beta_opt
@click.option("--oracle", is_flag=True, help="cross-check with the geometric breakpoint oracle")
@click.option(
    "--support-threshold",
    type=float,
    default=work.SUPPORT_THRESHOLD,
    show_default=True,
    help="population below this counts as unoccupied",
)
def work_cmd(kind, context_path, state_path, beta, oracle, support_threshold):
    """Deterministic extractable work (det) or work of formation (for)."""
    ctx = load_context(context_path, beta)
    x = load_prob_vec(state_path)
    if kind == "det":
        value = work.w_det(x, ctx, support_threshold)
        ref = work.w_det_geometric_oracle(x, ctx) if oracle else None
    else:
        value = work.w_for(x, ctx)
        ref = work.w_for_geometric_oracle(x, ctx) if oracle else None
    doc = {"kind": kind, "work": value, "average_work_reference": work.average_work_reference(x, ctx)}
    if ref is not None:
        doc["geometric_oracle"] = ref
        doc["oracle_gap"] = abs(value - ref)
    emit(doc)


main.add_command(work_cmd, name="work")


@main.command()
@_context_opt
@click.option("--state", "state_path", required=True)
@click.option("--delta", type=float, default=None, help="frequency clustering tolerance")
def modes(context_path, state_path, delta):
    """Decompose a state into coherence modes by transition frequency."""
    ctx = load_context(context_path)
    rho = load_state(state_path)
    md = coherence.mode_decompose(rho, ctx.spectrum, delta)
    emit(
        {
            "omegas": md.omegas(),
            "components": {f"{w:.12g}": _complex_doc(md.components[w]) for w in md.omegas()},
        }
    )


@main.command()
@_context_opt
@click.option("--state", "state_path", required=True)
@click.option("--alpha", type=float, default=None, help="also report the Renyi asymmetry")
def asymmetry(context_path, state_path, alpha):
    """Asymmetry (entropy gained under dephasing) and optional variants."""
    ctx = load_context(context_path)
    rho = load_state(state_path)
    doc = {
        "asymmetry": coherence.asymmetry(rho, ctx.spectrum),
        "qfi": coherence.qfi(rho, ctx.spectrum),
    }
    if alpha is not None:
        doc["alpha"] = alpha
        doc["asymmetry_alpha"] = coherence.asymmetry_alpha(rho, ctx.spectrum, alpha)
    emit(doc)


@main.command()
@_context_opt
@click.option("--state", "state_path", required=True)
@_beta_opt
def split(context_path, state_path, beta):
    """Decompose the free energy above equilibrium into classical + coherent."""
    ctx = load_context(context_path, beta)
    rho = load_state(state_path)
    total, classical, coherent = coherence.free_energy_split(rho, ctx)
    emit(
        {
            "total": total,
            "classical": classical,
            "coherent": coherent,
            "identity_residual": abs(total - classical - coherent),
        }
    )


@main.command("qubit-region")
@_context_opt
@click.option("--p", type=float, required=True, help="initial ground population")
@click.option("--c", type=float, required=True, help="initial coherence magnitude")
@_beta_opt
@click.option("--samples", type=int, default=101, show_default=True)
@click.option("--out", "out_path", required=True, help="CSV output path (q, d_max)")
@click.option("--seed", type=int, default=0, show_default=True, help="seed for the verification sample")
@click.option("--verify", is_flag=True, help="re-derive sampled boundary points from explicit channels")
def qubit_region(context_path, p, c, beta, samples, out_path, seed, verify):
    """Sweep the reachable (population, coherence) boundary for a qubit."""
    ctx = load_context(context_path, beta)
    pts = coherence.qubit_reachable_boundary(p, c, ctx, samples)
    # p at the thermal population degenerates to a vertical segment; keep the
    # outermost point per population so the CSV stays strictly increasing in x
    best = {}
    for q, d in pts:
        best[round(q, 15)] = max(best.get(round(q, 15), 0.0), d)
    pts_sorted = sorted(best.items())
    write_curve_csv(out_path, pts_sorted)
    doc = {
        "samples": samples,
        "out": out_path,
        "bloch": [[2 * d, 2 * q - 1] for q, d in pts_sorted],  # (x, z) pairs
    }
    if verify:
        rng = np.random.default_rng(seed)
        worst = 0.0
        rho = DensityMatrix(np.array([[p, c], [c, 1 - p]], dtype=complex))
        for q, d in [pts[i] for i in rng.choice(len(pts), size=min(10, len(pts)), replace=False)]:
            ch = coherence.qubit_optimal_channel(p, q, ctx)
            out = ch.apply(rho)
            worst = max(worst, abs(abs(out.rho[0, 1]) - d), abs(out.rho[0, 0].real - q))
        doc["verify_residual"] = worst
    emit(doc)


@main.command("cp-bound")
@_context_opt
@click.option("--state", "state_path", required=True)
@click.option("--pmatrix", "p_path", required=True, help="classical action JSON")
@click.option("--xp", type=int, required=True)
@click.option("--yp", type=int, required=True)
def cp_bound_cmd(context_path, state_path, p_path, xp, yp):
    """Covariant coherence-transfer bound for one output entry."""
    ctx = load_context(context_path)
    rho = load_state(state_path)
    p = load_matrix(p_path)
    emit({"xp": xp, "yp": yp, "bound": coherence.cp_bound(p, rho, ctx.spectrum, xp, yp)})


@main.command("simulate-bath")
@_context_opt
@click.option("--target", "target_path", required=True, help="target Gibbs-stochastic matrix JSON")
@_beta_opt
@click.option("--ge", "g_e", type=int, default=1000, show_default=True, help="degeneracy scale")
def simulate_bath(context_path, target_path, beta, g_e):
    """Realise a Gibbs-stochastic matrix from one degenerate bath block."""
    ctx = load_context(context_path, beta)
    target = load_matrix(target_path)
    induced, residual = thermo.bath_model_simulate(target, ctx, g_e)
    emit({"induced": induced.entries.tolist(), "residual": residual, "gE": g_e})


@main.command()
@click.option("--state", "state_path", required=True, help="three-level state JSON")
@click.option("--de", "d_e", type=float, default=1.0, show_default=True, help="level spacing")
@click.option("--beta", type=float, required=True)
@click.option("--n-trunc", type=int, default=40, show_default=True)
@click.option("--direction", type=click.Choice(["up", "down"]), required=True)
def ladder(state_path, d_e, beta, n_trunc, direction):
    """Transport coherence through the single-mode ladder bath."""
    rho = load_state(state_path)
    out = coherence.ladder_simulate(rho, d_e, beta, n_trunc, direction)
    emit(
        {
            "state": _complex_doc(out.rho),
            "direction": direction,
            "truncation_tail": coherence.ladder_truncation_tail(beta, d_e, n_trunc),
        }
    )


if __name__ == "__main__":
    main()
