"""cli-oneshot: one `python -m thermops.cli <subcommand>` process per
question, cycling through all 12 subcommands on n = 2..8 inputs.

A CLI user pays interpreter start plus import on every question, so this is
the only workload that shows a start-up change. Input files are written
into the current directory (the run's scratch directory); the CLI runs
with `src` on PYTHONPATH because no console script is installed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import gen
import ref
import wl_coherence

NAME = "cli-oneshot"
WHY = ("a CLI user pays interpreter start plus import on every question; only this workload shows a "
       "start-up fix such as a lazy scipy.optimize import")
INDEX = 0
LIMIT_S = 20.0
# check, construct and work appear twice (feasible / infeasible, det / for):
# 15 slots, so with whole cycles the median and p90 fall mid-group.
SLOTS = [{"sub": s, "variant": v} for s, v in [
    ("check", "feasible"), ("curve", None), ("construct", "feasible"), ("free-energies", None),
    ("work", "det"), ("modes", None), ("asymmetry", None), ("split", None), ("qubit-region", None),
    ("cp-bound", None), ("simulate-bath", None), ("ladder", None), ("check", "infeasible"),
    ("construct", "infeasible"), ("work", "for"),
]]
SETUP = list(range(len(SLOTS)))
SUBCOMMANDS = sorted({s["sub"] for s in SLOTS})
QUBIT_SAMPLES = 21


def _ctx(e, beta):
    return {"energies": e.tolist(), "beta": beta}


def _rho(m):
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def make(rng, slot):
    sub, variant = slot["sub"], slot["variant"]
    n = int(rng.integers(2, 9))
    beta = float(rng.uniform(0.2, 3.0))
    q = {"sub": sub, "variant": variant, "rc": 0, "out": None}
    if sub in ("check", "curve", "free-energies", "work"):
        feasible = variant != "infeasible"
        n = max(n, 3) if not feasible else n
        e, beta, x, y = gen.pair(rng, n, beta, feasible, rounds=2, full_prob=0.3, min_gap=1e-4)
        q.update(e=e, beta=beta, x=x, y=y, feasible=feasible)
        if sub == "work":
            q["x"] = gen.prob_vec(rng, n, "rank_deficient" if variant == "det" else "dirichlet", gen.gibbs(e, beta))
        files = {"ctx.json": _ctx(e, beta), "x.json": {"diag": q["x"].tolist()}, "y.json": {"diag": y.tolist()}}
        args = {
            "check": ["check", "--context", "ctx.json", "--x", "x.json", "--y", "y.json", "--laws", "--lp-cross-check"],
            "curve": ["curve", "--context", "ctx.json", "--state", "x.json", "--out", "curve.csv"],
            "free-energies": ["free-energies", "--context", "ctx.json", "--state", "x.json"],
            "work": ["work", variant, "--context", "ctx.json", "--state", "x.json", "--oracle"],
        }[sub]
        q["out"] = "curve.csv" if sub == "curve" else None
    elif sub == "construct":
        n = min(n, 6)
        if variant == "feasible":
            e, beta, x, y, _ = gen.construct_pair(rng, n, "rational")
        else:
            e, beta, x, y = gen.pair(rng, max(n, 3), beta, False, min_gap=1e-4)
            q["rc"] = 1
        q.update(e=e, beta=beta, x=x, y=y)
        files = {"ctx.json": _ctx(e, beta), "x.json": {"diag": x.tolist()}, "y.json": {"diag": y.tolist()}}
        args = ["construct", "--context", "ctx.json", "--x", "x.json", "--y", "y.json", "--d-max", "128"]
    elif sub in ("modes", "asymmetry", "split"):
        kind = str(rng.choice(["random", "degenerate", "equispaced"]))
        e = gen.energies(rng, n, kind=kind)
        rho = gen.density_matrix(rng, n, int(rng.integers(1, n + 1)))
        q.update(e=e, beta=beta, rho=rho)
        files = {"ctx.json": _ctx(e, beta), "rho.json": _rho(rho)}
        args = [sub, "--context", "ctx.json", "--state", "rho.json"]
        if sub == "asymmetry":
            q["alpha"] = float(rng.choice([0.5, 2.0]))
            args += ["--alpha", repr(q["alpha"])]
    elif sub == "qubit-region":
        e = np.array([0.0, float(rng.uniform(0.2, 3.0))])
        p = float(rng.uniform(0.02, 0.98))
        c = float(rng.uniform()) * math.sqrt(p * (1 - p))
        q.update(e=e, beta=beta, p=p, c=c, out="region.csv")
        files = {"ctx.json": _ctx(e, beta)}
        args = ["qubit-region", "--context", "ctx.json", "--p", repr(p), "--c", repr(c),
                "--samples", str(QUBIT_SAMPLES), "--out", "region.csv", "--verify", "--seed", "1"]
    elif sub == "cp-bound":
        n = min(n, 6)
        e = gen.energies(rng, n)
        kraus = gen.covariant_kraus(rng, e)
        pm = sum(np.abs(k) ** 2 for k in kraus)
        pm /= pm.sum(axis=0)
        rho = gen.density_matrix(rng, n, n)
        q.update(e=e, beta=beta, p=pm, rho=rho, xp=int(rng.integers(n)), yp=int(rng.integers(n)))
        files = {"ctx.json": _ctx(e, beta), "rho.json": _rho(rho), "p.json": {"entries": pm.tolist()}}
        args = ["cp-bound", "--context", "ctx.json", "--state", "rho.json", "--pmatrix", "p.json",
                "--xp", str(q["xp"]), "--yp", str(q["yp"])]
    elif sub == "simulate-bath":
        n = min(n, 6)
        e = gen.energies(rng, n, spread=float(rng.uniform(0.1, 0.45)))
        beta = float(rng.uniform(0.2, 2.0))
        target = gen.gibbs_stochastic(rng, gen.gibbs(e, beta), 2 * n)
        q.update(e=e, beta=beta, target=target, g_e=1000)
        files = {"ctx.json": _ctx(e, beta), "g.json": {"entries": target.tolist()}}
        args = ["simulate-bath", "--context", "ctx.json", "--target", "g.json", "--ge", "1000"]
    else:  # ladder
        lq = wl_coherence.make(rng, {"kind": "ladder", "n": 3, "n_trunc": 40,
                                     "direction": str(rng.choice(["up", "down"]))})
        q.update(lq, sub=sub)
        files = {"rho.json": _rho(lq["rho"])}
        args = ["ladder", "--state", "rho.json", "--de", repr(lq["de"]), "--beta", repr(lq["beta"]),
                "--n-trunc", "40", "--direction", lq["direction"]]
    q.update(files=files, args=args)
    return q


def prepare(q):
    """Write the question's input files into the current directory."""
    for name, doc in q["files"].items():
        with open(name, "w") as fh:
            json.dump(doc, fh)
    if q["out"] and os.path.exists(q["out"]):
        os.remove(q["out"])


def _read_out(q):
    if not q["out"]:
        return None
    with open(q["out"]) as fh:
        return fh.read()


def ask(q, tr):
    prepare(q)
    proc = tr.call(f"cli.process.{q['sub']}", _run, [sys.executable, "-m", "thermops.cli", *q["args"]])
    return {"rc": proc.returncode, "stdout": proc.stdout, "csv": _read_out(q)}


def _run(argv):
    # the timeout kills the child, so a hung question cannot stall the run
    return subprocess.run(argv, capture_output=True, text=True, timeout=LIMIT_S - 1)


def ask_inprocess(q):
    """The same question through thermops.cli.main in this process; returns
    (answer, seconds spent in main)."""
    from thermops.cli import main

    prepare(q)
    buf = io.StringIO()
    rc = 0
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            main(q["args"], standalone_mode=False)
        except SystemExit as exc:
            rc = exc.code
        elapsed = time.perf_counter() - t0
    return {"rc": rc, "stdout": buf.getvalue(), "csv": _read_out(q)}, elapsed


def _num(v):
    return float(v) if isinstance(v, str) else v


def check(q, a, chk):
    sub = q["sub"]
    fn = f"cli.{sub}"
    if not chk.expect(fn, a["rc"] == q["rc"], f"exit code {a['rc']}, stderr/stdout {a['stdout'][-200:]!r}"):
        return
    doc = json.loads(a["stdout"].strip().splitlines()[-1])
    e, beta = q.get("e"), q.get("beta")
    if sub == "check":
        x, y, feasible = q["x"], q["y"], q["feasible"]
        chk.expect(fn, doc["thermo_majorizes"] == feasible, f"verdict {doc['thermo_majorizes']}")
        chk.verdict(fn, doc["reverse"], ref.thermo_margin(y, x, e, beta))
        chk.expect(fn, doc["alpha_laws"]["passed"] == feasible, "second-law verdict")
        chk.count("thermo.feasibility_lp_oracle.disagreements", int(doc["lp_feasible"] != doc["thermo_majorizes"]))
        chk.expect(fn, isinstance(doc["lp_feasible"], bool), "no LP verdict")
    elif sub == "curve":
        rows = np.array([[float(v) for v in line.split(",")] for line in a["csv"].splitlines()[1:]])
        want = ref.thermal_curve(q["x"], e, beta)
        if chk.expect(fn, rows.shape == want.shape, f"{len(rows)} breakpoints"):
            chk.within(fn, float(np.max(np.abs(rows - want))), ref.BREAKPOINT)
        chk.close(fn, doc["Z"], float(np.exp(-beta * e).sum()))
    elif sub == "construct":
        if q["rc"] == 1:
            chk.expect(fn, doc.get("error") == "OrderingError", f"refusal {doc.get('error')}")
            return
        m = np.array(doc["matrix"])
        chk.within(fn, float(np.max(np.abs(m @ q["x"] - q["y"]))), ref.MAP_RESIDUAL)
        chk.expect(fn, doc["map_residual"] <= ref.MAP_RESIDUAL and doc["fixed_point_residual"] <= ref.MAP_RESIDUAL,
                   "reported residuals")
    elif sub == "free-energies":
        x = q["x"]
        grid = ref.alpha_grid()
        got = [_num(f) for _, f in doc["free_energies"]]
        chk.close(fn, [_num(al) for al, _ in doc["free_energies"]], grid)
        chk.close(fn, got, [ref.free_energy(x, e, beta, al) for al in grid])
        chk.close(fn, _num(doc["burg"]), ref.burg(x, e, beta))
    elif sub == "work":
        exact = (ref.w_det if q["variant"] == "det" else ref.w_for)(q["x"], e, beta)
        chk.close(fn, doc["work"], exact)
        chk.within(f"work.w_{q['variant']}_geometric_oracle", abs(doc["geometric_oracle"] - exact), ref.ORACLE_GAP)
    elif sub in ("modes", "asymmetry", "split"):
        a2 = {}
        if sub == "modes":
            a2["modes"] = {float(w): np.array(c["re"]) + 1j * np.array(c["im"]) for w, c in doc["components"].items()}
        elif sub == "asymmetry":
            a2.update(asymmetry=doc["asymmetry"], qfi=doc["qfi"], asymmetry_alpha=[doc["asymmetry_alpha"]],
                      alphas=(q["alpha"],))
        else:
            chk.within("coherence.free_energy_split", doc["identity_residual"], ref.IDENTITY)
            a2["split"] = [doc["total"], doc["classical"], doc["coherent"]]
        wl_coherence.check_state(chk, q["rho"], e, beta, a2, rounding=ref.VALUE)
    elif sub == "qubit-region":
        # a gauge, like the in-process saturation check (see README.md)
        chk.within("coherence.qubit_optimal_channel", doc["verify_residual"], ref.IDENTITY, gate=False)
        g = ref.gibbs_of(e, beta)
        want = ref.qubit_boundary(q["p"], q["c"], g[0], g[1], QUBIT_SAMPLES)
        rows = np.array([[float(v) for v in line.split(",")] for line in a["csv"].splitlines()[1:]])
        nearest = want[np.argmin(np.abs(want[:, 0][None, :] - rows[:, 0][:, None]), axis=1)]
        chk.within(fn, float(np.max(np.abs(rows - nearest))), ref.BREAKPOINT)
    elif sub == "cp-bound":
        chk.close(fn, doc["bound"], ref.cp_bound(q["p"], q["rho"], e, q["xp"], q["yp"]))
    elif sub == "simulate-bath":
        induced = np.array(doc["induced"])
        dist = float(np.max(np.abs(induced - q["target"])))
        chk.within("thermo.bath_model_simulate", dist, ref.bath_bound(len(e), q["g_e"]))
        chk.expect(fn, abs(dist - doc["residual"]) <= ref.VALUE, "reported residual")
    else:
        out = np.array(doc["state"]["re"]) + 1j * np.array(doc["state"]["im"])
        wl_coherence.check_ladder(chk, q, out, rounding=ref.VALUE)
