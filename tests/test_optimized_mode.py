"""Checks that must survive `python -O`, which strips `assert` statements."""
import ast
import json
import os
import pathlib
import subprocess
import sys

import thermops

SRC = pathlib.Path(thermops.__file__).parent
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

# Trips both consistency checks with the interpreter's asserts disabled:
# a verdict whose `passed` contradicts its violations, and a battery curve
# whose ground-battery reference has been skewed so the compression
# identity fails.
SCRIPT = """
import json, sys
from thermops import work
from thermops.core import EnergySpectrum, GibbsContext, PLCurve, ProbVec
from thermops.divergences import SecondLawsVerdict
from thermops.errors import InvalidInputError, ResolutionError

seen = {"optimize": sys.flags.optimize}
try:
    SecondLawsVerdict(passed=True, violations=((1.0, 0.5),), alpha_grid=(1.0,),
                      strict_count=0, nonstrict_count=0)
    seen["verdict"] = "accepted"
except InvalidInputError:
    seen["verdict"] = "raised"

ctx = GibbsContext(EnergySpectrum([0.0, 1.0, 2.0]), 1.2)
y = ProbVec([0.5, 0.3, 0.2])
work.battery_rescaled_curve(y, ctx, 0.7, excited=True)
real, calls = work.thermo_curve, []

def skewed(state, joint_ctx):
    curve = real(state, joint_ctx)
    calls.append(state)
    if len(calls) == 2:  # the ground-battery reference
        return PLCurve(curve.points * [1.0, 0.5])
    return curve

work.thermo_curve = skewed
try:
    work.battery_rescaled_curve(y, ctx, 0.7, excited=True)
    seen["battery"] = "accepted"
except ResolutionError:
    seen["battery"] = "raised"
print(json.dumps(seen))
"""


def test_consistency_checks_raise_under_dash_O():
    path = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == {
        "optimize": 1,
        "verdict": "raised",
        "battery": "raised",
    }


def test_library_has_no_assert_statements():
    """Neither the package nor the experiment scripts under scripts/ may
    check anything with `assert`."""
    paths = sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    assert len(paths) > len(list(SRC.glob("*.py")))
    found = [
        f"{path.parent.name}/{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
