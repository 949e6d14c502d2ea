"""Cold start: no command loads scipy.integrate, scipy.optimize or
scipy.stats (the package imports nothing from scipy but scipy.special, and
only ``specfun`` names that), importing the package loads neither
scipy.special nor multiprocessing, the commands that evaluate no
Gamma-family function (``ldp``, ``equilibrium``, ``clt --format csv``)
never load scipy.special, and the first quadrature, root solve or
scipy.special call of a fresh process gives the same bits as a warm one,
also when several threads make that first call at once."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circjacobi
from circjacobi import asymptotics, gammalaw, ldp, specfun

from test_golden import CASES, GOLDEN

SRC = str(Path(circjacobi.__file__).resolve().parents[1])
OTHER_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.stats")


def _python(args, cwd=None, timeout=300):
    """Run a fresh interpreter that imports circjacobi from this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


COMMANDS = """
import json, sys
import circjacobi, circjacobi.cli as cli
runs = [
    ["moments", "--n", "50", "--beta", "2", "--delta-re", "0.3", "--t-grid", "0.5:1.0:0.5",
     "--out", "m.csv"],
    ["sample", "--n", "8", "--beta", "2", "--delta-re", "0.5", "--samples", "1", "--out", "s.csv"],
    ["clt", "--n", "16", "--beta", "2", "--samples", "4", "--workers", "1", "--format", "csv",
     "--out", "c.csv"],
    ["clt", "--n", "16", "--beta", "2", "--samples", "4", "--workers", "1", "--format", "json",
     "--out", "c.json"],
    # eta = 0 rows on the linear and interior branches, eta != 0 rows too
    ["ldp", "--T", "0.5", "--xi-grid=-0.6:0.3:0.15", "--eta-grid=-0.2:0.2:0.2", "--out", "l.csv"],
    ["equilibrium", "--scaled-d-re", "0.5", "--samples", "8", "--out", "e.csv"],
    ["equilibrium", "--scaled-d-re", "0.5", "--format", "json", "--out", "e.json"],
    ["verify", "--checks", "11-equilibrium-circle,12-equilibrium-line,13-energy-duality"],
]
codes = [cli.main(argv) for argv in runs]
print(json.dumps({"codes": codes, "loaded": [m for m in %r if m in sys.modules]}))
"""


def test_every_command_leaves_integrate_optimize_and_stats_unloaded(tmp_path):
    out = _python(["-c", COMMANDS % (OTHER_SCIPY,)], cwd=tmp_path)
    report = json.loads(out.splitlines()[-1])
    assert report == {"codes": [0] * 8, "loaded": []}
    written = {"m.csv", "s.csv", "c.csv", "c.json", "l.csv", "e.csv", "e.line.csv", "e.json"}
    assert {p.name for p in tmp_path.iterdir()} == written
    branches = {line.split(",")[6] for line in (tmp_path / "l.csv").read_text().splitlines()[1:]}
    assert {"linear", "interior"} <= branches


def test_package_imports_only_scipy_special():
    """Every scipy import in the package names scipy.special, and only
    ``specfun`` imports it."""
    offenders = []
    for path in sorted(Path(circjacobi.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                base = node.module
                names = [f"{base}.{alias.name}" for alias in node.names] if base == "scipy" else [base]
            else:
                continue
            for name in names:
                top = name.split(".")
                if top[0] == "scipy" and (top[1:2] != ["special"] or path.name != "specfun.py"):
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []


# The first quadrature and root-solve users of a process: an eta = 0
# interior rate (the bracketed Newton root), a path action and a drifted
# energy rate (the graded rule).
FIRST_CALLS = """
from circjacobi import equilibrium, ldp
T, gam, rho = 0.7, 0.6, 0.5
pd, sd = ldp.optimal_trajectory(T, gam, rho)
values = [
    ldp.marginal_rate_h(ldp.RatePoint(0.5, -0.1, 0.0)).value,
    ldp.path_action(T, pd, sd, d=0.3 + 0.2j),
    equilibrium.energy_rate(equilibrium.mu_a_measure(0.5), 0.5 + 0j).rate,
]
"""

COLD = """
import json, sys
import circjacobi
loaded = [m for m in %r if m in sys.modules]
exec(%r)
print(json.dumps({"loaded": loaded, "values": [v.hex() for v in values]}))
"""


def test_first_quadrature_calls_match_warm_calls():
    report = json.loads(_python(["-c", COLD % (OTHER_SCIPY, FIRST_CALLS)]))
    warm = {}
    exec(FIRST_CALLS, warm)
    assert report["loaded"] == []
    assert report["values"] == [v.hex() for v in warm["values"]]
    assert ldp.marginal_rate_h(ldp.RatePoint(0.5, -0.1, 0.0)).branch is ldp.Branch.INTERIOR


LIGHT_COMMANDS = """
import json, sys
import circjacobi, circjacobi.cli as cli
imported = [m for m in ("scipy.special", "multiprocessing") if m in sys.modules]
runs = [
    ["clt", "--n", "16", "--beta", "2", "--samples", "4", "--workers", "1", "--format", "csv",
     "--out", "c.csv"],
    ["ldp", "--T", "0.5", "--xi-grid=-0.6:0.3:0.15", "--eta-grid=-0.2:0.2:0.2", "--out", "l.csv"],
    ["equilibrium", "--scaled-d-re", "0.5", "--samples", "8", "--out", "e.csv"],
    ["equilibrium", "--scaled-d-re", "0.5", "--format", "json", "--out", "e.json"],
]
codes = [cli.main(argv) for argv in runs]
print(json.dumps({"imported": imported, "codes": codes, "special": "scipy.special" in sys.modules}))
"""


def test_large_deviation_commands_leave_scipy_special_unloaded(tmp_path):
    report = json.loads(_python(["-c", LIGHT_COMMANDS], cwd=tmp_path).splitlines()[-1])
    assert report == {"imported": [], "codes": [0] * 4, "special": False}
    rows = (tmp_path / "l.csv").read_text().splitlines()[1:]
    assert {"linear", "interior"} <= {row.split(",")[6] for row in rows}
    assert {float(row.split(",")[2]) for row in rows} == {-0.2, 0.0, 0.2}


HEX = """
def hexes(value):
    parts = np.ravel(np.asarray(value, dtype=complex)).tolist()
    return [x.hex() for z in parts for x in (z.real, z.imag)]
"""

# One first call per route to scipy.special, each made in a fresh process.
FIRST_SPECIAL_CALLS = {
    "log_gamma-complex-array": "specfun.log_gamma(np.array([0.3 + 2j, -2.5 + 0.1j, 40 - 3j]))",
    "digamma-scalar": "specfun.digamma(2.5 - 1.5j)",
    "digamma-positive-real-array": "specfun.digamma(np.array([0.25, 3.0, 1e3]))",
    "digamma-complex-array": "specfun.digamma(np.array([0.5 + 1j, -1.5 + 0j, 2.0 + 0j]))",
    "cumulants": "(lambda c: [c.mean, *c.covariance.ravel(), c.fourth_bound])("
    "gammalaw.cumulants(gammalaw.CoefficientLaw(1.5, 0.3 + 0.2j)))",
    "xlogy": "ldp.path_functional_Lambda0(0.7, lambda tau: 0.4 * tau, lambda tau: 0.3)",
    "ndtr": "asymptotics._ks_normal(np.random.default_rng(5).normal(size=200), 1.2)",
}

FIRST_SPECIAL = """
import json, sys
import numpy as np
from circjacobi import asymptotics, gammalaw, ldp, specfun
exec(%r)
before = "scipy.special" in sys.modules
value = %s
print(json.dumps({"before": before, "hex": hexes(value)}))
"""


@pytest.mark.parametrize("name", sorted(FIRST_SPECIAL_CALLS))
def test_first_special_calls_match_warm_calls(name):
    expr = FIRST_SPECIAL_CALLS[name]
    report = json.loads(_python(["-c", FIRST_SPECIAL % (HEX, expr)]))
    warm = {"np": np, "asymptotics": asymptotics, "gammalaw": gammalaw, "ldp": ldp,
            "specfun": specfun}
    exec(HEX, warm)
    assert report == {"before": False, "hex": warm["hexes"](eval(expr, warm))}


THREADED_FIRST_CALLS = """
import json, sys, threading
import numpy as np
from circjacobi import specfun
exec(%r)
before = "scipy.special" in sys.modules
args = %r
values = [None] * len(args)
barrier = threading.Barrier(len(args))

def first(i):
    barrier.wait()
    values[i] = specfun.digamma(args[i])

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first, args=(i,)) for i in range(len(args))]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(120)
import scipy.special
print(json.dumps({"before": before, "alive": any(t.is_alive() for t in threads),
                  "bound": specfun._special is scipy.special, "hex": hexes(values)}))
"""


def test_concurrent_first_digamma_calls_match_warm_calls():
    args = [0.75, 2.5 - 1.5j, -0.5, 3.0 + 0j]
    report = json.loads(_python(["-c", THREADED_FIRST_CALLS % (HEX, args)]))
    warm = {"np": np}
    exec(HEX, warm)
    expected = warm["hexes"]([specfun.digamma(z) for z in args])
    assert report == {"before": False, "alive": False, "bound": True, "hex": expected}


def test_python_dash_m_writes_golden_bytes(tmp_path):
    name = "moments_n50.csv"
    _python(["-m", "circjacobi", *CASES[name], "--out", str(tmp_path / name)])
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
