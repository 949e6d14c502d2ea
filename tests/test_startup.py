"""Cold start: the commands that never integrate or solve start without
scipy.integrate, scipy.optimize and scipy.stats, and the first quadrature
or root solve of a fresh process gives the same bits as a warm one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import circjacobi
from circjacobi import ldp

from test_golden import CASES, GOLDEN

SRC = str(Path(circjacobi.__file__).resolve().parents[1])
LAZY = ("scipy.integrate", "scipy.optimize", "scipy.stats")


def _python(args, cwd=None):
    """Run a fresh interpreter that imports circjacobi from this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=300
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
]
codes = [cli.main(argv) for argv in runs]
print(json.dumps({"codes": codes, "loaded": [m for m in %r if m in sys.modules]}))
"""


def test_light_commands_leave_quadrature_and_stats_unloaded(tmp_path):
    report = json.loads(_python(["-c", COMMANDS % (LAZY,)], cwd=tmp_path))
    assert report == {"codes": [0, 0, 0], "loaded": []}
    assert {p.name for p in tmp_path.iterdir()} == {"m.csv", "s.csv", "c.csv"}


# The first quad/brentq users of a process: an eta = 0 interior rate (the
# brentq route), a path action and a drifted energy rate.
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
    report = json.loads(_python(["-c", COLD % (LAZY, FIRST_CALLS)]))
    warm = {}
    exec(FIRST_CALLS, warm)
    assert report["loaded"] == []
    assert report["values"] == [v.hex() for v in warm["values"]]
    assert ldp.marginal_rate_h(ldp.RatePoint(0.5, -0.1, 0.0)).branch is ldp.Branch.INTERIOR


def test_python_dash_m_writes_golden_bytes(tmp_path):
    name = "moments_n50.csv"
    _python(["-m", "circjacobi", *CASES[name], "--out", str(tmp_path / name)])
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
