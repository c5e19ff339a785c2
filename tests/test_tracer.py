"""The benchmark tracer (perfbench/tracer.py) wraps eiszeta functions and
PadicNumber dunders by name and reads a few attributes of their results; a
name deleted or renamed here, or a route count the benchmark predicts that
falls to zero, must fail tier-1, not only a traced benchmark run."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# install() rebinds module attributes, so it runs in a process of its own;
# the two traced calls reach the attributes the hooks read (a p-adic
# lp_series argument's state, an eigenform's coefficients)
TRACED = """
import sys
sys.path.insert(0, "perfbench")
from tracer import Tracer
Tracer().install()
from eiszeta import kubota, qexp
from eiszeta.padic import PadicContext, PadicNumber
ctx = PadicContext(5, 4)
kubota.lp_series(PadicNumber.from_int(3, ctx), 2, ctx)
qexp.eisenstein_critical(5, 4, 2, 4, ctx)
"""


def test_tracer_installs_over_every_name_it_wraps():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", TRACED], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# PREDICTED in perfbench/run.py requires these route counts to be nonzero on
# the traced zero_locus and scan_window runs: padic.exp_small and padic.mul
# calls from the L-value series, TeichCharacter.value calls from
# generalized_bernoulli under lp_interpolation (the constant-term check; the
# q-series read the Teichmuller lifts directly), and lp_series itself; one
# small call of each kind reaches them
ROUTES = """
import json, sys
sys.path.insert(0, "perfbench")
from tracer import Tracer
tracer = Tracer()
tracer.install()
from eiszeta import analyzer, kubota
from eiszeta.padic import PadicContext
kubota.irregular_scan(37, PadicContext(37, 4))
analyzer.analyze_point(5, 4, 2, precision=6, terms=30)
print(json.dumps(tracer.summary()))
"""


def test_traced_calls_make_the_route_counts_the_benchmark_predicts():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", ROUTES], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout)
    calls, counts = summary["calls"], summary["counts"]
    for name in ("padic.exp_small", "characters.value", "kubota.lp_series"):
        assert calls.get(name, 0) > 0, name
    assert counts.get("padic.mul.calls", 0) > 0
