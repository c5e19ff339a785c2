"""The benchmark tracer (perfbench/tracer.py) wraps eiszeta functions and
PadicNumber dunders by name and reads a few attributes of their results; a
name deleted or renamed here must fail tier-1, not only a traced benchmark run."""

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
