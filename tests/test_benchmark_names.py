"""The per-layer benchmark (`perfbench/tracer.py`) keys its metrics on public
function names of the package; a refactor that drops one of them must fail
here rather than in a traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import renyiflow
from tracer import Tracer

tracer = Tracer()
tracer.install(renyiflow)
tracer.metrics(1, 1.0, 1.0, 0)
"""


def test_tracer_metrics_on_an_empty_trace():
    # a subprocess, because installing the tracer rebinds the package's functions
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(ROOT / "perfbench")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert "KeyError" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
