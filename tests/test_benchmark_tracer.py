"""The benchmark's span tracer wraps kinlab names by lookup; a renamed one breaks it."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_benchmark_tracer_finds_every_name_it_wraps():
    code = "import kinlab, spans; spans.install(kinlab)"
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "kinbench")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
