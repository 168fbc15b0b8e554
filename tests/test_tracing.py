"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
attribute name, such as ``cli.drop``, ``learner.teacher_respond`` and
``staged.schedule_for``. A rename inside the package would break traced
runs without failing any other test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_the_package():
    # install patches module globals for good, so it runs in a child;
    # a wrapped name the package lacks raises AttributeError there
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracer; tracer.install(tracer.Tracer())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
