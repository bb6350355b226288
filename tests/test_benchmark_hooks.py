"""The benchmark's tracer still finds every function it wraps.

``benchmark/tracing.py`` wraps library functions by name for
``benchmark/run.py --trace 1``; a name removed or renamed in ``src`` would
only show when that run fails.  Installing the tracer in a child process
checks every name at once.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_library():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "benchmark"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
