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


def _run_with_tracer(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "benchmark"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", "import tracing; tracer = tracing.Tracer(); tracing.install(tracer)\n" + code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_tracer_installs_on_the_library():
    done = _run_with_tracer("")
    assert done.returncode == 0, done.stderr


def test_traced_check_tight_records_its_pebble_game():
    # sparsity.pebble_check_s reads 0 if check_tight stops calling the
    # public pebble_check
    done = _run_with_tracer(
        "from slcrigid import generate_random, symcheck\n"
        "graph = generate_random('c3', steps=10, seed=0).graph\n"
        "tracer.op = 'check'\n"
        "symcheck.check_tight(graph)\n"
        "names = {span[0]: i for i, span in enumerate(tracer.spans)}\n"
        "assert tracer.spans[names['sparsity.pebble_check']][3] == names['symcheck.check_tight'], tracer.spans\n"
    )
    assert done.returncode == 0, done.stderr
