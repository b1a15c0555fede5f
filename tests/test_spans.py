"""The benchmark's tracer (``perfbench/spans.py``) must find every
function it wraps: a rename or deletion in ``src/bittp`` that leaves one
of its ``TARGETS`` behind breaks ``perfbench/run.py --trace 1``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_every_target():
    # A subprocess, because install patches the bittp modules in place.
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "import spans\n"
        "spans.install(spans.Tracer())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
