"""The benchmark harness's own self-test passes against this library.

perfbench/spans.py pins library names (private ones such as
`towers._level_candidates` and `field._BaseOps.mul` included), so a rename
that breaks the harness fails here.  The self-test runs in a subprocess
because `spans.install` wraps module attributes in place.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
