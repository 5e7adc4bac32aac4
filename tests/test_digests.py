"""Pinned result digests: every solve's bytes stay as they were recorded."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "data" / "digests.txt"


def test_run_digests_match_the_pinned_file():
    """``tools/run_digest.py --runs 20`` on this tree prints ``tests/data/digests.txt``.

    The file holds one SHA-256 per workload (ex1–ex8, 20 seeds each of
    ``many_rows`` and ``boxqp_dense`` from the cold start and again as
    ``solve(program)`` with no start, the first 20 draws of the QP family
    in ``tests/qp_family.py``, and 20 weighted entropies at n = 4 to 32,
    whose objectives do not fold) over every trace row, x, status,
    objective, infe and iteration count.  A change that moves any bit of
    any result fails here; a change meant to move results re-records the
    file, and says why, with

        python3 tools/run_digest.py . --runs 20 > tests/data/digests.txt
    """
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "run_digest.py"), str(ROOT), "--runs", "20"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == PINNED.read_text()
