"""The narrative scripts in demos/ run to completion and print their key
results."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for script, key_line in (
        ("lcd_certification.py", "criterion == oracle for all 24 twists"),
        ("evaluation_isomorphism.py", "exhaustive minimum sum-rank distance: 4 (bound: 4 )"),
        ("acd_mds_search.py", "subset fallback finds ['1', '4']: hull 0, d = 2"),
    ):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, (script, proc.stderr)
        assert key_line in proc.stdout, script
