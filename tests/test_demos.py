"""Every script in ``demos/`` runs to completion against the package in
``src/``, so a change to the public API cannot break one unnoticed."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    failed = []
    for script in demos:
        proc = subprocess.run(
            [sys.executable, str(script)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            failed.append(f"{script.name} exited {proc.returncode}:\n{proc.stderr}")
    assert not failed, "\n".join(failed)
