"""Every script in ``demos/`` runs to completion against the package in
``src/``, so a change to the public API cannot break one unnoticed."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _env(**extra) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_demos_run():
    env = _env()
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


def test_ncl_demo_output_independent_of_string_hashing():
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "demos" / "06_ncl_hardness.py")], cwd=ROOT,
            env=_env(PYTHONHASHSEED=seed), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
