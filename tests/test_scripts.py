"""Smoke runs of the experiment scripts under ``scripts/`` at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_walk_profiles_writes_both_encoder_paths(tmp_path):
    out_dir = tmp_path / "profiles"
    out = run_script("run_walk_profiles.py", "--pairs", "2", "--steps", "11",
                     "--out-dir", str(out_dir), cwd=tmp_path)
    assert "gap statistic" in out
    for name in ("smooth", "histogram"):
        assert name in out
        assert (out_dir / f"{name}_path.svg").read_text().startswith("<svg")
