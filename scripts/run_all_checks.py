#!/usr/bin/env python3
"""Drive every CLI subcommand once with the bundled example configs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _child_env() -> dict:
    """The caller's environment with this tree's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def main() -> int:
    out_dir = ROOT / "results"
    failures = []
    for config in sorted((ROOT / "configs").glob("*.json")):
        name = config.stem
        print(f"== {name}")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "crossflat",
                "--config",
                str(config),
                "--out",
                str(out_dir / name),
            ],
            env=_child_env(),
            capture_output=True,
            text=True,
        )
        if proc.stderr:
            print(proc.stderr.strip())
        command = json.loads(config.read_text())["command"].replace("-", "_")
        summary_path = out_dir / name / f"{command}_summary.json"
        if summary_path.exists():
            summary = json.loads(summary_path.read_text())
            print(f"   exit {proc.returncode}, passed={summary['passed']}")
        else:
            print(f"   exit {proc.returncode}, no summary written")
        if proc.returncode not in (0,):
            failures.append((name, proc.returncode))
    if failures:
        print("failures:", failures)
        return 1
    print("all configs passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
