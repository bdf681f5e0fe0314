#!/usr/bin/env python3
"""Check that this tree's CLI gives the same outputs as another tree's.

    python scripts/compare_outputs.py <other-src>

<other-src> is the `src` directory of another checkout, typically the parent
commit.  Every bundled config in configs/, and every config of every
benchmark workload (perfbench/workloads.py) for seeds 101-105, runs through
`python -m crossflat` once with each tree's `src` on PYTHONPATH, at
`--threads 1` and at `--threads 2`.  The two trees' CSV and summary bytes,
exit codes and stderr must match.  Prints one line per difference and exits
1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(101, 106)
THREADS = (1, 2)

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def configs() -> list[tuple[str, dict]]:
    """(name, config) for every bundled config, then every workload config."""
    out = [(path.stem, json.loads(path.read_text())) for path in sorted((ROOT / "configs").glob("*.json"))]
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            out += [(f"{workload}-{seed}-{name}", config) for name, config in workloads.generate(workload, seed)]
    return out


def run(src: Path, config_path: Path, out_dir: Path, threads: int, command: str) -> tuple:
    """The exit code, stderr, CSV bytes and summary bytes of one CLI run."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "crossflat", "--config", str(config_path), "--out", str(out_dir),
            "--threads", str(threads)]
    proc = subprocess.run(argv, env=env, cwd=out_dir.parent, capture_output=True, text=True)
    slug = command.replace("-", "_")
    files = [out_dir / f"{slug}.csv", out_dir / f"{slug}_summary.json"]
    return (proc.returncode, proc.stderr, *(f.read_bytes() if f.exists() else None for f in files))


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "crossflat").is_dir():
        print("usage: python scripts/compare_outputs.py <other-src>", file=sys.stderr)
        return 2
    trees = {"other": Path(argv[0]).resolve(), "this": ROOT / "src"}
    fields = ("exit code", "stderr", "csv", "summary")
    differences = runs = 0
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for name, config in configs():
            config_path = scratch / f"{name}.json"
            config_path.write_bytes(workloads.dump(config))
            for threads in THREADS:
                results = {
                    tree: run(src, config_path, scratch / f"{name}-t{threads}-{tree}", threads, config["command"])
                    for tree, src in trees.items()
                }
                runs += 1
                differ = [f for f, a, b in zip(fields, results["other"], results["this"]) if a != b]
                if differ:
                    differences += 1
                    print(f"DIFF {name} --threads {threads}: {', '.join(differ)}")
    print(f"{runs} config runs compared, {differences} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
