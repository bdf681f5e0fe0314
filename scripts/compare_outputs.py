#!/usr/bin/env python3
"""Check that this tree's CLI gives the same outputs as another tree's.

    python scripts/compare_outputs.py <other-src>

<other-src> is the `src` directory of another checkout, typically the parent
commit.  Every bundled config in configs/, every config of every benchmark
workload (perfbench/workloads.py) for seeds 101-105, a few `opnorm` probes
at odd and non-integer p and on sphere kernels (odd degrees, whose kernel
does not fold onto half the circle, and p = 4 down to the 8-point
iteration grid), two `fourier` probes up to degree 2048, eleven
`sharpness` probes, a non-integer matrix on the full torus, a box at p = 40,
a k = 3 flat on the full torus, a k = 3 flat on a box at its top three
trend levels, a point (k = 0), a product whose last factor takes even
degrees only, a box about 0 with an odd number of rows on its first axis,
p = inf on the full torus, an integer matrix off the origin on the full
torus, a k = 1 flat on the full torus and a box of unequal sides whose
shells hold 543 to 893 members, a `dimension` probe to degree 1000 and a
`jacobi` probe to degree 4096 (PROBES; no bundled or workload config runs
those) run through `python -m crossflat` once with each tree's `src`
on PYTHONPATH, at `--threads 1` and at `--threads 2`, after one `--check` of
the config.  The two trees' CSV and summary bytes, exit codes and stderr
must match, and so must the exit code and stderr of their `--check`s: each
command imports its layers while it parses, which `--check` and a run share.
A `sharpness` probe at 1 point per wavelength exits 3 (numerical
rejection).  Prints one line per run or check that differs, followed, when
its CSV or summary differs, by the largest relative and the largest absolute
difference of each numeric CSV column and each numeric summary field that
moved (a value near 0 can move far in relative terms and hardly at all in
absolute ones), and by whether any non-numeric cell differs.  Exits 1 if
any run or check differs, 0 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
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


def _opnorm(alpha: float, beta: float, p: float, n_values: list[int]) -> dict:
    return {"command": "opnorm", "seed": 7,
            "parameters": {"alpha": alpha, "beta": beta, "p": p, "n_values": n_values}}


def _fourier(kind: str, dimension: int, n_max: int) -> dict:
    return {"command": "fourier", "parameters": {"space": {"kind": kind, "dimension": dimension}, "n_max": n_max}}


def _sharpness(matrix: list, box: list | None, levels: list[int], p_values: list[float],
               offset: list[float] | None = None) -> dict:
    parameters = {"factors": {"space": {"kind": "sphere", "dimension": 3}, "copies": 5}, "matrix": matrix,
                  "levels": levels, "p_values": p_values}
    optional = {key: value for key, value in (("box", box), ("offset", offset)) if value is not None}
    return {"command": "sharpness", "parameters": {**parameters, **optional}}


# Kept out of configs/, whose opnorm configs a test runs bracket by bracket.
# The fourier probes reach degrees that span several jacobi_fourier_rows
# blocks, with alpha = beta (S^3) and alpha != beta (OP^16).  The sharpness
# probes take the direct rule on the full torus (a non-integer matrix), a
# box at p = 40, where max|f|^p overflows float64, and a k = 3 integer
# matrix on the full torus, whose top level's 192^3 lattice grid has rows of
# 192^2 points, each longer than one extremizer grid block; the k = 3 flat
# of configs/sharpness_s3_fifth_k3.json at its top three trend levels, whose
# direct grids would hold 188,955 to 305,520 points and whose lattice covers
# its box about 0 and mirrors; a zero-column matrix, a point of the flat,
# whose restriction is a point value; and S^2 x S^3 x RP^3 from
# level_min/level_max, whose shell counts take the last factor's even
# degrees in steps of 2.  Three more try the mirror of a flat through the
# origin, which evaluates one half of its grid: a box about 0 whose first
# axis has an odd number of rows (33, 45 and 55), so the middle row counts
# once; p = inf, the max over the half, on the full torus; and an offset
# that moves an integer flat off the origin, which must keep the whole grid
# and its bits.  Two try the extremizer's sum over the shell's members: a
# k = 1 flat on the full torus, each of whose factors varies along the first
# grid axis only, so that the weight matrix carries them all, and a box at
# levels whose shells hold 543, 677 and 893 members, more than the scratch
# of one grid block takes at once, so that each block is cut across members;
# its sides of unequal length send it to the direct rule, whose rows of up
# to 13,440 angles take the evaluator through 6 to 12 groups of members.
# The dimension probe runs the exact Weyl dimensions far past the workloads'
# degree 300, and the jacobi probe takes the recurrence's mixed-sign path at
# alpha != beta to twice the workloads' degree.
PROBES = [
    ("probe-opnorm-p3", _opnorm(1, 0, 3, [64, 128, 256, 512])),
    ("probe-opnorm-p6.5", _opnorm(0.5, 0.5, 6.5, [64, 128, 256, 512])),
    ("probe-opnorm-p99", _opnorm(3, 1, 99, [64, 128, 256])),
    ("probe-opnorm-sphere-odd", _opnorm(1, 1, 6, [63, 127, 255, 511])),
    ("probe-opnorm-sphere-p4", _opnorm(1, 1, 4, [2, 4, 8])),
    ("probe-fourier-s3", _fourier("sphere", 3, 2048)),
    ("probe-fourier-op16", _fourier("octonionic_plane", 16, 2048)),
    ("probe-sharpness-torus", _sharpness([[1, 0], [1, 1], [0, 0.5], [0, 0], [0, 0]], None, [315, 495, 840], [2, 6])),
    ("probe-sharpness-p40", _sharpness([[1, 0], [1, 1], [0, 1], [0, 0], [0, 0]], [[-0.25, 0.25]] * 2,
                                       [3323, 3585, 4323], [2, 40])),
    ("probe-sharpness-k3", _sharpness([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1], [0, 0, 0]], None,
                                      [315, 400, 495], [2, 6])),
    ("probe-sharpness-k3-box", _sharpness([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1], [0, 0, 0]],
                                          [[-0.25, 0.25]] * 3, [7158, 8718, 9562], [2, 6])),
    ("probe-sharpness-point", _sharpness([[]] * 5, None, [315, 495, 840, 1275], [2, 6], [0.01, 0, -0.02, 0, 0.03])),
    ("probe-sharpness-box-odd", _sharpness([[1, 0], [1, 1], [0, 1], [0, 0], [0, 0]], [[-0.3, 0.3], [-0.25, 0.25]],
                                           [1501, 2502, 3500], [2, 6])),
    ("probe-sharpness-torus-inf", _sharpness([[1, 0], [1, 1], [0, 1], [0, 0], [0, 0]], None, [315, 495, 840],
                                             [2, math.inf])),
    ("probe-sharpness-torus-offset", _sharpness([[1, 0], [1, 1], [0, 1], [0, 0], [0, 0]], None, [315, 495, 840],
                                                [2, 6], [0.1, 0, 0, 0, 0])),
    ("probe-sharpness-k1-torus", _sharpness([[1], [1], [0], [2], [1]], None, [315, 495, 840], [2, 6])),
    ("probe-sharpness-large-shells", _sharpness([[1, 0], [1, 1], [0, 1], [0, 0], [0, 0]],
                                                [[-0.25, 0.25], [-0.3, 0.3]], [30001, 34997, 40001], [2, 6])),
    ("probe-sharpness-even-last", {"command": "sharpness", "parameters": {
        "factors": [{"kind": "sphere", "dimension": 2}, {"kind": "sphere", "dimension": 3},
                    {"kind": "sphere", "dimension": 3, "even_degrees_only": True}],
        "matrix": [[1, 0], [1, 1], [0, 1]], "level_min": 300, "level_max": 3000, "level_count": 6,
        "p_values": [2, 6]}}),
    ("probe-dimension-op16", {"command": "dimension",
                              "parameters": {"space": {"kind": "octonionic_plane", "dimension": 16}, "n_max": 1000}}),
    ("probe-jacobi-3-1", {"command": "jacobi", "parameters": {"alpha": 3, "beta": 1, "n_max": 4096}}),
    ("probe-sharpness-ppw1", {"command": "sharpness", "parameters": {
        "factors": {"space": {"kind": "sphere", "dimension": 3}, "copies": 5}, "matrix": [[1.0]] * 5,
        "levels": [315, 495, 840], "points_per_wavelength": 1.0}}),
]


def configs() -> list[tuple[str, dict]]:
    """(name, config) for every bundled config, then every workload config,
    then the probes."""
    out = [(path.stem, json.loads(path.read_text())) for path in sorted((ROOT / "configs").glob("*.json"))]
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            out += [(f"{workload}-{seed}-{name}", config) for name, config in workloads.generate(workload, seed)]
    return out + PROBES


def _cli(src: Path, config_path: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "crossflat", "--config", str(config_path), *args]
    return subprocess.run(argv, env=env, cwd=config_path.parent, capture_output=True, text=True)


def check(src: Path, config_path: Path) -> tuple:
    """The exit code and stderr of one `--check`."""
    proc = _cli(src, config_path, "--check")
    return proc.returncode, proc.stderr


def run(src: Path, config_path: Path, out_dir: Path, threads: int, command: str) -> tuple:
    """The exit code, stderr, CSV bytes and summary bytes of one CLI run."""
    proc = _cli(src, config_path, "--out", str(out_dir), "--threads", str(threads))
    slug = command.replace("-", "_")
    files = [out_dir / f"{slug}.csv", out_dir / f"{slug}_summary.json"]
    return (proc.returncode, proc.stderr, *(f.read_bytes() if f.exists() else None for f in files))


def _numeric(value) -> float | None:
    """A CSV cell or summary leaf as a finite float; None for anything else,
    booleans included."""
    if isinstance(value, bool):
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return number if math.isfinite(number) else None


def _csv_cells(data: bytes) -> dict[tuple, str]:
    """{(row index, column name): text} of a CSV's data rows."""
    header, *rows = list(csv.reader(io.StringIO(data.decode())))
    return {(i, name): cell for i, row in enumerate(rows) for name, cell in zip(header, row)}


def _summary_cells(data: bytes) -> dict[tuple, object]:
    """{(0, dotted key): leaf value} of a summary's JSON; an empty list or
    object is a leaf, so a key that holds one still counts."""
    def leaves(value, key):
        if isinstance(value, dict) and value:
            for k, v in value.items():
                yield from leaves(v, f"{key}.{k}" if key else k)
        elif isinstance(value, list) and value:
            for i, v in enumerate(value):
                yield from leaves(v, f"{key}[{i}]")
        else:
            yield (0, key), value

    return dict(leaves(json.loads(data), ""))


def describe(kind: str, ours: bytes | None, theirs: bytes | None) -> list[str]:
    """Lines that say how two CSVs or two summaries differ: the largest
    relative and absolute differences of each numeric column or field that
    moved, and whether a non-numeric cell, a missing cell or a missing file
    differs."""
    if ours is None or theirs is None:
        return [f"  {kind}: only one tree wrote it"]
    cells = _csv_cells if kind == "csv" else _summary_cells
    a, b = cells(ours), cells(theirs)
    largest: dict[str, tuple[float, float]] = {}
    other = set(a) ^ set(b)
    for key in set(a) & set(b):
        x, y = _numeric(a[key]), _numeric(b[key])
        if x is not None and y is not None:
            absolute = abs(x - y)
            relative = 0.0 if x == y else absolute / max(abs(x), abs(y))
            rel, ab = largest.get(key[1], (0.0, 0.0))
            largest[key[1]] = (max(rel, relative), max(ab, absolute))
        elif a[key] != b[key]:
            other.add(key)
    lines = [
        f"  {kind} {name}: max relative difference {rel:.2g}, max absolute difference {ab:.2g}"
        for name, (rel, ab) in sorted(largest.items())
        if rel
    ]
    lines.append(f"  {kind} non-numeric cells differ: {'yes' if other else 'no'}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "crossflat").is_dir():
        print("usage: python scripts/compare_outputs.py <other-src>", file=sys.stderr)
        return 2
    trees = {"other": Path(argv[0]).resolve(), "this": ROOT / "src"}
    fields = ("exit code", "stderr", "csv", "summary")
    differences = runs = checks = 0
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for name, config in configs():
            config_path = scratch / f"{name}.json"
            config_path.write_bytes(workloads.dump(config))
            results = {tree: check(src, config_path) for tree, src in trees.items()}
            checks += 1
            differ = [f for f, a, b in zip(fields, results["other"], results["this"]) if a != b]
            if differ:
                differences += 1
                print(f"DIFF {name} --check: {', '.join(differ)}")
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
                    for kind in ("csv", "summary"):
                        if kind in differ:
                            index = fields.index(kind)
                            for line in describe(kind, results["this"][index], results["other"][index]):
                                print(line)
    print(f"{runs} config runs and {checks} --check runs compared, {differences} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
