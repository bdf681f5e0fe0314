"""Tests of the benchmark itself: generation, oracles and tracing.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from crossflat import cli  # noqa: E402

ROOT = HERE.parent
S3 = {"kind": "sphere", "dimension": 3}


def _strip_seeded(config: dict) -> dict:
    """The config with every seed-picked value removed: what sets the cost."""
    params = {
        k: v
        for k, v in config["parameters"].items()
        if k not in ("alpha", "beta", "space", "p_values", "matrix", "level")
    }
    return {"command": config["command"], "parameters": params}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_and_cost_is_seed_free(workload):
    first = [(n, workloads.dump(c)) for n, c in workloads.generate(workload, 11)]
    again = [(n, workloads.dump(c)) for n, c in workloads.generate(workload, 11)]
    assert first == again
    others = [workloads.generate(workload, seed) for seed in range(12, 20)]
    assert any([workloads.dump(c) for _, c in o] != [b for _, b in first] for o in others)
    shapes = {json.dumps([_strip_seeded(c) for _, c in o], sort_keys=True) for o in others}
    assert len(shapes) == 1


def _run(config: dict, out_dir: Path) -> Path:
    assert cli.run(config, str(out_dir)) == 0
    return out_dir


def _corrupt(out_dir: Path, command: str, column: str, row_index: int, factor: float) -> None:
    path = out_dir / f"{command.replace('-', '_')}.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row_index].split(",")
    j = header.index(column)
    cells[j] = repr(float(cells[j]) * factor) if factor != 1 else str(int(cells[j]) + 1)
    lines[1 + row_index] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = [
    # config, column, row, factor (1 means: add one to an integer)
    ({"command": "opnorm", "seed": 3, "parameters": {"alpha": 1.0, "beta": 1.0, "p": 2, "n_values": [64, 128, 256]}}, "upper", 2, 1 + 1e-7),
    ({"command": "opnorm", "seed": 3, "parameters": {"alpha": 1.0, "beta": 0.0, "p": 2, "n_values": [64, 128, 256]}}, "upper", 0, 1 + 1e-7),
    ({"command": "opnorm", "seed": 3, "parameters": {"alpha": 0.5, "beta": 0.5, "p": 2, "n_values": [64, 128, 256]}}, "upper", 1, 1 + 1e-7),
    ({"command": "opnorm", "seed": 3, "parameters": {"alpha": 2.0, "beta": 0.0, "p": 6, "n_values": [64, 128, 256]}}, "upper", 0, 1 + 1e-7),
    ({"command": "kernel-norms", "parameters": {"alpha": 1.5, "beta": 1.5, "q_values": [2, 4], "n_values": [64, 128, 256]}}, "norm", 0, 1 + 1e-7),
    ({"command": "fourier", "parameters": {"space": {"kind": "quaternionic_projective", "dimension": 8}, "n_max": 40}}, "max_coefficient", 10, 1 + 1e-8),
    ({"command": "dimension", "parameters": {"space": {"kind": "octonionic_plane", "dimension": 16}, "n_max": 60}}, "dimension", 7, 1 + 1e-7),
    ({"command": "jacobi", "parameters": {"alpha": 3.0, "beta": 1.0, "n_max": 64, "grid_size": 256}}, "n", 5, 1),
    ({"command": "shell", "parameters": {"factors": {"space": S3, "copies": 5}, "level": 2006}}, "level", 0, 1),
    (
        {
            "command": "sharpness",
            "parameters": {
                "factors": {"space": S3, "copies": 3},
                "matrix": [[1], [1], [0]],
                "offset": [0, 0, 0],
                "p_values": [2],
                "degrees": [10, 12, 14, 16],
                "slope_tolerance": 10,
            },
        },
        "shell_size",
        0,
        1,
    ),
]


@pytest.mark.parametrize("config,column,row,factor", CORRUPTIONS, ids=lambda v: v["command"] if isinstance(v, dict) else None)
def test_oracle_accepts_output_and_flags_a_corrupted_value(tmp_path, config, column, row, factor):
    out_dir = _run(config, tmp_path)
    assert oracles.check(config, out_dir) == []
    _corrupt(out_dir, config["command"], column, row, factor)
    assert oracles.check(config, out_dir) != []


def test_oracle_flags_a_failed_summary(tmp_path):
    config = {"command": "shell", "parameters": {"factors": {"space": S3, "copies": 5}, "level": 2006}}
    out_dir = _run(config, tmp_path)
    path = out_dir / "shell_summary.json"
    path.write_text(path.read_text().replace('"passed": true', '"passed": false'))
    assert "summary says passed: false" in oracles.check(config, out_dir)


def test_runner_counts_a_run_whose_output_changed_as_failed(tmp_path):
    config = {"command": "shell", "parameters": {"factors": {"space": S3, "copies": 5}, "level": 2006}}
    runner = run.Runner([("shell", config)], tmp_path)
    assert runner.execute("shell").problems == []
    reference = runner.reference["shell"] / "shell.csv"
    reference.write_text(reference.read_text().replace("2006,", "2007,", 1))
    assert runner.execute("shell").problems == ["outputs differ from the first run of this config"]


def test_run_child_samples_while_stopped_and_leaves_the_stops_out(tmp_path):
    busy = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.6: pass\nraise SystemExit(3)"
    child = run.run_child([sys.executable, "-c", busy], tmp_path / "log.txt")
    assert child.code == 3
    # One sample every REFERENCE_PERIOD_S of running time, and one after.
    assert len(child.samples) >= 4
    assert all(s > 0 for s in child.samples)
    # The child only computes, so wall time without the stops is its CPU time.
    assert child.wall_s == pytest.approx(child.cpu_s, rel=0.25)

    unstopped = run.run_child([sys.executable, "-c", busy], tmp_path / "log.txt", sample=False)
    assert unstopped.code == 3
    assert len(unstopped.samples) == 1


def test_gegenbauer_and_mpmath_routes_agree():
    gegenbauer = oracles.kernel_coefficients(1.5, 1.5, 12)
    general = oracles.kernel_coefficients(1.5, 1.5 + 1e-30, 12)  # forces the mpmath route
    assert general == pytest.approx(gegenbauer, rel=1e-12, abs=1e-14)


def test_brute_force_shell_matches_a_hand_count():
    # S^3 x S^3: (n1+1)^2 + (n2+1)^2 = level + 2; level 48 gives 50 = 1+49 = 25+25.
    assert oracles.brute_force_shell({"space": S3, "copies": 2}, 48, False) == [(0, 6), (4, 4), (6, 0)]
    assert oracles.brute_force_shell({"space": S3, "copies": 2}, 48, True) == [(4, 4)]


def _cli(args: list[str], traced: Path | None = None) -> int:
    entry = [str(HERE / "traced_cli.py"), "--spans", str(traced)] if traced else ["-m", "crossflat"]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run([sys.executable, *entry, *args], env=env, cwd=ROOT).returncode


def test_tracing_keeps_outputs_byte_identical_and_counts_layers(tmp_path):
    config = {
        "command": "sharpness",
        "parameters": {
            "factors": {"space": S3, "copies": 3},
            "matrix": [[1], [1], [0]],
            "offset": [0, 0, 0],
            "p_values": [2, 4],
            "degrees": [10, 12, 14, 16],
            "slope_tolerance": 10,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    spans = tmp_path / "spans.json"
    assert _cli(["--config", str(path), "--out", str(tmp_path / "plain")]) == 0
    assert _cli(["--config", str(path), "--out", str(tmp_path / "traced")], traced=spans) == 0
    for name in ("sharpness.csv", "sharpness_summary.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    trace = json.loads(spans.read_text())
    metrics = tracing.layer_metrics([trace])
    # two p-values and the pointwise check each enumerate every level once
    assert metrics["products.enumerate_shell_calls"] == 12
    assert metrics["products.enumerations_per_level"] == 3.0
    assert metrics["products.restriction_calls"] == 8
    assert metrics["special.recurrence_calls"] > 0
    assert metrics["special.recurrence_s"] > 0
    for layer in tracing.LAYERS:
        if layer != "torus":
            assert metrics[f"{layer}.self_s"] > 0, layer


def test_generator_span_covers_every_step():
    tracer = tracing.Tracer()

    def rows(n):
        for i in range(n):
            yield i

    def consumer():
        return sum(traced_rows(5))

    traced_rows = tracer.wrap("special.rows", rows)
    traced_consumer = tracer.wrap("cli.consumer", consumer)
    assert traced_consumer() == 10
    by_name = {s[2]: s for s in tracer.spans}
    consumer_span, rows_span = by_name["cli.consumer"], by_name["special.rows"]
    assert rows_span[1] == consumer_span[0]
    assert rows_span[5] > 0
    assert consumer_span[6] == pytest.approx(rows_span[5])


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat_restriction", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
