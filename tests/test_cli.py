import contextlib
import copy
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crossflat
from crossflat.cli import COMMANDS, OUTPUT_ENV_VAR, main, run, validate
from crossflat.special import JacobiParams, chebyshev_half_case, jacobi_binomial, jacobi_eval


S2 = {"kind": "sphere", "dimension": 2}
S3 = {"kind": "sphere", "dimension": 3}
S3_FIFTH = {"space": S3, "copies": 5}
SHARPNESS = {"factors": S3_FIFTH, "matrix": [[1.0]] * 5, "p_values": [2]}
JACOBI = {"alpha": 0.5, "beta": 0.5}
OPNORM = {"alpha": 0.5, "beta": 0.5, "p": 2, "n_values": [16, 32, 64]}
KERNEL_NORMS = {"alpha": 1.0, "beta": 1.0, "n_values": [16, 32, 64]}
EXPONENTS = {"d_list": [3, 3], "k": 1, "p": 2}

# A small passing config per command, and every key its parse function reads.
CONTRACT_BASES = {
    "jacobi": {"parameters": {"alpha": 1.0, "beta": 0.0, "n_max": 16, "grid_size": 64}},
    "kernel-norms": {"parameters": {**KERNEL_NORMS, "q_values": [2]}},
    "opnorm": {"seed": 1, "parameters": {**OPNORM, "p": 4, "iteration_budget": 5}},
    "fourier": {"parameters": {"space": S3, "n_max": 8}},
    "dimension": {"parameters": {"space": S2, "n_max": 8}},
    "shell": {"parameters": {"factors": S3_FIFTH, "level": 40}},
    "sharpness": {"parameters": {"factors": [S2, S2], "matrix": [[1], [1]], "levels": [12, 24, 40]}},
    "exponents": {"parameters": EXPONENTS},
}
TOLERANCES = ["normalization_tolerance", "reflection_tolerance", "closed_form_tolerance"]
CONTRACT_KEYS = {
    "jacobi": ["alpha", "beta", "n_max", "grid_size", *TOLERANCES],
    "kernel-norms": ["alpha", "beta", "n_values", "q_values", "slope_tolerance"],
    "opnorm": ["alpha", "beta", "p", "n_values", "iteration_budget", "slope_tolerance"],
    "fourier": ["space", "n_max", "negativity_tolerance", "sum_tolerance"],
    "dimension": ["space", "n_values", "n_max", "integer_tolerance", "slope_tolerance", "check_slope"],
    "shell": ["factors", "level", "ordering_constraint"],
    "sharpness": [
        "factors", "matrix", "offset", "box", "levels", "degrees", "level_min", "level_max",
        "level_count", "p_values", "points_per_wavelength", "slope_tolerance", "epsilon",
    ],
    "exponents": ["d_list", "k", "p"],
}
# No huge sizes: nothing bounds the cost of a run yet.
MALFORMED = [
    "abc", "", True, False, None, -1, -3, -0.5, 0, 0.3, math.inf, -math.inf, math.nan,
    [], [-2, 3], [True], [[1], [1, 2]], {"a": {"b": [1]}},
]


@st.composite
def mutated_configs(draw):
    """A base config with one parameter deleted or replaced by a malformed value."""
    command = draw(st.sampled_from(sorted(CONTRACT_BASES)))
    config = {"command": command, **copy.deepcopy(CONTRACT_BASES[command])}
    key = draw(st.sampled_from(CONTRACT_KEYS[command]))
    if draw(st.booleans()):
        config["parameters"].pop(key, None)
    else:
        config["parameters"][key] = copy.deepcopy(draw(st.sampled_from(MALFORMED)))
    return config


def write_config(tmp_path, config, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _record_coefficient_rows(monkeypatch) -> list[int]:
    """Record the degree of each kernel coefficient row torus computes, and
    fail any call of the batched rows, which only `fourier` wants."""
    degrees = []
    fourier_row = crossflat.torus.jacobi_fourier_row
    monkeypatch.setattr(
        crossflat.torus,
        "jacobi_fourier_row",
        lambda alpha, beta, n: degrees.append(n) or fourier_row(alpha, beta, n),
    )

    def no_batch(*args):
        raise AssertionError(f"batched Fourier rows {args} called")

    monkeypatch.setattr(crossflat.special, "jacobi_fourier_rows", no_batch)
    for module in (crossflat.special, crossflat.spaces):
        monkeypatch.setattr(module, "_fourier_columns", no_batch)
    return degrees


class TestValidate:
    def test_well_formed_config_is_clean(self):
        cfg = {
            "command": "dimension",
            "parameters": {"space": {"kind": "sphere", "dimension": 2}, "n_max": 10},
        }
        assert validate(cfg) == []

    def test_missing_seed_on_opnorm(self):
        cfg = {"command": "opnorm", "parameters": {"alpha": 0.5, "beta": 0.5, "p": 4}}
        diags = validate(cfg)
        assert any("seed" in d for d in diags)

    def test_small_p_on_opnorm(self):
        cfg = {
            "command": "opnorm",
            "seed": 1,
            "parameters": {"alpha": 0.5, "beta": 0.5, "p": 1},
        }
        diags = validate(cfg)
        assert any("p >= 2" in d for d in diags)

    def test_unknown_command(self):
        assert validate({"command": "frobnicate"}) != []

    def test_copies_build_their_space_once(self, monkeypatch):
        calls = []
        build = crossflat.spaces.space_from_dict
        monkeypatch.setattr(crossflat.spaces, "space_from_dict", lambda data: calls.append(data) or build(data))
        cfg = {"command": "shell", "parameters": {"factors": {"space": S3, "copies": 1000}, "level": 40}}
        assert validate(cfg) == []
        assert calls == [S3]

    @pytest.mark.parametrize(
        "cfg",
        [
            {"command": "opnorm", "seed": True, "parameters": {"alpha": 0.5, "beta": 0.5, "p": 2, "n_values": [16, 32, 64]}},
            {"command": "opnorm", "seed": 1, "parameters": {"alpha": 0.5, "beta": 0.5, "p": 2, "n_values": [16, 32]}},
            {"command": "kernel-norms", "parameters": {"alpha": 1.0, "beta": 1.0, "n_values": [0, 1, 2]}},
            {"command": "shell", "parameters": {"factors": S3_FIFTH, "level": 40.7}},
            {"command": "shell", "parameters": {"factors": S3_FIFTH, "level": True}},
            {"command": "shell", "parameters": {"factors": S3_FIFTH, "level": -5}},
            {"command": "shell", "parameters": {"factors": S3_FIFTH, "level": 40, "ordering_constraint": "no"}},
            {"command": "shell", "parameters": {"factors": 5, "level": 40}},
            {"command": "shell", "parameters": {"factors": [S3], "level": 40}},
            {"command": "shell", "parameters": {"factors": {"space": S3, "copies": 1}, "level": 40}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "level_min": 900, "level_max": 400}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "level_count": 2}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "levels": []}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "levels": [-5, 40]}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "degrees": "ab"}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "levels": [40], "epsilon": 2}},
            {"command": "jacobi", "parameters": {**JACOBI, "alpha": -3}},
            {"command": "jacobi", "parameters": {**JACOBI, "alpha": 0.3}},
            {"command": "opnorm", "seed": 1, "parameters": {**OPNORM, "alpha": 0.3}},
            {"command": "kernel-norms", "parameters": {**KERNEL_NORMS, "alpha": 0.3}},
            {"command": "jacobi", "parameters": {**JACOBI, "n_max": "abc"}},
            {"command": "jacobi", "parameters": {**JACOBI, "grid_size": 0}},
            {"command": "opnorm", "seed": 1, "parameters": {**OPNORM, "iteration_budget": "abc"}},
            {"command": "opnorm", "seed": 1, "parameters": {**OPNORM, "slope_tolerance": "abc"}},
            {"command": "fourier", "parameters": {"space": S3, "n_max": "abc"}},
            {"command": "fourier", "parameters": {"space": S3, "n_max": -3}},
            {"command": "dimension", "parameters": {"space": S3, "n_values": "abc"}},
            {"command": "dimension", "parameters": {"space": S3, "n_values": [-2, 3]}},
            {"command": "dimension", "parameters": {"space": S3, "n_max": "abc"}},
            {"command": "dimension", "parameters": {"space": S3, "n_values": [1, 2, 3], "n_max": 500}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "matrix": "abc"}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "matrix": [[1.0]] * 4}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "offset": [0, 0]}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "box": [[1]]}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "points_per_wavelength": "abc"}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "slope_tolerance": "abc"}},
            {"command": "exponents", "parameters": {**EXPONENTS, "p": "abc"}},
            {"command": "exponents", "parameters": {**EXPONENTS, "k": 7}},
            {"command": "kernel-norms", "parameters": {**KERNEL_NORMS, "q_values": [True]}},
            {"command": "exponents", "parameters": {**EXPONENTS, "k": True}},
            {"command": "exponents", "parameters": {**EXPONENTS, "p": "1/0"}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "box": [[0, math.inf]]}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "points_per_wavelength": math.inf}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "box": [[math.nan, 1]]}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "offset": [math.nan, 0, 0, 0, 0]}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "offset": [math.inf, 0, 0, 0, 0]}},
            {"command": "shell", "parameters": {"factors": S3_FIFTH, "level": 10**30}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "levels": [10**30]}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "degrees": [1, 2, 10**15]}},
            {"command": "opnorm", "seed": 1, "parameters": {**OPNORM, "p": math.inf}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "p_values": [2, 2]}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "p_values": [6, 6.0000001]}},
            {"command": "kernel-norms", "parameters": {**KERNEL_NORMS, "q_values": [2, 2]}},
            {"command": "kernel-norms", "parameters": {**KERNEL_NORMS, "q_values": [4, 4.0000001]}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "levels": [0, 40, 80, 120]}},
            {"command": "sharpness", "parameters": {**SHARPNESS, "degrees": [0, 1, 2, 3]}},
            {"command": "fourier", "parameters": {"space": S3, "n_maxx": 10}},
            {"command": "sharpness", "parameters": {
                "factors": {"space": S3, "copies": 11}, "matrix": [[1]] * 11, "degrees": [1, 2, 3, 4]}},
        ],
        ids=[
            "boolean-seed",
            "two-degrees",
            "degree-zero",
            "non-integral-level",
            "boolean-level",
            "negative-level",
            "string-ordering-constraint",
            "integer-factors",
            "single-factor",
            "one-copy",
            "level-min-above-max",
            "two-trend-levels",
            "empty-levels",
            "negative-levels",
            "string-degrees",
            "epsilon-above-one",
            "jacobi-alpha-below-minus-one",
            "jacobi-non-half-integer-alpha",
            "opnorm-non-half-integer-alpha",
            "kernel-norms-non-half-integer-alpha",
            "jacobi-string-n-max",
            "jacobi-zero-grid",
            "opnorm-string-budget",
            "opnorm-string-slope-tolerance",
            "fourier-string-n-max",
            "fourier-negative-n-max",
            "dimension-string-degrees",
            "dimension-negative-degree",
            "dimension-string-n-max",
            "dimension-n-values-with-n-max",
            "sharpness-string-matrix",
            "sharpness-matrix-rank-mismatch",
            "sharpness-short-offset",
            "sharpness-one-ended-box",
            "sharpness-string-points-per-wavelength",
            "sharpness-string-slope-tolerance",
            "exponents-string-p",
            "exponents-k-above-rank",
            "kernel-norms-boolean-q",
            "exponents-boolean-k",
            "exponents-zero-denominator-p",
            "sharpness-infinite-box",
            "sharpness-infinite-points-per-wavelength",
            "sharpness-nan-box",
            "sharpness-nan-offset",
            "sharpness-infinite-offset",
            "shell-level-beyond-int64",
            "sharpness-level-beyond-int64",
            "sharpness-degree-beyond-int64",
            "opnorm-infinite-p",
            "sharpness-repeated-p",
            "sharpness-p-sharing-a-summary-key",
            "kernel-norms-repeated-q",
            "kernel-norms-q-sharing-a-summary-key",
            "sharpness-level-zero",
            "sharpness-degree-zero",
            "fourier-unknown-key",
            "sharpness-oversized-polydisc",
        ],
    )
    def test_check_agrees_with_run(self, tmp_path, cfg):
        assert validate(cfg) != []
        assert run(cfg, out_dir=str(tmp_path)) == 2

    @settings(max_examples=120, deadline=None)
    @given(mutated_configs())
    def test_check_is_a_contract_for_run(self, cfg):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
            code = run(cfg, out_dir=out)
        if validate(cfg) == []:
            assert code in (0, 1, 3), err.getvalue()
        else:
            assert code == 2
        if code == 2:
            assert "config error: " in err.getvalue()


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child_env() -> dict:
    """The environment of a fresh interpreter that imports this crossflat."""
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(crossflat.__file__))}


# Runs in a fresh interpreter, so that no other test can have loaded scipy:
# validates the given bundled configs, runs the small ones, and prints the
# scipy modules loaded after each stage.
COLD_START = """
import json, sys
from crossflat.cli import run, validate

bundled, small, out = json.loads(sys.argv[1])
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
for path in bundled:
    with open(path) as handle:
        assert validate(json.load(handle)) == [], path
after_check = scipy_modules()
codes = {config["command"]: run(config, out_dir=out) for config in small}
print(json.dumps([after_check, codes, scipy_modules()]))
"""
# Runs in a fresh interpreter: the CLI on the given arguments, then the
# crossflat modules loaded and which of WATCHED_MODULES were.
CLI_MODULES = """
import json, sys
from crossflat.cli import main

code = main(json.loads(sys.argv[1]))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "crossflat")
print(json.dumps([code, loaded, [m for m in sys.argv[2:] if m in sys.modules]]))
"""
# Modules a CLI process loads only when it needs them: the thread pool's,
# dataclasses (which the value classes do not use), numpy.fft, which only
# the commands that run FFTs load, and fractions with the decimal it
# imports, which only the exact rational paths load.
EXACT_MODULES = ["fractions", "decimal"]
WATCHED_MODULES = ["concurrent.futures", "dataclasses", "numpy.fft", *EXACT_MODULES]
# The commands that run no FFT.
NO_FFT_COMMANDS = ["exponents", "sharpness", "shell"]
# The commands that hold no exact rational: neither their --check nor their
# run loads fractions or decimal.
FLOAT_COMMANDS = ["fourier", "jacobi", "kernel-norms", "opnorm"]
# The layers each command's --check loads besides crossflat, crossflat.cli
# and crossflat.special; products loads spaces itself.  Only opnorm's parse
# calls torus.
COMMAND_LAYERS = {
    "jacobi": [],
    "fourier": ["spaces"],
    "dimension": ["spaces"],
    "kernel-norms": [],
    "opnorm": ["torus"],
    "shell": ["products", "spaces"],
    "sharpness": ["products", "spaces"],
    "exponents": ["products", "spaces"],
}
# The layers a run loads besides those of its --check.
RUN_LAYERS = {"dimension": ["torus"], "kernel-norms": ["torus"], "sharpness": ["torus"]}


def bundled_configs() -> dict[str, str]:
    """{command: path} of the first bundled config of each command."""
    bundled = {}
    for name in sorted(os.listdir(os.path.join(REPO, "configs"))):
        path = os.path.join(REPO, "configs", name)
        with open(path) as handle:
            bundled.setdefault(json.load(handle)["command"], path)
    return bundled


class TestColdStart:
    def test_no_scipy_on_any_cli_path(self, tmp_path):
        bundled = bundled_configs()
        assert sorted(bundled) == sorted(COMMANDS)
        small = [{"command": command, **copy.deepcopy(CONTRACT_BASES[command])} for command in sorted(COMMANDS)]
        opnorm = next(config for config in small if config["command"] == "opnorm")
        opnorm["parameters"]["p"] = 6  # p > 2 runs the FFT power iteration
        argument = json.dumps([list(bundled.values()), small, str(tmp_path)])
        done = subprocess.run(
            [sys.executable, "-c", COLD_START, argument], env=child_env(), capture_output=True, text=True, check=True
        )
        after_check, codes, after_runs = json.loads(done.stdout)
        assert after_check == []
        assert set(codes.values()) == {0}, codes
        assert after_runs == []

    @staticmethod
    def modules_after(argv):
        done = subprocess.run(
            [sys.executable, "-c", CLI_MODULES, json.dumps(argv), *WATCHED_MODULES],
            env=child_env(), capture_output=True, text=True, check=True,
        )
        code, loaded, watched = json.loads(done.stdout)
        assert code == 0, done.stderr
        return loaded, watched

    @pytest.mark.parametrize("command", sorted(COMMAND_LAYERS))
    def test_check_loads_only_the_layers_the_command_runs(self, command):
        loaded, watched = self.modules_after(["--check", "--config", bundled_configs()[command]])
        layers = ["cli", "special", *COMMAND_LAYERS[command]]
        assert loaded == sorted(["crossflat", *(f"crossflat.{layer}" for layer in layers)])
        # products holds the exact exponent bookkeeping
        assert watched == (EXACT_MODULES if "products" in layers else [])

    @pytest.mark.parametrize("command", sorted(COMMAND_LAYERS))
    def test_a_one_thread_run_loads_no_thread_pool(self, tmp_path, command):
        # opnorm and sharpness fan their cells out over --threads workers;
        # one worker runs them inline.  A run loads the layers of its check
        # and those of RUN_LAYERS, and no dataclasses; the commands that run
        # no FFT do not load numpy.fft, nor those of FLOAT_COMMANDS fractions.
        config = {"command": command, **copy.deepcopy(CONTRACT_BASES[command])}
        if command == "opnorm":
            config["parameters"]["p"] = 6  # p > 2 runs the power iteration
        argv = ["--config", write_config(tmp_path, config), "--out", str(tmp_path / "out"), "--threads", "1"]
        loaded, watched = self.modules_after(argv)
        layers = ["cli", "special", *COMMAND_LAYERS[command], *RUN_LAYERS.get(command, [])]
        assert loaded == sorted(["crossflat", *(f"crossflat.{layer}" for layer in layers)])
        assert "concurrent.futures" not in watched and "dataclasses" not in watched
        if command in NO_FFT_COMMANDS:
            assert "numpy.fft" not in watched
        if command in FLOAT_COMMANDS:
            assert not set(EXACT_MODULES) & set(watched)


# Runs in a fresh interpreter: starts the CLI the way `python -m crossflat`
# ("module") or the console script ("script") does, with the given arguments.
# Before that it writes to stdout with no newline, registers an atexit
# handler and starts a thread that writes after a pause; each must reach the
# pipe once, the thread's text before the handler's.  Nothing follows main.
PROCESS_ENTRY = """
import atexit, json, runpy, sys, threading, time

entry, argv = json.loads(sys.argv[1])
sys.argv = ["crossflat", *argv]
sys.stdout.write("entry")
atexit.register(lambda: sys.stdout.write(", atexit"))
threading.Thread(target=lambda: time.sleep(0.3) or sys.stdout.write(", thread")).start()
if entry == "module":
    runpy.run_module("crossflat", run_name="__main__", alter_sys=True)
else:
    from crossflat.__main__ import main
    main()
sys.stdout.write(", returned")
"""
ENTRY_STDOUT = "entry, thread, atexit"
# One config per exit code of a run: 0, 1 (a slope tolerance no fit meets),
# 2 (a config error) and 3 (one sample per wavelength).
EXIT_CASES = {
    0: {"command": "jacobi", **CONTRACT_BASES["jacobi"]},
    1: {"command": "kernel-norms", "parameters": {**KERNEL_NORMS, "q_values": [2], "slope_tolerance": 1e-9}},
    2: {"command": "opnorm", "parameters": {}},
    3: {"command": "sharpness", "parameters": {**SHARPNESS, "levels": [40], "points_per_wavelength": 1.0}},
}


def buffered_env() -> dict:
    """child_env() with block-buffered stdio on pipes, as by default."""
    return {key: value for key, value in child_env().items() if key != "PYTHONUNBUFFERED"}


class TestProcessEntry:
    @staticmethod
    def start(entry, argv):
        """The exit code of the process, read by subprocess, and its
        stderr; its stdout, a buffered pipe, must be ENTRY_STDOUT."""
        done = subprocess.run(
            [sys.executable, "-c", PROCESS_ENTRY, json.dumps([entry, argv])],
            env=buffered_env(), capture_output=True, text=True,
        )
        assert done.stdout == ENTRY_STDOUT, done.stderr
        return done.returncode, done.stderr

    @pytest.mark.parametrize("entry", ["module", "script"])
    @pytest.mark.parametrize("expected", sorted(EXIT_CASES))
    def test_run_exits_like_cli_run(self, tmp_path, capsys, entry, expected):
        config = EXIT_CASES[expected]
        assert run(config, out_dir=str(tmp_path / "in_process")) == expected
        stderr = capsys.readouterr().err
        argv = ["--config", write_config(tmp_path, config), "--out", str(tmp_path / "process")]
        assert self.start(entry, argv) == (expected, stderr)
        written = {
            side: {path.name: path.read_bytes() for path in (tmp_path / side).glob("*")}
            for side in ("in_process", "process")
        }
        assert written["process"] == written["in_process"]

    @pytest.mark.parametrize("entry", ["module", "script"])
    @pytest.mark.parametrize("expected", [0, 2])
    def test_check_exits_like_cli_validate(self, tmp_path, entry, expected):
        config = EXIT_CASES[expected]
        diagnostics = validate(config)
        assert bool(diagnostics) == (expected == 2)
        code, stderr = self.start(entry, ["--check", "--config", write_config(tmp_path, config)])
        assert (code, stderr) == (expected, "".join(f"{line}\n" for line in diagnostics))

    @pytest.mark.parametrize("command", ["opnorm", "sharpness"])
    def test_two_threads_exit_like_one(self, tmp_path, command):
        # the commands whose cells fan out over a thread pool
        config = {"command": command, **copy.deepcopy(CONTRACT_BASES[command])}
        path = write_config(tmp_path, config)
        written = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert self.start("module", ["--config", path, "--out", str(out), "--threads", threads]) == (0, "")
            written[threads] = {p.name: p.read_bytes() for p in out.glob("*")}
        assert len(written["2"]) == 2 and written["2"] == written["1"]

    def test_a_failed_flush_exits_as_the_interpreter_does(self, tmp_path):
        # stdout is a pipe whose reader is gone: the flush fails, and the
        # interpreter's shutdown reports it, with no traceback, and exits 120
        read, write = os.pipe()
        os.close(read)
        argv = ["--check", "--config", write_config(tmp_path, EXIT_CASES[0])]
        with open(write, "wb") as stdout:
            done = subprocess.run(
                [sys.executable, "-c", PROCESS_ENTRY, json.dumps(["module", argv])],
                env=buffered_env(), stdout=stdout, stderr=subprocess.PIPE, text=True,
            )
        assert done.returncode == 120
        assert done.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
        assert "BrokenPipeError" in done.stderr and "Traceback" not in done.stderr

    def test_cli_main_leaves_the_collector_alone(self, tmp_path):
        path = write_config(tmp_path, EXIT_CASES[0])
        assert main(["--config", path, "--out", str(tmp_path)]) == 0
        assert main(["--check", "--config", path]) == 0
        assert gc.get_freeze_count() == 0


# Every name the package exported before its exports became lazy, by module.
EXPORTED = {
    "special": [
        "JacobiParams", "AsymptoticFrame", "jacobi_eval", "jacobi_binomial", "chebyshev_half_case",
        "jacobi_theta_derivative", "interior_main_term", "edge_main_term", "bessel_j",
    ],
    "spaces": [
        "CrossSpace", "sphere", "real_projective", "complex_projective", "quaternionic_projective",
        "octonionic_plane", "catalog", "spherical_eval", "fourier_expansion", "rep_dimension",
        "laplace_eigenvalue",
    ],
    "torus": [
        "PeriodicGrid", "lp_norm_periodic", "kernel_lp_norm", "envelope_A", "envelope_A_tilde",
        "opnorm_l2_exact", "opnorm_bracket", "tensor_opnorm_upper", "fit_exponent",
    ],
    "products": [
        "ProductManifold", "LatticeShell", "enumerate_shell", "extremizer_eval", "extremizer_l2_norm",
        "FlatSubmanifold", "restriction_lp_norm", "pointwise_lower_check", "exponent_table",
        "sharpness_report",
    ],
}


class TestPackageExports:
    def test_each_name_is_its_modules_object(self):
        for module, names in EXPORTED.items():
            for name in names:
                assert getattr(crossflat, name) is getattr(getattr(crossflat, module), name), name
                assert name in dir(crossflat), name

    def test_star_import_binds_every_name_and_layer(self):
        namespace = {}
        exec("from crossflat import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == {*EXPORTED, *(name for names in EXPORTED.values() for name in names)}
        assert all(namespace[module] is getattr(crossflat, module) for module in EXPORTED)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            crossflat.no_such_name

    def test_resolution_error_is_one_class(self):
        assert crossflat.products.ResolutionError is crossflat.special.ResolutionError


class TestRun:
    def test_dimension_sphere2_csv_oracle(self, tmp_path):
        cfg = {
            "command": "dimension",
            "parameters": {"space": {"kind": "sphere", "dimension": 2}, "n_max": 50},
        }
        assert run(cfg, out_dir=str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "dimension.csv")
        k_col = header.index("dimension")
        n_col = header.index("n")
        for row in rows:
            n = int(row[n_col])
            assert float(row[k_col]) == pytest.approx(2 * n + 1, rel=1e-8)

    @pytest.mark.parametrize("kind, dimension", [("quaternionic_projective", 8), ("octonionic_plane", 16)])
    def test_dimension_nearest_integer_is_the_weyl_dimension(self, tmp_path, kind, dimension):
        space = {"kind": kind, "dimension": dimension}
        cfg = {"command": "dimension", "parameters": {"space": space, "n_values": list(range(0, 301, 20))}}
        assert run(cfg, out_dir=str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "dimension.csv")
        n_col, k_col = header.index("n"), header.index("dimension")
        int_col, dev_col = header.index("nearest_integer"), header.index("integer_rel_dev")
        for row in rows:
            exact = crossflat.spaces.weyl_dimension(crossflat.spaces.space_from_dict(space), int(row[n_col]))
            assert exact.denominator == 1
            assert int(row[int_col]) == exact
            k = float(row[k_col])
            assert float(row[dev_col]) == abs(k - exact.numerator) / max(k, 1.0)

    def test_sharpness_enumerates_each_level_once(self, tmp_path, monkeypatch):
        # one sweep yields every level's shell, for all p and the pointwise check
        calls = []
        shells = crossflat.products._shells
        monkeypatch.setattr(
            crossflat.products,
            "_shells",
            lambda *args, **kwargs: calls.append(list(args[1])) or shells(*args, **kwargs),
        )
        cfg = copy.deepcopy(CONTRACT_BASES["sharpness"])
        cfg["parameters"]["p_values"] = [2, 4, 6]
        assert run({"command": "sharpness", **cfg}, out_dir=str(tmp_path)) in (0, 1)
        assert calls == [[12, 24, 40]]

    def test_shell_members_column(self, tmp_path):
        cfg = {
            "command": "shell",
            "parameters": {
                "factors": {"space": {"kind": "sphere", "dimension": 3}, "copies": 5},
                "level": 40,
            },
        }
        assert run(cfg, out_dir=str(tmp_path)) == 0
        text = (tmp_path / "shell.csv").read_text()
        assert "(2,2,2,2,2)" in text

    def test_exponents_summary(self, tmp_path):
        cfg = {
            "command": "exponents",
            "parameters": {"d_list": [3, 3, 3, 3, 3], "k": 1, "p": 2},
        }
        assert run(cfg, out_dir=str(tmp_path)) == 0
        summary = json.loads((tmp_path / "exponents_summary.json").read_text())
        assert summary["version"] == 1
        assert summary["summary"]["taus"][0] == "-1/2"
        assert summary["summary"]["no_loss_exponent"] == "6"
        assert summary["summary"]["baseline_exponent"] == "13/2"
        assert summary["config"]["command"] == "exponents"
        assert summary["config"]["parameters"] == cfg["parameters"]

    def test_opnorm_p2_passes_and_is_deterministic(self, tmp_path):
        cfg = {
            "command": "opnorm",
            "seed": 11,
            "parameters": {
                "alpha": 0.5,
                "beta": 0.5,
                "p": 2,
                "n_values": [64, 128, 256, 512],
                "slope_tolerance": 0.03,
            },
        }
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(cfg, out_dir=str(out_a)) == 0
        assert run(cfg, out_dir=str(out_b)) == 0
        assert (out_a / "opnorm.csv").read_bytes() == (out_b / "opnorm.csv").read_bytes()
        assert (
            out_a / "opnorm_summary.json"
        ).read_bytes() == (out_b / "opnorm_summary.json").read_bytes()
        summary = json.loads((out_a / "opnorm_summary.json").read_text())
        assert summary["passed"] is True
        assert abs(summary["summary"]["upper_slope"] + 0.5) <= 0.03

    def test_schema_rejection_exit_code(self, tmp_path):
        cfg = {"command": "opnorm", "parameters": {"alpha": 0.5, "beta": 0.5, "p": 4}}
        assert run(cfg, out_dir=str(tmp_path)) == 2

    def test_numerical_rejection_exit_code(self, tmp_path):
        # one sample per wavelength cannot resolve the restriction integrand
        cfg = {
            "command": "sharpness",
            "parameters": {
                "factors": {"space": {"kind": "sphere", "dimension": 3}, "copies": 5},
                "matrix": [[1.0], [1.0], [1.0], [1.0], [1.0]],
                "levels": [40],
                "p_values": [2],
                "points_per_wavelength": 1.0,
            },
        }
        assert run(cfg, out_dir=str(tmp_path)) == 3

    def test_oversized_non_integer_grid_exits_three(self, tmp_path, capsys):
        # a 1200 x 1800 direct grid, and the matrix cannot take the lattice rule
        cfg = {
            "command": "sharpness",
            "parameters": {
                "factors": S3_FIFTH,
                "matrix": [[1.0, 0.5], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                "levels": [40],
                "points_per_wavelength": 600,
            },
        }
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--check"]) == 0
        assert main(["--config", path, "--out", str(tmp_path)]) == 3
        assert "is too large and the matrix is not integer" in capsys.readouterr().err

    def test_unexpected_error_exits_four(self, tmp_path, monkeypatch, capsys):
        def handler(seed, threads):
            raise RuntimeError("boom")

        monkeypatch.setitem(COMMANDS, "exponents", lambda reader: handler)
        cfg = {"command": "exponents", "parameters": {}}  # the stub reads no key
        assert run(cfg, out_dir=str(tmp_path)) == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_bad_parameter_values_exit_two(self, tmp_path):
        cfg = {
            "command": "sharpness",
            "parameters": {
                "factors": {"space": {"kind": "sphere", "dimension": 3}, "copies": 5},
                "matrix": [[1.0], [1.0], [1.0], [1.0], [1.0]],
                "p_values": [2],
                "level_min": 900,
                "level_max": 400,
            },
        }
        assert run(cfg, out_dir=str(tmp_path)) == 2

    def test_sharpness_is_deterministic(self, tmp_path):
        cfg = {
            "command": "sharpness",
            "parameters": {
                "factors": {"space": {"kind": "sphere", "dimension": 3}, "copies": 5},
                "matrix": [[1.0], [1.0], [1.0], [1.0], [1.0]],
                "box": [[-0.25, 0.25]],
                "levels": [315, 495, 840, 1275],
                "p_values": [2],
                "slope_tolerance": 1.0,
            },
        }
        for sub in ("a", "b"):
            assert run(cfg, out_dir=str(tmp_path / sub)) == 0
        assert (tmp_path / "a" / "sharpness.csv").read_bytes() == (
            tmp_path / "b" / "sharpness.csv"
        ).read_bytes()

    def test_sharpness_at_a_large_p_keeps_the_exit_contract(self, tmp_path):
        # max|f|^40 overflows float64 on this box: the norm must take the max
        # out of the sum, with no overflow warning and no infinite ratio.
        cfg = {
            "command": "sharpness",
            "parameters": {
                "factors": S3_FIFTH,
                "matrix": [[1, 0], [1, 1], [0, 1], [0, 0], [0, 0]],
                "box": [[-0.25, 0.25], [-0.25, 0.25]],
                "levels": [3323, 3585, 4323],
                "p_values": [2, 40],
            },
        }
        assert validate(cfg) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(cfg, out_dir=str(tmp_path)) in (0, 1)

    def test_jacobi_half_case_passes(self, tmp_path):
        cfg = {
            "command": "jacobi",
            "parameters": {"alpha": 0.5, "beta": 0.5, "n_max": 128, "grid_size": 512},
        }
        assert run(cfg, out_dir=str(tmp_path)) == 0
        summary = json.loads((tmp_path / "jacobi_summary.json").read_text())
        assert summary["passed"] is True
        assert summary["summary"]["closed_form_checked"] is True

    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (3.0, 1.0)])
    def test_jacobi_columns_match_per_degree_evaluation(self, tmp_path, alpha, beta):
        # The handler reads all three columns off two shared sweeps; each is
        # computed here on its own, degree by degree.
        n_max, grid_size = 16, 64
        cfg = {
            "command": "jacobi",
            "parameters": {"alpha": alpha, "beta": beta, "n_max": n_max, "grid_size": grid_size},
        }
        assert run(cfg, out_dir=str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "jacobi.csv")
        params = JacobiParams.of(alpha, beta)
        theta = 2.0 * math.pi * np.arange(grid_size) / grid_size
        x_half = np.linspace(1.0 / grid_size, 1.0 - 1.0 / grid_size, max(grid_size // 4, 8))
        expected = []
        for n in range(n_max + 1):
            norm_dev = abs(jacobi_eval(params, n, 1.0) / jacobi_binomial(alpha, n) - 1.0)
            reference = (-1.0) ** n * jacobi_eval(params.swapped(), n, x_half)
            mirrored = jacobi_eval(params, n, -x_half)
            refl_dev = float(np.max(np.abs(mirrored - reference) / np.maximum(1.0, np.abs(reference))))
            closed_dev = 0.0
            if (alpha, beta) == (0.5, 0.5):
                cf = chebyshev_half_case(n, theta)
                closed = jacobi_eval(params, n, np.cos(theta))
                closed_dev = float(np.max(np.abs(closed - cf) / np.maximum(1.0, np.abs(cf))))
            expected.append([n, norm_dev, refl_dev, closed_dev])
        assert header == ["n", "normalization_dev", "reflection_dev", "closed_form_dev"]
        assert [[int(r[0])] + [float(v) for v in r[1:]] for r in rows] == expected
        assert any(row[3] > 0 for row in expected) == ((alpha, beta) == (0.5, 0.5))

    def test_kernel_norms_slope(self, tmp_path):
        cfg = {
            "command": "kernel-norms",
            "parameters": {
                "alpha": 1.0,
                "beta": 1.0,
                "q_values": [2],
                "n_values": [64, 128, 256, 512, 1024],
            },
        }
        assert run(cfg, out_dir=str(tmp_path)) == 0
        summary = json.loads((tmp_path / "kernel_norms_summary.json").read_text())
        fit = summary["summary"]["fits"]["q=2"]
        assert fit["expected"] == 0.5
        assert abs(fit["slope"] - 0.5) <= 0.05

    def test_kernel_norms_sweeps_each_degree_once(self, tmp_path, monkeypatch):
        calls = []
        kernel_samples = crossflat.torus.kernel_samples
        monkeypatch.setattr(
            crossflat.torus,
            "kernel_samples",
            lambda params, n, grid: calls.append(n) or kernel_samples(params, n, grid),
        )
        degrees = _record_coefficient_rows(monkeypatch)
        cfg = {"command": "kernel-norms", "parameters": {**KERNEL_NORMS, "q_values": [2, 4]}}
        assert run(cfg, out_dir=str(tmp_path)) in (0, 1)
        assert calls == [16, 32, 64]
        assert degrees == [16, 32, 64]
        monkeypatch.undo()
        header, rows = read_csv(tmp_path / "kernel_norms.csv")
        jp = JacobiParams.of(1.0, 1.0)
        expected = [(n, q, crossflat.torus.kernel_lp_norm(jp, n, q)) for q in (2, 4) for n in (16, 32, 64)]
        got = [(int(r[header.index("n")]), float(r[header.index("q")]), float(r[header.index("norm")])) for r in rows]
        assert got == expected

    @pytest.mark.parametrize("p", [2, 4])
    def test_opnorm_takes_one_coefficient_row_per_degree(self, tmp_path, monkeypatch, p):
        degrees = _record_coefficient_rows(monkeypatch)
        cfg = {"command": "opnorm", "seed": 1, "parameters": {**OPNORM, "p": p, "iteration_budget": 5}}
        assert run(cfg, out_dir=str(tmp_path), threads=2) in (0, 1)
        # Each cell takes its own row, in whichever order the two threads run.
        assert sorted(degrees) == OPNORM["n_values"]
        monkeypatch.undo()
        header, rows = read_csv(tmp_path / "opnorm.csv")
        jp = JacobiParams.of(OPNORM["alpha"], OPNORM["beta"])
        brackets = [crossflat.torus.opnorm_bracket(jp, n, p, seed=1, iteration_budget=5) for n in OPNORM["n_values"]]
        got = [(float(r[header.index("lower")]), float(r[header.index("upper")])) for r in rows]
        assert got == [(b.lower, b.upper) for b in brackets]

    def test_opnorm_at_a_large_p_keeps_the_exit_contract(self, tmp_path):
        # Young's sum of |k|^50 overflowed to inf here, and the run exited 2.
        cfg = {
            "command": "opnorm",
            "seed": 7,
            "parameters": {"alpha": 3, "beta": 1, "p": 100, "n_values": [64, 128, 256, 512]},
        }
        assert run(cfg, out_dir=str(tmp_path)) in (0, 1)
        header, rows = read_csv(tmp_path / "opnorm.csv")
        uppers = [float(r[header.index("upper")]) for r in rows]
        assert len(uppers) == 4 and all(math.isfinite(u) and u > 0 for u in uppers)
        summary = json.loads((tmp_path / "opnorm_summary.json").read_text())["summary"]
        assert summary["unrefined_degrees"] == []

    def test_opnorm_at_a_large_odd_p_refines_every_degree(self, tmp_path):
        # The unscaled |g|^99 overflowed here: every degree was unrefined,
        # and numpy's overflow warning reached stderr.
        cfg = {
            "command": "opnorm",
            "seed": 7,
            "parameters": {"alpha": 3, "beta": 1, "p": 99, "n_values": [64, 128, 256]},
        }
        config = tmp_path / "opnorm.json"
        config.write_text(json.dumps(cfg))
        done = subprocess.run(
            [sys.executable, "-m", "crossflat", "--config", str(config), "--out", str(tmp_path / "out")],
            env=child_env(), capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")
        summary = json.loads((tmp_path / "out" / "opnorm_summary.json").read_text())["summary"]
        assert summary["unrefined_degrees"] == []

    def test_kernel_norms_at_a_large_q_keep_the_exit_contract(self, tmp_path):
        cfg = {"command": "kernel-norms", "parameters": {**KERNEL_NORMS, "alpha": 3.0, "q_values": [2, 200]}}
        assert run(cfg, out_dir=str(tmp_path)) in (0, 1)
        header, rows = read_csv(tmp_path / "kernel_norms.csv")
        norms = [float(r[header.index("norm")]) for r in rows]
        assert len(norms) == 6 and all(math.isfinite(v) and v > 0 for v in norms)

    @pytest.mark.parametrize("p, n_values, ok", [
        (1e300, None, False),  # its 5-smooth table would exhaust memory
        (7814, [64, 128, 256], False),  # 7814 * 256 + 1 > 2,000,000
        (7812, [64, 128, 256], True),
        (7813, [64, 128, 256], True),  # odd p iterate on the default grid
    ])
    def test_opnorm_check_bounds_the_even_p_iteration_grid(self, tmp_path, capsys, p, n_values, ok):
        # Through --check only: an accepted p this large would run for long.
        params = {"alpha": 1, "beta": 0, "p": p, **({"n_values": n_values} if n_values else {})}
        path = write_config(tmp_path, {"command": "opnorm", "seed": 7, "parameters": params})
        assert main(["--config", path, "--check"]) == (0 if ok else 2)
        err = capsys.readouterr().err
        assert err == "" if ok else err.startswith("parameters.p: an even p iterates on more than")

    def test_opnorm_run_rejects_an_oversized_even_p_before_any_work(self, tmp_path, capsys):
        cfg = {"command": "opnorm", "seed": 7, "parameters": {"alpha": 1, "beta": 0, "p": 1e300}}
        assert run(cfg, out_dir=str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("config error: parameters.p: an even p iterates")
        assert not (tmp_path / "opnorm.csv").exists()

    @pytest.mark.parametrize("q, ok", [(0.001, False), (0.003, True)])
    def test_kernel_norms_rejects_a_q_whose_norm_passes_float64(self, tmp_path, capsys, q, ok):
        # With n up to 2048 at (1, 1), log(2 pi)/q + log(2049) passes
        # log(DBL_MAX) = 709.8 at q = 0.001 (1845) but not at 0.003 (620).
        cfg = json.loads(open(os.path.join(os.path.dirname(__file__), "..", "configs",
                                           "kernel_norms_gegenbauer.json")).read())
        cfg["parameters"]["q_values"] = [2, q]
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--check"]) == (0 if ok else 2)
        if not ok:
            assert capsys.readouterr().err.startswith("parameters.q_values: q = 0.001 puts the bound")
            assert run(cfg, out_dir=str(tmp_path)) == 2
            assert capsys.readouterr().err.startswith("config error: parameters.q_values: q = 0.001")

    def test_opnorm_reports_unrefined_degrees(self, tmp_path, monkeypatch):
        bracket = crossflat.torus.opnorm_bracket
        cfg = {"command": "opnorm", "seed": 1, "parameters": {**OPNORM, "p": 4, "iteration_budget": 5}}
        assert run(cfg, out_dir=str(tmp_path / "a")) in (0, 1)

        def unrefined_at_32(*args, **kwargs):
            b = bracket(*args, **kwargs)
            return type(b)(b.lower, b.upper, b.lower_witness, b.upper_method, refined=args[1] != 32)

        monkeypatch.setattr(crossflat.torus, "opnorm_bracket", unrefined_at_32)
        assert run(cfg, out_dir=str(tmp_path / "b")) in (0, 1)
        summaries = [json.loads((tmp_path / side / "opnorm_summary.json").read_text()) for side in "ab"]
        assert [s["summary"]["unrefined_degrees"] for s in summaries] == [[], [32]]
        # The CSV does not carry the flag.
        assert (tmp_path / "a" / "opnorm.csv").read_bytes() == (tmp_path / "b" / "opnorm.csv").read_bytes()

    @pytest.mark.parametrize("space", [S3, {"kind": "octonionic_plane", "dimension": 16}], ids=["S3", "OP16"])
    def test_fourier_extremes_are_those_of_the_two_sided_coefficients(self, tmp_path, space):
        # The handler reads them off the one-sided row.
        assert run({"command": "fourier", "parameters": {"space": space, "n_max": 90}}, out_dir=str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "fourier.csv")
        expansions = crossflat.spaces.fourier_expansions(crossflat.spaces.space_from_dict(space), range(91))
        for row, (n, exp) in zip(rows, expansions):
            c = exp.coefficients()
            assert int(row[0]) == n
            assert float(row[header.index("min_coefficient")]) == float(np.min(c))
            assert float(row[header.index("max_coefficient")]) == float(np.max(c))
            assert float(row[header.index("coefficient_sum")]) == pytest.approx(1.0, abs=1e-13)

    def test_fourier_positivity(self, tmp_path):
        cfg = {
            "command": "fourier",
            "parameters": {
                "space": {"kind": "complex_projective", "dimension": 4},
                "n_max": 60,
            },
        }
        assert run(cfg, out_dir=str(tmp_path)) == 0


class TestMain:
    def test_check_flag(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "exponents", "parameters": {"d_list": [3, 3], "k": 1, "p": 2}},
        )
        assert main(["--config", path, "--check"]) == 0

    def test_check_flag_bad_config(self, tmp_path):
        path = write_config(tmp_path, {"command": "opnorm", "parameters": {}})
        assert main(["--config", path, "--check"]) == 2

    def test_check_flag_names_each_unknown_key(self, tmp_path, capsys):
        params = {"space": S3, "n_maxx": 10, "sum_tolerance": 1e-8, "x": 1}
        path = write_config(tmp_path, {"command": "fourier", "parameters": params})
        assert main(["--config", path, "--check"]) == 2
        assert capsys.readouterr().err == "parameters.n_maxx: unknown key\nparameters.x: unknown key\n"

    def test_missing_config_file(self):
        assert main(["--config", "/nonexistent/config.json"]) == 2

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        out = tmp_path / "from_env"
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(out))
        path = write_config(
            tmp_path,
            {"command": "exponents", "parameters": {"d_list": [3, 3], "k": 0, "p": 2}},
        )
        assert main(["--config", path]) == 0
        assert (out / "exponents_summary.json").exists()

    def test_out_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ENV_VAR, str(tmp_path / "env"))
        out = tmp_path / "flag"
        path = write_config(
            tmp_path,
            {"command": "exponents", "parameters": {"d_list": [3, 3], "k": 0, "p": 2}},
        )
        assert main(["--config", path, "--out", str(out)]) == 0
        assert (out / "exponents_summary.json").exists()
        assert not (tmp_path / "env").exists()

    def test_seed_override_changes_echo(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "command": "opnorm",
                "seed": 1,
                "parameters": {"alpha": 0.5, "beta": 0.5, "p": 2, "n_values": [16, 32, 64]},
            },
        )
        out = tmp_path / "o"
        assert main(["--config", path, "--out", str(out), "--seed", "9"]) in (0, 1)
        summary = json.loads((out / "opnorm_summary.json").read_text())
        assert summary["seed"] == 9

    def test_seed_override_is_checked_like_the_config_seed(self, tmp_path, capsys):
        cfg = {"command": "opnorm", "parameters": {**OPNORM, "n_values": [8, 16, 32]}}
        path = write_config(tmp_path, {**cfg, "seed": 1})
        assert main(["--config", path, "--out", str(tmp_path / "negative"), "--seed", "-1"]) == 2
        assert "config error: seed:" in capsys.readouterr().err
        path = write_config(tmp_path, cfg, name="unseeded.json")
        assert main(["--config", path, "--out", str(tmp_path / "seeded"), "--seed", "3"]) == 0

    def test_threads_fanout_matches_serial(self, tmp_path):
        cfg = {
            "command": "opnorm",
            "seed": 4,
            "parameters": {
                "alpha": 1.0,
                "beta": 1.0,
                "p": 4,
                "n_values": [16, 32, 64],
                "iteration_budget": 25,
            },
        }
        path = write_config(tmp_path, cfg)
        serial = tmp_path / "serial"
        fanout = tmp_path / "fanout"
        main(["--config", path, "--out", str(serial)])
        main(["--config", path, "--out", str(fanout), "--threads", "3"])
        assert (serial / "opnorm.csv").read_bytes() == (fanout / "opnorm.csv").read_bytes()

    def test_threads_fanout_matches_serial_on_sharpness(self, tmp_path):
        cfg = {
            "command": "sharpness",
            "parameters": {
                "factors": [S2, S3, {"kind": "complex_projective", "dimension": 4}],
                "matrix": [[1, 0], [1, 1], [0, 1]],
                "box": [[-0.5, 0.5], [0, 1]],
                "levels": [40, 60, 80, 100, 120],
                "p_values": [2, 5, 8],
                "slope_tolerance": 10,
            },
        }
        path = write_config(tmp_path, cfg)
        serial = tmp_path / "serial"
        fanout = tmp_path / "fanout"
        code = main(["--config", path, "--out", str(serial)])
        assert main(["--config", path, "--out", str(fanout), "--threads", "2"]) == code
        for name in ("sharpness.csv", "sharpness_summary.json"):
            assert (serial / name).read_bytes() == (fanout / name).read_bytes()


class TestOutputFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_outputs_follow_the_umask(self, tmp_path, umask):
        path = write_config(tmp_path, {"command": "exponents", "parameters": EXPONENTS})
        out = tmp_path / "out"
        previous = os.umask(umask)
        try:
            assert main(["--config", path, "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert sorted(os.listdir(out)) == ["exponents.csv", "exponents_summary.json"]
        for name in os.listdir(out):
            assert os.stat(out / name).st_mode & 0o777 == 0o666 & ~umask, name

    def test_a_failed_write_keeps_the_old_file_and_leaves_no_temporary(self, tmp_path, monkeypatch):
        target = tmp_path / "table.csv"
        target.write_text("old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            crossflat.cli._write_atomic(str(target), "new\n")
        assert os.listdir(tmp_path) == ["table.csv"]
        assert target.read_text() == "old\n"

    @pytest.mark.parametrize("command", sorted(CONTRACT_BASES))
    def test_no_locale_dependent_encoding(self, tmp_path, command):
        path = write_config(tmp_path, {"command": command, **CONTRACT_BASES[command]})
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "crossflat", "--config", path, "--out", str(tmp_path / "out")],
            env=child_env(), capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (0, "")


def _compare_outputs_module():
    import importlib.util

    spec = importlib.util.spec_from_file_location("compare_outputs", os.path.join(REPO, "scripts", "compare_outputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareOutputsReport:
    def test_csv_reports_each_moved_column_and_text_cells(self):
        describe = _compare_outputs_module().describe
        ours = b"n,dimension,ok\n1,3.0000000000003,true\n2,5,true\n"
        theirs = b"n,dimension,ok\n1,3,true\n2,5,true\n"
        assert describe("csv", ours, theirs) == [
            "  csv dimension: max relative difference 1e-13, max absolute difference 3e-13",
            "  csv non-numeric cells differ: no",
        ]
        assert describe("csv", ours, theirs.replace(b"2,5,true", b"2,5,false"))[-1] == "  csv non-numeric cells differ: yes"

    def test_summary_walks_nested_fields(self):
        describe = _compare_outputs_module().describe
        ours = json.dumps({"summary": {"growth_slope": 2.0, "slope_ok": True}, "seed": 1}).encode()
        theirs = json.dumps({"summary": {"growth_slope": 2.5, "slope_ok": True}, "seed": 1}).encode()
        assert describe("summary", ours, theirs) == [
            "  summary summary.growth_slope: max relative difference 0.2, max absolute difference 0.5",
            "  summary non-numeric cells differ: no",
        ]
        assert describe("summary", None, theirs) == ["  summary: only one tree wrote it"]

    def test_summary_counts_a_key_that_holds_an_empty_list(self):
        describe = _compare_outputs_module().describe
        ours = json.dumps({"summary": {"unrefined_degrees": [], "upper_slope": 2.0}}).encode()
        theirs = json.dumps({"summary": {"upper_slope": 2.0}}).encode()
        assert describe("summary", ours, theirs) == ["  summary non-numeric cells differ: yes"]
        assert describe("summary", ours, ours) == ["  summary non-numeric cells differ: no"]
