import json
import math
import os

import pytest

from crossflat.cli import OUTPUT_ENV_VAR, main, run, validate


S3 = {"kind": "sphere", "dimension": 3}
S3_FIFTH = {"space": S3, "copies": 5}
SHARPNESS = {"factors": S3_FIFTH, "matrix": [[1.0]] * 5, "p_values": [2]}


def write_config(tmp_path, config, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


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
        ],
    )
    def test_check_agrees_with_run(self, tmp_path, cfg):
        assert validate(cfg) != []
        assert run(cfg, out_dir=str(tmp_path)) == 2


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

    def test_jacobi_half_case_passes(self, tmp_path):
        cfg = {
            "command": "jacobi",
            "parameters": {"alpha": 0.5, "beta": 0.5, "n_max": 128, "grid_size": 512},
        }
        assert run(cfg, out_dir=str(tmp_path)) == 0
        summary = json.loads((tmp_path / "jacobi_summary.json").read_text())
        assert summary["passed"] is True
        assert summary["summary"]["closed_form_checked"] is True

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
