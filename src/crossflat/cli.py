"""Batch driver: one subcommand per verification suite, JSON config in,
CSV data plus JSON summary out.

Exit codes: 0 all requested checks passed, 1 a check failed, 2 config/schema
rejection, 3 numerical rejection (aliasing or under-resolution).  Identical
config and seed give byte-identical outputs; floats are serialized with 17
significant digits and files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from . import products, spaces, torus
from .spaces import AliasingError, QuadratureOrderError
from .products import ResolutionError
from .special import JacobiParams

SCHEMA_VERSION = 1
OUTPUT_ENV_VAR = "CROSSFLAT_OUT"

COMMANDS = (
    "jacobi",
    "kernel-norms",
    "opnorm",
    "fourier",
    "dimension",
    "shell",
    "sharpness",
    "exponents",
)

_DOUBLING_64_4096 = [64, 128, 256, 512, 1024, 2048, 4096]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if value is math.inf:
        return "inf"
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def _check_number(params: dict, key: str, out: list[str], required: bool = True) -> None:
    if key not in params:
        if required:
            out.append(f"parameters.{key}: missing")
        return
    if not isinstance(params[key], (int, float)) or isinstance(params[key], bool):
        out.append(f"parameters.{key}: must be a number")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_degrees(params: dict, out: list[str]) -> None:
    if "n_values" not in params:
        return
    ns = params["n_values"]
    if not (
        isinstance(ns, list)
        and len(ns) >= 3
        and all(_is_int(n) and n > 0 for n in ns)
        and all(a < b for a, b in zip(ns, ns[1:]))
    ):
        out.append(
            "parameters.n_values: must be a list of at least three strictly increasing positive integers"
        )


def _check_space(params: dict, out: list[str]) -> None:
    space = params.get("space")
    if not isinstance(space, dict):
        out.append("parameters.space: missing or not an object")
        return
    try:
        spaces.space_from_dict(space)
    except (KeyError, ValueError) as exc:
        out.append(f"parameters.space: {exc}")


def _check_factors(params: dict, out: list[str]) -> None:
    spec = params.get("factors")
    if isinstance(spec, dict):
        copies = spec.get("copies")
        if not (_is_int(copies) and copies >= 2):
            out.append("parameters.factors.copies: must be an integer >= 2")
        space_specs = [spec.get("space")]
    elif isinstance(spec, list) and len(spec) >= 2:
        space_specs = spec
    else:
        out.append(
            "parameters.factors: must be a list of at least two spaces or {space, copies}"
        )
        return
    for space in space_specs:
        if not isinstance(space, dict):
            out.append("parameters.factors: every space must be an object")
            return
        try:
            spaces.space_from_dict(space)
        except (KeyError, ValueError) as exc:
            out.append(f"parameters.factors: {exc}")


def _check_level_list(params: dict, key: str, out: list[str]) -> None:
    if key in params:
        values = params[key]
        if not (isinstance(values, list) and values and all(_is_int(v) and v >= 0 for v in values)):
            out.append(f"parameters.{key}: must be a nonempty list of nonnegative integers")


def validate(config: dict) -> list[str]:
    """Diagnostics for a config; empty means run() will not reject it on
    schema grounds."""
    out: list[str] = []
    if not isinstance(config, dict):
        return ["config: must be a JSON object"]
    command = config.get("command")
    if command not in COMMANDS:
        out.append(f"command: must be one of {', '.join(COMMANDS)}")
        return out
    params = config.get("parameters", {})
    if not isinstance(params, dict):
        out.append("parameters: must be an object")
        return out
    seed = config.get("seed")
    if isinstance(seed, bool):
        out.append("seed: must be an integer, not a boolean")
    elif command == "opnorm" and not isinstance(seed, int):
        out.append("seed: required for opnorm (fixes the randomized lower-bound search)")
    if command == "opnorm":
        _check_number(params, "alpha", out)
        _check_number(params, "beta", out)
        _check_number(params, "p", out)
        _check_degrees(params, out)
        p = params.get("p")
        if isinstance(p, (int, float)) and p < 2:
            out.append("parameters.p: operator-norm sweeps are stated for p >= 2")
    elif command == "jacobi":
        _check_number(params, "alpha", out)
        _check_number(params, "beta", out)
    elif command == "kernel-norms":
        _check_number(params, "alpha", out)
        _check_number(params, "beta", out)
        _check_degrees(params, out)
        qs = params.get("q_values", [2])
        if not (isinstance(qs, list) and qs and all(isinstance(q, (int, float)) and q > 0 for q in qs)):
            out.append("parameters.q_values: must be a nonempty list of positive numbers")
    elif command in ("fourier", "dimension"):
        _check_space(params, out)
    elif command == "shell":
        _check_factors(params, out)
        level = params.get("level")
        if not (_is_int(level) and level >= 0):
            out.append("parameters.level: missing or not a nonnegative integer")
        if not isinstance(params.get("ordering_constraint", True), bool):
            out.append("parameters.ordering_constraint: must be true or false")
    elif command == "sharpness":
        _check_factors(params, out)
        if "matrix" not in params:
            out.append("parameters.matrix: missing")
        _check_level_list(params, "levels", out)
        _check_level_list(params, "degrees", out)
        if "levels" not in params and "degrees" not in params:
            lo, hi = params.get("level_min", 1700), params.get("level_max", 9900)
            if not (_is_int(lo) and _is_int(hi) and 0 < lo < hi):
                out.append("parameters.level_min, level_max: must be integers with 0 < level_min < level_max")
            count = params.get("level_count", 12)
            if not (_is_int(count) and count >= 3):
                out.append("parameters.level_count: must be an integer >= 3 (the slope fit needs three levels)")
        epsilon = params.get("epsilon", 0.05)
        if not (isinstance(epsilon, (int, float)) and not isinstance(epsilon, bool) and 0 < epsilon < 1):
            out.append("parameters.epsilon: must be a number in (0, 1)")
        for key in ("p_values",):
            ps = params.get(key, [2])
            if not (isinstance(ps, list) and ps and all(isinstance(q, (int, float)) and q >= 2 for q in ps)):
                out.append(f"parameters.{key}: must be a nonempty list of numbers >= 2")
    elif command == "exponents":
        dl = params.get("d_list")
        if not (isinstance(dl, list) and len(dl) >= 2 and all(isinstance(d, int) and d >= 2 for d in dl)):
            out.append("parameters.d_list: must be a list of at least two integer dimensions >= 2")
        if not isinstance(params.get("k"), int):
            out.append("parameters.k: missing or not an integer")
        if "p" not in params:
            out.append("parameters.p: missing")
    return out


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _factors_from(params: dict) -> products.ProductManifold:
    spec = params["factors"]
    if isinstance(spec, dict):
        base = spaces.space_from_dict(spec["space"])
        return products.ProductManifold.of(*[base] * int(spec["copies"]))
    return products.ProductManifold.of(*[spaces.space_from_dict(s) for s in spec])


def _submanifold_from(params: dict) -> products.FlatSubmanifold:
    return products.FlatSubmanifold.of(
        params["matrix"],
        params.get("offset", [0.0] * len(params["matrix"])),
        params.get("box"),
    )


def _cmd_jacobi(params: dict, seed, threads):
    from .special import chebyshev_half_case, jacobi_binomial, jacobi_recurrence_rows

    jp = JacobiParams.of(params["alpha"], params["beta"])
    n_max = int(params.get("n_max", 512))
    grid_size = int(params.get("grid_size", 2048))
    tol_norm = float(params.get("normalization_tolerance", 1e-10))
    tol_refl = float(params.get("reflection_tolerance", 1e-10))
    tol_closed = float(params.get("closed_form_tolerance", 1e-9))
    half = jp.twice_alpha == 1 and jp.twice_beta == 1
    theta = 2.0 * math.pi * np.arange(grid_size) / grid_size
    x_half = np.linspace(1.0 / grid_size, 1.0 - 1.0 / grid_size, max(grid_size // 4, 8))
    swapped = dict(jacobi_recurrence_rows(jp.beta, jp.alpha, n_max, x_half))
    closed = (
        dict(jacobi_recurrence_rows(jp.alpha, jp.beta, n_max, np.cos(theta))) if half else {}
    )
    header = ["n", "normalization_dev", "reflection_dev", "closed_form_dev"]
    rows = []
    worst = {"normalization": 0.0, "reflection": 0.0, "closed_form": 0.0}
    mirrored = dict(jacobi_recurrence_rows(jp.alpha, jp.beta, n_max, -x_half))
    for n, value_at_one in jacobi_recurrence_rows(jp.alpha, jp.beta, n_max, np.array([1.0])):
        norm_dev = abs(value_at_one[0] / jacobi_binomial(jp.alpha, n) - 1.0)
        reference = (-1.0) ** n * swapped[n]
        refl_dev = float(
            np.max(np.abs(mirrored[n] - reference) / np.maximum(1.0, np.abs(reference)))
        )
        closed_dev = 0.0
        if half:
            cf = chebyshev_half_case(n, theta)
            closed_dev = float(np.max(np.abs(closed[n] - cf) / np.maximum(1.0, np.abs(cf))))
        rows.append((n, norm_dev, refl_dev, closed_dev))
        worst["normalization"] = max(worst["normalization"], norm_dev)
        worst["reflection"] = max(worst["reflection"], refl_dev)
        worst["closed_form"] = max(worst["closed_form"], closed_dev)
    passed = worst["normalization"] <= tol_norm and worst["reflection"] <= tol_refl
    if half:
        passed = passed and worst["closed_form"] <= tol_closed
    summary = {
        "worst": worst,
        "tolerances": {
            "normalization": tol_norm,
            "reflection": tol_refl,
            "closed_form": tol_closed,
        },
        "closed_form_checked": half,
    }
    return header, rows, summary, passed


def _cmd_kernel_norms(params: dict, seed, threads):
    jp = JacobiParams.of(params["alpha"], params["beta"])
    n_values = [int(n) for n in params.get("n_values", _DOUBLING_64_4096)]
    q_values = [float(q) for q in params.get("q_values", [2])]
    slope_tol = float(params.get("slope_tolerance", 0.05))
    header = ["alpha", "beta", "n", "q", "norm", "envelope", "ratio"]
    rows = []
    fits = {}
    passed = True
    for q in q_values:
        points = []
        for n in n_values:
            norm = torus.kernel_lp_norm(jp, n, q)
            env = torus.envelope_A_tilde(jp.alpha, q, n)
            rows.append((jp.alpha, jp.beta, n, q, norm, env, norm / env))
            points.append((n, norm))
        fit = torus.fit_exponent(points)
        kink = abs(q - 1.0 / (jp.alpha + 0.5)) <= 1e-12
        expected = -0.5 if q < 1.0 / (jp.alpha + 0.5) or kink else jp.alpha - 1.0 / q
        ok = abs(fit.slope - expected) <= slope_tol
        passed = passed and ok
        fits[f"q={q:g}"] = {
            "slope": fit.slope,
            "expected": expected,
            "within_tolerance": ok,
        }
    summary = {"fits": fits, "slope_tolerance": slope_tol}
    return header, rows, summary, passed


def _cmd_opnorm(params: dict, seed, threads):
    jp = JacobiParams.of(params["alpha"], params["beta"])
    p = float(params["p"])
    n_values = [int(n) for n in params.get("n_values", _DOUBLING_64_4096)]
    budget = int(params.get("iteration_budget", 200))
    slope_tol = float(params.get("slope_tolerance", 0.05))
    header = ["alpha", "beta", "n", "p", "lower", "upper", "envelope", "ratio"]

    def cell(n: int):
        bracket = torus.opnorm_bracket(jp, n, p, seed=seed or 0, iteration_budget=budget)
        env = torus.envelope_A(jp.alpha, p / 2.0, n)
        return (jp.alpha, jp.beta, n, p, bracket.lower, bracket.upper, env, bracket.upper / env)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(cell, n_values))
    else:
        rows = [cell(n) for n in n_values]
    upper_fit = torus.fit_exponent([(r[2], r[5]) for r in rows])
    lower_fit = torus.fit_exponent([(r[2], r[4]) for r in rows])
    kink = abs(p / 2.0 - 1.0 / (jp.alpha + 0.5)) <= 1e-12
    expected = -0.5 if (p / 2.0 < 1.0 / (jp.alpha + 0.5) or kink) else jp.alpha - 2.0 / p
    bracket_ok = all(r[4] <= r[5] * (1 + 1e-12) for r in rows)
    slope_ok = abs(upper_fit.slope - expected) <= slope_tol
    summary = {
        "upper_slope": upper_fit.slope,
        "expected_exponent": expected,
        "slope_tolerance": slope_tol,
        "lower_slope_diagnostic": lower_fit.slope,
        "bracket_order_ok": bracket_ok,
    }
    return header, rows, summary, bool(bracket_ok and slope_ok)


def _cmd_fourier(params: dict, seed, threads):
    space = spaces.space_from_dict(params["space"])
    n_max = int(params.get("n_max", 400))
    neg_tol = float(params.get("negativity_tolerance", 1e-9))
    sum_tol = float(params.get("sum_tolerance", 1e-8))
    header = ["n", "min_coefficient", "max_coefficient", "coefficient_sum"]
    rows = []
    passed = True
    for n, exp in spaces.fourier_expansions(space, space.degrees(n_max)):
        c = exp.coefficients()
        lo, hi, total = float(np.min(c)), float(np.max(c)), float(np.sum(c))
        rows.append((n, lo, hi, total))
        passed = passed and lo >= -neg_tol * hi and abs(total - 1.0) <= sum_tol
    summary = {"negativity_tolerance": neg_tol, "sum_tolerance": sum_tol}
    return header, rows, summary, passed


def _cmd_dimension(params: dict, seed, threads):
    space = spaces.space_from_dict(params["space"])
    n_values = params.get("n_values")
    if n_values is None:
        n_values = list(range(0, int(params.get("n_max", 50)) + 1))
    n_values = [int(n) for n in n_values]
    integer_tol = float(params.get("integer_tolerance", 1e-6))
    slope_tol = float(params.get("slope_tolerance", 0.02))
    header = ["n", "dimension", "nearest_integer", "integer_rel_dev"]
    rows = []
    int_ok = True
    for n in n_values:
        k = spaces.rep_dimension(space, n)
        nearest = round(k)
        dev = abs(k - nearest) / max(k, 1.0)
        rows.append((n, k, nearest, dev))
        int_ok = int_ok and dev <= integer_tol
    positive = [n for n in n_values if n >= 1]
    summary: dict = {"integer_tolerance": integer_tol, "integrality_ok": int_ok}
    passed = int_ok
    if len(positive) >= 3:
        fit = torus.fit_exponent([(n + 1, spaces.rep_dimension(space, n)) for n in positive])
        expected = space.dimension - 1
        slope_ok = abs(fit.slope - expected) <= slope_tol
        summary.update(
            {
                "growth_slope": fit.slope,
                "expected_slope": expected,
                "slope_tolerance": slope_tol,
                "slope_ok": slope_ok,
            }
        )
        # The slope gate is opt-in: finite degree ranges sit below d-1 by
        # O(1/n_min) for spaces whose eigenvalue shift is not 2.
        if params.get("check_slope", False):
            passed = passed and slope_ok
    return header, rows, summary, passed


def _cmd_shell(params: dict, seed, threads):
    manifold = _factors_from(params)
    level = params["level"]
    constrained = params.get("ordering_constraint", True)
    shell = products.enumerate_shell(manifold, level, constrained)
    header = ["level", "member"]
    rows = [(level, "(" + ",".join(str(n) for n in member) + ")") for member in shell.members]
    summary = {"level": level, "count": len(shell), "ordering_constraint": constrained}
    return header, rows, summary, True


def _cmd_sharpness(params: dict, seed, threads):
    manifold = _factors_from(params)
    sub = _submanifold_from(params)
    p_values = [float(p) for p in params.get("p_values", [2])]
    if "levels" in params:
        levels = [int(v) for v in params["levels"]]
    elif "degrees" in params:
        levels = products.diagonal_levels(manifold, [int(v) for v in params["degrees"]])
    else:
        levels = products.trend_levels(
            manifold,
            int(params.get("level_min", 1700)),
            int(params.get("level_max", 9900)),
            int(params.get("level_count", 12)),
        )
    ppw = float(params.get("points_per_wavelength", 8.0))
    slope_tol = float(params.get("slope_tolerance", 0.25))
    epsilon = float(params.get("epsilon", 0.05))
    header = ["p", "level", "N", "shell_size", "ratio", "envelope", "fit_value", "fit_residual"]
    rows = []
    summary: dict = {"p": {}}
    passed = True

    def sweep(p: float):
        return products.sharpness_report(manifold, sub, p, levels, ppw)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(sweep, p_values))
    else:
        reports = [sweep(p) for p in p_values]
    d, k = manifold.dimension, sub.k
    for p, (report_rows, fit) in zip(p_values, reports):
        for row in report_rows:
            fitted = math.exp(fit.intercept) * row.spectral_parameter ** fit.slope
            rows.append(
                (
                    p,
                    row.level,
                    row.spectral_parameter,
                    row.shell_size,
                    row.ratio,
                    row.envelope,
                    fitted,
                    math.log(row.ratio) - math.log(fitted),
                )
            )
        target = (d - 2) / 2.0 - k / p
        ok = abs(fit.slope - target) <= slope_tol
        passed = passed and ok
        summary["p"][f"{p:g}"] = {"ratio_slope": fit.slope, "target": target, "within_tolerance": ok}
    # pointwise concentration check on every swept shell
    pw_min = math.inf
    for level in levels:
        shell = products.enumerate_shell(manifold, level)
        if len(shell):
            pw_min = min(pw_min, products.pointwise_lower_check(manifold, shell, epsilon))
    summary["pointwise_minimum"] = pw_min if pw_min is not math.inf else None
    if pw_min is not math.inf:
        passed = passed and pw_min >= 0.5
    # unconstrained count growth
    counts = products.count_unconstrained(manifold, max(levels))
    pts = [
        (math.sqrt(lv), int(counts[lv]))
        for lv in range(max(100, min(levels)), max(levels) + 1)
        if counts[lv] > 0
    ]
    if len(pts) >= 3:
        count_fit = torus.fit_exponent(pts)
        summary["count_slope"] = count_fit.slope
        summary["count_slope_floor"] = manifold.rank - 2 - 0.3
        passed = passed and count_fit.slope >= manifold.rank - 2 - 0.3
    summary["slope_tolerance"] = slope_tol
    return header, rows, summary, passed


def _cmd_exponents(params: dict, seed, threads):
    p_raw = params["p"]
    p = p_raw if isinstance(p_raw, (int, str)) else float(p_raw)
    table = products.exponent_table(params["d_list"], int(params["k"]), p)
    header = ["factor_dimension", "tau"]
    rows = [(d, str(t)) for d, t in zip(table.dims, table.taus)]
    summary = {
        "dims": list(table.dims),
        "k": table.k,
        "p": _jsonable(table.p),
        "taus": [str(t) for t in table.taus],
        "product_exponent": _jsonable(table.product_exponent),
        "joint_exponent": _jsonable(table.joint_exponent),
        "no_loss_exponent": _jsonable(table.no_loss_exponent),
        "baseline_exponent": _jsonable(table.baseline_exponent),
        "baseline_note": table.baseline_note,
        "improvement": _jsonable(table.improvement),
    }
    return header, rows, summary, True


_HANDLERS = {
    "jacobi": _cmd_jacobi,
    "kernel-norms": _cmd_kernel_norms,
    "opnorm": _cmd_opnorm,
    "fourier": _cmd_fourier,
    "dimension": _cmd_dimension,
    "shell": _cmd_shell,
    "sharpness": _cmd_sharpness,
    "exponents": _cmd_exponents,
}


def run(config: dict, out_dir: str | None = None, seed_override: int | None = None, threads: int = 1) -> int:
    """Validate, execute, and write artifacts; returns the process exit code."""
    diagnostics = validate(config)
    if diagnostics:
        for line in diagnostics:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    command = config["command"]
    seed = seed_override if seed_override is not None else config.get("seed")
    directory = out_dir or os.environ.get(OUTPUT_ENV_VAR) or config.get("output_path") or "."
    try:
        header, rows, summary, passed = _HANDLERS[command](
            config.get("parameters", {}), seed, max(1, threads)
        )
    except (AliasingError, ResolutionError, QuadratureOrderError) as exc:
        print(f"numerical rejection: {exc}", file=sys.stderr)
        return 3
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    slug = command.replace("-", "_")
    _write_csv(os.path.join(directory, f"{slug}.csv"), header, rows)
    _write_json(
        os.path.join(directory, f"{slug}_summary.json"),
        {
            "version": SCHEMA_VERSION,
            "command": command,
            "config": _jsonable(config),
            "seed": seed,
            "passed": bool(passed),
            "summary": _jsonable(summary),
        },
    )
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crossflat",
        description="batch verification runs for Jacobi kernels, rank-one spaces, and flat restriction sweeps",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory (overrides config and env)")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for sweep fan-out")
    parser.add_argument("--check", action="store_true", help="validate the config and exit")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.check:
        diagnostics = validate(config)
        for line in diagnostics:
            print(line, file=sys.stderr)
        return 0 if not diagnostics else 2
    return run(config, out_dir=args.out, seed_override=args.seed, threads=args.threads)


if __name__ == "__main__":
    raise SystemExit(main())
