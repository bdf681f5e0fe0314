"""Batch driver: one subcommand per verification suite, JSON config in,
CSV data plus JSON summary out.

Exit codes: 0 all requested checks passed, 1 a check failed, 2 config/schema
rejection, 3 numerical rejection (under-resolution), 4 unexpected
error (one line `internal error: <Type>: <message>` on stderr).  Identical
config and seed give byte-identical outputs; floats are serialized with 17
significant digits and files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

# Each parse function imports the layers its parse reads, and each handler
# those its run adds, so that a command, and its --check, load no layer
# they do not use.
from .special import JacobiParams, ResolutionError, jacobi_binomial

SCHEMA_VERSION = 1
OUTPUT_ENV_VAR = "CROSSFLAT_OUT"

_DOUBLING_64_4096 = [64, 128, 256, 512, 1024, 2048, 4096]


def _fmt(value) -> str:
    if isinstance(value, float):  # most cells; np.float64 gives the same text as float(value)
        return f"{value:.17g}"
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
    # O_EXCL under a random name, as mkstemp does, but with mode 0o666 so that
    # the umask decides the file's permissions, as for a plain open().
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _jsonable(value):
    # No Fraction exists before the exact layers have loaded fractions.
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
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
# parameter parsing
# ---------------------------------------------------------------------------

_REQUIRED = object()

# Ranges a number can be held to: (description, test).
_ANY = ("", lambda x: True)
_NONNEGATIVE = (">= 0", lambda x: x >= 0)
_POSITIVE = ("> 0", lambda x: x > 0)
_FINITE_POSITIVE = ("> 0 and finite", lambda x: 0 < x < math.inf)
_OPEN_UNIT = ("in (0, 1)", lambda x: 0 < x < 1)
_EXPONENT = (">= 2 (the norms are stated for p >= 2)", lambda x: x >= 2)
_FINITE_EXPONENT = (">= 2 and finite (the bracket is stated for finite p >= 2)", lambda x: 2 <= x < math.inf)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _bounds(minimum: int, below: int | None) -> str:
    return f">= {minimum}" + ("" if below is None else f" and < {below}")


class _Parameters:
    """Typed reads of one command's parameters.

    Each getter returns its key's value, or the default when the key is
    absent.  A missing required key or a malformed value records a
    `parameters.<key>: ...` diagnostic and reads as None.  Every key read is
    recorded, so that the parse can report every other key as unknown.
    """

    def __init__(self, params: dict) -> None:
        self.params = params
        self.errors: list[str] = []
        self.bad: set[str] = set()
        self.seen: set[str] = set()

    def fail(self, key: str, message: str) -> None:
        self.bad.add(key)
        self.errors.append(f"parameters.{key}: {message}")

    def read(self, key: str, default=_REQUIRED, ok=lambda v: True, expected: str = ""):
        self.seen.add(key)
        if key not in self.params and default is not _REQUIRED:
            return default
        if key in self.params and ok(self.params[key]):
            return self.params[key]
        self.fail(key, f"must be {expected}" if key in self.params else "missing")
        return None

    def integer(self, key: str, default=_REQUIRED, minimum: int = 0, below: int | None = None):
        def ok(v) -> bool:
            return _is_int(v) and v >= minimum and (below is None or v < below)

        return self.read(key, default, ok, f"an integer {_bounds(minimum, below)}")

    def number(self, key: str, default=_REQUIRED, rule=_NONNEGATIVE):
        text, test = rule
        value = self.read(key, default, lambda v: _is_number(v) and test(v), f"a number {text}".rstrip())
        return None if value is None else float(value)

    def boolean(self, key: str, default: bool):
        return self.read(key, default, lambda v: isinstance(v, bool), "true or false")

    def integers(self, key: str, default=_REQUIRED, minimum: int = 0, min_length: int = 1, below: int | None = None):
        def ok(v) -> bool:
            return (isinstance(v, list) and len(v) >= min_length
                    and all(_is_int(n) and n >= minimum for n in v) and all(a < b for a, b in zip(v, v[1:]))
                    and (below is None or v[-1] < below))

        expected = f"a strictly increasing list of integers {_bounds(minimum, below)}, of length >= {min_length}"
        return self.read(key, default, ok, expected)

    def numbers(self, key: str, default, rule):
        """A list of numbers, each of which names a summary entry by
        f"{x:g}", so no two may share that key."""
        text, test = rule

        def ok(v) -> bool:
            return isinstance(v, list) and len(v) > 0 and all(_is_number(x) and test(x) for x in v)

        values = self.read(key, default, ok, f"a nonempty list of numbers {text}")
        if values is None:
            return None
        values = [float(x) for x in values]
        if len({f"{x:g}" for x in values}) < len(values):
            self.fail(key, "must differ in their first 6 significant digits (the summary key of each value)")
        return values

    def build(self, keys: str, constructor, *args):
        """constructor(*args), or None when one of the comma-separated keys
        it reads is already malformed.  What it raises on a bad value becomes
        a diagnostic on those keys."""
        if self.bad.intersection(keys.split(", ")):
            return None
        try:
            return constructor(*args)
        except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
            self.fail(keys, f"missing {exc}" if isinstance(exc, KeyError) else str(exc))
            return None


def _manifold(spec) -> products.ProductManifold:
    """The product a `factors` value names: a list of spaces, or {space, copies}."""
    from . import products, spaces

    if isinstance(spec, dict):
        copies = spec.get("copies")
        if not (_is_int(copies) and copies >= 2):
            raise ValueError("copies must be an integer >= 2")
        return products.ProductManifold.of(*[spaces.space_from_dict(spec.get("space"))] * copies)
    if not isinstance(spec, list):
        raise ValueError("must be a list of spaces or {space, copies}")
    return products.ProductManifold.of(*[spaces.space_from_dict(s) for s in spec])


# ---------------------------------------------------------------------------
# commands: each parse function reads its keys and returns the handler
# ---------------------------------------------------------------------------

def _parse_circle_kernel(r: _Parameters):
    """The keys kernel-norms and opnorm share; the envelopes need alpha >= 0."""
    jp = r.build("alpha, beta", JacobiParams.of, r.number("alpha", rule=_NONNEGATIVE), r.number("beta", rule=_ANY))
    n_values = r.integers("n_values", _DOUBLING_64_4096, minimum=1, min_length=3)
    return jp, n_values, r.number("slope_tolerance", 0.05)


def _parse_jacobi(r: _Parameters):
    jp = r.build("alpha, beta", JacobiParams.of, r.number("alpha", rule=_ANY), r.number("beta", rule=_ANY))
    n_max = r.integer("n_max", 512)
    grid_size = r.integer("grid_size", 2048, minimum=1)
    tol_norm = r.number("normalization_tolerance", 1e-10)
    tol_refl = r.number("reflection_tolerance", 1e-10)
    tol_closed = r.number("closed_form_tolerance", 1e-9)

    def handler(seed, threads):
        from .special import _binomial_row, _half_case_rows, jacobi_recurrence_rows

        half = jp.twice_alpha == 1 and jp.twice_beta == 1
        theta = 2.0 * math.pi * np.arange(grid_size) / grid_size
        x_half = np.linspace(1.0 / grid_size, 1.0 - 1.0 / grid_size, max(grid_size // 4, 8))
        # One (alpha, beta) sweep carries -x_half, then x = 1, then (half case
        # only) cos(theta); it runs in step with one (beta, alpha) sweep on x_half.
        k = len(x_half)
        points = np.concatenate((-x_half, [1.0], np.cos(theta) if half else []))
        sweeps = zip(
            jacobi_recurrence_rows(jp.alpha, jp.beta, n_max, points),
            jacobi_recurrence_rows(jp.beta, jp.alpha, n_max, x_half),
        )
        header = ["n", "normalization_dev", "reflection_dev", "closed_form_dev"]
        rows = []
        worst = {"normalization": 0.0, "reflection": 0.0, "closed_form": 0.0}
        # Entry n is jacobi_binomial(alpha, n), bit for bit.
        binomials = _binomial_row(jp.alpha, n_max).tolist()
        # chebyshev_half_case(n, theta) of each degree, bit for bit
        closed_forms = _half_case_rows(range(n_max + 1), theta) if half else None
        for (n, row), (_, swapped) in sweeps:
            norm_dev = abs(row[k] / binomials[n] - 1.0)
            # row minus the reference (-1)^n swapped, the sign folded into
            # the operation: the same values as forming the reference first.
            dev = row[:k] - swapped if n % 2 == 0 else row[:k] + swapped
            np.abs(dev, out=dev)
            dev /= np.maximum(np.abs(swapped), 1.0)
            refl_dev = float(dev.max())
            closed_dev = 0.0
            if half:
                cf = next(closed_forms)
                closed_dev = float((np.abs(row[k + 1 :] - cf) / np.maximum(1.0, np.abs(cf))).max())
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

    return handler


def _parse_kernel_norms(r: _Parameters):
    jp, n_values, slope_tol = _parse_circle_kernel(r)
    q_values = r.numbers("q_values", [2.0], _POSITIVE)
    if None not in (jp, n_values, q_values):
        # |P_n| <= max(P_n(1), |P_n(-1)|), so the norm is at most (2 pi)^(1/q)
        # times that; the smallest q must keep this bound inside float64.
        top, q = n_values[-1], min(q_values)
        sup = max(jacobi_binomial(jp.alpha, top), jacobi_binomial(jp.beta, top))
        if math.log(2.0 * math.pi) / q + math.log(sup) >= math.log(sys.float_info.max):
            r.fail("q_values", f"q = {q:g} puts the bound (2 pi)^(1/q) max|P_n| at n = {top} past float64")

    def handler(seed, threads):
        from . import torus

        header = ["alpha", "beta", "n", "q", "norm", "envelope", "ratio"]
        rows = []
        fits = {}
        passed = True
        # One synthesis per degree serves every q.
        grids = [torus.PeriodicGrid.for_degree(n) for n in n_values]
        kernels = [torus.kernel_samples(jp, n, grid) for n, grid in zip(n_values, grids)]
        for q in q_values:
            points = []
            for n, grid, k in zip(n_values, grids, kernels):
                norm = torus.lp_norm_periodic(grid, k, q)
                env = torus.envelope_A_tilde(jp.alpha, q, n)
                rows.append((jp.alpha, jp.beta, n, q, norm, env, norm / env))
                points.append((n, norm))
            fit = torus.fit_exponent(points)
            expected = torus.envelope_exponent(jp.alpha, q)
            ok = abs(fit.slope - expected) <= slope_tol
            passed = passed and ok
            fits[f"q={q:g}"] = {
                "slope": fit.slope,
                "expected": expected,
                "within_tolerance": ok,
            }
        summary = {"fits": fits, "slope_tolerance": slope_tol}
        return header, rows, summary, passed

    return handler


def _parse_opnorm(r: _Parameters):
    from . import torus

    jp, n_values, slope_tol = _parse_circle_kernel(r)
    p = r.number("p", rule=_FINITE_EXPONENT)
    if p is not None and n_values is not None:
        r.build("p", torus._check_iteration_grid, p, n_values[-1])
    budget = r.integer("iteration_budget", 200)

    def handler(seed, threads):
        header = ["alpha", "beta", "n", "p", "lower", "upper", "envelope", "ratio"]

        def cell(n: int):
            bracket = torus.opnorm_bracket(jp, n, p, seed=seed or 0, iteration_budget=budget)
            env = torus.envelope_A(jp.alpha, p / 2.0, n)
            row = (jp.alpha, jp.beta, n, p, bracket.lower, bracket.upper, env, bracket.upper / env)
            return row, bracket.refined

        if threads == 1:
            rows, refined = zip(*map(cell, n_values))
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                rows, refined = zip(*pool.map(cell, n_values))
        upper_fit = torus.fit_exponent([(row[2], row[5]) for row in rows])
        lower_fit = torus.fit_exponent([(row[2], row[4]) for row in rows])
        expected = torus.envelope_exponent(jp.alpha, p / 2.0)
        bracket_ok = all(row[4] <= row[5] * (1 + 1e-12) for row in rows)
        slope_ok = abs(upper_fit.slope - expected) <= slope_tol
        summary = {
            "upper_slope": upper_fit.slope,
            "expected_exponent": expected,
            "slope_tolerance": slope_tol,
            "lower_slope_diagnostic": lower_fit.slope,
            "bracket_order_ok": bracket_ok,
            # Degrees where a power-iteration candidate diverged.
            "unrefined_degrees": [n for n, ok in zip(n_values, refined) if not ok],
        }
        return header, list(rows), summary, bool(bracket_ok and slope_ok)

    return handler


def _parse_fourier(r: _Parameters):
    from . import spaces

    space = r.build("space", spaces.space_from_dict, r.read("space"))
    n_max = r.integer("n_max", 400)
    neg_tol = r.number("negativity_tolerance", 1e-9)
    sum_tol = r.number("sum_tolerance", 1e-8)

    def handler(seed, threads):
        header = ["n", "min_coefficient", "max_coefficient", "coefficient_sum"]
        rows = []
        passed = True
        for n, exp in spaces.fourier_expansions(space, space.degrees(n_max)):
            # The one-sided row holds every coefficient's value; the sum
            # counts c_1..c_n twice.
            c = exp.row
            lo, hi, total = float(c.min()), float(c.max()), float(c[0] + 2.0 * c[1:].sum())
            rows.append((n, lo, hi, total))
            passed = passed and lo >= -neg_tol * hi and abs(total - 1.0) <= sum_tol
        summary = {"negativity_tolerance": neg_tol, "sum_tolerance": sum_tol}
        return header, rows, summary, passed

    return handler


def _parse_dimension(r: _Parameters):
    from . import spaces

    space = r.build("space", spaces.space_from_dict, r.read("space"))
    n_values = r.integers("n_values", None)
    n_max = r.integer("n_max", 50)
    if "n_values" in r.params and "n_max" in r.params:
        r.fail("n_max", "cannot be given together with n_values")
    elif n_values is None and n_max is not None:
        n_values = range(0, n_max + 1)
    integer_tol = r.number("integer_tolerance", 1e-6)
    slope_tol = r.number("slope_tolerance", 0.02)
    check_slope = r.boolean("check_slope", False)

    def handler(seed, threads):
        from . import torus

        header = ["n", "dimension", "nearest_integer", "integer_rel_dev"]
        rows = []
        int_ok = True
        exact = spaces.weyl_dimensions(space, n_values[-1])
        for n, k in zip(n_values, spaces.rep_dimensions(space, n_values)):
            nearest = int(exact[n])
            dev = abs(k - nearest) / max(k, 1.0)
            rows.append((n, k, nearest, dev))
            int_ok = int_ok and dev <= integer_tol
        growth = [(n + 1, k) for n, k, _, _ in rows if n >= 1]
        summary: dict = {"integer_tolerance": integer_tol, "integrality_ok": int_ok}
        passed = int_ok
        if len(growth) >= 3:
            fit = torus.fit_exponent(growth)
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
            if check_slope:
                passed = passed and slope_ok
        return header, rows, summary, passed

    return handler


def _parse_shell(r: _Parameters):
    from . import products

    manifold = r.build("factors", _manifold, r.read("factors"))
    level = r.integer("level", below=products.LEVEL_BOUND)
    constrained = r.boolean("ordering_constraint", True)

    def handler(seed, threads):
        shell = products.enumerate_shell(manifold, level, constrained)
        header = ["level", "member"]
        rows = [(level, "(" + ",".join(str(n) for n in member) + ")") for member in shell.members]
        summary = {"level": level, "count": len(shell), "ordering_constraint": constrained}
        return header, rows, summary, True

    return handler


def _parse_sharpness(r: _Parameters):
    from . import products

    manifold = r.build("factors", _manifold, r.read("factors"))
    sub = r.build("matrix, offset, box", products.FlatSubmanifold.of,
                  r.read("matrix"), r.read("offset", None), r.read("box", None))
    if manifold is not None and sub is not None and len(sub.offset) != manifold.rank:
        r.fail("matrix", f"has {len(sub.offset)} rows but the product has rank {manifold.rank}")
    # Level 0 has N = 0, which the log-log fit of the ratios cannot take.
    given_levels = r.integers("levels", None, minimum=1, below=products.LEVEL_BOUND)
    degrees = r.integers("degrees", None, minimum=1)
    diagonal = None
    if degrees is not None and manifold is not None:
        diagonal = products.diagonal_levels(manifold, degrees)
        if diagonal[-1] >= products.LEVEL_BOUND:
            r.fail("degrees", f"reach level {diagonal[-1]}; levels must be < {products.LEVEL_BOUND}")
    level_min = r.integer("level_min", 1700, minimum=1, below=products.LEVEL_BOUND)
    level_max = r.integer("level_max", 9900, minimum=1, below=products.LEVEL_BOUND)
    if level_min is not None and level_max is not None and level_min >= level_max:
        r.fail("level_min, level_max", "must satisfy level_min < level_max")
    level_count = r.integer("level_count", 12, minimum=3)  # the slope fit needs three levels
    p_values = r.numbers("p_values", [2.0], _EXPONENT)
    ppw = r.number("points_per_wavelength", 8.0, _FINITE_POSITIVE)
    slope_tol = r.number("slope_tolerance", 0.25)
    epsilon = r.number("epsilon", 0.05, _OPEN_UNIT)
    r.build("factors, epsilon", products._check_polydisc, manifold, epsilon)

    def handler(seed, threads):
        from . import torus

        if given_levels is not None:
            levels = given_levels
        elif diagonal is not None:
            levels = diagonal
        else:
            levels = products.trend_levels(manifold, level_min, level_max, level_count)
        header = ["p", "level", "N", "shell_size", "ratio", "envelope", "fit_value", "fit_residual"]
        rows = []
        summary: dict = {"p": {}}
        passed = True
        sweeps, pw_min = products.sharpness_report(manifold, sub, p_values, levels, ppw, epsilon, threads)
        d, k = manifold.dimension, sub.k
        for p, (report_rows, fit) in zip(p_values, sweeps):
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
        summary["pointwise_minimum"] = pw_min
        passed = passed and pw_min >= 0.5
        # unconstrained count growth
        counts = products.count_unconstrained(manifold, max(levels))
        lo = max(100, min(levels))
        nonzero = np.flatnonzero(counts[lo : max(levels) + 1]) + lo
        pts = np.column_stack((np.sqrt(nonzero), counts[nonzero]))
        if len(pts) >= 3:
            count_fit = torus.fit_exponent(pts)
            summary["count_slope"] = count_fit.slope
            summary["count_slope_floor"] = manifold.rank - 2 - 0.3
            passed = passed and count_fit.slope >= manifold.rank - 2 - 0.3
        summary["slope_tolerance"] = slope_tol
        return header, rows, summary, passed

    return handler


def _parse_exponents(r: _Parameters):
    from . import products

    def is_dimension_list(v) -> bool:
        return isinstance(v, list) and len(v) >= 2 and all(_is_int(d) and d >= 2 for d in v)

    d_list = r.read("d_list", _REQUIRED, is_dimension_list, "a list of at least two integer dimensions >= 2")
    k = r.integer("k")
    p = r.read("p", _REQUIRED, lambda v: _is_number(v) or isinstance(v, str), 'a number or a string like "3/2"')
    table = r.build("d_list, k, p", products.exponent_table, d_list, k, p)

    def handler(seed, threads):
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

    return handler


COMMANDS = {
    "jacobi": _parse_jacobi,
    "kernel-norms": _parse_kernel_norms,
    "opnorm": _parse_opnorm,
    "fourier": _parse_fourier,
    "dimension": _parse_dimension,
    "shell": _parse_shell,
    "sharpness": _parse_sharpness,
    "exponents": _parse_exponents,
}


def _parse(config, seed_override: int | None = None) -> tuple[list[str], object]:
    """Diagnostics of a config (seed_override, if given, checked as its seed)
    and the handler its command runs.  `--check` and run() both use this."""
    if not isinstance(config, dict):
        return ["config: must be a JSON object"], None
    command = config.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        return [f"command: must be one of {', '.join(COMMANDS)}"], None
    params = config.get("parameters", {})
    if not isinstance(params, dict):
        return ["parameters: must be an object"], None
    errors = []
    seed = config.get("seed") if seed_override is None else seed_override
    if isinstance(seed, bool):
        errors.append("seed: must be an integer, not a boolean")
    elif command == "opnorm" and not (isinstance(seed, int) and seed >= 0):
        errors.append("seed: opnorm needs a nonnegative integer (it fixes the randomized lower-bound search)")
    reader = _Parameters(params)
    handler = COMMANDS[command](reader)
    unknown = [f"parameters.{key}: unknown key" for key in params if key not in reader.seen]
    return errors + reader.errors + unknown, handler


def validate(config: dict) -> list[str]:
    """Diagnostics for a config; empty means run() will not reject it on
    schema grounds."""
    return _parse(config)[0]


def run(config: dict, out_dir: str | None = None, seed_override: int | None = None, threads: int = 1) -> int:
    """Validate, execute, and write artifacts; returns the process exit code."""
    diagnostics, handler = _parse(config, seed_override)
    if diagnostics:
        for line in diagnostics:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    command = config["command"]
    seed = seed_override if seed_override is not None else config.get("seed")
    directory = out_dir or os.environ.get(OUTPUT_ENV_VAR) or config.get("output_path") or "."
    try:
        header, rows, summary, passed = handler(seed, max(1, threads))
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
    except ResolutionError as exc:
        print(f"numerical rejection: {exc}", file=sys.stderr)
        return 3
    except (KeyError, TypeError, ValueError) as exc:
        # Library code can still reject a value deep inside a sweep, such as
        # too few nonempty shells for the requested trend levels.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
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
        with open(args.config, encoding="utf-8") as handle:
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
