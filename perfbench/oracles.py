"""Independent checks of the CLI's CSV and summary outputs.

Each check recomputes at least one row of a config's output by a route the
CLI does not take: mpmath, the Gegenbauer expansion, a closed form, or a
brute-force walk over the whole Cartesian product of degrees.  A check
returns a list of problems; an empty list means the output agrees.

Tolerances (relative unless stated):
  circle kernels   L^2 operator norm against the closed form or the
                   Gegenbauer expansion, every row: 1e-9.
                   L^2 operator norm and L^q kernel norms from mpmath Fourier
                   coefficients, lowest-degree row: 1e-9.
  fourier          min, max and sum of the coefficients of Phi_n from mpmath
                   at a few degrees: 1e-10 absolute (Phi_n(0) = 1 bounds them).
  dimension        k(n) against the mpmath closed form at a few degrees: 1e-8.
  shells           shell sizes and members: exact.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import mpmath
import numpy as np
from scipy.fft import next_fast_len

mpmath.mp.dps = 30

CIRCLE_REL_TOL = 1e-9
FOURIER_ABS_TOL = 1e-10
DIMENSION_REL_TOL = 1e-8
FOURIER_DEGREES = (3, 10, 40)
DIMENSION_DEGREES = (1, 7, 60)


def read_output(out_dir: Path, command: str) -> tuple[list[dict], dict]:
    slug = command.replace("-", "_")
    with open(out_dir / f"{slug}.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    summary = json.loads((out_dir / f"{slug}_summary.json").read_text())
    return rows, summary


def _rel_dev(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# Jacobi kernels on the circle
# ---------------------------------------------------------------------------

def _jacobi_at_one(alpha, beta, n: int):
    return mpmath.binomial(n + alpha, n)


def kernel_coefficients(alpha: float, beta: float, n: int) -> np.ndarray:
    """Fourier coefficients c_m, m = -n..n, of P_n^(alpha,beta)(cos t).

    alpha = beta uses the Gegenbauer expansion
    C_n^l(cos t) = sum_k (l)_k (l)_(n-k) / (k! (n-k)!) e^(i (n-2k) t), l = alpha + 1/2,
    with P_n^(a,a) = (a+1)_n / (2a+1)_n C_n^(a+1/2).  Other pairs sample mpmath's
    jacobi on 2n+2 points, where the trapezoid rule is exact.
    """
    out = np.zeros(2 * n + 1)
    if alpha == beta:
        lam = mpmath.mpf(alpha) + mpmath.mpf(1) / 2
        scale = mpmath.rf(alpha + 1, n) / mpmath.rf(2 * alpha + 1, n)
        for k in range(n + 1):
            term = mpmath.rf(lam, k) * mpmath.rf(lam, n - k) / (mpmath.factorial(k) * mpmath.factorial(n - k))
            out[n + (n - 2 * k)] = float(scale * term)
        return out
    m_count = 2 * n + 2
    values = [
        mpmath.jacobi(n, alpha, beta, mpmath.cos(2 * mpmath.pi * j / m_count)) for j in range(m_count)
    ]
    for m in range(-n, n + 1):
        total = mpmath.fsum(
            v * mpmath.cos(2 * mpmath.pi * ((m * j) % m_count) / m_count) for j, v in enumerate(values)
        )
        out[n + m] = float(total / m_count)
    return out


def l2_opnorm_closed_form(alpha: float, beta: float, n: int) -> float | None:
    """max_m |khat(m)| without sampling: the closed form at (1/2, 1/2), the
    largest Gegenbauer term when alpha = beta, None otherwise."""
    if alpha == beta == 0.5:
        return float(2 * mpmath.pi * _jacobi_at_one(0.5, 0.5, n) / (n + 1))
    if alpha != beta:
        return None
    # The Gegenbauer terms are unimodal in k: largest at the ends for l > 1,
    # in the middle for l < 1, all equal for l = 1.
    lam = mpmath.mpf(alpha) + mpmath.mpf(1) / 2
    scale = mpmath.rf(alpha + 1, n) / mpmath.rf(2 * alpha + 1, n)
    best = max(
        mpmath.rf(lam, k) * mpmath.rf(lam, n - k) / (mpmath.factorial(k) * mpmath.factorial(n - k))
        for k in (0, n // 2)
    )
    return float(2 * mpmath.pi * scale * best)


def kernel_lq_norm(coefs: np.ndarray, q: float) -> float:
    """Rectangle-rule L^q norm over the circle on the CLI's default grid,
    next_fast_len(max(8192, 8 (n+1))) points, with samples synthesized from
    the coefficients."""
    n = (len(coefs) - 1) // 2
    size = next_fast_len(max(8192, 8 * (n + 1)))
    spectrum = np.zeros(size // 2 + 1)
    spectrum[: n + 1] = coefs[n:]
    samples = np.fft.irfft(spectrum, size) * size
    return float(np.sum(np.abs(samples) ** q * (2.0 * math.pi / size)) ** (1.0 / q))


def check_circle(config: dict, rows: list[dict]) -> list[str]:
    params = config["parameters"]
    alpha, beta = float(params["alpha"]), float(params["beta"])
    problems = []
    n_low = min(int(r["n"]) for r in rows)
    coefs = kernel_coefficients(alpha, beta, n_low)
    for row in rows:
        n = int(row["n"])
        if config["command"] == "opnorm" and float(params["p"]) == 2:
            got = float(row["upper"])
            if float(row["lower"]) != got:
                problems.append(f"n={n}: p=2 bracket is not a point ({row['lower']} vs {got})")
            want = l2_opnorm_closed_form(alpha, beta, n)
            if want is None and n == n_low:
                want = 2.0 * math.pi * float(np.max(np.abs(coefs)))
            label = "L2 operator norm"
        elif n == n_low:
            if config["command"] == "opnorm":
                got, q = float(row["upper"]), float(params["p"]) / 2.0
                if float(row["lower"]) > got * (1 + 1e-12):
                    problems.append(f"n={n}: lower {row['lower']} above upper {got}")
            else:
                got, q = float(row["norm"]), float(row["q"])
            want = kernel_lq_norm(coefs, q)
            label = f"L^{q:g} kernel norm"
        else:
            continue
        if want is not None and _rel_dev(got, want) > CIRCLE_REL_TOL:
            problems.append(f"n={n}: {label} {got!r}, oracle {want!r}")
    return problems


# ---------------------------------------------------------------------------
# spherical functions
# ---------------------------------------------------------------------------

# beta for each family; alpha = (d-2)/2.
_TWICE_BETA = {
    "sphere": lambda d: d - 2,
    "complex_projective": lambda d: 0,
    "quaternionic_projective": lambda d: 2,
    "octonionic_plane": lambda d: 6,
}


def _space_params(space: dict) -> tuple[float, float]:
    d = int(space["dimension"])
    return (d - 2) / 2.0, _TWICE_BETA[space["kind"]](d) / 2.0


def check_fourier(config: dict, rows: list[dict]) -> list[str]:
    alpha, beta = _space_params(config["parameters"]["space"])
    by_n = {int(r["n"]): r for r in rows}
    problems = []
    for n in FOURIER_DEGREES:
        if n not in by_n:
            continue
        coefs = kernel_coefficients(alpha, beta, n) / float(_jacobi_at_one(alpha, beta, n))
        # the CLI keeps every |m| <= n, odd-parity zeros included
        want = {"min_coefficient": coefs.min(), "max_coefficient": coefs.max(), "coefficient_sum": coefs.sum()}
        for key, value in want.items():
            got = float(by_n[n][key])
            if abs(got - value) > FOURIER_ABS_TOL:
                problems.append(f"n={n}: {key} {got!r}, oracle {value!r}")
    if not any(n in by_n for n in FOURIER_DEGREES):
        problems.append("no oracle degree present in the output")
    return problems


def rep_dimension(alpha: float, beta: float, n: int):
    """k(n) = P_n(1)^2 h_0 / h_n, with h_n the squared norm of P_n under
    (1-x)^alpha (1+x)^beta."""
    a, b = mpmath.mpf(alpha), mpmath.mpf(beta)

    def h(m: int):
        return (
            2 ** (a + b + 1) / (2 * m + a + b + 1)
            * mpmath.gamma(m + a + 1) * mpmath.gamma(m + b + 1)
            / (mpmath.gamma(m + a + b + 1) * mpmath.factorial(m))
        )

    return _jacobi_at_one(a, b, n) ** 2 * h(0) / h(n)


def check_dimension(config: dict, rows: list[dict]) -> list[str]:
    alpha, beta = _space_params(config["parameters"]["space"])
    by_n = {int(r["n"]): r for r in rows}
    problems = []
    for n in DIMENSION_DEGREES:
        want = float(rep_dimension(alpha, beta, n))
        got = float(by_n[n]["dimension"]) if n in by_n else math.nan
        if not _rel_dev(got, want) <= DIMENSION_REL_TOL:
            problems.append(f"n={n}: dimension {got!r}, oracle {want!r}")
        elif _rel_dev(float(by_n[n]["nearest_integer"]), round(want)) > DIMENSION_REL_TOL:
            problems.append(f"n={n}: nearest integer {by_n[n]['nearest_integer']}, oracle {round(want)}")
    return problems


def check_jacobi(config: dict, rows: list[dict]) -> list[str]:
    # The jacobi CSV holds only the CLI's own deviation measurements, so no
    # value in it can be recomputed outside; check that every degree is there
    # and that each deviation is a finite number within the stated tolerance.
    n_max = int(config["parameters"]["n_max"])
    problems = []
    if [int(r["n"]) for r in rows] != list(range(n_max + 1)):
        problems.append("rows do not cover degrees 0..n_max")
    for row in rows:
        for key in ("normalization_dev", "reflection_dev"):
            if not float(row[key]) <= 1e-10:
                problems.append(f"n={row['n']}: {key} {row[key]}")
    return problems


# ---------------------------------------------------------------------------
# lattice shells
# ---------------------------------------------------------------------------

def _factor_list(factors) -> list[dict]:
    if isinstance(factors, dict):
        return [factors["space"]] * int(factors["copies"])
    return list(factors)


def brute_force_shell(factors, level: int, ordering_constraint: bool = True) -> list[tuple[int, ...]]:
    """Every tuple with sum_i (n_i^2 + a_i n_i) = level, found by walking the
    full Cartesian product of degree ranges (the last factor by lookup)."""
    spaces = _factor_list(factors)
    shifts = [int(round(sum(_space_params(s)) + 1)) for s in spaces]
    steps = [2 if s.get("even_degrees_only") else 1 for s in spaces]
    top = math.isqrt(level)
    degree_sets = [np.arange(0, top + 1, step) for step in steps]
    eig = [n * n + a * n for n, a in zip(degree_sets, shifts)]
    last = {int(e): int(n) for n, e in zip(degree_sets[-1], eig[-1])}
    total = np.zeros((1,) * (len(spaces) - 1), dtype=np.int64)
    for axis, e in enumerate(eig[:-1]):
        shape = [1] * (len(spaces) - 1)
        shape[axis] = len(e)
        total = total + e.reshape(shape)
    rest = level - total
    hits = np.argwhere(np.isin(rest, list(last)))
    members = []
    for idx in hits:
        head = tuple(int(degree_sets[i][j]) for i, j in enumerate(idx))
        member = head + (last[int(rest[tuple(idx)])],)
        if ordering_constraint and not (
            all(x >= y for x, y in itertools.pairwise(member)) and 2 * member[-1] >= member[0]
        ):
            continue
        members.append(member)
    return sorted(members)


def check_shell(config: dict, rows: list[dict]) -> list[str]:
    params = config["parameters"]
    level = int(params["level"])
    want = brute_force_shell(params["factors"], level, bool(params.get("ordering_constraint", True)))
    # The member column is "(n_1,...,n_r)" with unquoted commas, so the CSV
    # reader splits it; rejoin the cells after the level.
    got = sorted(
        tuple(int(v.strip("()")) for v in [r["member"], *r.get(None, [])]) for r in rows
    )
    problems = [f"row level {r['level']} is not {level}" for r in rows if int(r["level"]) != level]
    if got != want:
        problems.append(f"level {level}: {len(got)} members, brute force finds {len(want)}")
    return problems


def check_sharpness(config: dict, rows: list[dict]) -> list[str]:
    params = config["parameters"]
    level = min(int(r["level"]) for r in rows)
    want = len(brute_force_shell(params["factors"], level))
    problems = []
    for row in rows:
        if int(row["level"]) == level and int(row["shell_size"]) != want:
            problems.append(f"level {level}, p={row['p']}: shell size {row['shell_size']}, brute force {want}")
    return problems


CHECKS = {
    "opnorm": check_circle,
    "kernel-norms": check_circle,
    "fourier": check_fourier,
    "dimension": check_dimension,
    "jacobi": check_jacobi,
    "shell": check_shell,
    "sharpness": check_sharpness,
}


def check(config: dict, out_dir: Path) -> list[str]:
    """Problems with one config's output directory; empty when it agrees."""
    try:
        rows, summary = read_output(out_dir, config["command"])
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = [] if summary.get("passed") is True else ["summary says passed: false"]
    if not rows:
        return problems + ["empty CSV"]
    try:
        problems += CHECKS[config["command"]](config, rows)
    except (KeyError, ValueError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems
