"""Norms on the circle and two-sided estimates for Jacobi convolution operators.

The kernel of interest is k(theta) = P_n^{(alpha,beta)}(cos(theta)) acting by
(T f)(theta) = int k(theta - theta') f(theta') dtheta' on the 2*pi circle with
plain Lebesgue measure.  Upper bounds come from Young's inequality (the
L^{p/2} norm of the kernel) or, at p = 2, from the exact Fourier multiplier;
lower bounds come from a candidate family refined by a power iteration that
stops after _PLATEAU_SWEEPS sweeps without gain, or when its budget runs out,
and are best-effort diagnostics.  A kernel is held as its Fourier
coefficients; samples on a grid are synthesized from them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

from .special import JacobiParams, jacobi_fourier_rows

__all__ = [
    "AliasingError",
    "PeriodicGrid",
    "lp_norm_periodic",
    "kernel_samples",
    "kernel_lp_norm",
    "envelope_exponent",
    "envelope_A",
    "envelope_A_tilde",
    "fourier_multiplier",
    "opnorm_l2_exact",
    "NormBracket",
    "opnorm_bracket",
    "tensor_opnorm_upper",
    "ExponentFit",
    "fit_exponent",
]

_KINK_TOL = 1e-12
UPPER_YOUNG = "young"
UPPER_EXACT_MULTIPLIER = "exact_multiplier"


class AliasingError(ValueError):
    """A sampling grid is too small to resolve every frequency present."""


@lru_cache(maxsize=None)
def _smooth_numbers(limit: int) -> list[int]:
    # Every 11-smooth integer up to limit, in increasing order.
    numbers = {1}
    for prime in (2, 3, 5, 7, 11):
        grown = set()
        for n in numbers:
            while n <= limit:
                grown.add(n)
                n *= prime
        numbers = grown
    return sorted(numbers)


def _next_fast_len(target: int) -> int:
    """Smallest 11-smooth integer >= target, the rule of
    scipy.fft.next_fast_len for complex transforms."""
    table = _smooth_numbers(1 << (target - 1).bit_length())  # a power of two caps it
    return table[bisect_left(table, target)]


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid theta_j = 2*pi*j/size on the circle."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 8:
            raise ValueError("grid needs at least 8 points")

    @classmethod
    def for_degree(cls, n: int) -> "PeriodicGrid":
        # At least 4x oversampling of the top frequency; rounded up to an
        # FFT-friendly length.
        return cls(_next_fast_len(max(8192, 8 * (n + 1))))

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.size) / self.size

    @property
    def weight(self) -> float:
        return 2.0 * math.pi / self.size


def lp_norm_periodic(grid: PeriodicGrid, samples, p) -> float:
    """Rectangle-rule L^p norm of samples over the grid; p may be inf.

    Exact (to roundoff) for trigonometric polynomials of degree below size/2
    whenever p is an even integer.
    """
    f = np.asarray(samples, dtype=float)
    if f.shape != (grid.size,):
        raise ValueError("sample count must match the grid size")
    if not np.all(np.isfinite(f)):
        raise ValueError("samples must be finite")
    p = float(p)
    if p <= 0:
        raise ValueError("p must be positive or inf")
    return _grid_lp(f, p, grid.weight)


def _coefficients(params: JacobiParams, n: int) -> np.ndarray:
    for _, c in jacobi_fourier_rows(params.alpha, params.beta, n):
        pass
    return c


def _synthesize(c: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    # Frequencies past the grid's Nyquist bin fold onto m mod size, which
    # keeps the samples exact on grids of any size.
    n = len(c) - 1
    ms = np.arange(-n, n + 1)
    folded = np.bincount(ms % grid.size, weights=c[np.abs(ms)], minlength=grid.size)
    return irfft(folded[: grid.size // 2 + 1], grid.size, norm="forward")


def kernel_samples(params: JacobiParams, n: int, grid: PeriodicGrid) -> np.ndarray:
    """P_n^{(alpha,beta)}(cos(theta)) on the grid, synthesized from its
    Fourier coefficients."""
    return _synthesize(_coefficients(params, n), grid)


def kernel_lp_norm(params: JacobiParams, n: int, q, grid: PeriodicGrid | None = None) -> float:
    """L^q norm over the circle of the kernel P_n^{(alpha,beta)}(cos(theta))."""
    if grid is None:
        grid = PeriodicGrid.for_degree(n)
    return lp_norm_periodic(grid, kernel_samples(params, n, grid), q)


def envelope_exponent(delta: float, p: float) -> float:
    """Growth exponent of envelope_A: delta - 1/p above the kink
    p = 1/(delta + 1/2), and -1/2 at or below it."""
    if p > 1.0 / (delta + 0.5) + _KINK_TOL:
        return delta - 1.0 / p
    return -0.5


def envelope_A(delta: float, p: float, n: int) -> float:
    """Two-branch growth envelope (n+1)^envelope_exponent(delta, p)."""
    if delta < 0 or p <= 0 or n < 0:
        raise ValueError("need delta >= 0, p > 0, n >= 0")
    return float((n + 1.0) ** envelope_exponent(delta, p))


def envelope_A_tilde(delta: float, p: float, n: int) -> float:
    """Same as envelope_A but carrying log^{delta+1/2}(n+2) at the kink."""
    if delta < 0 or p <= 0 or n < 0:
        raise ValueError("need delta >= 0, p > 0, n >= 0")
    kink = 1.0 / (delta + 0.5)
    if abs(p - kink) <= _KINK_TOL:
        return float((n + 1.0) ** -0.5 * math.log(n + 2.0) ** (delta + 0.5))
    return envelope_A(delta, p, n)


def fourier_multiplier(params: JacobiParams, n: int):
    """Frequencies m = -n..n and multiplier values khat(m) = int k e^{-im theta} dtheta."""
    ms = np.arange(-n, n + 1)
    return ms, 2.0 * math.pi * _coefficients(params, n)[np.abs(ms)]


def opnorm_l2_exact(params: JacobiParams, n: int) -> float:
    """Exact L^2 -> L^2 norm of convolution with the kernel: max_m |khat(m)|."""
    return 2.0 * math.pi * float(np.max(np.abs(_coefficients(params, n))))


@dataclass(frozen=True)
class NormBracket:
    """Two-sided estimate of an operator norm, with provenance."""

    lower: float
    upper: float
    lower_witness: str
    upper_method: str
    refined: bool = True

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper * (1.0 + 1e-12)):
            raise ValueError(f"invalid bracket [{self.lower}, {self.upper}]")


def _grid_lp(f: np.ndarray, p: float, weight: float) -> float:
    if p == math.inf:
        return float(np.max(np.abs(f)))
    return float(np.sum(np.abs(f) ** p * weight) ** (1.0 / p))


# Sweeps in a row without a relative gain above 1e-13 after which a power
# iteration stops; at 1 a bundled bracket's witness changes.
_PLATEAU_SWEEPS = 2


def _boyd_refine(apply_op, f0: np.ndarray, p: float, weight: float, budget: int):
    # Alternating maximization of <Tf, u> over unit balls; each full sweep is
    # nondecreasing in the Rayleigh ratio, so we track the best value and stop
    # once it plateaus.
    p_dual = p / (p - 1.0)
    f = f0 / _grid_lp(f0, p_dual, weight)
    best = 0.0
    stall = 0
    for _ in range(budget):
        g = apply_op(f)
        lam = _grid_lp(g, p, weight)
        if not math.isfinite(lam):
            return best, True
        if lam <= best * (1.0 + 1e-13):
            stall += 1
            if stall >= _PLATEAU_SWEEPS:
                break
        else:
            stall = 0
            best = lam
        g = g / max(np.max(np.abs(g)), 1e-300)
        u = np.sign(g) * np.abs(g) ** (p - 1.0)
        h = apply_op(u)
        h = h / max(np.max(np.abs(h)), 1e-300)
        f_next = np.sign(h) * np.abs(h) ** (p - 1.0)
        norm = _grid_lp(f_next, p_dual, weight)
        if not (math.isfinite(norm) and norm > 0):
            return best, True
        f = f_next / norm
    return best, False


def _bump(thetas: np.ndarray, width: float) -> np.ndarray:
    d = np.minimum(thetas, 2.0 * math.pi - thetas)
    out = np.zeros_like(thetas)
    inside = d < width
    out[inside] = np.cos(0.5 * math.pi * d[inside] / width) ** 2
    return out


def opnorm_bracket(
    params: JacobiParams,
    n: int,
    p: float,
    grid: PeriodicGrid | None = None,
    seed: int = 0,
    iteration_budget: int = 200,
) -> NormBracket:
    """Bracket the L^{p'} -> L^p norm of convolution with the degree-n kernel.

    p = 2 is exact (Fourier multiplier).  For p > 2 the upper bound is the
    kernel's L^{p/2} norm via Young's inequality, and the lower bound is the
    best Rayleigh ratio over a candidate family (single exponentials, bumps
    of dyadic widths down to 1/(4n), the kernel itself, one seeded random
    start), each refined by power iteration until _PLATEAU_SWEEPS sweeps in a
    row gain no more than 1e-13 relative, or iteration_budget sweeps have run.
    A grid given here must resolve every kernel frequency.
    """
    if not 2 <= p < math.inf:
        raise ValueError(f"bracket requires a finite p >= 2, got p = {p}")
    if grid is None:
        grid = PeriodicGrid.for_degree(n)
    elif grid.size <= 2 * n + 1:
        raise AliasingError(
            f"grid of size {grid.size} aliases kernel frequencies; need more than {2 * n + 1}"
        )
    c = _coefficients(params, n)
    top_m = int(np.argmax(np.abs(c)))
    top = 2.0 * math.pi * abs(float(c[top_m]))
    if p == 2:
        return NormBracket(top, top, f"exponential m={top_m}", UPPER_EXACT_MULTIPLIER)

    k = _synthesize(c, grid)
    upper = lp_norm_periodic(grid, k, p / 2.0)
    weight = grid.weight
    # The kernel is real and even, so its multiplier is real.
    khat = np.zeros(grid.size // 2 + 1)
    khat[: n + 1] = 2.0 * math.pi * c

    def apply_op(f: np.ndarray) -> np.ndarray:
        return irfft(rfft(f) * khat, grid.size)

    p_dual = p / (p - 1.0)
    # Single exponentials admit a closed-form ratio |khat(m)| (2 pi)^(1/p - 1/p').
    exp_ratio = top * (2.0 * math.pi) ** (1.0 / p - 1.0 / p_dual)
    lower = exp_ratio
    witness = f"exponential m={top_m}"

    thetas = grid.thetas
    candidates: list[tuple[str, np.ndarray]] = [
        (f"cos({top_m} theta)", np.cos(top_m * thetas)),
        ("kernel", k.copy()),
    ]
    width = 1.0
    floor = 1.0 / (4.0 * max(n, 1))
    j = 0
    while width >= floor:
        candidates.append((f"bump width 2^-{j}", _bump(thetas, width)))
        j += 1
        width *= 0.5
    rng = np.random.default_rng(seed)
    candidates.append(("random start", rng.standard_normal(grid.size)))

    refined = True
    for name, start in candidates:
        if np.max(np.abs(start)) == 0.0:
            continue
        value, diverged = _boyd_refine(apply_op, start, p, weight, iteration_budget)
        if diverged:
            refined = False
            continue
        if value > lower:
            lower = value
            witness = f"{name} (power iteration)"
    lower = min(lower, upper)  # guard roundoff at rank-one equality cases
    return NormBracket(lower, upper, witness, UPPER_YOUNG, refined)


def tensor_opnorm_upper(factors, p: float, grids=None) -> float:
    """Certified upper bound for the tensor-product kernel operator on T^k:
    the product of the per-factor bracket uppers."""
    factors = list(factors)
    if grids is None:
        grids = [None] * len(factors)
    out = 1.0
    for (params, n), grid in zip(factors, grids):
        out *= opnorm_bracket(params, n, p, grid=grid).upper
    return out


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares line through (log n, log value)."""

    slope: float
    intercept: float
    max_residual: float
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count < 3:
            raise ValueError("need at least 3 samples")
        if not math.isfinite(self.max_residual):
            raise ValueError("residual must be finite")


def fit_exponent(points) -> ExponentFit:
    """Fit value ~ C * n^slope on log-log axes.

    Points are (n, value) with n strictly increasing and values positive.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    ns = np.array([float(n) for n, _ in pts])
    vals = np.array([float(v) for _, v in pts])
    if np.any(vals <= 0):
        raise ValueError("values must be positive")
    if np.any(np.diff(ns) <= 0):
        raise ValueError("abscissas must be strictly increasing")
    if ns[0] <= 0:
        raise ValueError(f"abscissas must be positive for a log-log fit, got n = {pts[0][0]}")
    x = np.log(ns)
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return ExponentFit(float(slope), float(intercept), float(np.max(np.abs(resid))), len(pts))
