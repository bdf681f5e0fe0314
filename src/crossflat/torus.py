"""Norms on the circle and two-sided estimates for Jacobi convolution operators.

The kernel of interest is k(theta) = P_n^{(alpha,beta)}(cos(theta)) acting by
(T f)(theta) = int k(theta - theta') f(theta') dtheta' on the 2*pi circle with
plain Lebesgue measure.  Upper bounds come from Young's inequality (the
L^{p/2} norm of the kernel) or, at p = 2, from the exact Fourier multiplier;
lower bounds come from a candidate family refined by a power iteration that
stops after _PLATEAU_SWEEPS sweeps without gain, or when its budget runs out.
A ratio counts from the second sweep on; for even p every iterate is then a
trigonometric polynomial whose norms the iteration grid sums exactly, so the
lower bound is certified up to rounding.  That grid is the smallest
5-smooth length above p n.  A pi-periodic kernel, one with no odd frequency
(alpha = beta at even n > 0), maps every f to a pi-periodic T f, so its
iteration runs on one period, in phi = 2 theta, where h^p has degree p n / 2
and the grid is the smallest 5-smooth length above that.  Other p iterate on
the default grid, folded onto one period when its size is even, and their
lower bounds are best-effort.  Each half-step scales a row by its largest
magnitude before raising it to the power p - 1, by multiplication for even
p, so no power overflows.  The candidates of a bracket refine
in lockstep, as the rows of one (K, N) array transformed by batched FFTs.  A
kernel is held as its Fourier coefficients, each degree's row from one O(n)
pass of special.jacobi_fourier_row; samples on a grid are synthesized from
them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

from .special import JacobiParams, frozen, jacobi_fourier_row

__all__ = [
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


# numpy's FFTs are slow on radix 7 and 11: a batched real transform pair
# on 12,320 = 2^5 5 7 11 points takes about 1.5 times as long as on 12,500.
# The power iteration, free to choose its grid, keeps to these radices.
_FAST_PRIMES = (2, 3, 5)

# The most points an even-p iteration grid may take: its table of 5-smooth
# lengths and each of its rows grow with p n.  products reads it as the
# cap of its direct restriction grid too.
_MAX_ITERATION_POINTS = 2_000_000


@lru_cache(maxsize=None)
def _smooth_numbers(limit: int, primes: tuple[int, ...]) -> list[int]:
    # Every integer up to limit with no prime factor outside primes, in
    # increasing order.
    numbers = {1}
    for prime in primes:
        grown = set()
        for n in numbers:
            while n <= limit:
                grown.add(n)
                n *= prime
        numbers = grown
    return sorted(numbers)


def _next_fast_len(target: int, primes: tuple[int, ...] = (2, 3, 5, 7, 11)) -> int:
    """Smallest integer >= target with no prime factor outside primes; by
    default 11-smooth, the rule of scipy.fft.next_fast_len for complex
    transforms."""
    table = _smooth_numbers(1 << (target - 1).bit_length(), primes)  # a power of two caps it
    return table[bisect_left(table, target)]


@frozen
class PeriodicGrid:
    """Uniform grid theta_j = 2*pi*j/size on the circle."""

    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, (int, np.integer)):
            raise TypeError(f"grid size must be an integer, got {self.size!r}")
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
    if not p > 0:
        raise ValueError("p must be positive or inf")
    return _grid_lp(f, p, grid.weight)


def _synthesize(c: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    # Frequencies past the grid's Nyquist bin fold onto m mod size, which
    # keeps the samples exact on grids of any size.  numpy.fft is imported
    # here and in opnorm_bracket, where it runs, so that the commands that
    # load this module and run no FFT (shell, sharpness, exponents) do not
    # load it.
    from numpy.fft import irfft

    n = len(c) - 1
    ms = np.arange(-n, n + 1)
    folded = np.bincount(ms % grid.size, weights=c[np.abs(ms)], minlength=grid.size)
    return irfft(folded[: grid.size // 2 + 1], grid.size, norm="forward")


def kernel_samples(params: JacobiParams, n: int, grid: PeriodicGrid) -> np.ndarray:
    """P_n^{(alpha,beta)}(cos(theta)) on the grid, synthesized from its
    Fourier coefficients."""
    return _synthesize(jacobi_fourier_row(params.alpha, params.beta, n), grid)


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
    if not (delta >= 0 and p > 0 and n >= 0):
        raise ValueError("need delta >= 0, p > 0, n >= 0")
    return float((n + 1.0) ** envelope_exponent(delta, p))


def envelope_A_tilde(delta: float, p: float, n: int) -> float:
    """Same as envelope_A but carrying log^{delta+1/2}(n+2) at the kink."""
    if not (delta >= 0 and p > 0 and n >= 0):
        raise ValueError("need delta >= 0, p > 0, n >= 0")
    kink = 1.0 / (delta + 0.5)
    if abs(p - kink) <= _KINK_TOL:
        return float((n + 1.0) ** -0.5 * math.log(n + 2.0) ** (delta + 0.5))
    return envelope_A(delta, p, n)


def fourier_multiplier(params: JacobiParams, n: int):
    """Frequencies m = -n..n and multiplier values khat(m) = int k e^{-im theta} dtheta."""
    ms = np.arange(-n, n + 1)
    return ms, 2.0 * math.pi * jacobi_fourier_row(params.alpha, params.beta, n)[np.abs(ms)]


def opnorm_l2_exact(params: JacobiParams, n: int) -> float:
    """Exact L^2 -> L^2 norm of convolution with the kernel: max_m |khat(m)|."""
    return 2.0 * math.pi * float(np.max(np.abs(jacobi_fourier_row(params.alpha, params.beta, n))))


@frozen
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


def _binary_power(x: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    # x^k for an integer k >= 2 by left-to-right binary powering, about
    # 2 log2(k) passes, in out or in a new array of x's memory layout.  The
    # order of the passes fixes the bits of every even-p sum.
    out = np.multiply(x, x, out=out)
    for i, bit in enumerate(bin(k)[3:]):
        if i:
            out *= out
        if bit == "1":
            out *= x
    return out


def _power_sum(a: np.ndarray, p: float, weight) -> float:
    # sum of weight * a^p over magnitudes a, with weight a float or an array
    # that broadcasts against a, or their max for p = inf.  Even
    # p below 2**53 take a^p by _binary_power; other p, and every double
    # from 2**53 on (all of them even), take one pow pass.  A power or sum
    # past float64 comes out inf without a warning.
    if p == math.inf:
        return float(np.max(a))
    with np.errstate(over="ignore"):
        out = a ** p if p % 2 or p >= 2.0**53 else _binary_power(a, int(p))
        out *= weight
        return float(np.sum(out))


def _grid_lp(f: np.ndarray, p: float, weight) -> float:
    # Rectangle-rule L^p norm of grid values f whose cells each weigh
    # `weight`, a float or an array that broadcasts against f, or their sup
    # for p = inf.  Circle norms here take it; restriction norms in products
    # add _power_sum over blocks of their grid, and take this rule on the
    # whole grid when that sum overflows.
    # The root is numpy's: for p < 1 a root past float64 is inf, where a
    # float's ** would raise, and neither root warns.
    a = np.abs(f)
    if p == math.inf:
        return _power_sum(a, p, weight)
    with np.errstate(over="ignore"):
        norm = float(np.float64(_power_sum(a, p, weight)) ** (1.0 / p))
        if not math.isfinite(norm) and np.all(np.isfinite(a)):
            # |f|^p overflowed: the max comes out.  A sum that did not
            # overflow keeps its bits.
            top = float(np.max(a))
            norm = top * float(np.float64(_power_sum(a / top, p, weight)) ** (1.0 / p))
    return norm


def _scaled_power(g: np.ndarray, p: float, out: np.ndarray):
    # Each row of g divided by its largest magnitude M, so x = g / M, and
    # sign(x) |x|^(p-1) formed in out (p > 2): for even p by _binary_power
    # (p - 1 is odd, so the sign comes along), for other p through pow and
    # copysign.  Returns M and each row's sum of |x|^p, as sum x out; g is
    # overwritten.  Since |x| <= 1 no power can overflow.  A row holding inf
    # turns to nan, and its sum with it.
    top = np.maximum(np.maximum(np.max(g, axis=1), -np.min(g, axis=1)), 1e-300)
    with np.errstate(invalid="ignore"):
        g /= top[:, None]
    if p % 2:
        np.abs(g, out=out)
        out **= p - 1.0
        np.copysign(out, g, out=out)
    else:
        _binary_power(g, int(p) - 1, out)
    g *= out
    return top, np.sum(g, axis=1)


# Sweeps in a row without a relative gain above 1e-13 after which a power
# iteration stops; at 1 a bundled bracket's witness changes.
_PLATEAU_SWEEPS = 2


def _boyd_refine(apply_op, f: np.ndarray, p: float, weight: float, budget: int):
    # Alternating maximization of <Tf, u> over unit balls, run in lockstep on
    # the rows of f, which hold the starts and are overwritten; apply_op maps
    # a (rows, N) array row by row.  Each full sweep is nondecreasing in a
    # row's Rayleigh ratio, so each row tracks its best value and leaves the
    # batch once it plateaus or diverges; the rows that stay move to the
    # front of f and of one scratch buffer.  Each half-step is one
    # _scaled_power: with x = g / M the dual direction is sign(x) |x|^(p-1),
    # ||g||_p = M (w sum |x|^p)^(1/p) and the next iterate's L^{p'} norm is
    # (w sum |x|^p)^(1/p').  Only a row's direction matters, so the starts
    # need no normalization; the first sweep's ratio is of the start itself,
    # whatever its samples are, so a row's ratio counts from the second
    # sweep on.  Returns every row's best value and whether it diverged.
    p_dual = p / (p - 1.0)
    best = np.zeros(len(f))
    diverged = np.zeros(len(f), dtype=bool)
    stall = np.zeros(len(f), dtype=int)
    live = np.arange(len(f))
    buffer = np.empty_like(f)
    for sweep in range(budget):
        u = buffer[: len(live)]
        top, sums = _scaled_power(apply_op(f), p, u)
        lam = np.array([m * (weight * s) ** (1.0 / p) for m, s in zip(top.tolist(), sums.tolist())])
        finite = np.isfinite(lam)
        if sweep:
            gain = finite & (lam > best[live] * (1.0 + 1e-13))
            best[live[gain]] = lam[gain]
            stall[live] = np.where(gain, 0, stall[live] + 1)
        diverged[live[~finite]] = True
        stay = finite & (stall[live] < _PLATEAU_SWEEPS)
        if not stay.all():
            live, u = live[stay], u[stay]
            if not len(live):
                break
        f = f[: len(live)]
        _, sums = _scaled_power(apply_op(u), p, f)
        norm = np.array([(weight * s) ** (1.0 / p_dual) for s in sums.tolist()])
        stay = np.isfinite(norm) & (norm > 0)
        if not stay.all():
            diverged[live[~stay]] = True
            live, norm = live[stay], norm[stay]
            f[: len(live)] = f[stay]
            f = f[: len(live)]
            if not len(live):
                break
        f /= norm[:, None]
    return best, diverged


def _bump(d: np.ndarray, width: float) -> np.ndarray:
    # cos^2 bump of half-width `width` about theta = 0, sampled at the
    # distances d of the grid points from 0.
    out = np.zeros_like(d)
    inside = d < width
    out[inside] = np.cos(0.5 * math.pi * d[inside] / width) ** 2
    return out


def _check_exponent(p: float) -> None:
    if not 2 <= p < math.inf:
        raise ValueError(f"bracket requires a finite p >= 2, got p = {p}")


def _check_iteration_grid(p: float, n: int) -> None:
    """Reject an even p whose iteration grid at degree n, more than p n
    points, would pass _MAX_ITERATION_POINTS."""
    if p % 2 == 0 and p * n + 1 > _MAX_ITERATION_POINTS:
        raise ValueError(
            f"an even p iterates on more than p n = {p * n:.6g} points at n = {n}; "
            f"at most {_MAX_ITERATION_POINTS} are allowed"
        )


def _upper_bound(c: np.ndarray, p: float) -> tuple[float, str]:
    """A bracket's upper bound and its method: the exact multiplier at
    p = 2, else Young's bound, the kernel's L^{p/2} norm by the rectangle
    rule on the default grid.  The sum is exact up to rounding for p/2 an
    even integer up to 8, where |k|^(p/2) is a trigonometric polynomial of
    degree below the grid's size.  Other p get an estimate, off either way:
    against 2^21 points, over the catalog pairs, by up to 4.1e-4 relative
    at p = 6 (below the true bound by up to 2.8e-6) and 2.6e-3 at p = 3
    for n = 1024 and 2048, 8 points per wavelength, and by 6.4e-7 at p = 6
    for n = 256."""
    if p == 2:
        return 2.0 * math.pi * float(np.max(np.abs(c))), UPPER_EXACT_MULTIPLIER
    grid = PeriodicGrid.for_degree(len(c) - 1)
    return lp_norm_periodic(grid, _synthesize(c, grid), p / 2.0), UPPER_YOUNG


def opnorm_bracket(
    params: JacobiParams,
    n: int,
    p: float,
    seed: int = 0,
    iteration_budget: int = 200,
) -> NormBracket:
    """Bracket the L^{p'} -> L^p norm of convolution with the degree-n kernel.

    p = 2 is exact (Fourier multiplier).  For p > 2 the upper bound is the
    kernel's L^{p/2} norm via Young's inequality, summed on
    PeriodicGrid.for_degree(n): exact for p/2 an even integer up to 8, else
    from n = 1024 on off by up to 4.1e-4 relative at p = 6 and 2.6e-3 at
    p = 3, either way (_upper_bound).  The lower bound is the best
    Rayleigh ratio over a candidate family, no two of them equal (single
    exponentials, bumps of dyadic widths down to 1/(4n) that stop at the
    first no wider than the grid spacing, the kernel itself at n > 0, one
    seeded random start), all refined together by power iteration, each until
    _PLATEAU_SWEEPS sweeps in a row gain no more than 1e-13 relative, or
    iteration_budget sweeps have run.  A candidate's ratio counts from its
    second sweep on.  For even p the candidates iterate on the smallest
    5-smooth grid with more than p n points (at least 8; more than
    _MAX_ITERATION_POINTS raise ValueError): from the second
    sweep on each iterate is h^(p-1) with h of degree <= n, the rectangle
    rule sums both norms of its ratio exactly there, and the lower bound is
    a true one up to rounding.  Other p iterate on PeriodicGrid.for_degree(n),
    where Young's sum always runs.  A kernel whose row is zero at every odd
    frequency at even n > 0 (every alpha = beta) is pi-periodic, and T sees
    only a start's even frequencies.  Each start, built on the full circle,
    is then folded onto one period (its two halves added), and the iteration
    runs there in phi = 2 theta, on the multiplier's even entries with
    weight 2 pi / M for M points: the same Rayleigh ratios.  For even p, M
    is the smallest 5-smooth length above p n / 2 (at least 8), so the sums
    stay exact and the lower bound certified; other p fold when the default
    grid's size is even, which keeps its points.  For every p each
    half-step scales a row by its largest magnitude before it raises it to
    the power p - 1 (by multiplication for even p), so a large p cannot
    overflow.  The witness is the first candidate, the closed-form
    exponential first, whose value is within 1e-12 relative of the best.
    """
    _check_exponent(p)
    _check_iteration_grid(p, n)
    c = jacobi_fourier_row(params.alpha, params.beta, n)
    upper, method = _upper_bound(c, p)
    top_m = int(np.argmax(np.abs(c)))
    if p == 2:
        return NormBracket(upper, upper, f"exponential m={top_m}", method)

    top = 2.0 * math.pi * abs(float(c[top_m]))
    p_dual = p / (p - 1.0)
    # Single exponentials admit a closed-form ratio |khat(m)| (2 pi)^(1/p - 1/p').
    found = [(top * (2.0 * math.pi) ** (1.0 / p - 1.0 / p_dual), f"exponential m={top_m}")]

    # The number of periods of a kernel with no odd frequency on the circle.
    fold = 2 if n > 0 and n % 2 == 0 and not np.any(c[1::2]) else 1
    if p % 2 == 0:
        grid = PeriodicGrid(fold * _next_fast_len(max(8, int(p) * n // fold + 1), _FAST_PRIMES))
    else:
        grid = PeriodicGrid.for_degree(n)
        fold = 1 if grid.size % 2 else fold
    thetas = grid.thetas
    d = np.minimum(thetas, 2.0 * math.pi - thetas)
    # No two starts are equal: a bump no wider than the grid spacing holds
    # one point, as would every narrower one, and at n = 0 the kernel is
    # the constant cos(0 theta).
    spacing, floor = d[1:].min(), 1.0 / (4.0 * max(n, 1))
    widths = [1.0]
    while widths[-1] > spacing and 0.5 * widths[-1] >= floor:
        widths.append(0.5 * widths[-1])
    names = [f"cos({top_m} theta)"] + ["kernel"] * (n > 0)
    names += [f"bump width 2^-{j}" for j in range(len(widths))] + ["random start"]
    starts = np.empty((len(names), grid.size))
    starts[0] = np.cos(top_m * thetas)
    if n > 0:
        starts[1] = _synthesize(c, grid)
    for j, width in enumerate(widths, start=len(names) - 1 - len(widths)):  # before the random start
        starts[j] = _bump(d, width)
    starts[-1] = np.random.default_rng(seed).standard_normal(grid.size)
    if fold > 1:
        # The folded row keeps every even frequency of its start.
        starts = starts.reshape(len(starts), fold, -1).sum(axis=1)
        grid = PeriodicGrid(grid.size // fold)

    # The kernel is real and even, so its multiplier is real.
    khat = np.zeros(grid.size // 2 + 1)
    khat[: n // fold + 1] = 2.0 * math.pi * c[::fold]
    spectra = np.empty((len(starts), len(khat)), dtype=complex)
    samples = np.empty_like(starts)
    from numpy.fft import irfft, rfft

    def apply_op(f: np.ndarray) -> np.ndarray:
        # The result lives in a buffer that the next call overwrites.
        x = rfft(f, axis=1, out=spectra[: len(f)])
        x *= khat
        return irfft(x, grid.size, axis=1, out=samples[: len(f)])

    values, diverged = _boyd_refine(apply_op, starts, p, grid.weight, iteration_budget)
    for name, value, bad in zip(names, values.tolist(), diverged.tolist()):
        if not bad:
            found.append((value, f"{name} (power iteration)"))
    lower = max(value for value, _ in found)
    witness = next(name for value, name in found if value >= lower * (1.0 - 1e-12))
    lower = min(lower, upper)  # guard roundoff at rank-one equality cases
    return NormBracket(lower, upper, witness, method, not diverged.any())


def tensor_opnorm_upper(factors, p: float) -> float:
    """Upper bound for the tensor-product kernel operator on T^k: the
    product of the per-factor bracket uppers.  Certified only where each
    factor's is: unless p/2 is an even integer up to 8, a factor's Young
    sum is an estimate that can fall below the true bound (_upper_bound)."""
    _check_exponent(p)
    out = 1.0
    for params, n in factors:
        out *= _upper_bound(jacobi_fourier_row(params.alpha, params.beta, n), p)[0]
    return out


@frozen
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

    Points are (n, value) with n strictly increasing and values positive:
    pairs, or an (m, 2) array.
    """
    pts = points if isinstance(points, np.ndarray) else list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    ns, vals = np.asarray(pts, dtype=float).T
    if not np.all(vals > 0):
        raise ValueError("values must be positive")
    if not np.all(np.diff(ns) > 0):
        raise ValueError("abscissas must be strictly increasing")
    if not ns[0] > 0:
        raise ValueError(f"abscissas must be positive for a log-log fit, got n = {pts[0][0]}")
    x = np.log(ns)
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return ExponentFit(float(slope), float(intercept), float(np.max(np.abs(resid))), len(pts))
