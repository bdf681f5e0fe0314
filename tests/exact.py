"""Exact Fourier rows of the Jacobi kernels P_n^{(alpha,beta)}(cos(theta)).

For a half-integer pair every coefficient is rational.  fourier_row runs the
recurrence in the frequency that crossflat.special.jacobi_fourier_row runs
in float64,

    (n-k+1)(n+k-1+rho) c[k-1] = 2 (alpha-beta) k c[k] + (n+k+1)(n+rho-k-1) c[k+1],

with rho = alpha + beta + 1, down from c[n+1] = 0, in integers, and scales
the row by the exact binomial(n + alpha, n) = P_n(1).  It uses no mirror for
beta > alpha.  fourier_row_float rounds each coefficient to float64 once.

The rows are checked independently of that recurrence: jacobi_value is
P_n(x) at a rational x from the three-term recurrence in the degree, and
chebyshev_sum evaluates c[0] + 2 sum c[m] T_m(x) with each T_m from its
own recurrence.  At theta = pi the row sums to (-1)^n binomial(n + beta, n).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = ["binomial", "fourier_row", "fourier_row_float", "jacobi_value", "chebyshev_sum"]


def _twice(x) -> int:
    twice = 2 * Fraction(x)
    if twice.denominator != 1:
        raise ValueError(f"{x} is not a half-integer")
    return twice.numerator


def binomial(alpha, n: int) -> Fraction:
    """binomial(n + alpha, n) = prod_{k=1..n} (k + alpha) / k."""
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= (k + Fraction(alpha)) / k
    return out


@lru_cache(maxsize=64)
def _integer_row(alpha, beta, n: int) -> tuple[tuple[int, ...], int]:
    """Integers z[0..n] and a denominator with c[m] = z[m] / denominator.

    Doubled, the recurrence reads d_k c[k-1] = 2 (A-B) k c[k] + e_k c[k+1]
    with A = 2 alpha, B = 2 beta, d_k = (n-k+1)(2n+2k+A+B) and
    e_k = (n+k+1)(2n+A+B-2k).  Started from c[n] = d_1 ... d_n, every c[k]
    is an integer, so each division by d_k is exact.  The start also carries
    the numerator prod (2k + A) of the binomial, so the final scaling is one
    integer division and each entry then a single rounding.
    """
    A, B = _twice(alpha), _twice(beta)

    def d(k: int) -> int:
        return (n - k + 1) * (2 * n + 2 * k + A + B)

    z = [0] * (n + 2)
    z[n] = numerator = denominator = 1
    for k in range(1, n + 1):
        z[n] *= d(k) * (2 * k + A)
        numerator *= 2 * k + A
        denominator *= 2 * k
    for k in range(n, 0, -1):
        z[k - 1], rest = divmod(2 * (A - B) * k * z[k] + (n + k + 1) * (2 * n + A + B - 2 * k) * z[k + 1], d(k))
        assert rest == 0
    row_sum, rest = divmod(z[0] + 2 * sum(z[1 : n + 1]), numerator)
    assert rest == 0
    return tuple(z[: n + 1]), row_sum * denominator


def fourier_row(alpha, beta, n: int) -> list[Fraction]:
    """c[m], m = 0..n, the coefficient of exp(+-i m theta), exactly."""
    z, denominator = _integer_row(alpha, beta, n)
    return [Fraction(x, denominator) for x in z]


def fourier_row_float(alpha, beta, n: int) -> np.ndarray:
    """fourier_row with each coefficient correctly rounded to float64."""
    z, denominator = _integer_row(alpha, beta, n)
    return np.array([x / denominator for x in z])


def jacobi_value(alpha, beta, n: int, x) -> Fraction:
    """P_n^{(alpha,beta)}(x) from the three-term recurrence in the degree."""
    a, b, x = Fraction(alpha), Fraction(beta), Fraction(x)
    prev, value = Fraction(1), (a + 1) + (a + b + 2) * (x - 1) / 2
    if n == 0:
        return prev
    for m in range(2, n + 1):
        t = 2 * m + a + b
        prev, value = value, (
            (t - 1) * (t * (t - 2) * x + a * a - b * b) * value - 2 * (m + a - 1) * (m + b - 1) * t * prev
        ) / (2 * m * (m + a + b) * (t - 2))
    return value


def chebyshev_sum(c, x) -> Fraction:
    """c[0] + 2 sum_{m>=1} c[m] T_m(x): the kernel at cos(theta) = x."""
    x = Fraction(x)
    t_prev, t = Fraction(1), x
    total = Fraction(c[0])
    for m in range(1, len(c)):
        total += 2 * c[m] * t
        t_prev, t = t, 2 * x * t - t_prev
    return total
