"""Catalog of compact rank-one symmetric spaces and their spherical functions.

Each space carries the Jacobi pair (alpha, beta) with alpha = (d-2)/2, the
Laplace eigenvalue shift a (eigenvalues are n^2 + a n), and evaluation
helpers: normalized spherical functions, their integer-frequency Fourier
expansions, representation dimensions obtained from the quadrature identity
k(n) = 1 / int Phi_n^2 dmu, and the derivative/small-angle diagnostics.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .special import (
    JacobiParams,
    _fourier_columns,
    jacobi_binomial,
    jacobi_recurrence_rows,
    jacobi_theta_derivative,
)

__all__ = [
    "Kind",
    "CrossSpace",
    "sphere",
    "real_projective",
    "complex_projective",
    "quaternionic_projective",
    "octonionic_plane",
    "catalog",
    "space_to_dict",
    "space_from_dict",
    "FourierExpansion",
    "spherical_eval",
    "spherical_table",
    "fourier_expansion",
    "fourier_expansions",
    "rep_dimension",
    "rep_dimensions",
    "weyl_dimension",
    "weyl_dimensions",
    "spherical_gram",
    "laplace_eigenvalue",
    "spherical_theta_derivative",
    "derivative_bound_ratio",
    "small_angle_closeness",
]


class Kind(str, enum.Enum):
    SPHERE = "sphere"
    COMPLEX_PROJECTIVE = "complex_projective"
    QUATERNIONIC_PROJECTIVE = "quaternionic_projective"
    OCTONIONIC_PLANE = "octonionic_plane"


# beta for each family; alpha is always (d-2)/2.
_TWICE_BETA = {
    Kind.SPHERE: lambda d: d - 2,
    Kind.COMPLEX_PROJECTIVE: lambda d: 0,
    Kind.QUATERNIONIC_PROJECTIVE: lambda d: 2,
    Kind.OCTONIONIC_PLANE: lambda d: 6,
}


@dataclass(frozen=True)
class CrossSpace:
    """A compact rank-one symmetric space.

    even_degrees_only marks the real-projective quotient of a sphere, which
    keeps the same (alpha, beta) but only even spectral degrees.
    """

    kind: Kind
    dimension: int
    params: JacobiParams
    eigenvalue_shift: int
    even_degrees_only: bool = False

    def __post_init__(self) -> None:
        d = self.dimension
        if d < 2:
            raise ValueError("dimension must be at least 2")
        if self.kind is Kind.COMPLEX_PROJECTIVE and d % 2:
            raise ValueError("complex projective space needs even dimension")
        if self.kind is Kind.QUATERNIONIC_PROJECTIVE and d % 4:
            raise ValueError("quaternionic projective space needs dimension divisible by 4")
        if self.kind is Kind.OCTONIONIC_PLANE and d != 16:
            raise ValueError("the octonionic plane has dimension 16")
        if self.params.twice_alpha != d - 2:
            raise ValueError("alpha must equal (d-2)/2")
        if not (0 <= self.params.twice_beta <= self.params.twice_alpha):
            raise ValueError("beta must satisfy 0 <= beta <= alpha")
        expected_shift = (self.params.twice_alpha + self.params.twice_beta + 2) // 2
        if 2 * expected_shift != self.params.twice_alpha + self.params.twice_beta + 2:
            raise ValueError("alpha + beta + 1 must be an integer")
        if self.eigenvalue_shift != expected_shift or self.eigenvalue_shift <= 0:
            raise ValueError("eigenvalue shift must equal alpha + beta + 1")

    def degrees(self, n_max: int) -> list[int]:
        step = 2 if self.even_degrees_only else 1
        return list(range(0, n_max + 1, step))

    def label(self) -> str:
        tag = {
            Kind.SPHERE: "S",
            Kind.COMPLEX_PROJECTIVE: "CP",
            Kind.QUATERNIONIC_PROJECTIVE: "HP",
            Kind.OCTONIONIC_PLANE: "OP",
        }[self.kind]
        if self.kind is Kind.SPHERE and self.even_degrees_only:
            return f"RP{self.dimension}"
        return f"{tag}{self.dimension}"


def _make(kind: Kind, d: int, even_degrees_only: bool = False) -> CrossSpace:
    params = JacobiParams(d - 2, _TWICE_BETA[kind](d))
    shift = (params.twice_alpha + params.twice_beta + 2) // 2
    return CrossSpace(kind, d, params, shift, even_degrees_only)


def sphere(d: int) -> CrossSpace:
    return _make(Kind.SPHERE, d)


def real_projective(d: int) -> CrossSpace:
    """RP^d, served through the sphere with even degrees only."""
    return _make(Kind.SPHERE, d, even_degrees_only=True)


def complex_projective(d: int) -> CrossSpace:
    """CP^{d/2} of real dimension d (d even)."""
    return _make(Kind.COMPLEX_PROJECTIVE, d)


def quaternionic_projective(d: int) -> CrossSpace:
    """HP^{d/4} of real dimension d (d divisible by 4)."""
    return _make(Kind.QUATERNIONIC_PROJECTIVE, d)


def octonionic_plane() -> CrossSpace:
    return _make(Kind.OCTONIONIC_PLANE, 16)


def catalog() -> tuple[CrossSpace, ...]:
    """A representative sample covering every family and parameter pattern."""
    return (
        sphere(2),
        sphere(3),
        sphere(4),
        sphere(5),
        sphere(6),
        complex_projective(4),
        complex_projective(6),
        quaternionic_projective(8),
        octonionic_plane(),
    )


def space_to_dict(space: CrossSpace) -> dict:
    return {
        "kind": space.kind.value,
        "dimension": space.dimension,
        "alpha": space.params.alpha,
        "beta": space.params.beta,
        "a": space.eigenvalue_shift,
        "even_degrees_only": space.even_degrees_only,
    }


def space_from_dict(data: dict) -> CrossSpace:
    """Inverse of space_to_dict.  Values are checked, never coerced: the
    dimension must be an integer and even_degrees_only true or false."""
    if not isinstance(data, dict):
        raise TypeError(f"a space must be an object, got {data!r}")
    dimension, even = data["dimension"], data.get("even_degrees_only", False)
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        raise ValueError(f"dimension must be an integer, got {dimension!r}")
    if not isinstance(even, bool):
        raise ValueError(f"even_degrees_only must be true or false, got {even!r}")
    space = _make(Kind(data["kind"]), dimension, even)
    if "alpha" in data and 2 * data["alpha"] != space.params.twice_alpha:
        raise ValueError("alpha inconsistent with dimension")
    if "beta" in data and 2 * data["beta"] != space.params.twice_beta:
        raise ValueError("beta inconsistent with the catalog")
    if "a" in data and data["a"] != space.eigenvalue_shift:
        raise ValueError("eigenvalue shift inconsistent with the catalog")
    return space


# ---------------------------------------------------------------------------
# spherical functions
# ---------------------------------------------------------------------------

def spherical_eval(space: CrossSpace, n: int, theta):
    """Phi_n(theta): the degree-n Jacobi polynomial at cos(theta), normalized
    so that Phi_n(0) = 1 exactly."""
    out = spherical_table(space, [n], theta)[n]
    return float(out) if np.isscalar(theta) else out


def spherical_table(space: CrossSpace, degrees, theta) -> dict[int, np.ndarray]:
    """Normalized values for several degrees from one recurrence sweep."""
    return dict(_spherical_rows(space, degrees, np.cos(np.asarray(theta, dtype=float))))


def _spherical_rows(space: CrossSpace, degrees, x):
    """Yield (n, Phi_n(x)) for the wanted degrees, in increasing order, from
    one sweep of the normalized recurrence, which makes no other row."""
    wanted = set(int(n) for n in degrees)
    if wanted:
        params = space.params
        yield from jacobi_recurrence_rows(params.alpha, params.beta, max(wanted), x, True, degrees=wanted)


@dataclass(frozen=True, eq=False)
class FourierExpansion:
    """Integer-frequency expansion Phi_n(theta) = sum_{|m| <= n} c_|m| exp(i m theta),
    held as the one-sided row c_0..c_n of the even coefficients."""

    row: np.ndarray

    def frequencies(self) -> np.ndarray:
        n = len(self.row) - 1
        return np.arange(-n, n + 1)

    def coefficients(self) -> np.ndarray:
        """c_m for m = -n..n, the order of frequencies()."""
        return np.concatenate((self.row[:0:-1], self.row))

    def coefficient(self, m: int) -> float:
        return float(self.row[abs(m)]) if abs(m) < len(self.row) else 0.0

    def support(self) -> set[int]:
        """Frequencies whose coefficient exceeds 1e-12 of the largest."""
        c = self.coefficients()
        cutoff = 1e-12 * float(np.max(np.abs(c)))
        return {int(m) for m in self.frequencies()[np.abs(c) > cutoff]}

    def synthesize(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        weights = np.append(self.row[0], 2.0 * self.row[1:])
        return np.cos(np.outer(th, np.arange(len(self.row)))) @ weights


def fourier_expansion(space: CrossSpace, n: int) -> FourierExpansion:
    """Fourier coefficients of Phi_n, from the Jacobi recurrence in the frequency."""
    return next(fourier_expansions(space, [n]))[1]


def fourier_expansions(space: CrossSpace, degrees):
    """Yield (n, fourier_expansion(space, n)) for each distinct degree, in
    increasing order, from one batched run of the frequency recurrence.

    Each unscaled row is divided once by its own value at theta = 0, so that
    Phi_n(0) = 1 as in spherical_eval; alpha >= beta in the catalog, so no
    row needs the mirror of jacobi_fourier_rows.
    """
    wanted = sorted(set(int(n) for n in degrees))
    if wanted and wanted[0] < 0:
        raise ValueError("degree must be nonnegative")
    for n, c in _fourier_columns(space.params.alpha, space.params.beta, wanted):
        yield n, FourierExpansion(c / (c[0] + 2.0 * np.sum(c[1:])))


# ---------------------------------------------------------------------------
# the radial measure and representation dimensions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def measure_nodes(space: CrossSpace, size: int):
    """Nodes x = cos((k - 1/2) pi / size), k = 1..size, and probability
    weights of a rule for the radial measure (1 - x)^alpha (1 + x)^beta dx,
    in closed form and O(size) memory.

    Half-integer alpha, beta take the Gauss-Chebyshev weights times
    (1 - x)^(alpha + 1/2) (1 + x)^(beta + 1/2), exact on polynomials of
    degree up to 2 size - 2 - alpha - beta.  Integer ones take Fejer's first
    rule times (1 - x)^alpha (1 + x)^beta, exact up to degree
    size - 1 - alpha - beta: its weights are the cosine transform of the
    moments int T_j dx = 2 / (1 - j^2), j even, by one FFT (Waldvogel 2006).
    """
    twice_a, twice_b = space.params.twice_alpha, space.params.twice_beta
    x = np.cos(math.pi * (np.arange(1.0, size + 1.0) - 0.5) / size)
    if twice_a % 2:
        w = (1.0 - x) ** ((twice_a + 1) // 2) * (1.0 + x) ** ((twice_b + 1) // 2)
    else:
        # cos(j theta_k) = Re exp(i pi j k / size) exp(-i pi j / (2 size))
        j = np.arange(0, size, 2)
        moments = np.zeros(size + 1, dtype=complex)
        moments[:size:2] = 2.0 / (1.0 - j * j) * np.exp(-0.5j * math.pi * j / size)
        fejer = np.fft.irfft(moments, 2 * size)[1 : size + 1]
        w = fejer * (1.0 - x) ** (twice_a // 2) * (1.0 + x) ** (twice_b // 2)
    return x, w / np.sum(w)


def _rule_size(space: CrossSpace, n: int) -> int:
    """The smallest power of two at or above n + a // 2 + 8 for half-integer
    alpha, beta, or 2 n + a + 8 for integer ones: enough nodes for
    measure_nodes to integrate Phi_n^2 exactly, shared by nearby degrees."""
    a = space.eigenvalue_shift
    least = n + a // 2 + 8 if space.params.twice_alpha % 2 else 2 * n + a + 8
    return 1 << (least - 1).bit_length()


def _dimension_sweep(space: CrossSpace, size: int, degrees) -> dict[int, float]:
    """k(n) = 1 / int Phi_n^2 dmu for each degree n, on the size-point rule.

    The nodes go through one recurrence sweep, which treats each point on
    its own; a row does not depend on how far the sweep runs, so every k(n)
    is the value a sweep for degree n alone would give, to the bit.
    """
    x, w = measure_nodes(space, size)
    return {n: float(1.0 / np.sum(w * phi * phi)) for n, phi in _spherical_rows(space, degrees, x)}


@lru_cache(maxsize=65536)
def _rep_dimension_cached(space: CrossSpace, n: int) -> float:
    return _dimension_sweep(space, _rule_size(space, n), [n])[n]


def rep_dimension(space: CrossSpace, n: int) -> float:
    """Dimension k(n) of the degree-n spherical representation.

    Computed as 1 / int Phi_n^2 dmu on the measure_nodes rule of
    _rule_size(space, n) nodes, exact for Phi_n^2: Gauss-Chebyshev for
    half-integer alpha, beta and Fejer's first rule for integer ones.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return _rep_dimension_cached(space, n)


def rep_dimensions(space: CrossSpace, degrees) -> list[float]:
    """rep_dimension(space, n) for each n in degrees, in their order.

    Degrees that share a rule size share one recurrence sweep over its
    nodes, and each value equals rep_dimension's to the bit.
    """
    degrees = [int(n) for n in degrees]
    if any(n < 0 for n in degrees):
        raise ValueError("degree must be nonnegative")
    groups: dict[int, set[int]] = {}
    for n in degrees:
        groups.setdefault(_rule_size(space, n), set()).add(n)
    table: dict[int, float] = {}
    for size, group in groups.items():
        table.update(_dimension_sweep(space, size, group))
    return [table[n] for n in degrees]


def weyl_dimension(space: CrossSpace, n: int) -> Fraction:
    """k(n) = (2n+rho)/rho (rho)_n (alpha+1)_n / ((beta+1)_n n!), rho = alpha + beta + 1:
    the dimension of the degree-n spherical representation, in exact
    arithmetic.  rep_dimension reaches it through quadrature."""
    twice_a, twice_b = space.params.twice_alpha, space.params.twice_beta
    rho = space.eigenvalue_shift  # alpha + beta + 1, an integer
    num, den = 2 * n + rho, rho
    for j in range(n):
        num *= (rho + j) * (twice_a + 2 + 2 * j)
        den *= (twice_b + 2 + 2 * j) * (j + 1)
    return Fraction(num, den)


def weyl_dimensions(space: CrossSpace, n_max: int) -> list[Fraction]:
    """[weyl_dimension(space, n) for n = 0..n_max], from one running product
    of the ratios (rho + j)(alpha + 1 + j) / ((beta + 1 + j)(j + 1))."""
    if n_max < 0:
        raise ValueError("degree must be nonnegative")
    twice_a, twice_b = space.params.twice_alpha, space.params.twice_beta
    rho = space.eigenvalue_shift
    product = Fraction(1, rho)
    out = []
    for n in range(n_max + 1):
        out.append(product * (2 * n + rho))
        product *= Fraction((rho + n) * (twice_a + 2 + 2 * n), (twice_b + 2 + 2 * n) * (n + 1))
    return out


def spherical_gram(space: CrossSpace, n_max: int) -> np.ndarray:
    """Matrix of int Phi_i Phi_j dmu for 0 <= i, j <= n_max, on the nodes of
    rep_dimension's rule for degree n_max, which integrates each product
    exactly."""
    x, w = measure_nodes(space, _rule_size(space, n_max))
    rows = np.vstack([phi for _, phi in _spherical_rows(space, range(n_max + 1), x)])
    return (rows * w) @ rows.T


def laplace_eigenvalue(space: CrossSpace, n: int) -> int:
    """Eigenvalue n^2 + a n of -Laplace on the degree-n joint eigenspace."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return n * n + space.eigenvalue_shift * n


# ---------------------------------------------------------------------------
# derivative and small-angle diagnostics
# ---------------------------------------------------------------------------

def spherical_theta_derivative(space: CrossSpace, n: int, theta):
    """Phi_n'(theta), through the parameter-shifted polynomial identity."""
    return jacobi_theta_derivative(space.params, n, theta) / jacobi_binomial(space.params.alpha, n)


def derivative_bound_ratio(space: CrossSpace, n: int, grid=None) -> float:
    """sup over interior grid angles of |Phi_n'(theta)| / ((n+1)^2 sin(theta))."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if grid is None:
        grid = 4096
    if np.isscalar(grid):
        m = int(grid)
        theta = math.pi * (np.arange(m) + 0.5) / m
    else:
        theta = np.asarray(grid, dtype=float)
        if np.any(theta <= 0) or np.any(theta >= math.pi):
            raise ValueError("grid must stay strictly inside (0, pi)")
    deriv = spherical_theta_derivative(space, n, theta)
    return float(np.max(np.abs(deriv) / ((n + 1.0) ** 2 * np.sin(theta))))


def small_angle_closeness(space: CrossSpace, n: int, epsilon: float) -> float:
    """sup of |Phi_n(theta) - 1| over |theta| <= epsilon/(n+1), on 129 angles."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    theta = np.linspace(0.0, epsilon / (n + 1.0), 129)
    return float(np.max(np.abs(spherical_eval(space, n, theta) - 1.0)))
