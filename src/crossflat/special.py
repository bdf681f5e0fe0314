"""Jacobi polynomials, their main asymptotic terms, and Bessel/Gamma helpers.

Point values come from the forward three-term recurrence in the degree,
which is stable on [-1, 1] and needs no coefficient tables, in Reinsch's
difference form.  The Fourier coefficients of the kernels P_n(cos theta) on
the circle come from a recurrence in the frequency whose terms are all
nonnegative, run for one degree as a scalar pass or for many degrees
together as one numpy step per frequency, with the same bits.  All run in
float64, so results do not depend on the platform.  Gamma ratios in the
main terms go through log-Gamma so that degrees in the thousands do not
overflow.  The normalization is P_n(1) = binomial(n + alpha, n) throughout.
The Bessel helpers import scipy when called, so that importing this module
does not.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ResolutionError",
    "REGIME_WINDOW_CONSTANT",
    "JacobiParams",
    "AsymptoticFrame",
    "jacobi_recurrence_rows",
    "jacobi_fourier_rows",
    "jacobi_fourier_row",
    "jacobi_eval",
    "jacobi_binomial",
    "binomial_main_term",
    "chebyshev_half_case",
    "jacobi_theta_derivative",
    "interior_main_term",
    "edge_main_term",
    "bessel_j",
]

# Width constant c of the edge/interior split: edge is theta <= c/(n+1),
# interior is c/(n+1) <= theta <= pi - c/(n+1).
REGIME_WINDOW_CONSTANT = 1.0

# Entries of one jacobi_fourier_rows block: each of its three arrays (the
# rows and the recurrence's two factors) holds at most this many doubles, 8 MB.
_FOURIER_BLOCK = 1 << 20

# A field that no argument and no default gives a value.
_MISSING = object()


def frozen(cls=None, /, *, eq=True):
    """Make cls an immutable value class over its own annotated fields.

    It keeps what the standard library's frozen data classes gave these
    classes: __init__ takes the fields, in the order they are annotated, by
    position or keyword, takes each one left out from its default in the
    class body, and then calls __post_init__ when cls defines it; setting or
    deleting an attribute raises AttributeError; __repr__ reads
    Name(field=value, ...); and, unless eq is False, instances of the same
    class are equal, and hash alike, when their field tuples are.
    __match_args__ holds the field names.

    The standard library's decorator compiles six methods with exec for
    each class, every time a process imports it: about 0.5 ms a class on
    Python 3.11, 7 ms for crossflat's 13 classes, paid by every CLI
    process.  These methods are closures over the field names, and nothing
    is compiled.  __init__ stores each field with object.__setattr__, which
    keeps the instance's values inline, as a plain assignment does, so that
    attribute reads stay on the interpreter's fast path.  It also keeps the
    tuple of field values, as _key, for __eq__ and __hash__: lru_cache and
    dict keys hash CrossSpace and JacobiParams thousands of times in a
    sharpness sweep, and one stored tuple hashes faster than the fields
    read again, by operator.attrgetter or by generated code.
    """
    if cls is None:
        return lambda cls: frozen(cls, eq=eq)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")
    store = object.__setattr__

    def bind(args, kwargs):
        # One value per field, in order, from a call that does not pass
        # exactly one positional value per field.
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments but {len(args)} were given")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
            if names.index(name) < len(args):
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        values = args + tuple(kwargs.get(name, defaults.get(name, _MISSING)) for name in names[len(args):])
        missing = [name for name, value in zip(names, values) if value is _MISSING]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing arguments: {', '.join(missing)}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            store(self, name, value)
        if eq:
            store(self, "_key", args)
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {cls.__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {cls.__qualname__}")

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    cls.__init__, cls.__setattr__, cls.__delattr__, cls.__repr__ = __init__, __setattr__, __delattr__, __repr__
    cls.__match_args__ = names
    if eq:

        def __eq__(self, other):
            if self is other:
                return True
            if other.__class__ is not cls:
                return NotImplemented
            return self._key == other._key

        def __hash__(self):
            return hash(self._key)

        cls.__eq__, cls.__hash__ = __eq__, __hash__
    return cls


class ResolutionError(ValueError):
    """A quadrature grid cannot resolve the oscillation it is asked to integrate.

    Defined here, in the module every CLI command loads, so that the CLI can
    map it to its exit code without importing `products`, which raises it."""


@frozen
class JacobiParams:
    """Weight exponents (alpha, beta), stored doubled so half-integers are exact.

    Instances derived from the space catalog satisfy alpha >= beta >= 0; the
    evaluation routines themselves accept anything with alpha, beta > -1.
    """

    twice_alpha: int
    twice_beta: int

    def __post_init__(self) -> None:
        if self.twice_alpha <= -2 or self.twice_beta <= -2:
            raise ValueError(
                f"jacobi parameters must exceed -1, got alpha={self.twice_alpha / 2}, "
                f"beta={self.twice_beta / 2}"
            )

    @classmethod
    def of(cls, alpha: float, beta: float) -> "JacobiParams":
        """Build from plain numbers; they must be exact half-integers."""
        ta, tb = 2 * alpha, 2 * beta
        if ta != round(ta) or tb != round(tb):
            raise ValueError(f"({alpha}, {beta}) is not a half-integer pair")
        return cls(int(round(ta)), int(round(tb)))

    @property
    def alpha(self) -> float:
        return self.twice_alpha / 2.0

    @property
    def beta(self) -> float:
        return self.twice_beta / 2.0

    def shifted(self, by: int = 1) -> "JacobiParams":
        """Both exponents moved by an integer, as in derivative identities."""
        return JacobiParams(self.twice_alpha + 2 * by, self.twice_beta + 2 * by)

    def swapped(self) -> "JacobiParams":
        return JacobiParams(self.twice_beta, self.twice_alpha)


@frozen
class AsymptoticFrame:
    """Shifted degree and phase entering the oscillatory main terms."""

    n: int
    n_tilde: float
    gamma_phase: float

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("degree must be nonnegative")
        if not self.n_tilde > self.n:
            raise ValueError("shifted degree must exceed the degree")

    @classmethod
    def for_degree(cls, params: JacobiParams, n: int) -> "AsymptoticFrame":
        a, b = params.alpha, params.beta
        return cls(n=n, n_tilde=n + (a + b + 1.0) / 2.0, gamma_phase=-(a + 0.5) * math.pi / 2.0)


def _check_x(x):
    """Validate the points; return the mask x < 0 and s = (1 - |x|)/2 in float64.

    1 - |x| is formed in the input's own precision before the cast, so an
    extended-precision x keeps the digits that place it near a pole.
    """
    x = np.asarray(x)
    if x.dtype != np.longdouble:
        x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    if np.any(np.abs(x) > 1.0):
        raise ValueError("argument outside [-1, 1]")
    return x < 0, np.asarray(1.0 - np.abs(x), dtype=float) / 2.0


def _check_recurrence(alpha: float, beta: float, n_max: int) -> None:
    if alpha <= -1 or beta <= -1:
        raise ValueError("jacobi parameters must exceed -1")
    if n_max < 0:
        raise ValueError("degree must be nonnegative")


def _binomial_row(alpha: float, n_max: int) -> np.ndarray:
    """binomial(n + alpha, n) = P_n(1) for n = 0..n_max, as the running
    product of 1 + alpha/k."""
    return np.cumprod(np.append(1.0, 1.0 + alpha / np.arange(1.0, n_max + 1.0)))


def _normalized_coefficients(a: float, b: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    # With t = 2n + a + b, 2n (n+a+b) (t-2) P_n = (t-1) (t (t-2) x + a^2 - b^2)
    # P_{n-1} - 2 (n+a-1) (n+b-1) t P_{n-2}.  In q_n = P_n / binomial(n + a, n)
    # and x = 1 - 2s, where q_n = 1 solves it at s = 0, it becomes
    # d_n = beta_n d_{n-1} - gamma_n s q_{n-1}, q_n = q_{n-1} + d_n, with the
    # ratios below.  d_1 = -(a+b+2)/(a+1) s starts it from d_0 = 0; the
    # n = 1 ratio would be 0/0 when a + b = -1.
    n = np.arange(2.0, n_max + 1.0)
    t = 2.0 * n + a + b
    beta = (n - 1.0) * (n + b - 1.0) * t / ((n + a) * (n + a + b) * (t - 2.0))
    gamma = (t - 1.0) * t / ((n + a) * (n + a + b))
    return np.append([0.0, 0.0], beta), np.append([0.0, (a + b + 2.0) / (a + 1.0)], gamma)


def jacobi_recurrence_rows(alpha: float, beta: float, n_max: int, x, normalized: bool = False, *, degrees=None):
    """Yield (n, values) for P_n^{(alpha,beta)} at the points x, n = 0..n_max,
    or for q_n = P_n / P_n(1) when normalized; given degrees, only for the n
    among them.

    This is the raw engine: it takes plain floats and emits one degree per
    step so callers can scan large degree ranges in O(1) memory.  It runs
    Reinsch's difference form of the three-term recurrence in float64 on
    q_n in s = (1 - x)/2, d_n = q_n - q_{n-1}, which keeps the digits that
    the plain recurrence loses near x = 1; points with x < 0 go through
    P^{(alpha,beta)}(-x) = (-1)^n P^{(beta,alpha)}(x), so s <= 1/2 always.
    The points are laid out once in two blocks, one per sign, and one loop
    runs both halves, each with its own coefficients; a row goes back to the
    caller's order by one gather, and needs none when the caller's points
    already come in two such blocks.  Each point is carried on its own.
    The values are q_n * P_n(1) for x >= 0 and q_n^{(beta,alpha)} times
    (-1)^n binomial(n + beta, n) for x < 0, the latter divided by
    binomial(n + alpha, n) when normalized, so a normalized row is exactly
    1 at x = 1.  A degree outside degrees is stepped through but never made
    into a row: no copy, no scale pass, no gather.
    """
    _check_recurrence(alpha, beta, n_max)
    wanted = range(n_max + 1) if degrees is None else {int(n) for n in degrees}
    negative, s = _check_x(x)
    a, b = float(alpha), float(beta)
    shape, s, negative = s.shape, s.ravel(), negative.ravel()
    size, lows = len(s), int(np.count_nonzero(negative))
    upper, lower = slice(0, size - lows), slice(size - lows, size)
    gather = None
    if negative[:lows].all():
        upper, lower = slice(lows, size), slice(0, lows)
    elif negative[upper].any():
        order = np.argsort(negative, kind="stable")
        s = s[order]
        gather = np.empty_like(order)
        gather[order] = np.arange(size)
    binomials = _binomial_row(a, n_max)
    reflected = _binomial_row(b, n_max) * (-1.0) ** np.arange(n_max + 1)
    if normalized:
        reflected /= binomials
    q, d, sq = np.ones_like(s), np.zeros_like(s), np.empty_like(s)
    # Each half: its part of the points, its view of q and its scale per
    # degree (None: the row is q_n).  Each half off the poles also runs the
    # loop on its views, with its own coefficients; at s = 0 every step
    # leaves q_n = 1 and d_n = 0 exactly, so a half held there runs none.
    halves, steps = [], []
    for part, (c, e), scale in ((upper, (a, b), None if normalized else binomials), (lower, (b, a), reflected)):
        if part.start < part.stop:
            halves.append((part, q[part], None if scale is None else scale.tolist()))
            if s[part].any():
                betas, gammas = _normalized_coefficients(c, e, n_max)
                steps.append((q[part], d[part], sq[part], s[part], betas.tolist(), gammas.tolist()))
    reshape = shape != s.shape
    buffer = None if gather is None else np.empty_like(s)
    for n in range(n_max + 1):
        if n:
            for q_h, d_h, sq_h, s_h, betas, gammas in steps:
                d_h *= betas[n]
                np.multiply(s_h, q_h, out=sq_h)
                sq_h *= gammas[n]
                d_h -= sq_h
                q_h += d_h
        if n not in wanted:
            continue
        if len(halves) == 1:
            scale = halves[0][2]
            row = q.copy() if scale is None else q * scale[n]
        else:
            row = np.empty_like(s) if buffer is None else buffer
            for part, q_h, scale in halves:
                if scale is None:
                    row[part] = q_h
                else:
                    np.multiply(q_h, scale[n], out=row[part])
            if gather is not None:
                row = row.take(gather)
        yield n, row.reshape(shape) if reshape else row


def jacobi_fourier_row(alpha: float, beta: float, n: int) -> np.ndarray:
    """Fourier coefficients c[m], m = 0..n, of P_n^{(alpha,beta)}(cos(theta)),
    in one O(n) pass.

    The Jacobi equation in theta, sin y'' + (rho cos + alpha - beta) y' +
    n (n + rho) sin y = 0 with rho = alpha + beta + 1, gives the recurrence
    in the frequency

        (n-k+1)(n+k-1+rho) c[k-1] = 2 (alpha-beta) k c[k] + (n+k+1)(n+rho-k-1) c[k+1],

    run down from c[n+1] = 0, c[n] = 1; the row is then scaled so that
    c[0] + 2 sum c[m] = P_n(1) = binomial(n + alpha, n).  For beta > alpha
    the (beta, alpha) row is computed and entry m multiplied by (-1)^(n+m),
    so for half-integer pairs alpha >= beta, rho >= 0 and every term is
    nonnegative: nothing cancels.
    """
    _check_recurrence(alpha, beta, n)
    a, b = float(alpha), float(beta)
    if b > a:
        c = jacobi_fourier_row(b, a, n)
        c[(n + 1) % 2 :: 2] *= -1.0
        return c
    rho, diff = a + b + 1.0, 2.0 * (a - b)
    row = [0.0] * (n + 2)
    row[n] = 1.0
    for k in range(n, 0, -1):
        row[k - 1] = (diff * k * row[k] + (n + k + 1) * (n + rho - k - 1) * row[k + 1]) / (
            (n - k + 1) * (n + k - 1 + rho)
        )
    c = np.array(row[: n + 1])
    return c * (_binomial_row(a, n)[-1] / (c[0] + 2.0 * np.sum(c[1:])))


def jacobi_fourier_rows(alpha: float, beta: float, degrees):
    """Yield (n, jacobi_fourier_row(alpha, beta, n)) for each distinct n in
    degrees, in increasing order, equal to it bit for bit.

    The degrees run through that recurrence together (_fourier_columns),
    and each column is scaled once, then mirrored for beta > alpha, by the
    scalar pass's operations.
    """
    wanted = sorted(set(int(n) for n in degrees))
    _check_recurrence(alpha, beta, wanted[0] if wanted else 0)
    if not wanted:
        return
    a, b = float(alpha), float(beta)
    mirror = b > a
    if mirror:
        a, b = b, a
    binomials = _binomial_row(a, wanted[-1])
    for n, column in _fourier_columns(a, b, wanted):
        c = column * (binomials[n] / (column[0] + 2.0 * np.sum(column[1:])))
        if mirror:
            c[(n + 1) % 2 :: 2] *= -1.0
        yield n, c


def _fourier_columns(a: float, b: float, wanted: list[int]):
    """Yield (n, c) for each n of the increasing list wanted: the row of
    jacobi_fourier_row(a, b, n), a >= b, before its scaling, as a read-only
    view.

    The degrees run in blocks of ascending degrees of at most _FOURIER_BLOCK
    entries each (a degree too large for that is a block of its own).  A
    block holds frequency k in row k and one degree per column, the degrees
    decreasing, so the degrees n >= k are a prefix of row k: one numpy step
    per frequency writes them all, each entry by the scalar pass's
    operations in its order.
    """
    start = 0
    while start < len(wanted):
        stop = start + 1
        while stop < len(wanted) and (wanted[stop] + 2) * (stop + 1 - start) <= _FOURIER_BLOCK:
            stop += 1
        block = wanted[start:stop][::-1]
        table = _fourier_block(a + b + 1.0, 2.0 * (a - b), block)
        table.flags.writeable = False
        for j in range(len(block) - 1, -1, -1):
            yield block[j], table[: block[j] + 1, j]
        start = stop


def _fourier_block(rho: float, diff: float, degrees: list[int]) -> np.ndarray:
    # Unscaled rows of the decreasing degrees as columns: c[n, j] = 1 and
    # c[n + 1, j] = 0 for n = degrees[j], then the frequency recurrence down.
    # Its factors for every (k, j) come first, as whole arrays, by the scalar
    # pass's operations; entries for k > n are never read.
    top = degrees[0]
    c = np.zeros((top + 2, len(degrees)))
    c[degrees, np.arange(len(degrees))] = 1.0
    n = np.array(degrees, dtype=float)
    ks = np.arange(top + 1.0)[:, None]
    upper = (n + ks + 1) * (n + rho - ks - 1)
    lower = (n - ks + 1) * (n + ks - 1 + rho)
    active = 0
    for k in range(top, 0, -1):
        while active < len(degrees) and degrees[active] >= k:
            active += 1
        row = c[k - 1, :active]
        np.multiply(c[k, :active], diff * k, out=row)
        row += upper[k, :active] * c[k + 1, :active]
        row /= lower[k, :active]
    return c


def jacobi_eval(params: JacobiParams, n: int, x):
    """P_n^{(alpha,beta)}(x) for |x| <= 1, scalar or array argument."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    scalar = np.isscalar(x)
    value = None
    for _, row in jacobi_recurrence_rows(params.alpha, params.beta, n, x):
        value = row
    return float(value) if scalar else value


def jacobi_binomial(alpha: float, n: int) -> float:
    """binomial(n + alpha, n) = prod_{k=1..n} (1 + alpha/k).

    The product keeps every digit a log-Gamma difference would cancel away
    at degrees in the thousands.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if alpha <= -1:
        raise ValueError("alpha must exceed -1")
    return float(_binomial_row(alpha, n)[-1])


def binomial_main_term(alpha: float, n: int) -> float:
    """Leading growth n^alpha / Gamma(alpha+1) of binomial(n + alpha, n)."""
    if n == 0:
        return 1.0 if alpha == 0 else 0.0
    return math.exp(alpha * math.log(n) - math.lgamma(alpha + 1.0))


def chebyshev_half_case(n: int, theta):
    """Closed form binomial(n+1/2, n) * sin((n+1)theta) / ((n+1) sin(theta)).

    Valid for all theta; the removable singularities at multiples of pi are
    filled with the continuous limit (+C at even multiples, (-1)^n C at odd).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    [vals] = _half_case_rows([n], theta)
    return float(vals) if np.isscalar(theta) else vals


def _half_case_rows(degrees, theta):
    """Yield chebyshev_half_case(n, theta) for each nonnegative n of
    degrees.  sin(theta), the singular mask, the side of each singular
    angle and the binomial row are formed once for all of them; each
    binomial is jacobi_binomial(1/2, n), bit for bit."""
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(th)):
        raise ValueError("angle must be finite")
    s = np.sin(th)
    singular = np.abs(s) < 1e-12
    at_odd_pi = np.cos(th) < 0.0 if np.any(singular) else None
    binomials = _binomial_row(0.5, max(degrees, default=0)).tolist()
    for n in degrees:
        c = binomials[n]
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = c * np.sin((n + 1.0) * th) / ((n + 1.0) * s)
        if at_odd_pi is not None:
            limit = np.where(at_odd_pi, (-1.0) ** n * c, c)
            vals = np.where(singular, limit, vals)
        yield vals


def jacobi_theta_derivative(params: JacobiParams, n: int, theta):
    """d/dtheta of P_n^{(alpha,beta)}(cos(theta)).

    Equals -(sin(theta)/2) (n+alpha+beta+1) P_{n-1}^{(alpha+1,beta+1)}(cos(theta));
    degree 0 gives exactly 0.
    """
    a, b = params.alpha, params.beta
    scalar = np.isscalar(theta)
    th = np.asarray(theta, dtype=float)
    if n == 0:
        out = np.zeros_like(th)
        return float(out) if scalar else out
    shifted = jacobi_eval(params.shifted(1), n - 1, np.cos(th))
    out = -0.5 * np.sin(th) * (n + a + b + 1.0) * shifted
    return float(out) if scalar else out


def interior_main_term(params: JacobiParams, frame: AsymptoticFrame, theta):
    """Oscillatory main term of P_n^{(alpha,beta)}(cos(theta)) away from the poles.

    pi^{-1/2} n^{-1/2} (sin(theta/2))^{-alpha-1/2} (cos(theta/2))^{-beta-1/2}
    cos(n_tilde * theta + gamma), restricted to the window
    c/(n+1) <= theta <= pi - c/(n+1).
    """
    a, b = params.alpha, params.beta
    n = frame.n
    if n < 1:
        raise ValueError("interior main term needs degree >= 1")
    scalar = np.isscalar(theta)
    th = np.asarray(theta, dtype=float)
    lo = REGIME_WINDOW_CONSTANT / (n + 1.0)
    if np.any(th < lo - 1e-15) or np.any(th > math.pi - lo + 1e-15):
        raise ValueError(f"angle outside the interior window [{lo:.3g}, pi - {lo:.3g}]")
    out = (
        math.pi ** -0.5
        * n ** -0.5
        * np.sin(th / 2.0) ** (-a - 0.5)
        * np.cos(th / 2.0) ** (-b - 0.5)
        * np.cos(frame.n_tilde * th + frame.gamma_phase)
    )
    return float(out) if scalar else out


def edge_main_term(params: JacobiParams, frame: AsymptoticFrame, theta, mirror: bool = False):
    """Bessel-type main term of P_n^{(alpha,beta)}(cos(theta)) near a pole.

    Near theta = 0 (mirror=False) this is

        (sin(theta/2))^{-alpha} (cos(theta/2))^{-beta} n_tilde^{-alpha}
        (Gamma(n+alpha+1)/n!) (theta/sin(theta))^{1/2} J_alpha(n_tilde * theta);

    with mirror=True the same expression near theta = pi, with beta in place
    of alpha, pi - theta in place of theta, and an extra (-1)^n.
    """
    from scipy.special import jv

    a, b = params.alpha, params.beta
    n = frame.n
    scalar = np.isscalar(theta)
    th = np.asarray(theta, dtype=float)
    width = REGIME_WINDOW_CONSTANT / (n + 1.0)
    if mirror:
        if np.any(th < math.pi - width - 1e-15) or np.any(th > math.pi + 1e-15):
            raise ValueError(f"angle outside the edge window [pi - {width:.3g}, pi]")
        order, phi, sign = b, math.pi - th, (-1.0) ** n
    else:
        if np.any(th < -1e-15) or np.any(th > width + 1e-15):
            raise ValueError(f"angle outside the edge window [0, {width:.3g}]")
        order, phi, sign = a, th, 1.0
    gamma_ratio = math.exp(math.lgamma(n + order + 1.0) - math.lgamma(n + 1.0))
    s = np.sin(th)
    tiny = np.abs(phi) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        bess = jv(order, frame.n_tilde * np.where(tiny, 1.0, phi))
        out = (
            sign
            * np.sin(th / 2.0) ** (-a)
            * np.cos(th / 2.0) ** (-b)
            * frame.n_tilde ** (-order)
            * gamma_ratio
            * np.sqrt(np.where(tiny, 1.0, phi) / np.where(tiny, 1.0, s))
            * bess
        )
    if np.any(tiny):
        # continuous limit at the pole itself: P_n(+-1) under the binomial
        # normalization.
        limit = sign * jacobi_binomial(order, n)
        out = np.where(tiny, limit, out)
    return float(out) if scalar else out


def bessel_j(order: float, x: float) -> float:
    """Bessel function of the first kind, J_order(x), for order >= 0, x >= 0."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if x < 0:
        raise ValueError("argument must be nonnegative")
    from scipy.special import jv

    return float(jv(order, x))
