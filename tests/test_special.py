import inspect
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import crossflat.special
import exact
from crossflat.products import FlatSubmanifold, ProductManifold, SharpnessRow, _Layout, enumerate_shell, exponent_table
from crossflat.spaces import CrossSpace, Kind, fourier_expansion, sphere
from crossflat.special import (
    AsymptoticFrame,
    JacobiParams,
    bessel_j,
    binomial_main_term,
    chebyshev_half_case,
    edge_main_term,
    frozen,
    interior_main_term,
    jacobi_binomial,
    jacobi_eval,
    jacobi_fourier_row,
    jacobi_fourier_rows,
    jacobi_recurrence_rows,
    jacobi_theta_derivative,
    _binomial_row,
)
from crossflat.torus import NormBracket, PeriodicGrid, fit_exponent

HALF = JacobiParams.of(0.5, 0.5)

# (alpha, beta) pairs appearing in the space catalog
CATALOG_PARAMS = [
    JacobiParams.of(0, 0),
    JacobiParams.of(0.5, 0.5),
    JacobiParams.of(1, 1),
    JacobiParams.of(1.5, 1.5),
    JacobiParams.of(2, 2),
    JacobiParams.of(1, 0),
    JacobiParams.of(2, 0),
    JacobiParams.of(3, 1),
    JacobiParams.of(7, 3),
]

catalog_params = st.sampled_from(CATALOG_PARAMS)


def rel_dev(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.maximum(1.0, np.abs(b)))


class TestJacobiParams:
    def test_half_integer_storage(self):
        p = JacobiParams.of(1.5, 0.5)
        assert (p.twice_alpha, p.twice_beta) == (3, 1)
        assert (p.alpha, p.beta) == (1.5, 0.5)

    def test_rejects_non_half_integers(self):
        with pytest.raises(ValueError):
            JacobiParams.of(0.3, 0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            JacobiParams.of(-1.0, 0.0)

    def test_shift_and_swap(self):
        p = JacobiParams.of(1, 0)
        assert p.shifted() == JacobiParams.of(2, 1)
        assert p.swapped() == JacobiParams.of(0, 1)


class TestJacobiEval:
    def test_value_at_one_is_binomial(self):
        assert jacobi_eval(JacobiParams.of(0, 0), 7, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_degree_zero_is_one(self):
        for params in CATALOG_PARAMS:
            assert jacobi_eval(params, 0, -0.3) == 1.0

    def test_degree_one_rational_oracle(self):
        # ((alpha+beta+2) x + (alpha-beta)) / 2 at (1, 0), x = 3/10 gives 19/20
        assert jacobi_eval(JacobiParams.of(1, 0), 1, 0.3) == pytest.approx(0.95, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            jacobi_eval(HALF, 3, 1.5)
        with pytest.raises(ValueError):
            jacobi_eval(HALF, -1, 0.5)
        with pytest.raises(ValueError):
            jacobi_eval(HALF, 3, math.nan)

    @given(catalog_params, st.integers(0, 300), st.floats(-1, 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy(self, params, n, x):
        mine = jacobi_eval(params, n, x)
        ref = scipy.special.eval_jacobi(n, params.alpha, params.beta, x)
        assert mine == pytest.approx(ref, rel=1e-9, abs=1e-9)

    @given(catalog_params, st.integers(0, 512), st.floats(0.001, 0.999))
    @settings(max_examples=40, deadline=None)
    def test_reflection_identity(self, params, n, x):
        left = jacobi_eval(params, n, -x)
        right = (-1.0) ** n * jacobi_eval(params.swapped(), n, x)
        assert abs(left - right) <= 1e-10 * max(1.0, abs(right))

    def test_normalization_across_degrees(self):
        for params in CATALOG_PARAMS:
            for n, row in jacobi_recurrence_rows(params.alpha, params.beta, 2048, np.array([1.0])):
                if n in (1, 17, 256, 1024, 2048):
                    assert abs(row[0] / jacobi_binomial(params.alpha, n) - 1.0) < 1e-10

    def test_sup_norm_growth_is_flat(self):
        # max |P_n(cos theta)| / (n+1)^alpha should carry no residual power of n
        params = JacobiParams.of(1, 0)
        theta = np.linspace(0.0, math.pi, 4097)
        points = []
        for n in [64, 128, 256, 512, 1024, 2048, 4096]:
            sup = np.max(np.abs(jacobi_eval(params, n, np.cos(theta))))
            points.append((n, sup / (n + 1.0) ** params.alpha))
        from crossflat.torus import fit_exponent

        assert abs(fit_exponent(points).slope) <= 0.02


def exact_mpf(value) -> mpmath.mpf:
    # An 80-bit value is the sum of two doubles; float() alone would round it.
    head = float(value)
    return mpmath.mpf(head) + mpmath.mpf(float(value - type(value)(head)))


class TestRecurrenceAccuracy:
    """Normalized values P_n / binomial(n + alpha, n) against mpmath at 40
    digits, near both poles, where a plain float64 three-term loop loses
    digits (1e-10 at n = 4096).  mpmath evaluates x < 0 directly, so this is
    also the oracle for the engine's built-in reflection."""

    DEGREES = (1, 2, 17, 256, 4096)
    GAPS = (1e-3, 1e-5, 1e-7, 2e-9)
    BOUND = 2e-13

    @pytest.mark.parametrize("wide", [False, True], ids=["float64", "80-bit"])
    @pytest.mark.parametrize("params", CATALOG_PARAMS, ids=str)
    def test_matches_mpmath_near_the_poles(self, params, wide):
        dtype = np.longdouble if wide else np.float64
        near_one = dtype(1) - np.array(self.GAPS, dtype=dtype)
        x = np.concatenate((near_one, -near_one))
        a, b = params.alpha, params.beta
        worst = 0.0
        with mpmath.workdps(40):
            for n, row in jacobi_recurrence_rows(a, b, max(self.DEGREES), x):
                if n not in self.DEGREES:
                    continue
                scale = mpmath.binomial(n + a, n)
                for value, point in zip(row, x):
                    reference = mpmath.jacobi(n, a, b, exact_mpf(point)) / scale
                    worst = max(worst, abs(float(value / float(scale) - reference)))
        assert worst <= self.BOUND


class TestRecurrenceEngine:
    def test_is_a_generator_function(self):
        # perfbench's recurrence metrics time each next() on this generator
        # and count its calls; a function that returned some other iterator
        # would leave them reading 0.
        assert inspect.isgeneratorfunction(jacobi_recurrence_rows)

    @pytest.mark.parametrize("params", [HALF, JacobiParams.of(1, 0), JacobiParams.of(7, 3)], ids=str)
    def test_each_point_is_carried_on_its_own(self, params):
        # Mixed signs, shuffled, 2-D, with 80-bit points near both poles: each
        # value equals a call on its point alone, to the bit.
        rng = np.random.default_rng(5)
        near_one = np.longdouble(1) - np.array([1e-3, 1e-9, 3e-12], dtype=np.longdouble)
        x = np.concatenate((near_one, -near_one, rng.uniform(-1, 1, 14), [1.0, -1.0, 0.0, -0.0]))
        x = rng.permutation(x).reshape(4, 6)
        a, b = params.alpha, params.beta
        singles = [[value for _, value in jacobi_recurrence_rows(a, b, 40, point)] for point in x.ravel()]
        for n, row in jacobi_recurrence_rows(a, b, 40, x):
            expected = np.array([single[n] for single in singles]).reshape(x.shape)
            assert row.shape == x.shape and row.dtype == np.float64
            assert row.tobytes() == expected.tobytes(), n


    @pytest.mark.parametrize(
        "x",
        [
            -np.linspace(0.05, 1.0, 7),
            np.concatenate((-np.linspace(0.05, 1.0, 5), [1.0, 0.0, -0.0, 0.3])),
            np.concatenate(([0.7, 1.0, -0.0], -np.linspace(0.05, 1.0, 5))),
            np.concatenate((-np.linspace(0.05, 1.0, 5), [1.0])),
            np.array([1.0, -1.0, 1.0]),
            np.array(-0.4),
            np.array(0.4),
            np.array([]),
        ],
        ids=["all-negative", "negative-first", "nonnegative-first", "pole-block", "poles-only",
             "0-d negative", "0-d", "empty"],
    )
    @pytest.mark.parametrize("normalized", [False, True])
    def test_every_layout_matches_single_points(self, x, normalized):
        a, b = 3.0, 1.0
        singles = [list(jacobi_recurrence_rows(a, b, 40, point, normalized)) for point in x.ravel()]
        rows = list(jacobi_recurrence_rows(a, b, 40, x, normalized))
        assert [n for n, _ in rows] == list(range(41))
        for n, row in rows:
            expected = np.array([single[n][1] for single in singles]).reshape(x.shape)
            assert row.shape == x.shape and row.dtype == np.float64
            assert row.tobytes() == expected.tobytes(), n

    @pytest.mark.parametrize(
        "x",
        [
            np.random.default_rng(3).permutation(np.concatenate((np.linspace(-1, 1, 15), [0.0, -0.0]))),
            np.random.default_rng(4).uniform(-1, 1, (3, 5)),
            np.linspace(0.0, 1.0, 6),
        ],
        ids=["shuffled mixed-sign", "2-D", "nonnegative"],
    )
    @pytest.mark.parametrize("degrees", [{0, 3, 17, 40}, {40}, {5, 9, 60}, set()], ids=str)
    @pytest.mark.parametrize("normalized", [False, True])
    def test_wanted_degrees_are_the_full_sweeps_rows(self, x, degrees, normalized):
        # rows for the wanted degrees only, in increasing order, each equal
        # to the full sweep's row to the bit; degrees past n_max are ignored
        a, b = 3.0, 1.0
        full = dict(jacobi_recurrence_rows(a, b, 40, x, normalized))
        rows = list(jacobi_recurrence_rows(a, b, 40, x, normalized, degrees=degrees))
        assert [n for n, _ in rows] == sorted(n for n in degrees if n <= 40)
        for n, row in rows:
            assert row.shape == x.shape and row.tobytes() == full[n].tobytes(), n

    @pytest.mark.parametrize("params", CATALOG_PARAMS, ids=str)
    def test_normalized_rows_are_the_rows_over_the_binomial(self, params):
        # q_n carries one rounding fewer than P_n / P_n(1) for x >= 0 and
        # the same number for x < 0, so the two agree within 2 ulp.
        near_one = np.longdouble(1) - np.array([1e-3, 1e-9, 3e-12], dtype=np.longdouble)
        rng = np.random.default_rng(11)
        x = np.concatenate((near_one, -near_one, [1.0, -1.0, 0.0, -0.0], rng.uniform(-1, 1, 24)))
        a, b = params.alpha, params.beta
        binomials = _binomial_row(a, 300)
        pairs = zip(jacobi_recurrence_rows(a, b, 300, x), jacobi_recurrence_rows(a, b, 300, x, normalized=True))
        for (n, row), (m, q) in pairs:
            reference = row / binomials[n]
            assert m == n and q.dtype == np.float64
            assert np.all(np.abs(q - reference) <= 2 * np.finfo(float).eps * np.abs(reference)), n
            assert q[6] == 1.0


def gegenbauer_coefficients(alpha: float, n: int) -> np.ndarray:
    # P_n^(a,a) = (a+1)_n / (2a+1)_n C_n^l with l = a + 1/2, and
    # C_n^l(cos t) = sum_k (l)_k (l)_{n-k} / (k! (n-k)!) e^{i(n-2k)t}  (Szego 4.9).
    lam = mpmath.mpf(alpha) + mpmath.mpf(1) / 2
    scale = mpmath.rf(alpha + 1, n) / mpmath.rf(2 * alpha + 1, n)
    out = np.zeros(n + 1)
    for k in range(n // 2 + 1):
        term = mpmath.rf(lam, k) * mpmath.rf(lam, n - k) / (mpmath.factorial(k) * mpmath.factorial(n - k))
        out[n - 2 * k] = float(scale * term)
    return out


def mpmath_coefficients(alpha: float, beta: float, n: int) -> np.ndarray:
    # The trapezoid rule on 2n+2 nodes is exact for the degree-n kernel.
    size = 2 * n + 2
    with mpmath.workdps(30):
        thetas = [2 * mpmath.pi * j / size for j in range(size)]
        values = [mpmath.jacobi(n, alpha, beta, mpmath.cos(t)) for t in thetas]
        return np.array(
            [float(sum(v * mpmath.cos(m * t) for v, t in zip(values, thetas)) / size) for m in range(n + 1)]
        )


# Pairs outside the catalog: beta > alpha, and alpha + beta + 1 = 0.
EXTRA_PARAMS = [
    JacobiParams.of(0, 0.5),
    JacobiParams.of(0.5, 1.5),
    JacobiParams.of(-0.5, -0.5),
    JacobiParams.of(-0.5, 0.5),
]


class TestFourierRows:
    DEGREES = (0, 1, 2, 3, 17, 40)
    ENGINES = pytest.mark.parametrize("engine", [exact.fourier_row_float, jacobi_fourier_row], ids=["exact", "row"])

    @ENGINES
    @pytest.mark.parametrize("params", [p for p in CATALOG_PARAMS if p.alpha == p.beta], ids=str)
    def test_gegenbauer_closed_form(self, engine, params):
        for n in range(41):
            c = engine(params.alpha, params.beta, n)
            ref = gegenbauer_coefficients(params.alpha, n)
            assert np.max(np.abs(c - ref)) <= 1e-13 * np.max(np.abs(ref))

    @ENGINES
    @pytest.mark.parametrize("params", [p for p in CATALOG_PARAMS if p.alpha != p.beta] + EXTRA_PARAMS, ids=str)
    def test_mpmath_coefficients(self, engine, params):
        for n in self.DEGREES:
            c = engine(params.alpha, params.beta, n)
            ref = mpmath_coefficients(params.alpha, params.beta, n)
            assert np.max(np.abs(c - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("params", [p for p in CATALOG_PARAMS if p.alpha == p.beta], ids=str)
    def test_gegenbauer_closed_form_at_a_high_degree(self, params):
        c = jacobi_fourier_row(params.alpha, params.beta, 2048)
        ref = gegenbauer_coefficients(params.alpha, 2048)
        assert np.max(np.abs(c - ref)) <= 2e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("params", CATALOG_PARAMS, ids=str)
    def test_row_agrees_with_the_exact_row(self, params):
        for n in (0, 1, 2, 3, 64, 300, 2048):
            c = jacobi_fourier_row(params.alpha, params.beta, n)
            assert c.shape == (n + 1,)
            ref = exact.fourier_row_float(params.alpha, params.beta, n)
            assert np.max(np.abs(c - ref)) <= 1e-12 * np.max(np.abs(c)), n

    def test_large_parameters_stay_finite_and_mirror(self):
        # P^(a,b)(cos t) = (-1)^n P^(b,a)(cos(pi - t)): entry m flips by (-1)^(n+m).
        n = 2048
        row, mirrored = jacobi_fourier_row(50, 0, n), jacobi_fourier_row(0, 50, n)
        assert np.all(np.isfinite(row)) and np.all(np.isfinite(mirrored))
        signs = (-1.0) ** (n + np.arange(n + 1))
        assert np.array_equal(mirrored, signs * row)
        assert np.max(np.abs(row - exact.fourier_row_float(50, 0, n))) <= 1e-12 * np.max(np.abs(row))

    @pytest.mark.parametrize("engine", [jacobi_fourier_row], ids=["row"])
    @pytest.mark.parametrize("alpha, beta, n", [(-1.0, 0.0, 4), (0.0, -1.5, 4), (0.5, 0.5, -1)])
    def test_rejections(self, engine, alpha, beta, n):
        with pytest.raises(ValueError):
            engine(alpha, beta, n)


class TestBatchedFourierRows:
    @pytest.mark.parametrize("params", CATALOG_PARAMS + EXTRA_PARAMS, ids=str)
    def test_columns_equal_single_rows_bit_for_bit(self, params):
        degrees = [*range(65), 300, 2048]
        rows = list(jacobi_fourier_rows(params.alpha, params.beta, degrees))
        assert [n for n, _ in rows] == degrees
        for n, c in rows:
            assert c.tobytes() == jacobi_fourier_row(params.alpha, params.beta, n).tobytes(), n

    @pytest.mark.parametrize(
        "degrees, distinct",
        [
            ([40, 3, 17, 3, 0, 300, 17], [0, 3, 17, 40, 300]),
            (range(0, 421, 2), list(range(0, 421, 2))),
            ([5, 5, 5], [5]),
        ],
        ids=["gaps-unsorted-duplicates", "even", "one-degree-thrice"],
    )
    @pytest.mark.parametrize("alpha, beta", [(3, 1), (0, 0.5)])
    def test_any_degree_set_gives_its_distinct_degrees_in_order(self, degrees, distinct, alpha, beta):
        rows = list(jacobi_fourier_rows(alpha, beta, degrees))
        assert [n for n, _ in rows] == distinct
        for n, c in rows:
            assert c.tobytes() == jacobi_fourier_row(alpha, beta, n).tobytes(), n

    def test_no_degrees_yield_nothing(self):
        assert list(jacobi_fourier_rows(1.5, 1.5, [])) == []

    @pytest.mark.parametrize("alpha, beta, degrees", [(-1.0, 0.0, [4]), (0.0, -1.5, []), (0.5, 0.5, [3, -1])])
    def test_rejections(self, alpha, beta, degrees):
        with pytest.raises(ValueError):
            list(jacobi_fourier_rows(alpha, beta, degrees))

    @pytest.mark.parametrize("alpha, beta", [(7, 3), (0.5, 1.5)])
    def test_small_blocks_give_the_single_block_bits(self, monkeypatch, alpha, beta):
        # At 400 entries degrees 0..18 fill the first block, later blocks
        # hold fewer columns, and degree 420 alone is over the budget.
        degrees = [*range(0, 60), 150, 198, 199, 200, 420]
        whole = list(jacobi_fourier_rows(alpha, beta, degrees))
        monkeypatch.setattr(crossflat.special, "_FOURIER_BLOCK", 400)
        blocked = list(jacobi_fourier_rows(alpha, beta, degrees))
        assert [n for n, _ in blocked] == [n for n, _ in whole]
        assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(blocked, whole))


class TestExactRows:
    """The reference rows of tests/exact.py, checked without the frequency
    recurrence they come from."""

    POINTS = (Fraction(0), Fraction(1, 3), Fraction(-5, 7), Fraction(1), Fraction(-1))

    @pytest.mark.parametrize("params", CATALOG_PARAMS + EXTRA_PARAMS, ids=str)
    def test_chebyshev_sum_is_the_three_term_value(self, params):
        a, b = Fraction(params.alpha), Fraction(params.beta)
        for n in (0, 1, 2, 3, 17, 40):
            c = exact.fourier_row(a, b, n)
            for x in self.POINTS:
                assert exact.chebyshev_sum(c, x) == exact.jacobi_value(a, b, n, x), (n, x)

    @pytest.mark.parametrize("params", CATALOG_PARAMS + EXTRA_PARAMS, ids=str)
    def test_alternating_sum_is_the_value_at_minus_one(self, params):
        a, b = Fraction(params.alpha), Fraction(params.beta)
        for n in (0, 1, 5, 64, 300):
            c = exact.fourier_row(a, b, n)
            alternating = c[0] + 2 * sum((-1) ** m * c[m] for m in range(1, n + 1))
            assert alternating == (-1) ** n * exact.binomial(b, n), n

    def test_three_term_value_at_a_high_degree(self):
        c = exact.fourier_row(7, 3, 300)
        x = Fraction(1, 3)
        assert exact.chebyshev_sum(c, x) == exact.jacobi_value(7, 3, 300, x)


class TestChebyshevHalfCase:
    def test_degree_zero(self):
        assert chebyshev_half_case(0, 1.234) == pytest.approx(1.0, rel=1e-14)

    def test_zero_of_sine(self):
        assert chebyshev_half_case(1, math.pi / 2) == pytest.approx(0.0, abs=1e-14)

    def test_limits_at_poles(self):
        c4 = jacobi_binomial(0.5, 4)
        c5 = jacobi_binomial(0.5, 5)
        assert chebyshev_half_case(5, 0.0) == pytest.approx(c5, rel=1e-13)
        assert chebyshev_half_case(5, math.pi) == pytest.approx(-c5, rel=1e-13)
        assert chebyshev_half_case(4, math.pi) == pytest.approx(c4, rel=1e-13)
        assert chebyshev_half_case(5, 2 * math.pi) == pytest.approx(c5, rel=1e-13)

    def test_cross_validates_recurrence(self):
        assert abs(
            jacobi_eval(HALF, 5, math.cos(0.7)) - chebyshev_half_case(5, 0.7)
        ) <= 1e-10 * abs(chebyshev_half_case(5, 0.7))

    @given(st.integers(0, 800), st.floats(0.01, 2 * math.pi - 0.01))
    @settings(max_examples=40, deadline=None)
    def test_agreement_property(self, n, theta):
        mine = jacobi_eval(HALF, n, math.cos(theta))
        ref = chebyshev_half_case(n, theta)
        assert abs(mine - ref) <= 1e-9 * max(1.0, abs(ref))


class TestThetaDerivative:
    def test_degree_zero_vanishes(self):
        assert jacobi_theta_derivative(HALF, 0, 0.77) == 0.0

    def test_vanishes_at_poles(self):
        for theta in (0.0, math.pi):
            assert jacobi_theta_derivative(JacobiParams.of(1, 0), 6, theta) == pytest.approx(0.0, abs=1e-12)

    def test_finite_difference_oracle(self):
        # central difference of P_3(cos theta) with step 1e-5 at theta = pi/2
        h = 1e-5
        theta = math.pi / 2
        fd = (
            jacobi_eval(HALF, 3, math.cos(theta + h)) - jacobi_eval(HALF, 3, math.cos(theta - h))
        ) / (2 * h)
        assert jacobi_theta_derivative(HALF, 3, theta) == pytest.approx(fd, rel=1e-6)

    @given(catalog_params, st.integers(1, 200), st.floats(0.2, math.pi - 0.2))
    @settings(max_examples=40, deadline=None)
    def test_finite_difference_property(self, params, n, theta):
        h = 1e-6
        fd = (
            jacobi_eval(params, n, math.cos(theta + h)) - jacobi_eval(params, n, math.cos(theta - h))
        ) / (2 * h)
        exact = jacobi_theta_derivative(params, n, theta)
        # floor the comparison scale at the derivative's typical size so the
        # check is not dominated by truncation noise near zeros of the
        # derivative
        scale = max(abs(exact), (n + 1.0) ** params.alpha * n * 3e-4)
        assert abs(exact - fd) <= 1e-5 * scale


class TestInteriorMainTerm:
    def test_matches_closed_form_at_midpoint(self):
        n = 100
        frame = AsymptoticFrame.for_degree(HALF, n)
        theta = math.pi / 2
        main = interior_main_term(HALF, frame, theta)
        exact = chebyshev_half_case(n, theta)
        envelope = math.pi ** -0.5 * n ** -0.5 * math.sin(theta / 2) ** -1.0 * math.cos(theta / 2) ** -1.0
        assert abs(exact - main) <= 0.02 * envelope

    def test_symmetric_parameters_at_midpoint(self):
        n = 64
        params = JacobiParams.of(1, 1)
        frame = AsymptoticFrame.for_degree(params, n)
        v = interior_main_term(params, frame, math.pi / 2)
        w = interior_main_term(params.swapped(), AsymptoticFrame.for_degree(params.swapped(), n), math.pi / 2)
        assert v == pytest.approx(w, rel=1e-13)

    def test_window_rejection(self):
        frame = AsymptoticFrame.for_degree(HALF, 100)
        with pytest.raises(ValueError):
            interior_main_term(HALF, frame, 1e-4)
        with pytest.raises(ValueError):
            interior_main_term(HALF, frame, math.pi - 1e-4)

    def test_normalized_residual_bounded_in_n(self):
        # |P_n - main| * (n sin theta) * weights stays of one size across n
        params = JacobiParams.of(1, 0)
        sups = []
        for n in (256, 512, 1024, 2048):
            frame = AsymptoticFrame.for_degree(params, n)
            theta = np.linspace(10.0 / n, math.pi - 10.0 / n, 4096)
            direct = jacobi_eval(params, n, np.cos(theta))
            main = interior_main_term(params, frame, theta)
            normalized = (
                np.abs(direct - main)
                * (n * np.sin(theta))
                * np.sin(theta / 2) ** (params.alpha + 0.5)
                * np.cos(theta / 2) ** (params.beta + 0.5)
                * n ** 0.5
                * math.pi ** 0.5
            )
            sups.append(np.max(normalized))
        assert max(sups) <= 2.0
        assert max(sups) / min(sups) <= 1.5


class TestEdgeMainTerm:
    def test_continuity_at_zero(self):
        params = JacobiParams.of(1, 0)
        n = 50
        frame = AsymptoticFrame.for_degree(params, n)
        assert edge_main_term(params, frame, 1e-9) == pytest.approx(jacobi_binomial(1.0, n), rel=1e-6)
        assert edge_main_term(params, frame, 0.0) == pytest.approx(jacobi_binomial(1.0, n), rel=1e-13)

    def test_mirror_matches_direct_value(self):
        params = JacobiParams.of(1, 0)
        for n in (10, 11):
            frame = AsymptoticFrame.for_degree(params, n)
            theta = math.pi - 0.4 / (n + 1)
            approx = edge_main_term(params, frame, theta, mirror=True)
            direct = jacobi_eval(params, n, math.cos(theta))
            assert approx == pytest.approx(direct, rel=1e-3)

    def test_mirror_sign_flips_with_parity(self):
        params = JacobiParams.of(2, 0)
        values = {}
        for n in (20, 21):
            frame = AsymptoticFrame.for_degree(params, n)
            theta = math.pi - 0.3 / (n + 1)
            values[n] = edge_main_term(params, frame, theta, mirror=True)
        assert values[20] > 0 > values[21]

    def test_convergence_at_fixed_bessel_argument(self):
        # n_tilde * theta = 1, (alpha, beta) = (1, 0): the main term closes in
        # on the direct value as n grows
        params = JacobiParams.of(1, 0)
        errors = []
        for n in (250, 500, 1000):
            frame = AsymptoticFrame.for_degree(params, n)
            theta = 1.0 / frame.n_tilde
            direct = jacobi_eval(params, n, math.cos(theta))
            errors.append(abs(edge_main_term(params, frame, theta) / direct - 1.0))
        assert errors[-1] <= 0.02

    def test_window_rejection(self):
        params = JacobiParams.of(1, 0)
        frame = AsymptoticFrame.for_degree(params, 100)
        with pytest.raises(ValueError):
            edge_main_term(params, frame, 0.5)
        with pytest.raises(ValueError):
            edge_main_term(params, frame, 0.5, mirror=True)


class TestBessel:
    def test_series_constants(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(2.5, 0.0) == 0.0

    def test_half_order_closed_form(self):
        x = 2.0
        assert bessel_j(0.5, x) == pytest.approx(math.sqrt(2 / (math.pi * x)) * math.sin(x), rel=1e-10)
        x = 50.0
        assert bessel_j(0.5, x) == pytest.approx(math.sqrt(2 / (math.pi * x)) * math.sin(x), rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(0.5, -1.0)
        with pytest.raises(ValueError):
            bessel_j(-0.5, 1.0)

    @given(
        st.integers(0, 16).map(lambda t: t / 2.0),
        st.floats(0.0, 64.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scipy(self, order, x):
        assert abs(bessel_j(order, x) - scipy.special.jv(order, x)) <= 1e-10


class TestBinomial:
    def test_alpha_zero(self):
        assert jacobi_binomial(0.0, 17) == 1.0

    def test_half_alpha_exact_gamma(self):
        assert jacobi_binomial(0.5, 1) == pytest.approx(1.5, rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 7.0])
    def test_matches_mpmath(self, alpha):
        # exp of a log-Gamma difference is up to 1.4e-11 off at these points.
        for n in [0, 1, 2, 7, 40, 408, 1000, 2048, 4096, 9999, 10_000]:
            exact = mpmath.binomial(n + mpmath.mpf(alpha), n)
            assert abs(jacobi_binomial(alpha, n) / exact - 1) <= 1e-13

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 7.0])
    def test_row_equals_single_degrees_bit_for_bit(self, alpha):
        # The jacobi command divides by the row's entries.
        row = _binomial_row(alpha, 4096).tolist()
        assert row == [jacobi_binomial(alpha, n) for n in range(4097)]

    def test_asymptotic_companion(self):
        n = 10_000
        assert jacobi_binomial(1.0, n) / binomial_main_term(1.0, n) == pytest.approx(1.0, abs=1e-3)

    def test_main_term_degree_zero(self):
        assert binomial_main_term(0.0, 0) == 1.0
        assert binomial_main_term(1.5, 0) == 0.0


class TestAsymptoticFrame:
    def test_fields(self):
        frame = AsymptoticFrame.for_degree(JacobiParams.of(1, 0), 12)
        assert frame.n_tilde == pytest.approx(13.0)
        assert frame.gamma_phase == pytest.approx(-0.75 * math.pi)
        assert frame.n_tilde > frame.n
        assert -math.pi * (1.5) / 2 <= frame.gamma_phase <= 0

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            AsymptoticFrame.for_degree(HALF, -1)


def value_instances():
    """One instance of each of crossflat's frozen value classes, with the
    class's fields in order."""
    manifold = ProductManifold.of(sphere(2), sphere(3))
    return [
        (JacobiParams(2, 0), ("twice_alpha", "twice_beta")),
        (AsymptoticFrame.for_degree(HALF, 12), ("n", "n_tilde", "gamma_phase")),
        (sphere(3), ("kind", "dimension", "params", "eigenvalue_shift", "even_degrees_only")),
        (fourier_expansion(sphere(3), 4), ("row",)),
        (PeriodicGrid(64), ("size",)),
        (NormBracket(1.0, 2.0, "kernel", "young", False), ("lower", "upper", "lower_witness", "upper_method", "refined")),
        (fit_exponent([(2, 4.0), (4, 15.0), (8, 66.0)]), ("slope", "intercept", "max_residual", "sample_count")),
        (manifold, ("factors",)),
        (enumerate_shell(manifold, 40), ("level", "members")),
        (_Layout((2, 3), (3, 1), 5), ("shape", "steps", "start")),
        (FlatSubmanifold.of([[1.0], [2.0]], box=[(-1.0, 1.0)]), ("matrix", "offset", "box")),
        (
            exponent_table([3, 3], 1, 4),
            (
                "dims", "k", "p", "taus", "product_exponent", "joint_exponent",
                "no_loss_exponent", "baseline_exponent", "baseline_note", "improvement",
            ),
        ),
        (SharpnessRow(40, math.sqrt(40), 6, 0.75, 1.5), ("level", "spectral_parameter", "shell_size", "ratio", "envelope")),
    ]


VALUE_INSTANCES = value_instances()


@pytest.mark.parametrize("value, fields", VALUE_INSTANCES, ids=[type(v).__name__ for v, _ in VALUE_INSTANCES])
def test_value_class_semantics(value, fields):
    cls = type(value)
    assert cls.__match_args__ == fields
    values = tuple(getattr(value, name) for name in fields)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    for copy in (by_position, by_keyword):
        assert copy is not value
        assert tuple(getattr(copy, name) for name in fields) == values
        if cls.__name__ == "FourierExpansion":
            # eq=False: equality and hashing by identity, as for object.
            assert copy != value and copy == copy
            assert hash(copy) == object.__hash__(copy)
        else:
            assert copy == value and not copy != value
            assert hash(copy) == hash(value) == hash(values)
            assert {value: 1}[copy] == 1

    # Only instances of the same class compare equal.
    twin = frozen(type(cls.__name__, (), {"__annotations__": dict.fromkeys(fields, "object")}))
    assert twin(*values) != value and value != twin(*values)
    assert value != values

    for name in (fields[0], "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    assert tuple(getattr(value, name) for name in fields) == values

    assert repr(value) == f"{cls.__name__}(" + ", ".join(f"{name}={v!r}" for name, v in zip(fields, values)) + ")"

    keywords = dict(zip(fields, values))
    for args, kwargs in [
        ((), {}),
        ((), {name: v for name, v in keywords.items() if name != fields[0]}),
        ((*values, values[0]), {}),
        (values, {"unknown": 0}),
        ((), {**keywords, "unknown": 0}),
        (values[:1], {fields[0]: values[0]}),
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_value_class_defaults_repr_and_post_init():
    assert NormBracket(0.0, 1.0, "kernel", "young") == NormBracket(0.0, 1.0, "kernel", "young", True)
    assert NormBracket(0.0, 1.0, "kernel", "young", refined=False).refined is False
    assert _Layout((2,), (1,)).start == 0
    assert FlatSubmanifold(((1.0,),), (0.0,)).box is None
    assert sphere(3) == CrossSpace(Kind.SPHERE, 3, JacobiParams(1, 1), 2)
    assert repr(JacobiParams(1, 0)) == "JacobiParams(twice_alpha=1, twice_beta=0)"
    assert repr(_Layout((2,), (1,))) == "_Layout(shape=(2,), steps=(1,), start=0)"
    # __post_init__ runs on either path.
    for make in (lambda: JacobiParams(-2, 0), lambda: JacobiParams(twice_alpha=0, twice_beta=-2),
                 lambda: PeriodicGrid(4), lambda: PeriodicGrid(size=4)):
        with pytest.raises(ValueError):
            make()
