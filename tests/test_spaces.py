import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossflat import spaces, special
from crossflat.spaces import (
    CrossSpace,
    Kind,
    catalog,
    complex_projective,
    derivative_bound_ratio,
    fourier_expansion,
    laplace_eigenvalue,
    octonionic_plane,
    quaternionic_projective,
    real_projective,
    rep_dimension,
    rep_dimensions,
    small_angle_closeness,
    space_from_dict,
    space_to_dict,
    sphere,
    spherical_eval,
    spherical_gram,
    spherical_table,
    spherical_theta_derivative,
)
from crossflat.special import JacobiParams, chebyshev_half_case, jacobi_binomial
from crossflat.torus import PeriodicGrid, fit_exponent, fourier_multiplier, kernel_samples

SPACES = catalog()


def closed_form_dimension(space: CrossSpace, n: int) -> float:
    """Independent oracle: k(n) from the Jacobi orthogonality constant.

    h_n = 2^(a+b+1)/(2n+a+b+1) * G(n+a+1)G(n+b+1)/(G(n+a+b+1) n!) gives
    k(n) = binom(n+a,n)^2 * B(a+1,b+1) * 2^(a+b+1) / h_n.
    """
    from scipy.special import gammaln

    a, b = space.params.alpha, space.params.beta
    log_binom = gammaln(n + a + 1) - gammaln(n + 1) - gammaln(a + 1)
    log_beta = gammaln(a + 1) + gammaln(b + 1) - gammaln(a + b + 2)
    log_h = (
        (a + b + 1) * math.log(2)
        - math.log(2 * n + a + b + 1)
        + gammaln(n + a + 1)
        + gammaln(n + b + 1)
        - gammaln(n + a + b + 1)
        - gammaln(n + 1)
    )
    return float(np.exp(2 * log_binom + log_beta + (a + b + 1) * math.log(2) - log_h))


class TestCatalog:
    def test_sphere_parameters(self):
        s = sphere(5)
        assert s.params.alpha == 1.5 and s.params.beta == 1.5
        assert s.eigenvalue_shift == 4

    def test_projective_betas(self):
        assert complex_projective(4).params.beta == 0.0
        assert quaternionic_projective(8).params.beta == 1.0
        assert octonionic_plane().params.beta == 3.0

    def test_shift_is_alpha_plus_beta_plus_one(self):
        for s in SPACES:
            assert s.eigenvalue_shift == s.params.alpha + s.params.beta + 1
            assert 0 <= s.params.beta <= s.params.alpha == (s.dimension - 2) / 2

    def test_dimension_constraints(self):
        with pytest.raises(ValueError):
            complex_projective(5)
        with pytest.raises(ValueError):
            quaternionic_projective(6)
        with pytest.raises(ValueError):
            CrossSpace(Kind.OCTONIONIC_PLANE, 12, JacobiParams.of(5, 3), 9)

    def test_real_projective_degrees(self):
        rp = real_projective(3)
        assert rp.degrees(7) == [0, 2, 4, 6]
        assert sphere(3).degrees(4) == [0, 1, 2, 3, 4]

    def test_json_round_trip(self):
        for s in (*SPACES, real_projective(4)):
            assert space_from_dict(space_to_dict(s)) == s

    @pytest.mark.parametrize(
        "field, value",
        [("dimension", 3.7), ("dimension", "3"), ("dimension", True), ("even_degrees_only", "no")],
    )
    def test_json_rejects_values_it_would_have_to_coerce(self, field, value):
        with pytest.raises(ValueError, match=field):
            space_from_dict({"kind": "sphere", "dimension": 3, field: value})

    def test_json_rejects_inconsistent_fields(self):
        bad = space_to_dict(sphere(4))
        bad["beta"] = 0.0
        with pytest.raises(ValueError):
            space_from_dict(bad)


class TestSphericalEval:
    def test_value_at_origin_is_exactly_one(self):
        for s in SPACES:
            for n in (0, 1, 17, 64):
                assert spherical_eval(s, n, 0.0) == 1.0

    def test_degree_zero_is_constant(self):
        theta = np.linspace(0, 2 * math.pi, 13)
        np.testing.assert_array_equal(spherical_eval(sphere(6), 0, theta), np.ones(13))

    def test_sphere3_closed_form(self):
        # Phi_n = chebyshev closed form / binomial
        s3 = sphere(3)
        theta = np.linspace(0.05, 2 * math.pi - 0.05, 41)
        for n in (1, 5, 40):
            expected = chebyshev_half_case(n, theta) / jacobi_binomial(0.5, n)
            np.testing.assert_allclose(spherical_eval(s3, n, theta), expected, rtol=1e-10)

    @given(st.sampled_from(SPACES), st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_one(self, space, n):
        theta = np.linspace(0, 2 * math.pi, 257)
        assert np.max(np.abs(spherical_eval(space, n, theta))) <= 1.0 + 1e-8

    def test_table_matches_pointwise(self):
        theta = np.linspace(0.1, 3.0, 9)
        table = spherical_table(sphere(4), [2, 7], theta)
        np.testing.assert_allclose(table[7], spherical_eval(sphere(4), 7, theta), rtol=1e-13)


class TestFourierExpansion:
    def test_sphere3_degree2_dirichlet(self):
        # sin(3t)/(3 sin t) = (e^{-2it} + 1 + e^{2it})/3
        exp = fourier_expansion(sphere(3), 2)
        assert exp.support() == {-2, 0, 2}
        for m in (-2, 0, 2):
            assert exp.coefficient(m) == pytest.approx(1 / 3, abs=1e-12)

    def test_degree_zero_single_term(self):
        exp = fourier_expansion(sphere(5), 0)
        assert exp.support() == {0}
        assert exp.coefficient(0) == pytest.approx(1.0, abs=1e-14)

    def test_probability_normalization(self):
        for space in (sphere(4), complex_projective(4)):
            for n in (3, 25, 80):
                c = fourier_expansion(space, n).coefficients()
                assert np.sum(c) == pytest.approx(1.0, abs=1e-10)
                assert np.min(c) >= -1e-9 * np.max(c)

    def test_synthesis_round_trip(self):
        theta = np.linspace(0, 2 * math.pi, 57)
        for space in (sphere(6), quaternionic_projective(8)):
            n = 31
            exp = fourier_expansion(space, n)
            np.testing.assert_allclose(
                exp.synthesize(theta), spherical_eval(space, n, theta), atol=1e-8
            )

    @pytest.mark.parametrize("space", [sphere(3), complex_projective(6), octonionic_plane()], ids=lambda s: s.label())
    def test_holds_the_torus_row_normalized_at_zero(self, space):
        # The circle layer's multiplier of the same kernel, divided by its
        # own value at theta = 0, is the expansion.
        for n in (0, 1, 7, 60):
            ms, khat = fourier_multiplier(space.params, n)
            at_zero = kernel_samples(space.params, n, PeriodicGrid(256))[0]
            exp = fourier_expansion(space, n)
            np.testing.assert_array_equal(exp.frequencies(), ms)
            np.testing.assert_allclose(exp.coefficients(), khat / (2 * math.pi * at_zero), rtol=1e-12, atol=0)
            for m in (n + 1, -(n + 1), n + 40):
                assert exp.coefficient(m) == 0.0

    @given(st.sampled_from(SPACES), st.integers(0, 150))
    @settings(max_examples=30, deadline=None)
    def test_positivity_property(self, space, n):
        c = fourier_expansion(space, n).coefficients()
        assert np.min(c) >= -1e-9 * np.max(c)
        assert abs(np.sum(c) - 1.0) <= 1e-8


class TestRepDimension:
    def test_circle_of_spherical_harmonics(self):
        # independent oracle: dimension of degree-n spherical harmonics on S^2
        for n in range(0, 60, 7):
            assert rep_dimension(sphere(2), n) == pytest.approx(2 * n + 1, rel=1e-10)

    def test_three_sphere_square(self):
        for n in range(0, 64, 7):
            assert rep_dimension(sphere(3), n) == pytest.approx((n + 1) ** 2, rel=1e-10)

    def test_degree_zero_always_one(self):
        for s in SPACES:
            assert rep_dimension(s, 0) == pytest.approx(1.0, rel=1e-12)

    def test_integrality_on_catalog(self):
        for s in SPACES:
            for n in (1, 2, 5, 20, 111, 200):
                k = rep_dimension(s, n)
                assert abs(k - round(k)) / k <= 1e-6

    def test_matches_orthogonality_constant(self):
        for s in SPACES:
            for n in (1, 3, 12, 40):
                assert rep_dimension(s, n) == pytest.approx(closed_form_dimension(s, n), rel=1e-9)

    def test_known_small_values(self):
        # CP^2: (n+1)^3; CP^3: (n+1)^2 (n+2)^2 (2n+3)/12; HP^2 starts 1, 14
        assert rep_dimension(complex_projective(4), 3) == pytest.approx(64.0, rel=1e-10)
        assert rep_dimension(complex_projective(6), 1) == pytest.approx(15.0, rel=1e-10)
        assert rep_dimension(quaternionic_projective(8), 1) == pytest.approx(14.0, rel=1e-10)

    def test_growth_comparable_to_power(self):
        # k(n)/(n+1)^(d-1) bounded above and below (two-sided comparability);
        # the ratio still drifts like exp(c/n) at moderate n, worst for the
        # 16-dimensional plane
        for s in SPACES:
            ratios = [rep_dimension(s, n) / (n + 1.0) ** (s.dimension - 1) for n in (64, 128, 256, 512)]
            assert max(ratios) < math.inf and min(ratios) > 0
            assert max(ratios) / min(ratios) <= 10.0

    def test_growth_slope_against_shifted_abscissa(self):
        # the dimension polynomial is symmetric about -a/2, so the slope of
        # log k against log(n + a/2) nails d-1 even at moderate degrees
        for s in SPACES:
            pts = [(n + s.eigenvalue_shift / 2.0, rep_dimension(s, n)) for n in (32, 64, 128, 256, 512)]
            assert abs(fit_exponent(pts).slope - (s.dimension - 1)) <= 0.02


def exact_chebyshev_moments(space: CrossSpace, j_max: int) -> np.ndarray:
    """Independent oracle: int T_j dmu / int dmu for j <= j_max, in exact
    rational arithmetic, for the measure (1 - x)^alpha (1 + x)^beta dx with
    integer alpha, beta.

    The weight's Chebyshev coefficients come from multiplying by 1 -+ x
    (x T_m = (T_{m+1} + T_{|m-1|}) / 2), and int T_j T_m dx is the mean of
    int T_{j+m} dx and int T_{|j-m|} dx, where int T_k dx = 2 / (1 - k^2)
    for even k and 0 for odd k.
    """
    weight = [Fraction(1)]
    signs = [-1] * int(space.params.alpha) + [1] * int(space.params.beta)
    for sign in signs:
        product = [Fraction(0)] * (len(weight) + 1)
        for m, c in enumerate(weight):
            product[m] += c
            product[m + 1] += sign * c / 2
            product[abs(m - 1)] += sign * c / 2
        weight = product

    def integral(k):
        return Fraction(0) if k % 2 else Fraction(2, 1 - k * k)

    def moment(j):
        return sum(c * (integral(j + m) + integral(abs(j - m))) / 2 for m, c in enumerate(weight))

    total = moment(0)
    return np.array([float(moment(j) / total) for j in range(j_max + 1)])


class TestMeasureNodes:
    @pytest.mark.parametrize("space", [complex_projective(4), octonionic_plane()], ids=lambda s: s.label())
    @pytest.mark.parametrize("size", [16, 300, 1024])
    def test_integer_spaces_integrate_chebyshev_polynomials_exactly(self, space, size):
        # Fejer's first rule is exact on T_j dx for j <= size - 1, so times
        # the weight of degree alpha + beta it is exact up to the degree below.
        x, w = spaces.measure_nodes(space, size)
        k = np.arange(1, size + 1)
        assert np.array_equal(x, np.cos(math.pi * (k - 0.5) / size))
        j_max = size - 1 - int(space.params.alpha + space.params.beta)
        # T_j(x_k) = cos(j (2k - 1) pi / (2 size)), with the angle reduced in
        # integers so that it carries no rounding
        turns = np.outer(np.arange(j_max + 1), 2 * k - 1) % (4 * size)
        moments = np.cos(math.pi * turns / (2 * size)) @ w
        assert np.max(np.abs(moments - exact_chebyshev_moments(space, j_max))) <= 1e-14

    def test_integer_spaces_run_no_recurrence(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("measure_nodes ran a recurrence")

        monkeypatch.setattr(spaces, "jacobi_recurrence_rows", refuse)
        monkeypatch.setattr(special, "jacobi_recurrence_rows", refuse)
        x, w = spaces.measure_nodes.__wrapped__(complex_projective(4), 512)
        assert len(x) == len(w) == 512 and abs(np.sum(w) - 1.0) <= 1e-15


class TestRepDimensions:
    """The table form shares one recurrence sweep among the degrees of each rule size."""

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
    def test_equals_single_degrees_bit_for_bit(self, space):
        degrees = [60, 0, 17, 3, 17, 42, 1, 60, 2, 59, 0]
        assert rep_dimensions(space, degrees) == [rep_dimension(space, n) for n in degrees]
        assert rep_dimensions(space, range(61)) == [rep_dimension(space, n) for n in range(61)]

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
    def test_matches_the_weyl_dimension(self, space):
        # every degree to 300, and every tenth to 1000, where the exact
        # dimensions for every degree would cost seconds
        for degrees in (range(301), range(0, 1001, 10)):
            table = rep_dimensions(space, degrees)
            exact = [float(spaces.weyl_dimension(space, n)) for n in degrees]
            assert max(abs(k / e - 1.0) for k, e in zip(table, exact)) <= 2e-13, degrees

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
    def test_running_product_equals_each_weyl_dimension(self, space):
        table = spaces.weyl_dimensions(space, 300)
        assert len(table) == 301
        assert all(k == spaces.weyl_dimension(space, n) for n, k in enumerate(table))
        assert spaces.weyl_dimensions(space, 0) == [spaces.weyl_dimension(space, 0)] == [1]

    def test_runs_without_per_degree_binomials(self, monkeypatch):
        # each sweep reads its normalizations off one running product
        def refuse(*args):
            raise AssertionError("a binomial was recomputed for one degree")

        monkeypatch.setattr(spaces, "jacobi_binomial", refuse)
        theta = np.linspace(0.1, 3.0, 9)
        for space in (sphere(3), complex_projective(4)):
            assert set(spherical_table(space, [0, 5, 40], theta)) == {0, 5, 40}
            assert len(rep_dimensions(space, range(0, 200, 7))) == 29
            assert spherical_gram(space, 12).shape == (13, 13)

    def test_empty_and_negative(self):
        assert rep_dimensions(sphere(2), []) == []
        with pytest.raises(ValueError):
            rep_dimensions(sphere(2), [3, -1])


GROWTH_SLOPE_CASES = [
    pytest.param(sphere(2), id="S2"),
    pytest.param(sphere(3), id="S3"),
    pytest.param(
        sphere(4),
        id="S4",
        marks=pytest.mark.xfail(
            reason="log k vs log(n+1) over 16..512 fits 2.978, outside 3 +- 0.02; "
            "see notes on the finite-range bias for eigenvalue shift != 2",
            strict=True,
        ),
    ),
    pytest.param(
        sphere(5),
        id="S5",
        marks=pytest.mark.xfail(reason="fits 3.940, outside 4 +- 0.02", strict=True),
    ),
    pytest.param(complex_projective(4), id="CP2"),
    pytest.param(
        quaternionic_projective(8),
        id="HP2",
        marks=pytest.mark.xfail(reason="fits 6.846, outside 7 +- 0.02", strict=True),
    ),
]


@pytest.mark.parametrize("space", GROWTH_SLOPE_CASES)
def test_growth_slope_spec_form(space):
    pts = [(n + 1, rep_dimension(space, n)) for n in (16, 32, 64, 128, 256, 512)]
    assert abs(fit_exponent(pts).slope - (space.dimension - 1)) <= 0.02


class TestOrthogonality:
    def test_gram_is_diagonal_with_inverse_dimensions(self):
        for s in SPACES:
            n_max = 20
            gram = spherical_gram(s, n_max)
            expected = np.diag([1.0 / round(rep_dimension(s, n)) for n in range(n_max + 1)])
            assert np.max(np.abs(gram - expected)) <= 1e-8


class TestEigenvalues:
    def test_sphere3_first_eigenvalue(self):
        assert laplace_eigenvalue(sphere(3), 1) == 3

    def test_degree_zero(self):
        for s in SPACES:
            assert laplace_eigenvalue(s, 0) == 0

    def test_sphere_spectrum_oracle(self):
        # n(n + d - 1) on the d-sphere
        for d in (2, 3, 4, 5, 6):
            for n in (1, 2, 9):
                assert laplace_eigenvalue(sphere(d), n) == n * (n + d - 1)


class TestDerivativeBound:
    def test_sphere3_closed_form_oracle(self):
        # Phi_n' from differentiating sin((n+1)t)/((n+1) sin t)
        s3 = sphere(3)
        n = 11
        theta = 1.1
        t = theta
        closed = ((n + 1) * math.cos((n + 1) * t) * math.sin(t) - math.sin((n + 1) * t) * math.cos(t)) / (
            (n + 1) * math.sin(t) ** 2
        )
        assert spherical_theta_derivative(s3, n, theta) == pytest.approx(closed, rel=1e-10)

    def test_ratio_finite_and_order_one(self):
        for s in (sphere(3), sphere(6), complex_projective(4)):
            for n in (1, 16, 128):
                ratio = derivative_bound_ratio(s, n)
                assert 0 < ratio < 2.0

    def test_degree_one_ratio_constant_in_theta(self):
        # P_0 with shifted parameters is constant, so the ratio has no theta
        # dependence at degree 1
        s = complex_projective(4)
        theta = np.linspace(0.3, math.pi - 0.3, 11)
        vals = np.abs(spherical_theta_derivative(s, 1, theta)) / (4.0 * np.sin(theta))
        assert np.max(vals) - np.min(vals) <= 1e-12

    def test_flat_in_degree(self):
        # the sup ratio converges to 1/(2(alpha+1)) like (2 alpha - 1)/n, so
        # only alpha <= 1 lands inside +-0.02 on this degree range
        for s in (sphere(3), sphere(4)):
            pts = [(n, derivative_bound_ratio(s, n, 8192)) for n in (16, 32, 64, 128, 256, 512)]
            assert abs(fit_exponent(pts).slope) <= 0.02

    def test_drift_in_degree_larger_alpha(self):
        pts = [(n, derivative_bound_ratio(sphere(5), n, 8192)) for n in (16, 32, 64, 128, 256, 512)]
        slope = fit_exponent(pts).slope
        assert -0.04 <= slope <= 0.0


class TestSmallAngle:
    def test_monotone_in_epsilon(self):
        s = sphere(4)
        vals = [small_angle_closeness(s, 40, e) for e in (0.01, 0.05, 0.2, 0.8)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_sphere3_small(self):
        assert small_angle_closeness(sphere(3), 100, 0.1) <= 0.5

    def test_vanishes_with_epsilon(self):
        for s in (sphere(3), octonionic_plane()):
            assert small_angle_closeness(s, 64, 1e-3) <= 1e-4
