import bisect
import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossflat import torus
from crossflat.special import JacobiParams, jacobi_binomial, jacobi_eval, jacobi_fourier_row
from crossflat.spaces import catalog
from crossflat.torus import (
    ExponentFit,
    NormBracket,
    PeriodicGrid,
    envelope_A,
    envelope_A_tilde,
    fit_exponent,
    fourier_multiplier,
    kernel_lp_norm,
    kernel_samples,
    lp_norm_periodic,
    opnorm_bracket,
    opnorm_l2_exact,
    tensor_opnorm_upper,
    _PLATEAU_SWEEPS,
    _boyd_refine,
    _grid_lp,
    _next_fast_len,
)

HALF = JacobiParams.of(0.5, 0.5)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def smallest_5_smooth(targets) -> list[int]:
    """For each target, the smallest integer at or above it with no prime
    factor above 5, by testing every integer from 1 up."""
    targets = list(targets)
    top = max(targets)
    found, m = [], 0
    while not found or found[-1] < top:
        m += 1
        rest = m
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            found.append(m)
    return [found[bisect.bisect_left(found, t)] for t in targets]


def period_fold(params, n: int) -> int:
    """The number of periods of the degree-n kernel on the circle: 2 where
    it is pi-periodic, 1 otherwise.  A Gegenbauer kernel (alpha = beta) has
    the parity of n, so it is pi-periodic at even n > 0."""
    return 2 if params.alpha == params.beta and n > 0 and n % 2 == 0 else 1


def dirichlet_l2_sq(n: int) -> float:
    # int_0^{2pi} (C sin((n+1)t)/((n+1) sin t))^2 dt = C^2 2 pi / (n+1)
    return jacobi_binomial(0.5, n) ** 2 * 2 * math.pi / (n + 1)


class TestLpNorm:
    def test_constant_function(self):
        g = PeriodicGrid(64)
        for p in (1, 2, 4, 7.5):
            assert lp_norm_periodic(g, np.ones(64), p) == pytest.approx((2 * math.pi) ** (1 / p), rel=1e-13)

    def test_cosine_l2(self):
        g = PeriodicGrid(256)
        assert lp_norm_periodic(g, np.cos(g.thetas), 2) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_dirichlet_kernel_l2_identity(self):
        g = PeriodicGrid(8192)
        n = 50
        norm = lp_norm_periodic(g, kernel_samples(HALF, n, g), 2)
        assert norm == pytest.approx(math.sqrt(dirichlet_l2_sq(n)), rel=1e-8)

    def test_dirichlet_kernel_l2_at_high_degree(self):
        # Exact value from mpmath, independent of jacobi_binomial.
        n = 4096
        exact = float(mpmath.binomial(mpmath.mpf(n) + 0.5, n) * mpmath.sqrt(2 * mpmath.pi / (n + 1)))
        assert kernel_lp_norm(HALF, n, 2) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e10, 1e200])
    def test_a_power_past_the_float_range_keeps_the_norm_finite(self, scale):
        # |f|^50 overflows for both scales; the norm itself does not.
        g = PeriodicGrid(64)
        f = scale * (2.0 + np.cos(g.thetas))
        plain = lp_norm_periodic(g, f / scale, 50)
        assert lp_norm_periodic(g, f, 50) == pytest.approx(scale * plain, rel=1e-14)

    def test_a_root_past_the_float_range_is_inf_without_a_warning(self):
        # The sum is 8 with or without the max factored out, and 8^1000
        # passes float64 both times.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _grid_lp(np.ones(8), 0.001, 1.0) == math.inf

    @pytest.mark.parametrize("p", [2, 4, 6, 12, 64, 100])
    def test_even_powers_by_multiplication_match_pow(self, p):
        g = PeriodicGrid(4096)
        f = kernel_samples(JacobiParams.of(1, 0), 300, g)
        expected = float(np.sum(np.abs(f) ** float(p) * g.weight)) ** (1 / p)
        assert lp_norm_periodic(g, f, p) == pytest.approx(expected, rel=1e-15, abs=0)

    def test_infinity_norm(self):
        g = PeriodicGrid(32)
        f = np.sin(g.thetas)
        assert lp_norm_periodic(g, f, math.inf) == np.max(np.abs(f))

    def test_rejects_bad_input(self):
        g = PeriodicGrid(16)
        with pytest.raises(ValueError):
            lp_norm_periodic(g, np.full(16, math.nan), 2)
        with pytest.raises(ValueError):
            lp_norm_periodic(g, np.ones(8), 2)
        with pytest.raises(ValueError):
            lp_norm_periodic(g, np.ones(16), 0)

    def test_rejects_a_nan_exponent(self):
        with pytest.raises(ValueError, match="p must be positive"):
            lp_norm_periodic(PeriodicGrid(16), np.ones(16), math.nan)

    @given(
        st.integers(0, 10),
        st.lists(st.floats(-2, 2), min_size=3, max_size=5),
        st.sampled_from([2, 4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_even_power_exactness(self, shift, coefs, p):
        # oracle: integrate |f|^p for a trig polynomial by expanding the
        # coefficient convolution, f = sum c_j cos((j+shift) t)
        g = PeriodicGrid(512)
        freqs = [j + shift for j in range(len(coefs))]
        f = sum(c * np.cos(m * g.thetas) for c, m in zip(coefs, freqs))
        # complex coefficient dict of f
        spec: dict[int, complex] = {}
        for c, m in zip(coefs, freqs):
            spec[m] = spec.get(m, 0) + c / 2
            spec[-m] = spec.get(-m, 0) + c / 2
        power = {0: 1.0 + 0j}
        for _ in range(p):
            nxt: dict[int, complex] = {}
            for m1, c1 in power.items():
                for m2, c2 in spec.items():
                    nxt[m1 + m2] = nxt.get(m1 + m2, 0) + c1 * c2
            power = nxt
        exact = (2 * math.pi * power.get(0, 0).real) ** (1 / p)
        assert lp_norm_periodic(g, f, p) == pytest.approx(exact, rel=1e-10, abs=1e-12)


class TestKernelSamples:
    @pytest.mark.parametrize("size", [64, 151, 200])
    @pytest.mark.parametrize("params", [HALF, JacobiParams.of(1, 0), JacobiParams.of(3, 1)], ids=str)
    def test_folded_grid_matches_pointwise(self, params, size):
        # grids of at most 2n points alias the kernel's frequencies; folding
        # them keeps the samples exact, relative to the kernel's sup norm
        n = 100
        grid = PeriodicGrid(size)
        ref = jacobi_eval(params, n, np.cos(grid.thetas))
        dev = np.max(np.abs(kernel_samples(params, n, grid) - ref))
        assert dev <= 1e-12 * jacobi_binomial(params.alpha, n)


class TestNextFastLen:
    def test_matches_scipy(self):
        # Every grid size PeriodicGrid.for_degree asks for up to n = 70000,
        # and every small target.
        from scipy.fft import next_fast_len

        targets = list(range(1, 20001)) + [8 * (n + 1) for n in range(70001)]
        assert [_next_fast_len(t) for t in targets] == [next_fast_len(t) for t in targets]

    def test_five_smooth_lengths_against_a_brute_force_scan(self):
        # Every target up to 20000, and p n + 1 for every even p <= 12 and
        # n <= 4096: the smallest length at or above it with no prime factor
        # above 5.
        targets = sorted(set(range(1, 20001)) | {p * n + 1 for p in range(2, 13, 2) for n in range(4097)})
        sizes = [_next_fast_len(t, torus._FAST_PRIMES) for t in targets]
        assert sizes == smallest_5_smooth(targets)


class TestPeriodicGrid:
    def test_size_must_be_an_integer(self):
        # 8.5 would give 9 thetas but a weight of 2 pi / 8.5.
        with pytest.raises(TypeError, match="grid size must be an integer"):
            PeriodicGrid(8.5)
        with pytest.raises(ValueError, match="at least 8 points"):
            PeriodicGrid(4)
        grid = PeriodicGrid(np.int64(16))
        assert len(grid.thetas) == 16 and grid.weight == 2.0 * math.pi / 16


class TestEnvelopes:
    def test_boundary_branch(self):
        # delta = 1/2 puts the kink at p = 1, and p <= kink reads (n+1)^(-1/2)
        assert envelope_A(0.5, 1.0, 63) == pytest.approx(64.0 ** -0.5)

    def test_upper_branch(self):
        assert envelope_A(1.0, 2.0, 63) == pytest.approx(64.0 ** 0.5)

    def test_kink_log_factor(self):
        n = 100
        expected = (n + 1) ** -0.5 * math.log(n + 2) ** 1.5
        assert envelope_A_tilde(1.0, 2 / 3, n) == pytest.approx(expected, rel=1e-12)

    @given(
        st.integers(0, 8).map(lambda t: t / 2.0),
        st.floats(0.05, 8.0),
        st.integers(0, 4096),
    )
    @settings(max_examples=60, deadline=None)
    def test_tilde_equals_plain_off_kink(self, delta, p, n):
        kink = 1.0 / (delta + 0.5)
        if abs(p - kink) <= 1e-9:
            return
        assert envelope_A_tilde(delta, p, n) == envelope_A(delta, p, n)

    @given(st.integers(0, 8).map(lambda t: t / 2.0), st.integers(1, 4096))
    @settings(max_examples=40, deadline=None)
    def test_tilde_dominates_at_kink(self, delta, n):
        # log(n+2) >= 1 from degree 1 on, so the kink branch dominates there
        kink = 1.0 / (delta + 0.5)
        assert envelope_A_tilde(delta, kink, n) >= envelope_A(delta, kink, n)

    @pytest.mark.parametrize("envelope", [envelope_A, envelope_A_tilde])
    @pytest.mark.parametrize("args", [(math.nan, 4.0, 3), (0.5, math.nan, 3), (0.5, 4.0, math.nan)])
    def test_rejects_nan_arguments(self, envelope, args):
        with pytest.raises(ValueError, match="need delta >= 0, p > 0, n >= 0"):
            envelope(*args)


class TestMultiplier:
    def test_constant_kernel(self):
        assert opnorm_l2_exact(JacobiParams.of(1, 1), 0) == pytest.approx(
            2 * math.pi, rel=1e-13
        )

    def test_dirichlet_multiplier_formula(self):
        for n in (5, 64, 311):
            expected = 2 * math.pi * jacobi_binomial(0.5, n) / (n + 1)
            assert opnorm_l2_exact(HALF, n) == pytest.approx(expected, rel=1e-10)

    def test_multiplier_support(self):
        ms, vals = fourier_multiplier(HALF, 4)
        by_m = dict(zip(ms.tolist(), vals.tolist()))
        c = 2 * math.pi * jacobi_binomial(0.5, 4) / 5
        for m in (-4, -2, 0, 2, 4):
            assert by_m[m] == pytest.approx(c, rel=1e-10)
        for m in (-3, -1, 1, 3):
            assert abs(by_m[m]) <= 1e-12 * c


class TestBracket:
    def test_rank_one_kernel_is_tight(self):
        # degree 0 kernel is the constant 1: norm (2 pi)^(2/p) exactly
        for p in (2.0, 4.0, 6.0):
            br = opnorm_bracket(JacobiParams.of(1, 0), 0, p, seed=3)
            exact = (2 * math.pi) ** (2.0 / p)
            assert br.lower == pytest.approx(exact, rel=1e-9)
            assert br.upper == pytest.approx(exact, rel=1e-9)

    def test_p2_contains_exact_multiplier(self):
        br = opnorm_bracket(HALF, 17, 2.0)
        exact = opnorm_l2_exact(HALF, 17)
        assert br.lower <= exact * (1 + 1e-8)
        assert br.upper >= exact * (1 - 1e-8)
        assert br.upper_method == "exact_multiplier"

    def test_young_method_above_two(self):
        br = opnorm_bracket(JacobiParams.of(1, 1), 12, 6.0, seed=0, iteration_budget=40)
        assert br.upper_method == "young"
        assert br.upper == pytest.approx(kernel_lp_norm(JacobiParams.of(1, 1), 12, 3.0), rel=1e-13)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            opnorm_bracket(HALF, 4, 1.5)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_non_finite_p(self, p):
        with pytest.raises(ValueError, match="finite p >= 2"):
            opnorm_bracket(HALF, 4, p)

    @pytest.mark.parametrize("p", [1e300, 31252.0])
    def test_rejects_an_even_p_whose_grid_passes_the_cap(self, p):
        # 31252 * 64 + 1 > 2,000,000; both are refused before any work.
        with pytest.raises(ValueError, match="an even p iterates on more than"):
            opnorm_bracket(HALF, 64, p)

    @given(
        st.sampled_from([JacobiParams.of(0.5, 0.5), JacobiParams.of(1, 0), JacobiParams.of(2, 2)]),
        st.integers(0, 24),
        st.sampled_from([2.0, 3.0, 4.0, 8.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_young_dominates_lower(self, params, n, p):
        br = opnorm_bracket(params, n, p, seed=11, iteration_budget=30)
        assert br.lower <= br.upper * (1 + 1e-12)

    def test_power_iteration_stops_at_the_plateau(self):
        # cos(m theta) at the top multiplier is a fixed point: the first sweep
        # counts nothing, the second sets the best value, then
        # _PLATEAU_SWEEPS sweeps gain nothing, the last of which stops after
        # its first operator application.
        n, p = 32, 6.0
        grid = PeriodicGrid.for_degree(n)
        ms, multiplier = fourier_multiplier(JacobiParams.of(1, 1), n)
        khat = np.zeros(grid.size // 2 + 1)
        khat[: n + 1] = multiplier[ms >= 0]
        m = int(np.argmax(np.abs(khat)))
        calls = []

        def apply_op(f):
            calls.append(1)
            return np.fft.irfft(np.fft.rfft(f) * khat, grid.size)

        start = np.cos(m * grid.thetas)
        values, diverged = _boyd_refine(apply_op, start[None], p, grid.weight, 200)
        value = values[0]
        assert len(calls) == 2 * _PLATEAU_SWEEPS + 3 == 7
        assert not diverged[0]
        p_dual = p / (p - 1.0)
        ratio = abs(khat[m]) * lp_norm_periodic(grid, start, p) / lp_norm_periodic(grid, start, p_dual)
        assert value == pytest.approx(ratio, rel=1e-13)
        # The budget caps the sweeps whatever the plateau rule says; one sweep
        # counts no ratio.
        calls.clear()
        values, diverged = _boyd_refine(apply_op, start[None], p, grid.weight, 1)
        assert (values[0], diverged[0]) == (0.0, False)
        assert len(calls) == 2
        calls.clear()
        values, diverged = _boyd_refine(apply_op, start[None], p, grid.weight, 2)
        assert (values[0], diverged[0]) == (value, False)
        assert len(calls) == 4

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            NormBracket(2.0, 1.0, "x", "young")


def serial_boyd_refine(apply_op, f0, p, weight, budget):
    # The one-candidate power iteration that the lockstep one replaced, kept
    # as written as the lockstep rows' oracle.
    p_dual = p / (p - 1.0)
    f = f0 / _grid_lp(f0, p_dual, weight)
    best = 0.0
    stall = 0
    for sweep in range(budget):
        g = apply_op(f)
        lam = _grid_lp(g, p, weight)
        if not math.isfinite(lam):
            return best, True
        if not sweep:
            pass  # the start's own ratio does not count
        elif lam <= best * (1.0 + 1e-13):
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


def binary_power(x, e):
    """x^e by left-to-right binary powering: square, then times x on a set bit."""
    y = x
    for bit in bin(e)[3:]:
        y = y * y
        if bit == "1":
            y = y * x
    return y


def serial_scaled_boyd_refine(apply_op, f, p, weight, budget):
    # serial_boyd_refine with the scaled arithmetic: each half-step divides
    # by the largest magnitude M and maps x = g / M to sign(x) |x|^(p-1), by
    # multiplication for even p and through pow otherwise, and both norms
    # come from sum |x|^p.  The start is not normalized, since only its
    # direction matters.
    p_dual = p / (p - 1.0)

    def powers(g):
        top = max(float(np.max(g)), -float(np.min(g)), 1e-300)
        x = g / top
        y = np.copysign(np.abs(x) ** (p - 1.0), x) if p % 2 else binary_power(x, int(p) - 1)
        return top, y, float(np.sum(x * y))

    best = 0.0
    stall = 0
    for sweep in range(budget):
        top, u, total = powers(apply_op(f))
        lam = top * (weight * total) ** (1.0 / p)
        if not math.isfinite(lam):
            return best, True
        if not sweep:
            pass  # the start's own ratio does not count
        elif lam <= best * (1.0 + 1e-13):
            stall += 1
            if stall >= _PLATEAU_SWEEPS:
                break
        else:
            stall = 0
            best = lam
        _, f_next, total = powers(apply_op(u))
        norm = (weight * total) ** (1.0 / p_dual)
        if not (math.isfinite(norm) and norm > 0):
            return best, True
        f = f_next / norm
    return best, False


def convolution(params, n, grid):
    """Convolution with the degree-n kernel on the grid, along the last axis."""
    ms, multiplier = fourier_multiplier(params, n)
    khat = np.zeros(grid.size // 2 + 1)
    khat[: n + 1] = multiplier[ms >= 0]
    return lambda f: np.fft.irfft(np.fft.rfft(f, axis=-1) * khat, grid.size, axis=-1)


def candidate_starts(params, n, grid, seed):
    """Starts like a bracket's: an exponential, the kernel, bumps and noise."""
    t = grid.thetas
    d = np.minimum(t, 2 * math.pi - t)
    rng = np.random.default_rng(seed)
    rows = [np.cos(max(n // 2, 1) * t), kernel_samples(params, n, grid)]
    rows += [np.where(d < w, np.cos(0.5 * math.pi * d / w) ** 2, 0.0) for w in (1.0, 0.25, 1 / 64)]
    rows += [rng.standard_normal(grid.size), rng.uniform(-1.0, 1.0, grid.size)]
    return np.array(rows)


def bits(values, diverged):
    return [(float(v).hex(), bool(d)) for v, d in zip(values, diverged)]


@pytest.mark.parametrize("e", [3, 5, 7, 11, 63])
def test_odd_power_is_the_binary_chain_of_the_scaled_rows(e):
    rows = np.random.default_rng(e).standard_normal((3, 40)) * np.array([[1e-3], [1.0], [1e3]])
    top = np.max(np.abs(rows), axis=1)
    x = rows / top[:, None]
    out = np.empty_like(rows)
    got_top, sums = torus._scaled_power(rows.copy(), e + 1.0, out)
    assert got_top.tolist() == top.tolist()
    assert out.tobytes() == binary_power(x, e).tobytes()
    assert sums.tolist() == [float(np.sum(row * binary_power(row, e))) for row in x]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 12, 63])
def test_binary_power_keeps_the_chain_and_the_layout(k, order):
    # Both even-p paths take this chain; without an out it allocates as
    # np.multiply does, in x's memory layout, which np.sum's rounding follows.
    x = np.asarray(np.random.default_rng(k).uniform(-1.0, 1.0, (5, 7)), order=order)
    got = torus._binary_power(x, k)
    assert got.tobytes() == binary_power(x, k).tobytes()
    assert got.flags.f_contiguous == (order == "F") and got.flags.c_contiguous == (order == "C")
    out = np.empty_like(x)
    assert torus._binary_power(x, k, out) is out and out.tobytes() == got.tobytes()


@pytest.mark.parametrize("p", [2.5, 3.0, 6.5, 7.0, 99.0])
def test_other_powers_go_through_pow_and_copysign(p):
    rows = np.random.default_rng(7).standard_normal((3, 40)) * np.array([[1e-3], [1.0], [1e3]])
    top = np.max(np.abs(rows), axis=1)
    x = rows / top[:, None]
    out = np.empty_like(rows)
    got_top, sums = torus._scaled_power(rows.copy(), p, out)
    assert got_top.tolist() == top.tolist()
    assert out.tobytes() == np.copysign(np.abs(x) ** (p - 1.0), x).tobytes()
    assert sums.tolist() == pytest.approx(np.sum(np.abs(x) ** p, axis=1).tolist(), rel=1e-14)


class TestLockstepRefinement:
    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("p", [3.0, 6.0, 8.0])
    @pytest.mark.parametrize("n", [0, 5, 64])
    @pytest.mark.parametrize("alpha, beta", [(0, 0), (0.5, 0.5), (1, 0)])
    def test_rows_match_the_serial_iteration_bit_for_bit(self, alpha, beta, n, p, seed):
        # Against the one-candidate iteration with the same scaled
        # arithmetic: a multiplication chain for even p, pow for other p.
        params = JacobiParams.of(alpha, beta)
        grid = PeriodicGrid.for_degree(n)
        op = convolution(params, n, grid)
        starts = candidate_starts(params, n, grid, seed)
        expected = [serial_scaled_boyd_refine(op, row, p, grid.weight, 200) for row in starts]
        got = _boyd_refine(op, starts.copy(), p, grid.weight, 200)
        assert bits(*got) == bits(*zip(*expected))

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("p", [4.0, 6.0, 8.0, 3.0, 6.5, 7.0])
    @pytest.mark.parametrize("n", [0, 5, 64])
    @pytest.mark.parametrize("alpha, beta", [(0, 0), (0.5, 0.5), (1, 0)])
    def test_even_rows_agree_with_the_pow_iteration(self, alpha, beta, n, p, seed):
        # Within the plateau threshold of the unscaled pow-based
        # one-candidate iteration, which the scaled arithmetic replaced for
        # every p (even p first, hence the name).
        params = JacobiParams.of(alpha, beta)
        grid = PeriodicGrid.for_degree(n)
        op = convolution(params, n, grid)
        starts = candidate_starts(params, n, grid, seed)
        expected, expected_diverged = zip(*(serial_boyd_refine(op, row, p, grid.weight, 200) for row in starts))
        values, diverged = _boyd_refine(op, starts.copy(), p, grid.weight, 200)
        assert diverged.tolist() == list(expected_diverged) == [False] * len(starts)
        assert values == pytest.approx(expected, rel=1e-13)

    def test_a_diverging_row_leaves_the_others_unchanged(self):
        params, n, p = JacobiParams.of(1, 0), 64, 6.0
        grid = PeriodicGrid.for_degree(n)
        op = convolution(params, n, grid)
        starts = candidate_starts(params, n, grid, 3)
        calls = []

        def poisoned(f):
            # Row 2 comes back infinite from its first application.
            g = op(f)
            if not calls:
                g[2] = np.inf
            calls.append(len(f))
            return g

        values, diverged = _boyd_refine(poisoned, starts.copy(), p, grid.weight, 200)
        clean = _boyd_refine(op, np.delete(starts, 2, axis=0), p, grid.weight, 200)
        assert diverged.tolist() == [False, False, True] + [False] * (len(starts) - 3)
        assert values[2] == 0.0
        assert bits(np.delete(values, 2), np.delete(diverged, 2)) == bits(*clean)
        assert calls[1] == len(starts) - 1

    def test_a_diverged_candidate_clears_refined(self, monkeypatch):
        clean = opnorm_bracket(HALF, 16, 6.0)
        refine = torus._boyd_refine

        def poisoned_refine(apply_op, starts, *args):
            calls = []

            def op(f):
                # The kernel candidate (row 1) diverges on its first sweep.
                g = apply_op(f)
                if not calls:
                    g[1] = np.inf
                calls.append(1)
                return g

            return refine(op, starts, *args)

        monkeypatch.setattr(torus, "_boyd_refine", poisoned_refine)
        bracket = opnorm_bracket(HALF, 16, 6.0)
        assert clean.refined and not bracket.refined
        assert bracket.upper == clean.upper
        assert bracket.lower_witness != "kernel (power iteration)"
        assert 0.0 < bracket.lower <= clean.lower

    def test_the_bump_ladder_stops_at_the_grid_spacing(self, monkeypatch):
        # At n = 16 the ladder may run down to 2^-6.  At p = 6 the starts are
        # built on a 100-point grid, whose spacing 2 pi / 100 passes 2^-4:
        # the 2^-4 bump holds the one point theta = 0, as would the 2^-5 and
        # 2^-6 ones, so the ladder stops at 2^-4.  The kernel is pi-periodic,
        # so each row iterates folded onto one period of 50 points.
        _, starts = recorded_bracket(monkeypatch, HALF, 16, 6.0)
        assert len(starts) == 1 + 1 + 5 + 1
        thetas = PeriodicGrid(100).thetas
        d = np.minimum(thetas, 2 * math.pi - thetas)
        one_point = np.where(d == 0.0, 1.0, 0.0)
        assert [np.array_equal(torus._bump(d, 2.0**-j), one_point) for j in range(7)] == [False] * 4 + [True] * 3
        assert np.array_equal(starts[-2], one_point.reshape(period_fold(HALF, 16), -1).sum(axis=0))
        assert len({row.tobytes() for row in starts}) == len(starts)

    def test_at_degree_0_the_kernel_start_is_left_out(self, monkeypatch):
        # The constant kernel samples to the cos(0 theta) row.  On the
        # 8-point grid the bumps stop at 2^-1, below the spacing pi / 4.
        bracket, starts = recorded_bracket(monkeypatch, HALF, 0, 6.0)
        assert kernel_samples(HALF, 0, PeriodicGrid(8)).tobytes() == starts[0].tobytes()
        assert len(starts) == 1 + 2 + 1
        assert bracket.refined


CATALOG_PAIRS = sorted({(space.params.alpha, space.params.beta) for space in catalog()})


def recorded_bracket(monkeypatch, *args, **kwargs):
    """A bracket and the starts its power iteration was given."""
    refine, seen = torus._boyd_refine, []

    def recording_refine(apply_op, starts, *rest):
        seen.append(starts.copy())
        return refine(apply_op, starts, *rest)

    monkeypatch.setattr(torus, "_boyd_refine", recording_refine)
    bracket = opnorm_bracket(*args, **kwargs)
    monkeypatch.undo()
    (starts,) = seen
    return bracket, starts


def whole_ladder(params, n, p, seed):
    """The grid and the named starts of a bracket on the full period, with
    the kernel at every n and a bump of every dyadic width down to
    1/(4n), copies included."""
    fold = period_fold(params, n)
    if p % 2 == 0:
        grid = PeriodicGrid(fold * smallest_5_smooth([max(8, int(p) * n // fold + 1)])[0])
    else:
        grid = PeriodicGrid.for_degree(n)
    c = jacobi_fourier_row(params.alpha, params.beta, n)
    top_m = int(np.argmax(np.abs(c)))
    t = grid.thetas
    d = np.minimum(t, 2 * math.pi - t)
    widths = [2.0**-j for j in range(64) if 2.0**-j >= 1.0 / (4.0 * max(n, 1))]
    names = [f"cos({top_m} theta)", "kernel", *(f"bump width 2^-{j}" for j in range(len(widths))), "random start"]
    rows = [np.cos(top_m * t), kernel_samples(params, n, grid)]
    rows += [np.where(d < w, np.cos(0.5 * math.pi * d / w) ** 2, 0.0) for w in widths]
    rows.append(np.random.default_rng(seed).standard_normal(grid.size))
    return grid, names, rows


OPNORM_CONFIGS = [
    path for path in sorted(CONFIGS.glob("opnorm_*.json")) if json.loads(path.read_text())["parameters"]["p"] > 2
]


@pytest.mark.parametrize("config", OPNORM_CONFIGS, ids=lambda path: path.stem)
def test_the_starts_left_out_are_copies(monkeypatch, config):
    # For each bracket of the bundled opnorm configs at p > 2, the starts
    # are the distinct rows of the whole ladder, in its order, folded as
    # the bracket folds them.  Every row left out copies a kept one and
    # refines to its bits, so it could not move the bounds, the refined
    # flag or the witness, the first row within 1e-12 of the best.
    spec = json.loads(config.read_text())
    params = spec["parameters"]
    jp, p = JacobiParams.of(params["alpha"], params["beta"]), float(params["p"])
    left_out = 0
    for n in params["n_values"]:
        grid, _, rows = whole_ladder(jp, n, p, spec["seed"])
        assert all(np.any(row) for row in rows)
        first: dict[bytes, int] = {}
        kept_rows, copied = [], []  # copied: for each row left out, the kept row it copies
        for row in rows:
            if row.tobytes() in first:
                copied.append(first[row.tobytes()])
            else:
                first[row.tobytes()] = len(kept_rows)
                kept_rows.append(row)
        refine, seen = torus._boyd_refine, []

        def recording_refine(apply_op, starts, *rest):
            kept = starts.copy()
            values, diverged = refine(apply_op, starts, *rest)
            copies = bits(*refine(apply_op, kept[copied], *rest)) if copied else []
            seen.append((kept, bits(values[copied], diverged[copied]), copies))
            return values, diverged

        monkeypatch.setattr(torus, "_boyd_refine", recording_refine)
        opnorm_bracket(jp, n, p, seed=spec["seed"])
        monkeypatch.undo()
        ((starts, originals, copies),) = seen
        fold = grid.size // starts.shape[1]
        assert starts.tobytes() == np.array(kept_rows).reshape(len(kept_rows), fold, -1).sum(axis=1).tobytes()
        assert originals == copies
        left_out += len(copied)
    assert left_out > 0


class TestEvenPIterationGrid:
    @pytest.mark.parametrize("p", [4.0, 6.0, 8.0])
    @pytest.mark.parametrize("n", [0, 5, 64, 300])
    def test_even_p_iterates_on_the_smallest_exact_grid(self, monkeypatch, n, p):
        # On one period of the kernel, the smallest length above p n / fold
        # with no prime factor above 5: h^p has that degree in the period's
        # variable.
        bracket, starts = recorded_bracket(monkeypatch, HALF, n, p, seed=7)
        fold = period_fold(HALF, n)
        assert [starts.shape[1]] == smallest_5_smooth([max(8, int(p) * n // fold + 1)])
        # Young's sum keeps the default grid.
        assert bracket.upper == kernel_lp_norm(HALF, n, p / 2.0)

    def test_grid_sizes_at_degree_64(self, monkeypatch):
        # One period of full grids of 400 and 540 points.
        sizes = [recorded_bracket(monkeypatch, HALF, 64, p)[1].shape[1] for p in (6.0, 8.0)]
        assert [period_fold(HALF, 64) * size for size in sizes] == [400, 540]

    def test_a_large_p_refines_to_near_its_upper_bound(self):
        # Every |g|^64 of the pow iteration overflowed here, so every
        # candidate diverged and the closed-form exponential, 6.6e-4 of the
        # upper bound, was the lower bound.
        bracket = opnorm_bracket(JacobiParams.of(3, 1), 2048, 64.0, seed=7)
        assert bracket.refined
        assert 0.98 * bracket.upper <= bracket.lower <= bracket.upper

    @pytest.mark.parametrize("p", [97.0, 99.0, 101.0])
    def test_a_large_odd_p_refines_without_overflow(self, p):
        # The unscaled |g|^p overflowed here: every candidate diverged, with
        # a RuntimeWarning, and the lower bound was 1.7 % of the upper one.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bracket = opnorm_bracket(JacobiParams.of(3, 1), 64, p, seed=7)
        assert bracket.refined
        assert 0.98 * bracket.upper <= bracket.lower <= bracket.upper

    @pytest.mark.parametrize("p", [3.0, 6.5, 7.0])
    def test_other_p_iterate_on_the_default_grid(self, monkeypatch, p):
        # Folded onto one period: the default grid's size is even, so its
        # first half holds the same points.
        _, starts = recorded_bracket(monkeypatch, HALF, 64, p)
        assert starts.shape[1] == PeriodicGrid.for_degree(64).size // period_fold(HALF, 64)

    @pytest.mark.parametrize("p", [6.0, 8.0])
    @pytest.mark.parametrize("n", [0, 5, 64, 300])
    @pytest.mark.parametrize("alpha, beta", CATALOG_PAIRS)
    def test_the_witness_keeps_its_ratio_on_a_finer_grid(self, monkeypatch, alpha, beta, n, p):
        # From the second sweep on every iterate is a trigonometric
        # polynomial, so rerunning the witness from the same start,
        # interpolated onto four times as many points, gives the same ratio.
        params = JacobiParams.of(alpha, beta)
        bracket, starts = recorded_bracket(monkeypatch, params, n, p, seed=7)
        fold = period_fold(params, n)
        full = PeriodicGrid(fold * starts.shape[1])
        fine = PeriodicGrid(4 * full.size)
        name = bracket.lower_witness
        if name.startswith("exponential m="):
            # T e^{im theta} = khat(m) e^{im theta}, with |e^{im theta}| = 1.
            m = int(name.removeprefix("exponential m="))
            ms, multiplier = fourier_multiplier(params, n)
            khat = np.zeros(fine.size)
            khat[ms % fine.size] = multiplier
            e = np.exp(1j * m * fine.thetas)
            te = np.fft.ifft(np.fft.fft(e) * khat)
            p_dual = p / (p - 1.0)
            ratio = _grid_lp(te, p, fine.weight) / _grid_lp(e, p_dual, fine.weight)
        else:
            # A bump is rebuilt on the full period.  A kernel witness is
            # row 1: the kernel start is left out only at n = 0, where it
            # would copy the cos row.  A folded row, repeated over the full
            # period, has the even frequencies of its start, doubled, and T
            # sees no others.
            name = name.removesuffix(" (power iteration)")
            if name.startswith("bump width 2^-"):
                width = 2.0 ** -int(name.removeprefix("bump width 2^-"))
                row = torus._bump(np.minimum(full.thetas, 2 * math.pi - full.thetas), width)
            else:
                row = np.tile(starts[{"kernel": 1, "random start": -1}.get(name, 0)], fold)
            values, diverged = _boyd_refine(
                convolution(params, n, fine), np.fft.irfft(np.fft.rfft(row), fine.size)[None], p, fine.weight, 200
            )
            assert not diverged[0]
            ratio = values[0]
        assert ratio == pytest.approx(bracket.lower, rel=1e-13)

    @pytest.mark.parametrize(
        "alpha, beta, n, p, lower, upper",
        [
            (0.5, 0.5, 5, 3.0, "0x1.34c8562feac33p+1", "0x1.9b833ab564062p+1"),
            (0.5, 0.5, 5, 6.5, "0x1.23993bf616aa2p+1", "0x1.41a9cdaf87685p+1"),
            (0.5, 0.5, 5, 7.0, "0x1.24245a13dc931p+1", "0x1.3fe62f4039e71p+1"),
            (1, 0, 64, 3.0, "0x1.08d525991809ap+3", "0x1.488f91b6170d5p+3"),
            (1, 0, 64, 6.5, "0x1.62ce19e2ae98ap+4", "0x1.85aeabda7cd7dp+4"),
            (1, 0, 64, 7.0, "0x1.7b0c8c6c666bep+4", "0x1.9ddd71b7a8523p+4"),
            (3, 1, 300, 3.0, "0x1.0ab5a113fa347p+18", "0x1.35de298dcf091p+18"),
            (3, 1, 300, 6.5, "0x1.0a783b62694b8p+20", "0x1.2461c5fe8233cp+20"),
            (3, 1, 300, 7.0, "0x1.23fe656bb7d27p+20", "0x1.3e9c431533c8bp+20"),
        ],
    )
    def test_odd_and_non_integer_p_keep_their_bits(self, alpha, beta, n, p, lower, upper):
        # The bits of the scaled half-step, which odd and non-integer p
        # share with even p.
        bracket = opnorm_bracket(JacobiParams.of(alpha, beta), n, p, seed=7)
        assert (bracket.lower.hex(), bracket.upper.hex()) == (lower, upper)


def full_period_bracket(params, n, p, seed):
    """opnorm_bracket's (lower, upper, witness, refined) with no fold, and
    the size of its grid: the starts, built on the full period that
    opnorm_bracket builds them on, go to _boyd_refine with the full
    multiplier."""
    grid, names, rows = whole_ladder(params, n, p, seed)
    c = jacobi_fourier_row(params.alpha, params.beta, n)
    top_m = int(np.argmax(np.abs(c)))
    first = {}
    for name, row in zip(names, rows):
        first.setdefault(row.tobytes(), (name, row))
    names, rows = zip(*first.values())
    values, diverged = _boyd_refine(convolution(params, n, grid), np.array(rows), p, grid.weight, 200)
    upper = kernel_lp_norm(params, n, p / 2.0)
    top, p_dual = 2.0 * math.pi * abs(float(c[top_m])), p / (p - 1.0)
    found = [(top * (2.0 * math.pi) ** (1.0 / p - 1.0 / p_dual), f"exponential m={top_m}")]
    found += [(v, f"{name} (power iteration)") for name, v, bad in zip(names, values.tolist(), diverged) if not bad]
    lower = max(value for value, _ in found)
    witness = next(name for value, name in found if value >= lower * (1.0 - 1e-12))
    return (min(lower, upper), upper, witness, not diverged.any()), grid.size


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0, 6.5, 8.0])
@pytest.mark.parametrize("n", [0, 2, 4, 5, 64, 300])
@pytest.mark.parametrize("alpha, beta", CATALOG_PAIRS)
def test_a_folded_iteration_matches_the_full_period(monkeypatch, alpha, beta, n, p):
    # A Gegenbauer row of even degree has exact zeros at every odd
    # frequency, and no other catalog row does: only those kernels fold.
    params = JacobiParams.of(alpha, beta)
    fold = period_fold(params, n)
    assert (n > 0 and not np.any(jacobi_fourier_row(alpha, beta, n)[1::2])) == (fold == 2)
    bracket, starts = recorded_bracket(monkeypatch, params, n, p, seed=7)
    expected, size = full_period_bracket(params, n, p, seed=7)
    assert fold * starts.shape[1] == size
    assert len({row.tobytes() for row in starts}) == len(starts)
    got = (bracket.lower, bracket.upper, bracket.lower_witness, bracket.refined)
    if fold == 1:
        assert got == expected
    else:
        # The same ratios, rounded on another grid.
        assert got[1:] == expected[1:]
        assert bracket.lower == pytest.approx(expected[0], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("alpha, beta", CATALOG_PAIRS)
def test_young_sum_at_p6_is_a_quadrature_estimate(alpha, beta):
    # At n = 1024 the default grid has 8 points per wavelength, and |k|^3 is
    # no trigonometric polynomial, so the rectangle rule only estimates
    # Young's L^3 norm: against 2^21 points it is off by up to 4.1e-4
    # relative, at (0, 0), and below it at (3/2, 3/2), (2, 0) and (2, 2).
    params = JacobiParams.of(alpha, beta)
    fine = kernel_lp_norm(params, 1024, 3.0, PeriodicGrid(2**21))
    assert abs(tensor_opnorm_upper([(params, 1024)], 6.0) / fine - 1.0) <= 5e-4


class TestTensor:
    def test_empty_product_is_identity(self):
        assert tensor_opnorm_upper([], 4.0) == 1.0

    def test_single_factor(self):
        factor = (JacobiParams.of(1, 1), 9)
        expected = opnorm_bracket(*factor, 4.0).upper
        assert tensor_opnorm_upper([factor], 4.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("p", [2.0, 4.0, 7.5])
    def test_factor_upper_is_the_bracket_upper_without_power_iteration(self, monkeypatch, p):
        factors = [(JacobiParams(1, 1), 9), (HALF, 20)]
        expected = opnorm_bracket(*factors[0], p).upper * opnorm_bracket(*factors[1], p).upper

        def refuse(*args):
            raise AssertionError("the upper bound needs no power iteration")

        monkeypatch.setattr(torus, "_boyd_refine", refuse)
        assert tensor_opnorm_upper(factors, p) == expected

    def test_accepts_an_iterator(self):
        factors = [(JacobiParams(1, 1), 8), (JacobiParams(2, 0), 6)]
        expected = tensor_opnorm_upper(factors, 4.0)
        assert expected > 1.0
        assert tensor_opnorm_upper(iter(factors), 4.0) == expected

    def test_two_factor_p2_against_2d_multiplier(self):
        # oracle: the 2-D multiplier of the tensor kernel on a small grid
        n = m = 6
        grid = PeriodicGrid(64)
        mine = tensor_opnorm_upper([(HALF, n), (HALF, m)], 2.0)
        k1 = kernel_samples(HALF, n, grid)
        k2 = kernel_samples(HALF, m, grid)
        k2d = np.outer(k1, k2)
        mult = np.abs(np.fft.fft2(k2d)) * grid.weight ** 2
        assert mine == pytest.approx(float(np.max(mult)), rel=1e-6)


class TestFitExponent:
    def test_perfect_square_growth(self):
        fit = fit_exponent([(n, float(n * n)) for n in (2, 4, 8, 16)])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.max_residual <= 1e-12

    def test_constant_sequence(self):
        fit = fit_exponent([(n, 3.7) for n in (3, 9, 27)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_kernel_norm_slope_matches_envelope_exponent(self):
        params = JacobiParams.of(1, 0)
        q = 4.0
        pts = [(n, kernel_lp_norm(params, n, q)) for n in (64, 128, 256, 512, 1024, 2048, 4096)]
        assert abs(fit_exponent(pts).slope - 0.75) <= 0.05

    def test_rejections(self):
        with pytest.raises(ValueError):
            fit_exponent([(1, 1.0), (2, 2.0)])
        with pytest.raises(ValueError):
            fit_exponent([(1, 1.0), (2, -2.0), (3, 1.0)])
        with pytest.raises(ValueError):
            fit_exponent([(1, 1.0), (1, 2.0), (3, 1.0)])
        with pytest.raises(ValueError):
            ExponentFit(1.0, 0.0, 0.0, 2)

    def test_rejects_nan_values_and_abscissas(self):
        with pytest.raises(ValueError, match="values must be positive"):
            fit_exponent([(1, 1.0), (2, math.nan), (3, 1.0)])
        with pytest.raises(ValueError, match="abscissas must be strictly increasing"):
            fit_exponent([(1, 1.0), (math.nan, 2.0), (3, 1.0)])
        with pytest.raises(ValueError, match="abscissas must be strictly increasing"):
            fit_exponent([(math.nan, 1.0), (2, 2.0), (3, 1.0)])

    def test_rejects_nonpositive_abscissas(self):
        with pytest.raises(ValueError, match="abscissas must be positive for a log-log fit, got n = 0"):
            fit_exponent([(0, 1.0), (1, 2.0), (2, 3.0)])


class TestKinkNoLog:
    def test_dirichlet_ratio_stays_bounded(self):
        # the exact p = 2 norm against (n+1)^(-1/2): a residual log factor
        # would drift the ratio by sqrt(log) across this sweep
        ratios = []
        for n in (64, 128, 256, 512, 1024, 2048, 4096):
            ratios.append(opnorm_l2_exact(HALF, n) * math.sqrt(n + 1.0))
        assert max(ratios) / min(ratios) <= 1.05
