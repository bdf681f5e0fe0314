import itertools
import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossflat import products
from crossflat.products import (
    FlatSubmanifold,
    LatticeShell,
    ProductManifold,
    ResolutionError,
    baseline_rho,
    count_constrained,
    count_unconstrained,
    diagonal_levels,
    enumerate_shell,
    exponent_table,
    extremizer_eval,
    extremizer_l2_norm,
    pointwise_lower_check,
    restriction_lp_norm,
    sharpness_report,
    tau_exponent,
    trend_levels,
)
from crossflat.spaces import (
    catalog,
    complex_projective,
    measure_nodes,
    real_projective,
    rep_dimension,
    sphere,
    spherical_eval,
    spherical_table,
    weyl_dimension,
)
from crossflat.torus import _grid_lp, _power_sum

S3_FIFTH = ProductManifold.of(*[sphere(3)] * 5)
MIXED = ProductManifold.of(sphere(3), sphere(5))
# The rank-4 mixed product S^2 x S^3 x CP^2 x S^3 of the benchmark.
MIXED_RANK4 = ProductManifold.of(sphere(2), sphere(3), complex_projective(4), sphere(3))


def brute_force_shell(manifold, level, constrained):
    """Naive oracle: scan the full box of degree tuples."""
    bounds = []
    for f in manifold.factors:
        n = 0
        while n * n + f.eigenvalue_shift * n <= level:
            n += 1
        bounds.append(range(n))
    out = []
    for tup in itertools.product(*bounds):
        total = sum(
            n * n + f.eigenvalue_shift * n for n, f in zip(tup, manifold.factors)
        )
        if total != level:
            continue
        if any(f.even_degrees_only and n % 2 for n, f in zip(tup, manifold.factors)):
            continue
        if constrained:
            if any(tup[i] < tup[i + 1] for i in range(len(tup) - 1)):
                continue
            if 2 * tup[-1] < tup[0]:
                continue
        out.append(tup)
    return tuple(sorted(out))


class TestManifold:
    def test_sorts_by_dimension(self):
        m = ProductManifold.of(sphere(5), sphere(3))
        assert [f.dimension for f in m.factors] == [3, 5]
        assert m.dimension == 8 and m.rank == 2

    def test_rejects_single_factor(self):
        with pytest.raises(ValueError):
            ProductManifold.of(sphere(3))

    def test_rejects_unsorted_tuple(self):
        with pytest.raises(ValueError):
            ProductManifold((sphere(5), sphere(3)))


class TestEnumerateShell:
    def test_symmetric_member_level_15(self):
        shell = enumerate_shell(S3_FIFTH, 15)
        assert (1, 1, 1, 1, 1) in shell.members

    def test_symmetric_member_level_40(self):
        shell = enumerate_shell(S3_FIFTH, 40)
        assert (2, 2, 2, 2, 2) in shell.members

    def test_brute_force_oracle_s3_fifth(self):
        for level in (0, 3, 15, 40, 48, 55, 60):
            for constrained in (True, False):
                mine = enumerate_shell(S3_FIFTH, level, constrained).members
                assert mine == brute_force_shell(S3_FIFTH, level, constrained)

    def test_brute_force_oracle_mixed(self):
        for m in (MIXED, MIXED_RANK4):
            for level in range(0, 120, 7):
                for constrained in (True, False):
                    mine = enumerate_shell(m, level, constrained).members
                    assert mine == brute_force_shell(m, level, constrained)

    def test_brute_force_oracle_projective(self):
        for m in (
            ProductManifold.of(real_projective(3), sphere(3)),
            ProductManifold.of(real_projective(3), sphere(3), real_projective(4)),
        ):
            for level in range(0, 80, 5):
                for constrained in (True, False):
                    mine = enumerate_shell(m, level, constrained).members
                    assert mine == brute_force_shell(m, level, constrained)

    def test_one_sweep_serves_many_levels(self):
        # unsorted, repeated, empty and far-apart levels against the brute
        # force scan of each level alone
        projective = ProductManifold.of(real_projective(3), sphere(3), real_projective(4))
        for m in (S3_FIFTH, MIXED_RANK4, projective):
            levels = [55, 3, 40, 0, 1, 40, 97, 15]
            for constrained in (True, False):
                shells = products._shells(m, levels, constrained)
                assert [shell.level for shell in shells] == levels
                assert [shell.members for shell in shells] == [brute_force_shell(m, lv, constrained) for lv in levels]
        levels = [40] + diagonal_levels(MIXED, [700])
        far = products._shells(MIXED, levels, True)
        assert [shell.members for shell in far] == [enumerate_shell(MIXED, lv).members for lv in levels]
        assert (700, 700) in far[1].members

    def test_rejects_non_integral_level(self):
        with pytest.raises(ValueError, match="integer"):
            enumerate_shell(S3_FIFTH, 40.7)

    def test_rejects_level_beyond_int64_sweep(self):
        # Squared degrees near 10**30 would overflow the int64 sweep.
        for level in (products.LEVEL_BOUND, 10**30):
            with pytest.raises(ValueError, match="below 2\\*\\*62"):
                enumerate_shell(S3_FIFTH, level)

    def test_empty_shell(self):
        assert len(enumerate_shell(S3_FIFTH, 1)) == 0

    def test_level_zero(self):
        shell = enumerate_shell(S3_FIFTH, 0)
        assert shell.members == ((0, 0, 0, 0, 0),)

    @given(st.integers(0, 400))
    @settings(max_examples=25, deadline=None)
    def test_members_satisfy_invariants(self, level):
        shell = enumerate_shell(S3_FIFTH, level)
        for member in shell.members:
            assert sum(n * n + 2 * n for n in member) == level
            assert all(member[i] >= member[i + 1] for i in range(4))
            assert 2 * member[-1] >= member[0]

    def test_counts_match_enumeration(self):
        unconstrained = count_unconstrained(S3_FIFTH, 200)
        constrained = count_constrained(S3_FIFTH, 200)
        for level in range(201):
            assert unconstrained[level] == len(enumerate_shell(S3_FIFTH, level, False))
            assert constrained[level] == len(enumerate_shell(S3_FIFTH, level, True))
        unconstrained = count_unconstrained(MIXED_RANK4, 60)
        constrained = count_constrained(MIXED_RANK4, 60)
        for level in range(61):
            assert unconstrained[level] == len(brute_force_shell(MIXED_RANK4, level, False))
            assert constrained[level] == len(brute_force_shell(MIXED_RANK4, level, True))


    @pytest.mark.parametrize(
        "manifold, level_max",
        [
            (S3_FIFTH, 9900),
            (MIXED_RANK4, 9000),
            # real_projective(3) sorts last: only even last degrees
            (ProductManifold.of(sphere(3), sphere(3), real_projective(3)), 3000),
            (S3_FIFTH, 0),
            (S3_FIFTH, 1),
            (MIXED_RANK4, 1),
        ],
        ids=["S3_FIFTH", "MIXED_RANK4", "even-last", "level-0", "level-1", "MIXED_RANK4-level-1"],
    )
    def test_counts_match_the_full_sweep(self, manifold, level_max):
        # the counts without the last degree column equal a histogram of the
        # levels of every admissible tuple
        _, levels = products._sweep(manifold.factors, level_max, True, every_column=False)
        counts = count_constrained(manifold, level_max)
        assert counts.dtype == np.int64 and np.array_equal(counts, np.bincount(levels, minlength=level_max + 1))


class TestExactAmplitudes:
    """The shell amplitudes sqrt(k(n)) come from the Weyl dimension formula;
    the Gauss quadrature of spaces.rep_dimension is the oracle."""

    @pytest.mark.parametrize("space", catalog() + (real_projective(3),), ids=lambda s: s.label())
    def test_exact_dimension_is_an_integer_matching_quadrature(self, space):
        for n in list(range(121)) + [200, 300]:
            k = weyl_dimension(space, n)
            assert k.denominator == 1, (n, k)
            assert rep_dimension(space, n) == pytest.approx(float(k), rel=1e-13, abs=0)
            assert products._sqrt_dim(space, n) ** 2 == pytest.approx(float(k), rel=1e-13, abs=0)


class TestExtremizer:
    def test_amplitude_at_origin_level_40(self):
        # k(2) = 9 on each three-sphere, so f(0) = 3^5
        shell = enumerate_shell(S3_FIFTH, 40)
        assert extremizer_eval(S3_FIFTH, shell, [0.0] * 5) == pytest.approx(243.0, rel=1e-10)

    def test_origin_value_is_amplitude_sum(self):
        shell = enumerate_shell(S3_FIFTH, 48, ordering_constraint=False)
        from crossflat.spaces import rep_dimension

        expected = sum(
            np.prod([math.sqrt(rep_dimension(sphere(3), n)) for n in member])
            for member in shell.members
        )
        assert extremizer_eval(S3_FIFTH, shell, [0.0] * 5) == pytest.approx(expected, rel=1e-10)

    def test_singleton_factorizes(self):
        shell = LatticeShell(40, ((2, 2, 2, 2, 2),))
        theta = [0.3, 0.7, 0.1, 1.4, 2.2]
        product = 243.0 * np.prod([spherical_eval(sphere(3), 2, t) for t in theta])
        assert extremizer_eval(S3_FIFTH, shell, theta) == pytest.approx(float(product), rel=1e-10)

    def test_l2_norm_is_sqrt_count(self):
        assert extremizer_l2_norm(LatticeShell(7, ((1, 1),))) == 1.0
        assert extremizer_l2_norm(LatticeShell(7, tuple([(1, 1)] * 4))) == 2.0

    def test_l2_norm_quadrature_cross_check(self):
        # product quadrature of (sqrt(k) Phi_n)^2 over each factor equals 1
        from crossflat.spaces import rep_dimension
        from crossflat.special import jacobi_eval

        value = 1.0
        for n, space in zip((2, 2), MIXED.factors):
            x, w = measure_nodes(space, n + 8)
            phi = jacobi_eval(space.params, n, x) / jacobi_eval(space.params, n, 1.0)
            value *= rep_dimension(space, n) * float(np.sum(w * phi * phi))
        assert math.sqrt(value) == pytest.approx(extremizer_l2_norm(LatticeShell(0, ((2, 2),))), abs=1e-6)


class TestFlatSubmanifold:
    def test_density_diagonal_circle(self):
        sub = FlatSubmanifold.of([[1.0]] * 5, [0.0] * 5)
        assert sub.k == 1
        assert sub.density == pytest.approx(math.sqrt(5.0))

    def test_rejects_rank_deficiency(self):
        with pytest.raises(ValueError):
            FlatSubmanifold.of([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]], [0.0] * 3)

    def test_zero_dimensional(self):
        sub = FlatSubmanifold.of([[] for _ in range(5)], [0.0] * 5)
        assert sub.k == 0 and sub.density == 1.0


class TestRestrictionNorm:
    def test_point_restriction_is_evaluation(self):
        shell = enumerate_shell(S3_FIFTH, 40)
        sub = FlatSubmanifold.of([[] for _ in range(5)], [0.0] * 5)
        assert restriction_lp_norm(S3_FIFTH, shell, sub, 6.0) == pytest.approx(243.0, rel=1e-10)

    def test_constant_function_on_segment(self):
        # degree-zero shell: f is the constant 1, so a segment of length L
        # measures L^(1/p)
        shell = enumerate_shell(S3_FIFTH, 0)
        sub = FlatSubmanifold.of(
            [[1.0], [0.0], [0.0], [0.0], [0.0]], [0.0] * 5, box=[(0.0, 1.3)]
        )
        for p in (2.0, 6.0):
            assert restriction_lp_norm(S3_FIFTH, shell, sub, p) == pytest.approx(
                1.3 ** (1.0 / p), rel=1e-12
            )
        assert restriction_lp_norm(S3_FIFTH, shell, sub, math.inf) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_circle_l2_fourier_oracle(self):
        # level 40 shell is the symmetric tuple; along the diagonal circle
        # f(u) = (1 + 2 cos 2u)^5, whose squared L2 integral is 2 pi times the
        # squared trinomial coefficients of (1 + y + y^2)^5
        shell = enumerate_shell(S3_FIFTH, 40)
        sub = FlatSubmanifold.of([[1.0]] * 5, [0.0] * 5)
        poly = np.array([1.0])
        for _ in range(5):
            poly = np.convolve(poly, np.array([1.0, 1.0, 1.0]))
        exact = math.sqrt(2 * math.pi * float(np.sum(poly**2)) * math.sqrt(5.0))
        assert restriction_lp_norm(S3_FIFTH, shell, sub, 2.0) == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize(
        "matrix, offset, box, lattice",
        [
            (
                [[1.0, 0.5], [0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]],
                [0.1, -0.2, 0.3, 0.05],
                [(-0.3, 0.4), (0.1, 0.9)],
                False,
            ),
            ([[1, 0], [2, -1], [0, 1], [0, 0]], [0.1, 0.0, -0.3, 0.2], None, True),
            ([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]], [0.1, -0.2, 0.3, 0.05], None, False),
            ([[] for _ in range(4)], [0.1, 0.2, 0.3, 0.4], None, False),
        ],
        ids=["direct", "lattice", "direct-torus", "point"],
    )
    def test_one_grid_serves_every_p(self, monkeypatch, matrix, offset, box, lattice):
        # the norms of several p from one evaluation of f equal one call per p, to the bit;
        # on the full torus an integer matrix takes the lattice rule far below the
        # threshold, and a non-integer one the direct rule
        grids = []
        build = products._restriction_grid
        monkeypatch.setattr(products, "_restriction_grid", lambda *args: grids.append(build(*args)) or grids[-1])
        shell = enumerate_shell(MIXED_RANK4, 38, ordering_constraint=False)
        sub = FlatSubmanifold.of(matrix, offset, box)
        ps = [2.0, 3.5, 6.0, math.inf]
        together = restriction_lp_norm(MIXED_RANK4, shell, sub, ps)
        assert len(grids) == (sub.k > 0)
        sizes = [math.prod(np.broadcast_shapes(*(lay.shape for lay in grid[1]))) for grid in grids]
        assert all(size < products._LATTICE_THRESHOLD // 10 for size in sizes)
        # only the lattice rule reads one table entry at several grid points
        assert any(len(angles) < math.prod(lay.shape) for grid in grids for angles, lay in zip(*grid[:2])) == lattice
        assert together == [restriction_lp_norm(MIXED_RANK4, shell, sub, p) for p in ps]
        assert len(set(together)) == (1 if sub.k == 0 else len(ps))

    def test_lattice_path_matches_general_path(self, monkeypatch):
        # same integral through a fine direct tensor grid (at least 200 nodes
        # per axis) and the integer-lattice lookup rule at 8 points per wavelength
        shell = enumerate_shell(S3_FIFTH, 495)
        sub = FlatSubmanifold.of(
            [[1, 0], [1, 1], [0, 1], [0, 0], [0, 0]],
            [0.0] * 5,
            box=[(-0.25, 0.25)] * 2,
        )
        freqs = np.abs(sub.matrix_array).T @ np.max(np.array(shell.members), axis=0)
        ppw = 200 * 2 * math.pi / (0.5 * float(np.min(freqs)))
        direct = restriction_lp_norm(S3_FIFTH, shell, sub, 2.0, ppw)
        monkeypatch.setattr(products, "_LATTICE_THRESHOLD", 0)
        lattice = restriction_lp_norm(S3_FIFTH, shell, sub, 2.0, 8.0)
        assert lattice == pytest.approx(direct, rel=2e-3)

    def test_lattice_full_torus_matches_general(self):
        # both quadratures are exact for p = 2 on the full torus, so the
        # lattice rule must agree to roundoff with the direct rule's
        # per-axis midpoint grid, evaluated point by point
        shell = enumerate_shell(S3_FIFTH, 495)
        sub = FlatSubmanifold.of(
            [[1, 0], [1, 1], [0, 1], [0, 0], [1, 1]], [0.1, 0.0, 0.0, 0.0, 0.2]
        )
        freqs = np.abs(sub.matrix_array).T @ np.max(np.array(shell.members), axis=0)
        sizes = [max(8, math.ceil(8.0 * f)) for f in freqs]
        axes = [(np.arange(m) + 0.5) * (2 * math.pi / m) for m in sizes]
        cell = math.prod(2 * math.pi / m for m in sizes)
        direct = dense_norm(S3_FIFTH, shell, sub, 2.0, axes, cell)
        lattice = restriction_lp_norm(S3_FIFTH, shell, sub, 2.0)
        assert lattice == pytest.approx(direct, rel=1e-10)

    def test_box_norm_past_float64_overflow(self):
        # max|f|^64 overflows float64 here, so the max comes out of the sum
        shell = enumerate_shell(S3_FIFTH, 1998)
        sub = FlatSubmanifold.of(
            [[1, 0], [1, 1], [0, 1], [0, 0], [0, 0]], [0.0] * 5, box=[(-0.25, 0.25)] * 2
        )
        p = 64.0
        freqs = np.abs(sub.matrix_array).T @ np.max(np.array(shell.members), axis=0)
        sizes = [max(8, math.ceil(8.0 * f * 0.5 / (2 * math.pi))) for f in freqs]
        assert math.prod(sizes) <= products._LATTICE_THRESHOLD
        axes = [-0.25 + (np.arange(m) + 0.5) * (0.5 / m) for m in sizes]
        u = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
        f = np.abs(dense_extremizer(S3_FIFTH, shell, list(sub.matrix_array @ u)))
        top = float(np.max(f))
        assert math.log(top) * p > math.log(np.finfo(float).max)
        cell = math.prod(0.5 / m for m in sizes)
        expected = top * float(np.sum((f / top) ** p) * cell * sub.density) ** (1 / p)
        norm = restriction_lp_norm(S3_FIFTH, shell, sub, p)
        assert math.isfinite(norm)
        assert norm == pytest.approx(expected, rel=1e-12)

    def test_block_past_float64_overflow_takes_the_whole_grid_rule(self, monkeypatch):
        # the p = 64 shell above, in blocks of one line: at p = 44 only the
        # lines near max|f| overflow, at p = 64 every line does; either way
        # the norm is the whole grid's rule, with no warning
        shell = enumerate_shell(S3_FIFTH, 1998)
        sub = FlatSubmanifold.of(
            [[1, 0], [1, 1], [0, 1], [0, 0], [0, 0]], [0.0] * 5, box=[(-0.25, 0.25)] * 2
        )
        # the flat mirrors: the grid is the full grid's first half, 17 of its
        # 34 rows, at twice the cell, and the norms are the full grid's to 1e-13
        points, layouts, cell = products._restriction_grid(shell, sub, 8.0)
        assert grid_rows(layouts) == 17 and grid_rows(full_grid(shell, sub, 8.0)[1]) == 34
        monkeypatch.setattr(products, "_GRID_BLOCK", 8 * np.broadcast_shapes(*(lay.shape for lay in layouts))[-1])
        blocks = evaluated_grid(S3_FIFTH, shell, points, layouts)
        f, weight = blocks[-1][0], cell * sub.density
        overflowed = {
            p: [math.isinf(_power_sum(np.abs(f[key]), p, weight)) for _, key in blocks] for p in (44.0, 64.0)
        }
        assert 0 < sum(overflowed[44.0]) < len(blocks) and all(overflowed[64.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = restriction_lp_norm(S3_FIFTH, shell, sub, [2.0, 44.0, 64.0])
        assert all(math.isfinite(norm) for norm in norms)
        assert norms[1:] == [_grid_lp(f, 44.0, weight), _grid_lp(f, 64.0, weight)]
        full = full_grid_norms(S3_FIFTH, shell, sub, [2.0, 44.0, 64.0], 8.0)
        assert norms == pytest.approx(full, rel=1e-13, abs=0)

    def test_under_resolution_rejected(self):
        shell = enumerate_shell(S3_FIFTH, 40)
        sub = FlatSubmanifold.of([[1.0]] * 5, [0.0] * 5)
        with pytest.raises(ResolutionError):
            restriction_lp_norm(S3_FIFTH, shell, sub, 2.0, points_per_wavelength=1.0)

    def test_oversized_non_integer_grid_rejected_before_allocation(self):
        # the direct grid would hold 1200 x 1800 points, over ten times the
        # lattice threshold, and the non-integer matrix rules the lattice out:
        # the rejection comes before any of the grid is built
        shell = enumerate_shell(S3_FIFTH, 40)
        sub = FlatSubmanifold.of([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        tracemalloc.start()
        try:
            with pytest.raises(ResolutionError, match="too large and the matrix is not integer"):
                restriction_lp_norm(S3_FIFTH, shell, sub, 2.0, points_per_wavelength=600.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rejects_small_p(self):
        shell = enumerate_shell(S3_FIFTH, 40)
        sub = FlatSubmanifold.of([[1.0]] * 5, [0.0] * 5)
        with pytest.raises(ValueError):
            restriction_lp_norm(S3_FIFTH, shell, sub, 1.0)

    @pytest.mark.parametrize("p", [math.nan, [2.0, math.nan], -math.inf])
    def test_rejects_a_nan_p(self, p):
        # S^3 x 5 at level 495 on the sharpness_s3_fifth workload's box flat
        shell = enumerate_shell(S3_FIFTH, 495)
        sub = FlatSubmanifold.of([[1, 0], [1, 1], [0, 1], [0, 0], [0, 0]], None, [(-0.25, 0.25)] * 2)
        with pytest.raises(ValueError, match="p must be >= 2 or inf"):
            restriction_lp_norm(S3_FIFTH, shell, sub, p)

    @pytest.mark.parametrize("ppw", [math.nan, math.inf])
    def test_rejects_a_non_finite_resolution(self, ppw):
        shell = enumerate_shell(S3_FIFTH, 495)
        sub = FlatSubmanifold.of([[1, 0], [1, 1], [0, 1], [0, 0], [0, 0]], None, [(-0.25, 0.25)] * 2)
        with pytest.raises(ValueError, match="points per wavelength must be finite"):
            restriction_lp_norm(S3_FIFTH, shell, sub, 2.0, ppw)


class TestPointwiseLower:
    def test_origin_ratio_is_one(self):
        shell = enumerate_shell(S3_FIFTH, 40)
        assert pointwise_lower_check(S3_FIFTH, shell, 1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_singleton_epsilon_limit(self):
        shell = enumerate_shell(S3_FIFTH, 15)
        values = [pointwise_lower_check(S3_FIFTH, shell, e) for e in (0.2, 0.05, 0.01)]
        assert values[0] <= values[1] <= values[2] <= 1.0

    def test_level_40_above_half(self):
        shell = enumerate_shell(S3_FIFTH, 40)
        assert pointwise_lower_check(S3_FIFTH, shell, 0.05) >= 0.5


def dense_extremizer(manifold, shell, thetas):
    """f at every point of a grid; thetas[i] holds factor i's angle at each
    point.  Every factor is evaluated afresh for every member."""
    amps = products._member_amplitudes(manifold, shell)
    f = np.zeros(np.shape(thetas[0]))
    for member, amp in zip(shell.members, amps):
        term = amp
        for space, n, theta in zip(manifold.factors, member, thetas):
            term = term * spherical_eval(space, n, np.asarray(theta))
        f += term
    return f


def dense_norm(manifold, shell, sub, p, axes_nodes, cell):
    grids = np.meshgrid(*axes_nodes, indexing="ij")
    u = np.stack([g.ravel() for g in grids])
    thetas = sub.matrix_array @ u + np.array(sub.offset)[:, None]
    f = dense_extremizer(manifold, shell, list(thetas))
    if p == math.inf:
        return float(np.max(np.abs(f)))
    return float((np.sum(np.abs(f) ** p) * cell * sub.density) ** (1.0 / p))


def full_grid(shell, sub, points_per_wavelength):
    """The restriction grid without the mirror: a copy of the builder as it
    was before a mirror-symmetric flat took half of its grid.  Returns the
    same (points, layouts, cell) as products._restriction_grid."""
    a = sub.matrix_array
    freqs = np.abs(a).T @ np.max(np.array(shell.members), axis=0)
    box = sub.box or ((0.0, 2.0 * math.pi),) * sub.k
    lengths = [hi - lo for lo, hi in box]
    sizes = [
        max(8, int(math.ceil(points_per_wavelength * f * length / (2.0 * math.pi))))
        for f, length in zip(freqs, lengths)
    ]
    total = int(np.prod(sizes))
    if not np.all(a == np.round(a)) or (sub.box is not None and total <= products._LATTICE_THRESHOLD):
        axes = [lo + (np.arange(m) + 0.5) * (length / m) for (lo, _), length, m in zip(box, lengths, sizes)]
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        thetas = [
            np.asarray(b + sum(row[j] * grids[j] for j in np.flatnonzero(row))) for row, b in zip(a, sub.offset)
        ]
        cell = float(np.prod([length / m for length, m in zip(lengths, sizes)]))
        return [th.ravel() for th in thetas], [products._Layout.reshape(th.shape) for th in thetas], cell
    if sub.box is None:
        sizes = [max(8, int(np.ceil(points_per_wavelength * float(np.max(freqs)))))] * sub.k
        h = 2.0 * math.pi / sizes[0]
    else:
        h = min(2.0 * math.pi / (points_per_wavelength * max(float(f), 1.0)) for f in freqs)
        sizes = [max(8, int(math.ceil(length / h))) for length in lengths]
    points, layouts = [], []
    for row, b in zip(a.astype(int).tolist(), sub.offset):
        shape = tuple(m if r else 1 for r, m in zip(row, sizes))
        base = b + (h / 2.0) * float(np.sum(row)) + float(np.dot(row, [lo for lo, _ in box]))
        t_lo = sum(r * (m - 1) for r, m in zip(row, sizes) if r < 0)
        t_hi = sum(r * (m - 1) for r, m in zip(row, sizes) if r > 0)
        points.append(base + h * np.arange(t_lo, t_hi + 1))
        layouts.append(products._Layout(shape, tuple(row), -t_lo))
    return points, layouts, h ** sub.k


def full_grid_norms(manifold, shell, sub, p_values, points_per_wavelength):
    """Each p's restriction norm on full_grid: the block power sums at one
    scalar weight, and the whole grid's rule past float64, as they were
    taken before the mirror."""
    points, layouts, cell = full_grid(shell, sub, points_per_wavelength)
    weight = cell * sub.density
    [tables] = products._shell_tables(manifold, shell, [points])
    amps = products._member_amplitudes(manifold, shell)
    sums = [0.0] * len(p_values)
    for f, key in products._extremizer_grid(manifold, shell, amps, tables, layouts):
        a = np.abs(f[key])
        sums = [
            max(s, _power_sum(a, q, weight)) if q == math.inf else s + _power_sum(a, q, weight)
            for s, q in zip(sums, p_values)
        ]
    norms = [s if q == math.inf else s ** (1.0 / q) for s, q in zip(sums, p_values)]
    return [norm if math.isfinite(norm) else _grid_lp(f, q, weight) for norm, q in zip(norms, p_values)]


def grid_rows(layouts) -> int:
    # the number of rows of the first parameter axis on a grid
    return np.broadcast_shapes(*(layout.shape for layout in layouts))[0]


def lattice_step(shell, sub):
    # the lattice rule's step on a box at 8 points per wavelength
    freqs = np.abs(sub.matrix_array).T @ np.max(np.array(shell.members), axis=0)
    return min(2 * math.pi / (8.0 * max(f, 1.0)) for f in freqs)


def symmetric_lattice_box(shell, sub, rows):
    """sub on the box whose lattice nodes lie symmetric about 0, with
    rows[j] cells on axis j: each half-width h m_j / 2."""
    h = lattice_step(shell, sub)
    return FlatSubmanifold.of(sub.matrix, sub.offset, [(-h * m / 2, h * m / 2) for m in rows])


class TestExtremizerOracle:
    """Every evaluation of the extremizer against a dense point-by-point oracle."""

    SHELL = enumerate_shell(MIXED_RANK4, 38, ordering_constraint=False)

    @pytest.mark.parametrize("p", [2.0, 6.0, math.inf])
    def test_general_path_on_a_box(self, p):
        # rows using two axes (one non-integer entry), one axis, and none
        sub = FlatSubmanifold.of(
            [[1.0, 0.5], [0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]],
            [0.1, -0.2, 0.3, 0.05],
            box=[(-0.3, 0.4), (0.1, 0.9)],
        )
        ppw = 8.0
        freqs = np.abs(sub.matrix_array).T @ np.max(np.array(self.SHELL.members), axis=0)
        sizes = [max(8, math.ceil(ppw * f * (hi - lo) / (2 * math.pi))) for f, (lo, hi) in zip(freqs, sub.box)]
        axes = [lo + (np.arange(m) + 0.5) * ((hi - lo) / m) for m, (lo, hi) in zip(sizes, sub.box)]
        cell = float(np.prod([(hi - lo) / m for m, (lo, hi) in zip(sizes, sub.box)]))
        mine = restriction_lp_norm(MIXED_RANK4, self.SHELL, sub, p, ppw)
        assert mine == pytest.approx(dense_norm(MIXED_RANK4, self.SHELL, sub, p, axes, cell), rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 6.0, math.inf])
    @pytest.mark.parametrize("box", [None, [(-0.25, 0.25), (0.0, 0.6)]])
    def test_lattice_path(self, monkeypatch, p, box):
        monkeypatch.setattr(products, "_LATTICE_THRESHOLD", 0)
        sub = FlatSubmanifold.of([[1, 0], [2, -1], [0, 1], [0, 0]], [0.1, 0.0, -0.3, 0.2], box=box)
        ppw = 8.0
        n_max = np.max(np.array(self.SHELL.members), axis=0)
        freqs = np.abs(sub.matrix_array).T @ n_max
        if box is None:
            m = max(8, math.ceil(ppw * max(freqs)))
            h = 2 * math.pi / m
            axes = [(np.arange(m) + 0.5) * h] * 2
        else:
            h = min(2 * math.pi / (ppw * max(f, 1.0)) for f in freqs)
            axes = [lo + (np.arange(max(8, math.ceil((hi - lo) / h))) + 0.5) * h for lo, hi in box]
        mine = restriction_lp_norm(MIXED_RANK4, self.SHELL, sub, p, ppw)
        assert mine == pytest.approx(dense_norm(MIXED_RANK4, self.SHELL, sub, p, axes, h * h), rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 6.0, math.inf])
    def test_mirror_on_the_full_torus(self, p):
        # a zero offset and an integer matrix: the lattice rule on one half
        sub = FlatSubmanifold.of([[1, 0], [2, -1], [0, 1], [0, 0]])
        ppw = 8.0
        m = max(8, math.ceil(ppw * max(np.abs(sub.matrix_array).T @ np.max(np.array(self.SHELL.members), axis=0))))
        assert grid_rows(products._restriction_grid(self.SHELL, sub, ppw)[1]) == m // 2
        h = 2 * math.pi / m
        axes = [(np.arange(m) + 0.5) * h] * 2
        mine = restriction_lp_norm(MIXED_RANK4, self.SHELL, sub, p, ppw)
        assert mine == pytest.approx(dense_norm(MIXED_RANK4, self.SHELL, sub, p, axes, h * h), rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 6.0, math.inf])
    def test_mirror_on_a_box_with_a_middle_row(self, p):
        # lo = -hi on both axes, and 13 rows on the first: the middle row counts once
        sub = FlatSubmanifold.of([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]], None, [(-0.5, 0.5), (-0.9, 0.9)])
        ppw = 8.0
        freqs = np.abs(sub.matrix_array).T @ np.max(np.array(self.SHELL.members), axis=0)
        sizes = [max(8, math.ceil(ppw * f * (hi - lo) / (2 * math.pi))) for f, (lo, hi) in zip(freqs, sub.box)]
        assert sizes[0] == 13 and grid_rows(products._restriction_grid(self.SHELL, sub, ppw)[1]) == 7
        axes = [lo + (np.arange(m) + 0.5) * ((hi - lo) / m) for m, (lo, hi) in zip(sizes, sub.box)]
        cell = float(np.prod([(hi - lo) / m for m, (lo, hi) in zip(sizes, sub.box)]))
        mine = restriction_lp_norm(MIXED_RANK4, self.SHELL, sub, p, ppw)
        assert mine == pytest.approx(dense_norm(MIXED_RANK4, self.SHELL, sub, p, axes, cell), rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 6.0, math.inf])
    def test_mirror_on_a_lattice_box(self, monkeypatch, p):
        # a box of exactly 13 x 10 lattice cells about 0, each axis snapped onto itself
        monkeypatch.setattr(products, "_LATTICE_THRESHOLD", 0)
        sub = symmetric_lattice_box(self.SHELL, FlatSubmanifold.of([[1, 0], [2, -1], [0, 1], [0, 0]]), [13, 10])
        h = lattice_step(self.SHELL, sub)
        assert grid_rows(products._restriction_grid(self.SHELL, sub, 8.0)[1]) == 7
        axes = [-h * m / 2 + (np.arange(m) + 0.5) * h for m in (13, 10)]
        mine = restriction_lp_norm(MIXED_RANK4, self.SHELL, sub, p, 8.0)
        assert mine == pytest.approx(dense_norm(MIXED_RANK4, self.SHELL, sub, p, axes, h * h), rel=1e-12)

    def test_pointwise_lower_check(self):
        epsilon, samples = 0.4, 5
        n_big = self.SHELL.spectral_parameter
        axis = np.linspace(-epsilon / n_big, epsilon / n_big, samples)
        f = dense_extremizer(MIXED_RANK4, self.SHELL, np.meshgrid(*[axis] * 4, indexing="ij"))
        expected = np.min(np.abs(f)) / np.sum(products._member_amplitudes(MIXED_RANK4, self.SHELL))
        assert expected < 0.99
        mine = pointwise_lower_check(MIXED_RANK4, self.SHELL, epsilon)
        assert mine == pytest.approx(expected, rel=1e-12)

    def test_extremizer_eval(self):
        theta = [0.3, -1.1, 2.0, 0.7]
        expected = float(dense_extremizer(MIXED_RANK4, self.SHELL, theta))
        assert extremizer_eval(MIXED_RANK4, self.SHELL, theta) == pytest.approx(expected, rel=1e-12)


def evaluated_grid(manifold, shell, points, layouts):
    """The evaluator's (f, key) pairs on a grid, from the tables that
    restriction_lp_norm builds for the same points; f[key] is a block."""
    [tables] = products._shell_tables(manifold, shell, [points])
    amps = products._member_amplitudes(manifold, shell)
    return list(products._extremizer_grid(manifold, shell, amps, tables, layouts))


def gathered_terms(manifold, shell, points, index):
    """Each member's term amp * prod_i Phi_{i,n_i} on a grid, from each
    factor's table on points[i] gathered through the integer arrays
    index[i]: an array whose leading axis runs over the shell's members."""
    amps = products._member_amplitudes(manifold, shell)
    values = [
        spherical_table(space, {m[i] for m in shell.members}, angles)
        for i, (space, angles) in enumerate(zip(manifold.factors, points))
    ]
    terms = np.empty((len(shell), *np.broadcast_shapes(*(np.shape(ix) for ix in index))))
    for term, member, amp in zip(terms, shell.members, amps):
        term[...] = amp
        for table, n, ix in zip(values, member, index):
            term *= table[n][ix]
    return terms


def gathered_extremizer(manifold, shell, points, index):
    """f on a grid from the gathered member terms of gathered_terms: their
    correctly rounded sum (math.fsum) at every point, and the bound
    (M + 1) eps sum_m |term_m| on a sum of M terms within which the
    evaluator, which sums them in another order, must agree with it."""
    terms = gathered_terms(manifold, shell, points, index)
    exact = [math.fsum(point) for point in terms.reshape(len(terms), -1).T.tolist()]
    bound = (len(terms) + 1) * np.finfo(float).eps * np.sum(np.abs(terms), axis=0)
    return np.reshape(exact, bound.shape), bound


def assert_near_the_gather(f, manifold, shell, points, index):
    exact, bound = gathered_extremizer(manifold, shell, points, index)
    assert f.shape == exact.shape and np.all(np.abs(f - exact) <= bound)


def assert_views_read_the_gather(manifold, shell, points, layouts, index):
    """Each factor's rows, stacked by member, read through its layout's
    view with a member axis: the same entries as the integer gather, to
    the bit."""
    [tables] = products._shell_tables(manifold, shell, [points])
    for table, layout, ix, column in zip(tables, layouts, index, products._degree_columns(manifold, shell)):
        stacked = np.array([table[n] for n in column.tolist()])
        view = layout.view(stacked)
        assert view.shape == (len(shell), *layout.shape)
        assert np.array_equal(np.broadcast_to(view, (len(shell), *np.shape(ix))), stacked[:, ix])


def lattice_index(sub, layouts):
    """Each factor's table index row . u - t_lo at every point u of the
    lattice rule's grid, as a full integer array."""
    sizes = np.broadcast_shapes(*(layout.shape for layout in layouts))
    u = np.meshgrid(*[np.arange(m) for m in sizes], indexing="ij")
    index = []
    for row in sub.matrix_array.astype(int):
        t = sum(r * axis for r, axis in zip(row, u))
        index.append(t - t.min())
    return index


def integer_arrays(value) -> int:
    """The number of integer numpy arrays anywhere inside value."""
    if isinstance(value, np.ndarray):
        return int(value.dtype.kind in "iu")
    if isinstance(value, (list, tuple)):
        return sum(integer_arrays(v) for v in value)
    if hasattr(value, "__match_args__"):
        return sum(integer_arrays(getattr(value, name)) for name in value.__match_args__)
    return 0


class TestGridViews:
    """The strided views of the evaluator against a plain gather: the views
    to the bit, and f within the summation bound of the exact sum of the
    member terms."""

    SHELL = enumerate_shell(MIXED_RANK4, 38, ordering_constraint=False)

    @pytest.mark.parametrize(
        "matrix, box",
        [
            # sum |row_j| up to 3 with negative entries, and an all-zero row
            ([[2, -1], [1, 0], [0, 1], [0, 0]], None),
            # all-negative rows: the view starts at the end of the row
            ([[-1, 0], [0, -2], [-1, -1], [1, 1]], None),
            # even entries skip every other angle of the table
            ([[2, 0], [0, 2], [1, 1], [0, 0]], None),
            ([[1, 0, 0], [1, -1, 0], [0, 2, -1], [0, 0, 1]], None),
            ([[2, -1], [1, 0], [0, 1], [0, 0]], [(-0.25, 0.25), (0.0, 0.6)]),
            ([[-2, 0], [1, -1], [0, 1], [0, -1]], [(-0.3, 0.1), (0.2, 0.6)]),
            # k = 1: every factor varies along the first axis only, so the
            # weight matrix carries them all
            ([[1], [2], [0], [-1]], None),
        ],
    )
    def test_lattice_rule(self, monkeypatch, matrix, box):
        monkeypatch.setattr(products, "_LATTICE_THRESHOLD", 0)
        sub = FlatSubmanifold.of(matrix, [0.1, 0.0, -0.3, 0.2], box)
        points, layouts, _ = products._restriction_grid(self.SHELL, sub, 4.0)
        assert integer_arrays((points, layouts)) == 0
        index = lattice_index(sub, layouts)
        assert_views_read_the_gather(MIXED_RANK4, self.SHELL, points, layouts, index)
        *_, (f, _) = evaluated_grid(MIXED_RANK4, self.SHELL, points, layouts)
        assert_near_the_gather(f, MIXED_RANK4, self.SHELL, points, index)

    @pytest.mark.parametrize(
        "matrix", [[[2, -1], [1, 0], [0, 1], [0, 0]], [[1, 0, 0], [1, -1, 0], [0, 2, -1], [0, 0, 1]]]
    )
    def test_blocks_match_the_gather(self, monkeypatch, matrix):
        # blocks of seven lines of the last axis: several per grid, the last
        # one short, and on the k = 3 grid several per row of the first axis;
        # the scratch of one block then holds fewer members than the shell,
        # so every block is cut across members too, its last cut short
        sub = FlatSubmanifold.of(matrix, [0.1, 0.0, -0.3, 0.2])
        points, layouts, _ = products._restriction_grid(self.SHELL, sub, 4.0)
        shape = np.broadcast_shapes(*(layout.shape for layout in layouts))
        monkeypatch.setattr(products, "_GRID_BLOCK", 8 * 7 * shape[-1])
        keys = list(products._grid_blocks(shape))
        sizes = [np.empty(shape)[key].size for key in keys]
        assert len(sizes) > math.prod(shape[:-2]) and min(sizes) < max(sizes) and sum(sizes) == math.prod(shape)
        assert len(self.SHELL) % 7 and len(self.SHELL) > 7
        blocks = evaluated_grid(MIXED_RANK4, self.SHELL, points, layouts)
        assert [key for _, key in blocks] == keys
        assert_near_the_gather(blocks[-1][0], MIXED_RANK4, self.SHELL, points, lattice_index(sub, layouts))

    # the grid is 60 x 60: one block, and blocks of seven rows with a short last one
    @pytest.mark.parametrize("block", [products._GRID_BLOCK, 8 * 7 * 60])
    def test_block_power_sums_match_the_whole_grid_rule(self, monkeypatch, block):
        monkeypatch.setattr(products, "_GRID_BLOCK", block)
        sub = FlatSubmanifold.of([[2, -1], [1, 0], [0, 1], [0, 0]], [0.1, 0.0, -0.3, 0.2])
        points, layouts, cell = products._restriction_grid(self.SHELL, sub, 4.0)
        *_, (f, _) = evaluated_grid(MIXED_RANK4, self.SHELL, points, layouts)
        ps = [2.0, 3.0, 6.5, 12.0, math.inf]
        norms = restriction_lp_norm(MIXED_RANK4, self.SHELL, sub, ps, 4.0)
        for p, norm in zip(ps, norms):
            assert norm == pytest.approx(_grid_lp(f, p, cell * sub.density), rel=1e-15, abs=0)

    def test_direct_rule(self):
        sub = FlatSubmanifold.of(
            [[1.0, 0.5], [0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]], [0.1, -0.2, 0.3, 0.05], [(-0.3, 0.4), (0.1, 0.9)]
        )
        points, layouts, _ = products._restriction_grid(self.SHELL, sub, 8.0)
        assert integer_arrays((points, layouts)) == 0
        index = [np.arange(len(angles)).reshape(layout.shape) for angles, layout in zip(points, layouts)]
        assert_views_read_the_gather(MIXED_RANK4, self.SHELL, points, layouts, index)
        *_, (f, _) = evaluated_grid(MIXED_RANK4, self.SHELL, points, layouts)
        assert_near_the_gather(f, MIXED_RANK4, self.SHELL, points, index)

    @pytest.mark.parametrize(
        "limit, groups", [(products._STACKED_ROWS, 1), (2**20, 4)], ids=["one-group", "four-groups"]
    )
    def test_one_call_allocates_f_the_stacked_rows_and_four_blocks(self, monkeypatch, limit, groups):
        # the k = 3 full-torus flat of probe-sharpness-k3 on a 1446-member
        # shell, mirrored to 32 x 64 x 64 points at 2 points per wavelength:
        # the product of a block's other factors takes 16 members at a time.
        # Beyond f and each factor's rows stacked by member (at most
        # _STACKED_ROWS bytes of them at once; the weight matrix takes the
        # place of the first factor's), one call holds the scratch, a copy
        # of the weight matrix while a factor is folded in, and a partial sum
        monkeypatch.setattr(products, "_STACKED_ROWS", limit)
        shell = enumerate_shell(S3_FIFTH, 315, ordering_constraint=False)
        sub = FlatSubmanifold.of([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1], [0, 0, 0]])
        points, layouts, _ = products._restriction_grid(shell, sub, 2.0)
        [tables] = products._shell_tables(S3_FIFTH, shell, [points])
        amps = products._member_amplitudes(S3_FIFTH, shell)
        stacked = sum(8 * len(shell) * len(angles) for angles in points)
        tracemalloc.start()
        try:
            for f, _ in products._extremizer_grid(S3_FIFTH, shell, amps, tables, layouts):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(shell) > 1000 and f.shape == (32, 64, 64) and math.ceil(stacked / limit) == groups
        assert peak <= f.nbytes + min(stacked, limit) + 4 * products._GRID_BLOCK

    def test_groups_of_members_match_the_gather(self, monkeypatch):
        # stacked rows of 7 members at a time: five groups, the last short,
        # each added into every block in its own pass; the blocks are still
        # yielded once each, in order
        sub = FlatSubmanifold.of([[2, -1], [1, 0], [0, 1], [0, 0]], [0.1, 0.0, -0.3, 0.2])
        points, layouts, _ = products._restriction_grid(self.SHELL, sub, 4.0)
        shape = np.broadcast_shapes(*(layout.shape for layout in layouts))
        monkeypatch.setattr(products, "_STACKED_ROWS", 7 * 8 * sum(len(angles) for angles in points))
        monkeypatch.setattr(products, "_GRID_BLOCK", 8 * 7 * shape[-1])
        assert len(self.SHELL) % 7 and len(self.SHELL) > 28
        blocks = evaluated_grid(MIXED_RANK4, self.SHELL, points, layouts)
        assert [key for _, key in blocks] == list(products._grid_blocks(shape))
        assert_near_the_gather(blocks[-1][0], MIXED_RANK4, self.SHELL, points, lattice_index(sub, layouts))

    def test_no_caller_passes_integer_arrays(self, monkeypatch):
        # all three callers take their tables from one helper; the polydisc
        # check reads its tables without the grid evaluator
        seen, evaluated = [], []
        tabulate, evaluate = products._shell_tables, products._extremizer_grid
        monkeypatch.setattr(products, "_shell_tables", lambda *args: seen.append(args[2]) or tabulate(*args))
        monkeypatch.setattr(
            products, "_extremizer_grid", lambda *args: evaluated.append(args[4]) or evaluate(*args)
        )
        restriction_lp_norm(MIXED_RANK4, self.SHELL, FlatSubmanifold.of([[1], [1], [0], [2]]), 2.0)
        pointwise_lower_check(MIXED_RANK4, self.SHELL, 0.1)
        extremizer_eval(MIXED_RANK4, self.SHELL, [0.3, -1.1, 2.0, 0.7])
        assert len(seen) == 3 and integer_arrays(seen) == 0
        assert len(evaluated) == 2 and integer_arrays(evaluated) == 0

    def test_factors_with_equal_angles_share_one_table(self, monkeypatch):
        # the polydisc samples every factor on one axis: one table per space
        calls = []
        table = products.spherical_table
        monkeypatch.setattr(products, "spherical_table", lambda *args: calls.append(args[0]) or table(*args))
        shell = enumerate_shell(S3_FIFTH, 495)
        pointwise_lower_check(S3_FIFTH, shell, 0.05)
        assert calls == [sphere(3)]
        pointwise_lower_check(MIXED_RANK4, self.SHELL, 0.05)
        assert calls[1:] == [sphere(2), sphere(3), complex_projective(4)]


K2 = [[1, 0], [1, -1], [0, 1], [0, 0], [0, 0]]
K3 = [[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1], [0, 0, 0]]
MIXED_K2 = [[1, 0], [1, 1], [0, 1], [0, 0]]


class TestMirror:
    """The half grid of a mirror-symmetric flat against the full grid of
    full_grid_norms: within 1e-13 where the flat mirrors, to the bit where
    it does not."""

    P_VALUES = [2.0, 6.0, 12.0, math.inf, 44.0, 64.0]

    @staticmethod
    def shell(manifold, level):
        return enumerate_shell(manifold, level, ordering_constraint=False)

    @pytest.mark.parametrize(
        "manifold, level, matrix, box, ppw, rows",
        [
            (S3_FIFTH, 495, [[1]] * 5, [(-0.25, 0.25)], 8.0, 67),
            (S3_FIFTH, 495, [[1]] * 5, [(-0.25, 0.25)], 5.0, 42),
            (MIXED_RANK4, 300, [[1], [1], [0], [2]], None, 8.0, 496),
            (MIXED_RANK4, 300, [[1], [1], [0], [2]], None, 4.5, 279),
            (S3_FIFTH, 495, K2, [(-0.25, 0.25)] * 2, 8.0, 27),
            (S3_FIFTH, 495, K2, [(-0.25, 0.25)] * 2, 4.0, 14),
            (S3_FIFTH, 1998, K2, [(-0.25, 0.25)] * 2, 8.0, 55),
            (MIXED_RANK4, 38, MIXED_K2, None, 8.0, 80),
            (MIXED_RANK4, 38, MIXED_K2, None, 8.5, 85),
            (S3_FIFTH, 315, K3, [(-0.25, 0.25)] * 3, 8.0, 21),
            (S3_FIFTH, 315, K3, [(-0.25, 0.25)] * 3, 3.0, 8),
            (S3_FIFTH, 40, K3, None, 4.0, 32),
            (S3_FIFTH, 40, K3, None, 4.6, 37),
        ],
        ids=[
            "k1-box-odd", "k1-box-even", "k1-torus-even", "k1-torus-odd", "k2-box-odd", "k2-box-even",
            "k2-box-odd-overflow", "k2-torus-even", "k2-torus-odd", "k3-box-odd", "k3-box-even", "k3-torus-even",
            "k3-torus-odd",
        ],
    )
    def test_a_mirror_takes_half_the_rows(self, manifold, level, matrix, box, ppw, rows):
        shell = self.shell(manifold, level)
        sub = FlatSubmanifold.of(matrix, None, box)
        self.check_mirror(manifold, shell, sub, ppw, rows)

    @pytest.mark.parametrize("rows", [13, 12])
    def test_a_lattice_box_about_zero_mirrors(self, monkeypatch, rows):
        monkeypatch.setattr(products, "_LATTICE_THRESHOLD", 0)
        shell = self.shell(MIXED_RANK4, 38)
        sub = symmetric_lattice_box(shell, FlatSubmanifold.of([[1, 0], [2, -1], [0, 1], [0, 0]]), [rows, 10])
        self.check_mirror(MIXED_RANK4, shell, sub, 8.0, rows)

    def check_mirror(self, manifold, shell, sub, ppw, rows):
        # the angles of the first ceil(m_0 / 2) rows of the full grid, to the
        # bit, and f on them and the norms within 1e-13: the evaluator may
        # multiply the factors in another order on the half
        points, layouts, _ = products._restriction_grid(shell, sub, ppw)
        full_points, full_layouts, _ = full_grid(shell, sub, ppw)
        shape = np.broadcast_shapes(*(layout.shape for layout in layouts))
        full_shape = np.broadcast_shapes(*(layout.shape for layout in full_layouts))
        assert full_shape[0] == rows and shape == ((rows + 1) // 2, *full_shape[1:])
        for angles, layout, full_angles, full_layout in zip(points, layouts, full_points, full_layouts):
            half = np.broadcast_to(layout.view(angles), shape)
            assert np.array_equal(half, np.broadcast_to(full_layout.view(full_angles), full_shape)[: shape[0]])
        *_, (f, _) = evaluated_grid(manifold, shell, points, layouts)
        *_, (full, _) = evaluated_grid(manifold, shell, full_points, full_layouts)
        assert np.all(np.abs(f - full[: shape[0]]) <= 1e-13 * np.max(np.abs(full)))
        norms = restriction_lp_norm(manifold, shell, sub, self.P_VALUES, ppw)
        expected = full_grid_norms(manifold, shell, sub, self.P_VALUES, ppw)
        assert norms == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "manifold, level, matrix, offset, box",
        [
            (S3_FIFTH, 495, K2, [0.1, 0.0, 0.0, 0.0, 0.0], [(-0.25, 0.25)] * 2),
            (MIXED_RANK4, 38, MIXED_K2, [0.1, 0.0, -0.3, 0.2], None),
            (S3_FIFTH, 495, K2, None, [(-0.25, 0.3), (-0.25, 0.25)]),
            (S3_FIFTH, 495, K2, None, [(-0.25, 0.25), (-0.2, 0.25)]),
            (MIXED_RANK4, 38, [[1, 0], [1, 1], [0, 0.5], [0, 0]], None, None),
            (S3_FIFTH, 40, K3, [0.0, 0.0, 0.0, 0.0, 0.3], None),
        ],
        ids=["offset-box", "offset-torus", "first-axis-off-centre", "last-axis-off-centre", "non-integer-torus",
             "offset-on-a-zero-row"],
    )
    def test_an_asymmetric_flat_keeps_its_bits(self, manifold, level, matrix, offset, box):
        shell = self.shell(manifold, level)
        sub = FlatSubmanifold.of(matrix, offset, box)
        self.check_unchanged(manifold, shell, sub)

    def test_a_lattice_box_off_zero_keeps_its_bits(self, monkeypatch):
        # (-0.25, 0.25) is not a whole number of lattice cells: the snapped box is not centred
        monkeypatch.setattr(products, "_LATTICE_THRESHOLD", 0)
        shell = self.shell(MIXED_RANK4, 38)
        self.check_unchanged(MIXED_RANK4, shell, FlatSubmanifold.of(MIXED_K2, None, [(-0.25, 0.25)] * 2))

    def check_unchanged(self, manifold, shell, sub):
        points, layouts, cell = products._restriction_grid(shell, sub, 8.0)
        full_points, full_layouts, full_cell = full_grid(shell, sub, 8.0)
        assert layouts == full_layouts and cell == full_cell
        assert all(a.tobytes() == b.tobytes() for a, b in zip(points, full_points))
        norms = restriction_lp_norm(manifold, shell, sub, self.P_VALUES)
        assert norms == full_grid_norms(manifold, shell, sub, self.P_VALUES, 8.0)


class TestShellPass:
    """The one pass per shell of a sharpness sweep against the public calls."""

    BOX = FlatSubmanifold.of([[1, 0], [1, -1], [0, 1], [0, 0], [0, 0]], [0.0] * 5, box=[(-0.25, 0.25)] * 2)
    TORUS = FlatSubmanifold.of([[1, 0], [1, 1], [0, 1], [0, 0]], [0.0] * 4)

    @pytest.mark.parametrize("manifold", [S3_FIFTH, MIXED_RANK4], ids=["S3_FIFTH", "MIXED_RANK4"])
    def test_amplitudes_are_the_per_member_products(self, manifold):
        shell = enumerate_shell(manifold, 495 if manifold is S3_FIFTH else 300, ordering_constraint=False)
        expected = [np.prod([math.sqrt(weyl_dimension(sp, n)) for sp, n in zip(manifold.factors, member)])
                    for member in shell.members]
        amps = products._member_amplitudes(manifold, shell)
        assert len(shell) > 20 and amps.tobytes() == np.array(expected).tobytes()

    @staticmethod
    def polydisc(manifold, shell, epsilon):
        # the polydisc samples, their tables, and f from the matrix product
        points = products._polydisc_points(manifold, shell, epsilon)
        [tables] = products._shell_tables(manifold, shell, [points])
        f = products._polydisc_grid(manifold, shell, products._member_amplitudes(manifold, shell), tables)
        return points, tables, f

    @pytest.mark.parametrize(
        "manifold, level, constrained, chunk",
        [
            (S3_FIFTH, 9900, True, None),
            (S3_FIFTH, 315, False, None),
            (MIXED_RANK4, 300, False, None),
            (S3_FIFTH, 315, False, 100),
            (MIXED_RANK4, 300, False, 7),
        ],
        ids=["S3_FIFTH", "S3_FIFTH-1446", "MIXED_RANK4-145", "S3_FIFTH-chunks-of-100", "MIXED_RANK4-chunks-of-7"],
    )
    def test_polydisc_product_matches_the_evaluator(self, monkeypatch, manifold, level, constrained, chunk):
        # the matrix product against the grid evaluator at every polydisc
        # point, and against extremizer_eval at some of them, in one chunk
        # of members and in several, the last one short
        r = manifold.rank
        half = (r + 1) // 2
        if chunk is not None:
            monkeypatch.setattr(products, "_POLYDISC_CHUNK", 8 * chunk * (5**half + 5 ** (r - half)))
        shell = enumerate_shell(manifold, level, ordering_constraint=constrained)
        assert chunk is None or len(shell) % chunk
        points, _, f = self.polydisc(manifold, shell, 0.4)
        layouts = [products._Layout.reshape(tuple(5 if j == i else 1 for j in range(r))) for i in range(r)]
        *_, (expected, _) = evaluated_grid(manifold, shell, points, layouts)
        assert f.shape == expected.shape == (5,) * r
        assert np.all(np.abs(f - expected) <= 1e-14 * np.abs(expected))
        for index in np.random.default_rng(1).integers(0, 5, (6, r)):
            value = extremizer_eval(manifold, shell, [points[0][t] for t in index])
            assert f[tuple(index)] == pytest.approx(value, rel=1e-14)
        assert np.min(np.abs(expected)) / np.sum(products._member_amplitudes(manifold, shell)) < 0.99

    def test_polydisc_product_in_two_chunks_is_near_the_exact_sum(self):
        # the 2416 members of this shell take two chunks at the default
        # size; the product stays within 2e-15 of the correctly rounded sum
        # of the member terms, and so does the grid evaluator's contraction
        # over the members (3e-16 at worst here; the per-member running sum
        # that it replaced drifted by about 1.4e-14)
        shell = enumerate_shell(S3_FIFTH, 495, ordering_constraint=False)
        per_chunk = products._POLYDISC_CHUNK // (8 * (125 + 25))
        assert per_chunk < len(shell) <= 2 * per_chunk
        points, tables, f = self.polydisc(S3_FIFTH, shell, 0.4)
        amps = products._member_amplitudes(S3_FIFTH, shell)
        layouts = [products._Layout.reshape(tuple(5 if j == i else 1 for j in range(5))) for i in range(5)]
        *_, (evaluated, _) = evaluated_grid(S3_FIFTH, shell, points, layouts)
        for index in np.random.default_rng(2).integers(0, 5, (12, 5)):
            terms = [amp * math.prod(table[n][t] for table, n, t in zip(tables, member, index))
                     for amp, member in zip(amps, shell.members)]
            exact = math.fsum(terms)
            assert abs(f[tuple(index)] - exact) <= 2e-15 * abs(exact)
            assert abs(evaluated[tuple(index)] - exact) <= 2e-15 * abs(exact)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "manifold, sub, levels",
        [
            (S3_FIFTH, BOX, [315, 495, 840, 1275]),
            (MIXED_RANK4, TORUS, [720, 915, 1019]),
            (MIXED_RANK4, FlatSubmanifold.of([[] for _ in range(4)], [0.1, 0.0, -0.2, 0.3]), [720, 915, 1019]),
        ],
        ids=["box", "torus", "point"],
    )
    def test_sweep_equals_the_public_calls(self, monkeypatch, manifold, sub, levels, threads):
        # ratios equal restriction_lp_norm per shell and the minimum that of
        # pointwise_lower_check, to the bit; one table per space per shell
        spaces = []
        table = products.spherical_table
        monkeypatch.setattr(products, "spherical_table", lambda *args: spaces.append(args[0]) or table(*args))
        ps = [2.0, 6.0]
        sweeps, minimum = sharpness_report(manifold, sub, ps, levels, epsilon=0.3, threads=threads)
        per_shell = list(dict.fromkeys(manifold.factors)) * len(levels)
        assert Counter(spaces) == Counter(per_shell) and (threads > 1 or spaces == per_shell)
        shells = [enumerate_shell(manifold, level) for level in levels]
        for j, p in enumerate(ps):
            rows, _ = sweeps[j]
            assert [row.ratio for row in rows] == [
                restriction_lp_norm(manifold, shell, sub, p) / math.sqrt(len(shell)) for shell in shells
            ]
        assert minimum == min(pointwise_lower_check(manifold, shell, 0.3) for shell in shells)

    def test_polydisc_errors_come_after_the_fits(self, monkeypatch):
        # an oversized polydisc is reported only once the sweep has measured
        # and fitted every shell; an empty sweep is reported before it
        monkeypatch.setattr(products, "_POLYDISC_SAMPLES", 10**4)
        fits = []
        fit = products.fit_exponent
        monkeypatch.setattr(products, "fit_exponent", lambda points: fits.append(points) or fit(points))
        with pytest.raises(ValueError, match="polydisc grid"):
            sharpness_report(S3_FIFTH, self.BOX, [2.0, 6.0], [315, 495, 840])
        assert len(fits) == 2
        with pytest.raises(ValueError, match="no nonempty shells"):
            sharpness_report(S3_FIFTH, self.BOX, [2.0], [1, 2])


class TestExponentAlgebra:
    def test_tau_three_two(self):
        assert tau_exponent(3, 2) == Fraction(-1, 2)

    def test_tau_small_p_branch(self):
        assert tau_exponent(5, Fraction(1, 2)) == Fraction(-1, 1)
        assert tau_exponent(3, math.inf) == 0

    def test_no_loss_matches_product_exponent_for_s3_fifth(self):
        for k in range(0, 4):
            for p in (2, 4, Fraction(13, 2)):
                table = exponent_table([3] * 5, k, p)
                assert table.product_exponent == table.no_loss_exponent
                assert table.product_exponent == Fraction(13, 2) - Fraction(k, 1) / p

    def test_baseline_comparison_frozen(self):
        table = exponent_table([3] * 5, 1, 2)
        assert table.baseline_exponent == Fraction(13, 2)
        assert table.no_loss_exponent == Fraction(6)
        assert table.improvement == Fraction(1, 2)

    def test_baseline_branches(self):
        assert baseline_rho(1, 15, 2)[0] == Fraction(13, 2)
        assert baseline_rho(14, 15, 30)[0] == Fraction(7) - Fraction(14, 30)
        assert baseline_rho(14, 15, 2)[0] == Fraction(14, 4) - Fraction(13, 2) * Fraction(1, 2)
        rho, note = baseline_rho(13, 15, 2)
        assert rho is None and "log" in note

    def test_joint_exponent(self):
        table = exponent_table([3] * 5, 2, 2)
        assert table.joint_exponent == Fraction(15 - 5, 2) - 1

    def test_out_of_range_p(self):
        table = exponent_table([3, 3], 1, 1)
        assert table.product_exponent is None
        assert table.baseline_exponent is None

    @given(
        st.lists(st.integers(2, 9), min_size=2, max_size=6),
        st.sampled_from([Fraction(2), Fraction(3), Fraction(7, 2), Fraction(6)]),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sorted_dims_maximize_tau_sum(self, dims, p, data):
        k = data.draw(st.integers(0, len(dims)))
        taus_sorted = [tau_exponent(d, p) for d in sorted(dims)]
        perm = data.draw(st.permutations(dims))
        taus_perm = [tau_exponent(d, p) for d in perm]
        assert sum(taus_sorted[:k], Fraction(0)) >= sum(taus_perm[:k], Fraction(0))


class TestSweeps:
    def test_diagonal_levels(self):
        assert diagonal_levels(S3_FIFTH, [1, 2]) == [15, 40]

    def test_trend_levels_are_nonempty_and_sorted(self):
        levels = trend_levels(S3_FIFTH, 300, 1500, count=5)
        assert levels == sorted(levels)
        assert all(len(enumerate_shell(S3_FIFTH, lv)) > 0 for lv in levels)

    def test_sharpness_report_shapes(self):
        sub = FlatSubmanifold.of([[1.0]] * 5, [0.0] * 5, box=[(-0.25, 0.25)])
        [(rows, fit)], _ = sharpness_report(S3_FIFTH, sub, [2.0], [315, 495, 840, 1275])
        assert len(rows) == 4
        assert fit.sample_count == 4
        for row in rows:
            assert row.envelope == pytest.approx(row.spectral_parameter ** 6.0)
            assert row.ratio > 0

    def test_sharpness_report_rejects_empty(self):
        sub = FlatSubmanifold.of([[1.0]] * 5, [0.0] * 5)
        with pytest.raises(ValueError):
            sharpness_report(S3_FIFTH, sub, [2.0], [1, 2])
