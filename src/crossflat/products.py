"""Products of rank-one spaces: lattice shells, extremizers, and restriction norms.

A shell at spectral level L collects the degree tuples (n_1, ..., n_r) with
sum_i (n_i^2 + a_i n_i) = L, optionally restricted to the comparable range
n_1 >= ... >= n_r >= n_1/2.  The shell extremizer

    f(theta) = sum_shell prod_i sqrt(k_i(n_i)) Phi_{i,n_i}(theta_i)

has L^2 norm |shell|^(1/2) over the product, and its L^p norms along affine
submanifolds of the maximal flat T^r are computed by tensor-grid quadrature.
On a grid, the sum over the shell is one contraction over its members per
grid block, a CP reconstruction (see _extremizer_grid), as is the
pointwise check's sum on its polydisc (see _polydisc_grid).
Every Phi is a function of cos(theta), so f(-theta) = f(theta): on a flat
through the origin whose grid is symmetric under theta -> -theta, only
half of the grid is evaluated, each point counted for itself and its
mirror (see _restriction_grid).
Exponent bookkeeping (tau, the product/joint exponents, and the general
baseline rho) is done in exact rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .spaces import CrossSpace, spherical_table, weyl_dimension
from .special import ResolutionError, frozen
from .torus import ExponentFit, _grid_lp, _power_sum, fit_exponent

__all__ = [
    "ResolutionError",
    "ProductManifold",
    "LatticeShell",
    "LEVEL_BOUND",
    "enumerate_shell",
    "count_unconstrained",
    "count_constrained",
    "trend_levels",
    "extremizer_eval",
    "extremizer_l2_norm",
    "FlatSubmanifold",
    "restriction_lp_norm",
    "pointwise_lower_check",
    "tau_exponent",
    "baseline_rho",
    "ExponentTable",
    "exponent_table",
    "SharpnessRow",
    "sharpness_report",
    "diagonal_levels",
]


@frozen
class ProductManifold:
    """An ordered product of rank-one factors, sorted by ascending dimension."""

    factors: tuple[CrossSpace, ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise ValueError("a product needs at least two factors")
        dims = [f.dimension for f in self.factors]
        if dims != sorted(dims):
            raise ValueError("factors must be sorted by ascending dimension")

    @classmethod
    def of(cls, *factors: CrossSpace) -> "ProductManifold":
        return cls(tuple(sorted(factors, key=lambda f: f.dimension)))

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def dimension(self) -> int:
        return sum(f.dimension for f in self.factors)


@frozen
class LatticeShell:
    """Degree tuples at one spectral level, in ascending lexicographic order."""

    level: int
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be nonnegative")

    def __len__(self) -> int:
        return len(self.members)

    @property
    def spectral_parameter(self) -> float:
        return math.sqrt(self.level)


# Levels stay below this bound: the sweep holds levels and squared degrees in
# int64, which cannot overflow beneath it.
LEVEL_BOUND = 2**62


def _max_degree(shift: int, budget):
    # Largest n with n^2 + shift*n <= budget, elementwise; -1 where budget < 0.
    budget = np.asarray(budget, dtype=np.int64)
    root = np.sqrt(shift * shift + 4.0 * np.maximum(budget, 0))
    n = ((root - shift) / 2.0).astype(np.int64)
    n -= n * n + shift * n > budget
    n += (n + 1) * (n + 1) + shift * (n + 1) <= budget
    return n


def _degree_range(factor: CrossSpace, i: int, columns, used, level_hi: int, ordering_constraint: bool):
    """Each row's admissible degrees lo, lo + step, ..., hi for factor i,
    given the columns before it and their level used, up to level_hi.

    With the constraint on, the range is capped by the previous degree and
    starts at ceil(n_1 / 2).
    """
    shift = factor.eigenvalue_shift
    step = 2 if factor.even_degrees_only else 1
    hi = _max_degree(shift, level_hi - used)
    lo = np.zeros_like(used)
    if ordering_constraint and i > 0:
        hi = np.minimum(hi, columns[-1])
        lo = (columns[0] + 1) // 2
    if step == 2:
        lo += lo % 2
    return lo, hi, step


def _repeat_rows(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Each row index repeated counts[row] times, and each copy's rank
    # 0..counts[row]-1 within its row.
    rows = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return rows, np.arange(len(rows)) - starts[rows]


def _sweep(
    factors, level_hi: int, ordering_constraint: bool, every_column: bool = True
) -> tuple[list[np.ndarray], np.ndarray]:
    """Every admissible degree tuple over the given leading factors with
    level <= level_hi.

    The tuples grow one factor column at a time: each row is repeated over
    its admissible range of the next degree.  Returns one degree column per
    factor, whose rows run in ascending lexicographic order, and the level
    of each row.  Without every_column only the first and the last column
    are carried and returned, all that _degree_range reads.
    """
    columns: list[np.ndarray] = []
    used = np.zeros(1, dtype=np.int64)
    for i, factor in enumerate(factors):
        lo, hi, step = _degree_range(factor, i, columns, used, level_hi, ordering_constraint)
        rows, rank = _repeat_rows(np.maximum((hi - lo) // step + 1, 0))
        n = lo[rows] + step * rank
        columns = [column[rows] for column in (columns if every_column else columns[:1])] + [n]
        used = used[rows] + n * n + factor.eigenvalue_shift * n
    return columns, used


def _shells(manifold: ProductManifold, levels, ordering_constraint: bool) -> list[LatticeShell]:
    """The shell of every given level, from one sweep.

    The first r - 1 degree columns are swept once, up to the top level.  A
    row then meets a wanted level only where that level, less the row's own,
    is the eigenvalue of an admissible last degree: only the wanted levels
    within reach of the row's lowest and highest last degree are tried, and
    _max_degree solves each exactly.  Rows keep the sweep's ascending
    lexicographic order within each shell.
    """
    if len(levels) == 0:
        return []
    # Not np.unique: its first call imports numpy.ma, about 15 ms a process.
    wanted = np.array(sorted({int(level) for level in levels}), dtype=np.int64)
    top = int(wanted[-1])
    last = manifold.factors[-1]
    shift = last.eigenvalue_shift
    columns, used = _sweep(manifold.factors[:-1], top, ordering_constraint)
    lo, hi, step = _degree_range(last, manifold.rank - 1, columns, used, top, ordering_constraint)
    first = np.searchsorted(wanted, used + lo * lo + shift * lo)
    stop = np.searchsorted(wanted, used + hi * hi + shift * hi, side="right")
    rows, rank = _repeat_rows(np.maximum(stop - first, 0))
    which = first[rows] + rank
    budget = wanted[which] - used[rows]
    n = _max_degree(shift, budget)
    hit = np.flatnonzero((n * n + shift * n == budget) & (n % step == 0))
    # A stable sort by level keeps each level's rows in sweep order.
    hit = hit[np.argsort(which[hit], kind="stable")]
    columns = [column[rows[hit]] for column in columns] + [n[hit]]
    bounds = np.searchsorted(which[hit], np.arange(len(wanted) + 1)).tolist()
    shells = {
        level: LatticeShell(level, tuple(zip(*(column[begin:end].tolist() for column in columns))))
        for level, begin, end in zip(wanted.tolist(), bounds, bounds[1:])
    }
    return [shells[int(level)] for level in levels]


def enumerate_shell(
    manifold: ProductManifold, level: int, ordering_constraint: bool = True
) -> LatticeShell:
    """Exhaustively enumerate the shell at the given level.

    With the constraint on, tuples must satisfy n_1 >= ... >= n_r >= n_1/2
    (checked as 2 n_r >= n_1 in integers).  With it off, every tuple solving
    sum_i (n_i^2 + a_i n_i) = level is returned.
    """
    if isinstance(level, bool) or not isinstance(level, (int, np.integer)) or level < 0:
        raise ValueError(f"level must be a nonnegative integer, got {level!r}")
    if level >= LEVEL_BOUND:
        raise ValueError(f"level must be below 2**62, got {level}")
    return _shells(manifold, [level], ordering_constraint)[0]


def count_unconstrained(manifold: ProductManifold, level_max: int) -> np.ndarray:
    """Counts of unconstrained shell tuples for every level 0..level_max.

    Dynamic program: convolve the per-factor eigenvalue indicator vectors.
    Matches len(enumerate_shell(..., ordering_constraint=False)) levelwise.
    """
    counts = np.zeros(level_max + 1, dtype=np.int64)
    counts[0] = 1
    for factor in manifold.factors:
        nxt = np.zeros_like(counts)
        step = 2 if factor.even_degrees_only else 1
        for n in range(0, int(_max_degree(factor.eigenvalue_shift, level_max)) + 1, step):
            e = n * n + factor.eigenvalue_shift * n
            nxt[e:] += counts[: level_max + 1 - e]
        counts = nxt
    return counts


def count_constrained(manifold: ProductManifold, level_max: int) -> np.ndarray:
    """Counts of ordering-constrained shell tuples for every level 0..level_max.

    One sweep over the first r - 1 degrees of every admissible tuple with
    total eigenvalue at most level_max; each admissible last degree n then
    adds a histogram of the levels of the rows that admit it, shifted by
    n's eigenvalue.  A row's lowest last degree, ceil(n_1 / 2), grows with
    its first degree, so the rows come sorted by it and the rows that admit
    n lie in a prefix.  Matches len(enumerate_shell(..., True)) levelwise.
    """
    last = manifold.factors[-1]
    shift = last.eigenvalue_shift
    columns, used = _sweep(manifold.factors[:-1], level_max, True, every_column=False)
    lo, hi, step = _degree_range(last, manifold.rank - 1, columns, used, level_max, True)
    keep = lo <= hi
    lo, hi, used = lo[keep], hi[keep], used[keep]
    counts = np.zeros(level_max + 1, dtype=np.int64)
    if len(used):
        degrees = range(int(lo[0]), int(hi.max()) + 1, step)
        for n, stop in zip(degrees, np.searchsorted(lo, degrees, side="right").tolist()):
            admitted = used[:stop][n <= hi[:stop]]
            counts += np.bincount(admitted + (n * n + shift * n), minlength=level_max + 1)
    return counts


def trend_levels(
    manifold: ProductManifold,
    level_min: int,
    level_max: int,
    count: int = 12,
) -> list[int]:
    """Pick one level within 6% of each geometric target whose constrained
    shell size sits closest to the population trend.

    This damps the arithmetic fluctuation of shell sizes so that level sweeps
    measure the growth rate rather than the scatter of individual shells.
    """
    if not 0 < level_min < level_max:
        raise ValueError("need 0 < level_min < level_max")
    counts = count_constrained(manifold, level_max)
    levels = np.nonzero(counts)[0]
    levels = levels[levels >= max(2, level_min // 4)]
    if len(levels) < count:
        raise ValueError("not enough nonempty shells below level_max")
    sizes = counts[levels].astype(float)
    log_n = 0.5 * np.log(levels.astype(float))
    # Fit the trend only from 70% of level_min up: the smallest shells sit
    # well below the asymptotic growth law and would tilt the line.
    in_fit = levels >= 0.7 * level_min
    if np.count_nonzero(in_fit) < max(count, 8):
        in_fit = np.ones_like(in_fit, dtype=bool)
    trend = np.polyfit(log_n[in_fit], np.log(sizes[in_fit]), 1)
    predicted = np.polyval(trend, log_n)
    picked: set[int] = set()
    for target in np.geomspace(level_min, level_max, count):
        in_window = (levels >= target * (1 - 0.06)) & (levels <= target * (1 + 0.06))
        if not np.any(in_window):
            continue
        idx = np.nonzero(in_window)[0]
        best = idx[np.argmin(np.abs(np.log(sizes[idx]) - predicted[idx]))]
        picked.add(int(levels[best]))
    return sorted(picked)


# ---------------------------------------------------------------------------
# the extremizer
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def _sqrt_dim(space: CrossSpace, n: int) -> float:
    return math.sqrt(weyl_dimension(space, n))


def _degree_columns(manifold: ProductManifold, shell: LatticeShell) -> np.ndarray:
    # The shell's members as one int64 degree column per factor.
    return np.array(shell.members, dtype=np.int64).reshape(len(shell), manifold.rank).T


def _by_degree(values: dict, column: np.ndarray) -> np.ndarray:
    # values[n] for every degree n of the column, read through one array
    lookup = np.zeros((max(values, default=0) + 1, *np.shape(next(iter(values.values()), 0.0))))
    for n, value in values.items():
        lookup[n] = value
    return lookup[column]


def _member_amplitudes(manifold: ProductManifold, shell: LatticeShell) -> np.ndarray:
    """prod_i sqrt(k_i(n_i)) of each member, multiplied in factor order.

    Built one factor column at a time, from one _sqrt_dim lookup per
    distinct degree of the factor: the same products as an np.prod over
    each member's factors, which multiplies left to right.
    """
    amps = np.ones(len(shell))
    for space, column in zip(manifold.factors, _degree_columns(manifold, shell)):
        amps = amps * _by_degree({n: _sqrt_dim(space, n) for n in set(column.tolist())}, column)
    return amps


def _shell_tables(manifold: ProductManifold, shell: LatticeShell, point_sets) -> list[list[dict]]:
    """Each factor's spherical table on each of its angle sets.

    point_sets[j][i] holds factor i's angles in set j; tables[j][i] maps each
    degree of factor i in the shell to its row on those angles.  A space
    takes one spherical_table call for all its factors and sets: their
    distinct angle arrays, concatenated, for the union of their degrees,
    and each set's rows are slices of it.  Every point runs its own
    elementwise recurrence, so a row depends on neither the other points
    nor the top degree.
    """
    degrees = [set(column.tolist()) for column in _degree_columns(manifold, shell)]
    wanted: dict = {}
    for points in point_sets:
        for space, angles, ns in zip(manifold.factors, points, degrees):
            space_ns, arrays = wanted.setdefault(space, (set(), {}))
            space_ns.update(ns)
            arrays.setdefault(angles.tobytes(), angles)
    slices = {}
    for space, (ns, arrays) in wanted.items():
        table = spherical_table(space, ns, np.concatenate(list(arrays.values())))
        start = 0
        for key, angles in arrays.items():
            stop = start + len(angles)
            slices[space, key] = {n: row[start:stop] for n, row in table.items()}
            start = stop
    return [
        [
            {n: slices[space, angles.tobytes()][n] for n in ns}
            for space, angles, ns in zip(manifold.factors, points, degrees)
        ]
        for points in point_sets
    ]


@frozen
class _Layout:
    """Where a factor's 1-D table row lies on a grid: grid point u reads
    element start + sum_j steps[j] u_j of the row."""

    shape: tuple[int, ...]
    steps: tuple[int, ...]
    start: int = 0

    @classmethod
    def reshape(cls, shape: tuple[int, ...]) -> "_Layout":
        """The row read in C order, as np.reshape would."""
        return cls(shape, tuple(math.prod(shape[j + 1:]) for j in range(len(shape))))

    def view(self, rows: np.ndarray) -> np.ndarray:
        # rows stacked along leading axes keep those axes in front
        strides = rows.strides[:-1] + tuple(step * rows.itemsize for step in self.steps)
        return as_strided(rows[..., self.start:], rows.shape[:-1] + self.shape, strides, writeable=False)


# Bytes of one block of an extremizer grid, and of the scratch in which
# _extremizer_grid forms a block's product of factors.  The product and
# the block stay in the core's cache while the member sum runs, and
# restriction norms take their power sums from each block while it is
# there.  On a 2-core Xeon with 2 MB of L2 per core, the restriction norms
# of the sharpness_mixed sweeps of workload seeds 101 and 151 took 35 and
# 33, 30 and 27, 28 and 26, and 28 and 25 ms at 2**17, 2**18, 2**19 and
# 2**20 bytes, and those of configs/sharpness_s3_fifth_k3.json 215, 172,
# 159 and 152 ms (the best of three alternating rounds of best-of-9, one
# CPU).  2**19 takes most of the gain, and a block and its scratch fill
# half of the L2.
_GRID_BLOCK = 1 << 19


def _grid_blocks(shape: tuple[int, ...]):
    """Index tuples that cut a C-ordered float64 grid of this shape into
    contiguous blocks of at most _GRID_BLOCK bytes: the trailing axes that
    fit whole, and a run of rows of the axis before them.  Each ends in an
    Ellipsis, so that it views a 0-d grid too."""
    d, line = len(shape), 1
    while d and line * shape[d - 1] * 8 <= _GRID_BLOCK:
        d -= 1
        line *= shape[d]
    if d == 0:
        yield (Ellipsis,)
        return
    rows = max(1, _GRID_BLOCK // (8 * line))
    for outer in np.ndindex(*shape[: d - 1]):
        for start in range(0, shape[d - 1], rows):
            yield outer + (slice(start, start + rows), Ellipsis)


def _block_of(key: tuple, shape: tuple[int, ...]) -> tuple:
    # A grid block's index tuple, for a view of the given broadcastable
    # shape: on an axis of length 1 the view reads its one entry.
    inner = (
        part if size > 1 else 0 if isinstance(part, int) else slice(None) for part, size in zip(key[:-1], shape)
    )
    return (*inner, Ellipsis)


# Bytes of the member-stacked table rows that the extremizer evaluator
# holds at once.  A shell whose rows take more (long direct-rule rows of a
# large shell) is summed in groups of members, each group added into the
# grid in its own pass.  The largest workload shell, 78 members on 2,653
# angles, takes 1.6 MB in one group.
_STACKED_ROWS = 1 << 23


def _extremizer_grid(manifold: ProductManifold, shell: LatticeShell, amps, tables, layouts):
    """sum over the shell of amp * prod_i Phi_{i,n_i} on a grid, yielded as
    (f, key) once the block f[key] of the grid f is filled.

    Factor i's table tables[i] (from _shell_tables) is stacked by member,
    one row of its distinct angles per member, and read onto the grid
    through layouts[i] as a strided view with a leading member axis.  The
    factors that vary along the first grid axis only, or not at all, fold
    into a weight matrix W[u_0, m]: amp_m times their values.  The product
    P of the others is formed one sub-block at a time in a scratch buffer
    of the call's own of at most _GRID_BLOCK bytes, cut across members and,
    where P varies along the first axis, across its rows.  Each sub-block
    then adds sum_m W[u_0, m] P[m, u_0, v] into f's rows as one np.matmul
    over the member axis: a CP reconstruction, as in _polydisc_grid, whose
    sum is fused into the product.  The grid is filled in the blocks of
    _grid_blocks, and each block is yielded while it is still in cache.
    Where the stacked rows of the whole shell would take more than
    _STACKED_ROWS bytes, the members are summed in groups, each added into
    every block in its own pass, and the blocks are yielded in the last.
    """
    shape = np.broadcast_shapes(*(layout.shape for layout in layouts))
    columns = _degree_columns(manifold, shell)
    weighted = [math.prod(layout.shape[1:]) == 1 for layout in layouts]
    # a weight factor's rows hold its values along the first axis only
    rows_of = [
        {n: layout.view(row).ravel() for n, row in table.items()} if weight else table
        for table, layout, weight in zip(tables, layouts, weighted)
    ]
    # one member's rows, over every factor
    row_bytes = sum(8 * len(row) for rows in rows_of for row in list(rows.values())[:1])
    group = max(1, _STACKED_ROWS // max(row_bytes, 1))
    f = np.zeros(shape)
    # a buffer of this call's own, so that concurrent calls share none
    scratch = np.empty(_GRID_BLOCK // 8)
    for begin in range(0, max(len(shell), 1), group):
        members = slice(begin, begin + group)
        weights = amps[None, members]
        varying = []
        for rows, layout, weight, column in zip(rows_of, layouts, weighted, columns[:, members].tolist()):
            stacked = np.array([rows[n] for n in column])
            if weight:
                weights = weights * stacked.T
            else:
                varying.append((layout.view(stacked), layout.shape))
        for key in _grid_blocks(shape):
            _add_block(f[key], key, weights, varying, scratch, begin > 0)
            if begin + group >= len(shell):
                yield f, key


def _add_block(block: np.ndarray, key: tuple, weights: np.ndarray, varying: list, scratch: np.ndarray, add: bool):
    """Write (or, with add, add) one block's sum over a group of members
    into the block f[key]; weights and varying as _extremizer_grid makes
    them."""
    members = weights.shape[1]
    parts = [stacked[(slice(None), *_block_of(key, layout_shape))] for stacked, layout_shape in varying]
    if isinstance(key[0], int):
        # a block within one row of the first axis
        rows, inner = slice(key[0], key[0] + 1), block.shape
        parts = [part[None] for part in parts]
    else:
        rows, inner = (key[0] if isinstance(key[0], slice) else slice(None)), block.shape[1:]
        parts = [np.moveaxis(part, 0, 1) for part in parts]
    # every part is now (rows or 1, members, *inner); the block's rows take
    # w @ P, one product per row where P varies along the first axis
    points = math.prod(inner)
    out = block.reshape(-1, points)
    w = np.broadcast_to(weights[rows] if len(weights) > 1 else weights, (len(out), members))
    batch = max((len(part) for part in parts), default=1)
    w, out = (w[:, None], out[:, None]) if batch > 1 else (w[None], out[None])
    chunk = max(1, min(members, len(scratch) // points))
    run = len(scratch) // (chunk * points) if batch > 1 else 1
    for start in range(0, batch, run):
        here = slice(start, start + run)
        for begin in range(0, members, chunk):
            these = slice(begin, begin + chunk)
            sub = [(part[here] if len(part) > 1 else part)[:, these] for part in parts]
            size = (min(run, batch - start), min(chunk, members - begin))
            product = _product(sub, scratch[: math.prod(size) * points].reshape(*size, *inner))
            terms = w[here, :, these], product.reshape(*size, points)
            if add or begin:
                out[here] += np.matmul(*terms)
            else:
                np.matmul(*terms, out=out[here])


def _product(parts: list, out: np.ndarray) -> np.ndarray:
    # the product of the parts, broadcast into out
    if not parts:
        out.fill(1.0)
    elif len(parts) == 1:
        np.copyto(out, parts[0])
    else:
        np.multiply(parts[0], parts[1], out=out)
        for part in parts[2:]:
            out *= part
    return out


def extremizer_eval(manifold: ProductManifold, shell: LatticeShell, theta) -> float:
    """f(theta) = sum over the shell of prod_i sqrt(k_i(n_i)) Phi_{i,n_i}(theta_i)."""
    if len(shell) == 0:
        raise ValueError("shell is empty")
    theta = tuple(float(t) for t in theta)
    if len(theta) != manifold.rank:
        raise ValueError("theta must have one coordinate per factor")
    [tables] = _shell_tables(manifold, shell, [[np.array([t]) for t in theta]])
    return _point_value(manifold, shell, _member_amplitudes(manifold, shell), tables)


def _point_value(manifold: ProductManifold, shell: LatticeShell, amps, tables) -> float:
    # f at the one point that each factor's table holds; one point is one block
    [(f, _)] = _extremizer_grid(manifold, shell, amps, tables, [_Layout.reshape(())] * manifold.rank)
    return float(f)


def extremizer_l2_norm(shell: LatticeShell) -> float:
    """L^2 norm over the whole product: |shell|^(1/2), by orthonormality of
    the sqrt(k) Phi factors."""
    return math.sqrt(len(shell))


# ---------------------------------------------------------------------------
# affine submanifolds of the maximal flat
# ---------------------------------------------------------------------------

@frozen
class FlatSubmanifold:
    """Affine map u -> A u + b from a box in T^k into the flat T^r.

    box is a tuple of (lo, hi) pairs, or None for the full torus in every
    parameter direction.  The area density of an affine map is the constant
    J = sqrt(det(A^T A)).
    """

    matrix: tuple[tuple[float, ...], ...]
    offset: tuple[float, ...]
    box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        a = self.matrix_array
        if a.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        r, k = a.shape
        if not 0 <= k <= r:
            raise ValueError("intrinsic dimension must lie in [0, rank]")
        if len(self.offset) != r:
            raise ValueError("offset must have one entry per factor")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(self.offset))):
            raise ValueError("matrix and offset entries must be finite")
        if k > 0 and np.linalg.matrix_rank(a) != k:
            raise ValueError("matrix must have full column rank")
        if self.box is not None:
            if len(self.box) != k:
                raise ValueError("box must have one interval per parameter")
            if not np.all(np.isfinite(self.box)):
                raise ValueError("box ends must be finite")
            if any(hi <= lo for lo, hi in self.box):
                raise ValueError("box intervals must be nondegenerate")

    @classmethod
    def of(cls, matrix, offset=None, box=None) -> "FlatSubmanifold":
        """offset None puts the submanifold through the origin."""
        m = tuple(tuple(float(v) for v in row) for row in matrix)
        b = (0.0,) * len(m) if offset is None else tuple(float(v) for v in offset)
        bx = None if box is None else tuple((float(lo), float(hi)) for lo, hi in box)
        return cls(m, b, bx)

    @property
    def matrix_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)

    @property
    def k(self) -> int:
        return self.matrix_array.shape[1]

    @property
    def density(self) -> float:
        if self.k == 0:
            return 1.0
        a = self.matrix_array
        return float(math.sqrt(np.linalg.det(a.T @ a)))


_LATTICE_THRESHOLD = 200_000


def _restriction_grid(shell: LatticeShell, sub: FlatSubmanifold, points_per_wavelength: float):
    """(points, layouts, cell): each factor's distinct angles and the
    _Layout that places them on the quadrature grid along sub, for
    _extremizer_grid, and the cell volume of each grid point.

    The rule depends on the domain and the matrix.  An integer matrix on
    the full torus takes the lattice rule at any size; so does one on a box
    whose direct grid would pass _LATTICE_THRESHOLD points.  Every other
    flat takes the direct rule.

    The direct rule takes the midpoints of a tensor grid with at least
    points_per_wavelength samples per wavelength of the highest frequency
    on each parameter axis.  Factor i's angle depends only on the axes its
    matrix row uses: on the sparse grid a one-axis row needs a
    one-dimensional table and an all-zero row a single point, each read
    through a reshape.  The lattice rule takes one common step h on every
    axis instead, which puts each factor's angles on a one-dimensional
    lattice; a box snaps up to whole grid cells, and the full torus, a
    whole number of them already, is unchanged.  Factor i's table index is
    then row . u - t_lo at grid point u, affine, so a strided view reads it.

    A mirror-symmetric grid is emitted on one half.  Every Phi is a
    function of cos(theta), so f(-theta) = f(theta); where the map
    u -> m - 1 - u on every parameter axis sends each factor's angle to
    its negative mod 2 pi, f takes the same value at u and at its mirror.
    That holds for a zero offset on the full torus with an integer matrix
    (theta(u*) = 2 pi sum(row) - theta(u)), and on a box whose nodes are
    symmetric about 0: lo = -hi on the direct rule, a snapped box of
    exactly 2 hi on the lattice rule.  Only the rows u_0 < ceil(m_0 / 2) of
    the first axis are then emitted, each point standing for itself and its
    mirror at twice the cell, and the middle row of an odd m_0, its own
    mirror, at once the cell: cell is then an array over the first axis.
    Their angles are those of the full grid's first rows, to the bit.
    """
    a = sub.matrix_array
    freqs = np.abs(a).T @ np.max(np.array(shell.members), axis=0)  # per parameter axis
    box = sub.box or ((0.0, 2.0 * math.pi),) * sub.k
    lengths = [hi - lo for lo, hi in box]
    sizes = [
        max(8, int(math.ceil(points_per_wavelength * f * length / (2.0 * math.pi))))
        for f, length in zip(freqs, lengths)
    ]
    total = int(np.prod(sizes))
    zero_offset = not any(sub.offset)
    if not np.all(a == np.round(a)) or (sub.box is not None and total <= _LATTICE_THRESHOLD):
        if total > 10 * _LATTICE_THRESHOLD:
            raise ResolutionError(f"direct grid of {total} points is too large and the matrix is not integer")
        mirror = zero_offset and all(lo == -hi for lo, hi in box)  # never on the full torus, (0, 2 pi)
        half, cell = _mirror(sizes, float(np.prod([length / m for length, m in zip(lengths, sizes)])), mirror)
        axes = [lo + (np.arange(m) + 0.5) * (length / n) for (lo, _), length, m, n in zip(box, lengths, half, sizes)]
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        thetas = [
            np.asarray(b + sum(row[j] * grids[j] for j in np.flatnonzero(row))) for row, b in zip(a, sub.offset)
        ]
        return [th.ravel() for th in thetas], [_Layout.reshape(th.shape) for th in thetas], cell
    if sub.box is None:
        sizes = [max(8, int(np.ceil(points_per_wavelength * float(np.max(freqs)))))] * sub.k
        h = 2.0 * math.pi / sizes[0]
    else:
        h = min(2.0 * math.pi / (points_per_wavelength * max(float(f), 1.0)) for f in freqs)
        sizes = [max(8, int(math.ceil(length / h))) for length in lengths]
    mirror = zero_offset and (sub.box is None or all(2.0 * lo + h * m == 0.0 for (lo, _), m in zip(box, sizes)))
    half, cell = _mirror(sizes, h ** sub.k, mirror)
    points, layouts = [], []
    for row, b in zip(a.astype(int).tolist(), sub.offset):
        shape = tuple(m if r else 1 for r, m in zip(row, half))
        base = b + (h / 2.0) * float(np.sum(row)) + float(np.dot(row, [lo for lo, _ in box]))
        t_lo = sum(r * (m - 1) for r, m in zip(row, half) if r < 0)
        t_hi = sum(r * (m - 1) for r, m in zip(row, half) if r > 0)
        points.append(base + h * np.arange(t_lo, t_hi + 1))
        layouts.append(_Layout(shape, tuple(row), -t_lo))
    return points, layouts, cell


def _mirror(sizes: list[int], cell: float, mirror: bool):
    """The grid sizes emitted and the cell volume of each emitted point.

    A mirror emits the first ceil(m_0 / 2) rows of the first axis at twice
    the cell, but the middle row of an odd m_0 at once the cell, as an
    array that broadcasts over the first axis."""
    if not mirror:
        return sizes, cell
    half = [(sizes[0] + 1) // 2, *sizes[1:]]
    if sizes[0] % 2 == 0:
        return half, 2.0 * cell
    rows = np.full(half[0], 2.0 * cell)
    rows[-1] = cell
    return half, rows.reshape(-1, *(1,) * (len(sizes) - 1))


def _restriction_points(manifold: ProductManifold, shell: LatticeShell, sub: FlatSubmanifold, p_values, ppw):
    """(points, layouts, weight) of the restriction of the shell's
    extremizer to sub, after its checks: each factor's angles and _Layout on
    the quadrature grid, and the weight of a grid point, the cell volume of
    _restriction_grid (an array over the first axis on a mirror's half with
    a middle row) times the density.  A k = 0 sub is one point, whose
    weight is None."""
    if len(shell) == 0:
        raise ValueError("shell is empty")
    if any(not q >= 2 for q in p_values):
        raise ValueError("p must be >= 2 or inf")
    if len(sub.offset) != manifold.rank:
        raise ValueError("submanifold lives in a flat of the wrong rank")
    if sub.k == 0:
        return [np.array([t]) for t in sub.offset], [_Layout.reshape(())] * manifold.rank, None
    if not math.isfinite(ppw):
        raise ValueError(f"points per wavelength must be finite, got {ppw}")
    if ppw < 2:
        raise ResolutionError(f"{ppw} points per wavelength cannot resolve the integrand; need >= 2")
    points, layouts, cell = _restriction_grid(shell, sub, ppw)
    return points, layouts, cell * sub.density


def _restriction_norms(manifold: ProductManifold, shell: LatticeShell, amps, tables, layouts, weight, p_values):
    """Each p's norm of the extremizer on the grid of _restriction_points,
    from one evaluation of it; |f| for every p at a point.  Each block's
    points take their own weights, for p = inf none: the max over the grid
    is the max over its mirror's half too."""
    if weight is None:
        return [abs(_point_value(manifold, shell, amps, tables))] * len(p_values)
    sums = [0.0] * len(p_values)
    weights = np.asarray(weight)
    for f, key in _extremizer_grid(manifold, shell, amps, tables, layouts):
        a = np.abs(f[key])
        w = weights[_block_of(key, weights.shape)]
        sums = [
            max(s, _power_sum(a, q, w)) if q == math.inf else s + _power_sum(a, q, w)
            for s, q in zip(sums, p_values)
        ]
    norms = [s if q == math.inf else s ** (1.0 / q) for s, q in zip(sums, p_values)]
    # a sum past float64 takes the whole grid's rule, which factors out the max
    return [norm if math.isfinite(norm) else _grid_lp(f, q, weight) for norm, q in zip(norms, p_values)]


def restriction_lp_norm(
    manifold: ProductManifold,
    shell: LatticeShell,
    sub: FlatSubmanifold,
    p,
    points_per_wavelength: float = 8.0,
) -> float | list[float]:
    """L^p norm of the shell extremizer along the submanifold.

    Tensor midpoint quadrature with at least points_per_wavelength samples
    per wavelength of the highest kernel frequency on each parameter axis;
    k = 0 degenerates to a point evaluation.  An integer matrix on the full
    torus, or on a box too large for the direct grid, goes through the
    lattice lookup rule, which snaps a box up to whole grid cells (see
    _restriction_grid).  The grid does not depend on p: given a sequence of
    exponents, f is evaluated once and the list of their norms is returned.
    Each p's weighted power sum (torus._power_sum) is added up over the
    evaluator's blocks as each one is filled, and the norm is its 1/p-th
    power; where that sum passes float64, the p takes torus._grid_lp on the
    whole grid, which factors out the maximum.

    A flat through the origin whose nodes are symmetric about it (the full
    torus with an integer matrix, a box with lo = -hi, or a lattice box
    snapped to exactly that) is evaluated on the first half of its first
    parameter axis: f(u*) = f(u) at the mirror point u* = m - 1 - u, since
    every Phi is a function of cos(theta), so each point is weighted twice,
    and the middle row of an odd axis once; p = inf takes the max over the
    half.  The norms then agree with the whole grid's to about 1e-14
    relative (the tests hold them to 1e-13): the sums run in another order,
    and the mirror's angles differ from the half's negatives by rounding.
    A flat off the origin, or any other grid, keeps the whole grid.
    """
    scalar = np.ndim(p) == 0
    p_values = [p] if scalar else list(p)
    points, layouts, weight = _restriction_points(manifold, shell, sub, p_values, points_per_wavelength)
    [tables] = _shell_tables(manifold, shell, [points])
    amps = _member_amplitudes(manifold, shell)
    norms = _restriction_norms(manifold, shell, amps, tables, layouts, weight, p_values)
    return norms[0] if scalar else norms


_POLYDISC_SAMPLES = 5
# Bytes of the Khatri-Rao factors of one chunk of members in the polydisc
# check; a chunk takes at least one member.
_POLYDISC_CHUNK = 1 << 21


def _check_polydisc(manifold: ProductManifold, epsilon: float) -> None:
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if _POLYDISC_SAMPLES ** manifold.rank > 10**7:
        raise ValueError(f"polydisc grid of {_POLYDISC_SAMPLES}^{manifold.rank} points is too large")


def _polydisc_points(manifold: ProductManifold, shell: LatticeShell, epsilon: float) -> list[np.ndarray]:
    # every factor's samples, |theta_i| <= epsilon/N
    n_big = max(shell.spectral_parameter, 1.0)
    return [np.linspace(-epsilon / n_big, epsilon / n_big, _POLYDISC_SAMPLES)] * manifold.rank


def _polydisc_minimum(manifold: ProductManifold, shell: LatticeShell, amps, tables) -> float:
    # min |f| / f(0) over the polydisc; f(0) is the sum of the amplitudes
    return float(np.min(np.abs(_polydisc_grid(manifold, shell, amps, tables)))) / float(np.sum(amps))


def _polydisc_grid(manifold: ProductManifold, shell: LatticeShell, amps, tables) -> np.ndarray:
    """f on the polydisc grid, one axis per factor, from each factor's
    table on its samples.

    f(t_0, ..., t_{r-1}) = sum_m prod_i G_i[m, t_i] with G_i[m] factor i's
    row of member m, and G_0 scaled by the amplitudes: a CP reconstruction.
    The row-wise Khatri-Rao products of the first ceil(r/2) factors and of
    the rest give it as one matrix product, left.T @ right, added up over
    chunks of members that bound the scratch memory.
    """
    columns = _degree_columns(manifold, shell)
    half = (manifold.rank + 1) // 2
    width = _POLYDISC_SAMPLES**half + _POLYDISC_SAMPLES ** (manifold.rank - half)
    chunk = max(1, _POLYDISC_CHUNK // (8 * width))
    f = np.zeros((_POLYDISC_SAMPLES**half, _POLYDISC_SAMPLES ** (manifold.rank - half)))
    for start in range(0, len(shell), chunk):
        members = slice(start, start + chunk)
        g = [_by_degree(table, column[members]) for table, column in zip(tables, columns)]
        g[0] *= amps[members, None]
        left, right = (_khatri_rao(part) for part in (g[:half], g[half:]))
        f += left.T @ right
    return np.reshape(f, (_POLYDISC_SAMPLES,) * manifold.rank)


def _khatri_rao(matrices: list[np.ndarray]) -> np.ndarray:
    # row m is the Kronecker product of row m of every matrix, in order
    out = matrices[0]
    for matrix in matrices[1:]:
        out = (out[:, :, None] * matrix[:, None, :]).reshape(len(out), -1)
    return out


def pointwise_lower_check(manifold: ProductManifold, shell: LatticeShell, epsilon: float = 0.05) -> float:
    """inf over the polydisc |theta_i| <= epsilon/N of |f| / f(0), sampled
    at 5 points per axis.

    f(0) equals the sum of the amplitude products, so the returned ratio is 1
    at the origin and stays near 1 for small epsilon.
    """
    if len(shell) == 0:
        raise ValueError("shell is empty")
    _check_polydisc(manifold, epsilon)
    [tables] = _shell_tables(manifold, shell, [_polydisc_points(manifold, shell, epsilon)])
    return _polydisc_minimum(manifold, shell, _member_amplitudes(manifold, shell), tables)


# ---------------------------------------------------------------------------
# exponent algebra (exact rationals)
# ---------------------------------------------------------------------------

def _as_p(p) -> Fraction | float:
    if p == math.inf:
        return math.inf
    if isinstance(p, Fraction):
        return p
    if isinstance(p, int):
        return Fraction(p)
    if isinstance(p, str):
        return math.inf if p.strip() in ("inf", "infinity") else Fraction(p)
    if isinstance(p, float):
        return Fraction(p).limit_denominator(10**9)
    raise TypeError(f"cannot interpret {p!r} as an exponent")


def _inv(p) -> Fraction:
    return Fraction(0) if p == math.inf else 1 / p


def tau_exponent(d: int, p) -> Fraction:
    """The per-factor exponent: -1/p for p >= 4/(d-1), else -(d-1)/4."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    p = _as_p(p)
    if p != math.inf and p <= 0:
        raise ValueError("p must be positive")
    threshold = Fraction(4, d - 1)
    if p == math.inf or p >= threshold:
        return -_inv(p)
    return -Fraction(d - 1, 4)


def baseline_rho(k: int, d: int, p):
    """General-manifold baseline exponent rho(k, d, p), or None with a note
    when the stated branches do not cover (k, d, p)."""
    p = _as_p(p)
    if p != math.inf and p < 2:
        return None, "stated for p >= 2 only"
    if k < 1 or k > d - 1:
        return None, f"no stated branch for k = {k} with d = {d}"
    if k == d - 1:
        split = Fraction(2 * d, d - 1)
        if p == math.inf or p >= split:
            return Fraction(d - 1, 2) - (d - 1) * _inv(p), ""
        return Fraction(d - 1, 4) - Fraction(d - 2, 2) * _inv(p), ""
    if k == d - 2:
        if p == 2:
            return None, "p = 2, k = d-2 carries an extra (log N)^(1/2)"
        return Fraction(d - 1, 2) - k * _inv(p), ""
    return Fraction(d - 1, 2) - k * _inv(p), ""


@frozen
class ExponentTable:
    """All exponents attached to one (dimension list, k, p) configuration."""

    dims: tuple[int, ...]
    k: int
    p: object
    taus: tuple[Fraction, ...]
    product_exponent: Fraction | None
    joint_exponent: Fraction | None
    no_loss_exponent: Fraction | None
    baseline_exponent: Fraction | None
    baseline_note: str
    improvement: Fraction | None


def exponent_table(d_list, k: int, p) -> ExponentTable:
    """Exponents for restriction to a k-dimensional flat submanifold.

    Dimensions are sorted ascending (the sum of the k smallest taus is the
    stated bound).  Entries whose stated validity range excludes p are None.
    """
    dims = tuple(sorted(int(d) for d in d_list))
    if len(dims) < 2:
        raise ValueError("need at least two factors")
    if not 0 <= k <= len(dims):
        raise ValueError("k must lie in [0, number of factors]")
    p_val = _as_p(p)
    taus = tuple(tau_exponent(d, p_val) for d in dims)
    d = sum(dims)
    r = len(dims)
    in_range = p_val == math.inf or p_val >= 2
    tau_sum = sum(taus[:k], Fraction(0))
    product_exp = Fraction(d - 2, 2) + tau_sum if in_range else None
    joint_exp = Fraction(d - r, 2) + tau_sum if in_range else None
    no_loss = Fraction(d - 2, 2) - k * _inv(p_val) if in_range else None
    rho, note = baseline_rho(k, d, p_val)
    improvement = rho - product_exp if (rho is not None and product_exp is not None) else None
    return ExponentTable(
        dims, k, p_val, taus, product_exp, joint_exp, no_loss, rho, note, improvement
    )


# ---------------------------------------------------------------------------
# sharpness sweeps
# ---------------------------------------------------------------------------

@frozen
class SharpnessRow:
    level: int
    spectral_parameter: float
    shell_size: int
    ratio: float
    envelope: float


def diagonal_levels(manifold: ProductManifold, degrees) -> list[int]:
    """Levels of the symmetric tuples (n, ..., n); their shells are nonempty."""
    return [
        sum(n * n + f.eigenvalue_shift * n for f in manifold.factors) for n in degrees
    ]


def sharpness_report(
    manifold: ProductManifold,
    sub: FlatSubmanifold,
    p_values,
    levels,
    points_per_wavelength: float = 8.0,
    epsilon: float = 0.05,
    threads: int = 1,
) -> tuple[list[tuple[list[SharpnessRow], ExponentFit]], float]:
    """Measured restriction/L^2 ratios across a level sweep, with the target
    envelope N^((d-2)/2 - k/p) and the fitted slope of the ratio, for each p;
    and the pointwise_lower_check minimum over the swept shells.

    Every level's shell comes from one sweep.  Each nonempty shell is
    measured in one pass: its amplitudes once, one spherical table per
    space for both the restriction grid and the polydisc, the extremizer on
    the grid once for every p, and the polydisc check; the shells run on
    `threads` worker threads, or inline for one.  Errors of the restriction
    come first, then an empty sweep, the fits and the polydisc check.
    Returns one (rows, fit) per p, and the minimum.
    """
    p_values = [float(p) for p in p_values]
    shells = [shell for shell in _shells(manifold, levels, ordering_constraint=True) if len(shell)]
    try:
        _check_polydisc(manifold, epsilon)
        polydisc_error = None
    except ValueError as error:
        polydisc_error = error

    def measure(shell):
        points, layouts, weight = _restriction_points(manifold, shell, sub, p_values, points_per_wavelength)
        polydisc = [] if polydisc_error else [_polydisc_points(manifold, shell, epsilon)]
        tables = _shell_tables(manifold, shell, [points, *polydisc])
        amps = _member_amplitudes(manifold, shell)
        norms = _restriction_norms(manifold, shell, amps, tables[0], layouts, weight, p_values)
        return shell, norms, (None if polydisc_error else _polydisc_minimum(manifold, shell, amps, tables[1]))

    if threads == 1:
        measured = list(map(measure, shells))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            measured = list(pool.map(measure, shells))
    if not measured:
        raise ValueError("no nonempty shells in the sweep")
    sweeps = []
    for j, p in enumerate(p_values):
        exponent = (manifold.dimension - 2) / 2.0 - (sub.k / p if p != math.inf else 0.0)
        rows = [
            SharpnessRow(
                shell.level,
                shell.spectral_parameter,
                len(shell),
                norms[j] / extremizer_l2_norm(shell),
                shell.spectral_parameter ** exponent,
            )
            for shell, norms, _ in measured
        ]
        sweeps.append((rows, fit_exponent([(row.spectral_parameter, row.ratio) for row in rows])))
    if polydisc_error:
        raise polydisc_error
    return sweeps, min(minimum for _, _, minimum in measured)
