"""Deterministic workload generation for the crossflat benchmark.

A workload is a fixed list of CLI configs.  The seed picks inputs from pools
that pass at the commit that defined the benchmark; degree ladders, level
ranges and grid sizes never depend on the seed, so the cost of a run does not
either.  The same seed gives byte-identical config files.
"""

from __future__ import annotations

import json
import random

# (alpha, beta) pairs of the catalog spaces whose bundled slope check passes.
# (7, 3), the octonionic plane, is left out everywhere: its fitted slope over
# these degree ladders sits more than the tolerance below alpha - 2/p.
# (0, 0) is left out of kernel-norms: q = 2 sits at the kink there and the fit
# is 0.06 off -1/2.
CATALOG_PAIRS = [
    (0.0, 0.0),
    (0.5, 0.5),
    (1.0, 1.0),
    (1.5, 1.5),
    (2.0, 2.0),
    (1.0, 0.0),
    (2.0, 0.0),
    (3.0, 1.0),
]
KERNEL_NORM_PAIRS = [pair for pair in CATALOG_PAIRS if pair != (0.0, 0.0)]
# The (1/2, 1/2) jacobi run adds a closed-form sweep, so it would cost more.
JACOBI_PAIRS = [pair for pair in CATALOG_PAIRS if pair != (0.5, 0.5)]

# Every circle-kernel command sweeps the same ladder.  It stops at 2048 so
# that a run of the benchmark holds more than one pass over the workload.
DOUBLING_64_2048 = [64, 128, 256, 512, 1024, 2048]

S2 = {"kind": "sphere", "dimension": 2}
S3 = {"kind": "sphere", "dimension": 3}
CP2 = {"kind": "complex_projective", "dimension": 4}

# Spaces with every degree (fourier to 350, dimension to 300) and with even
# degrees only (fourier to 420).  The cost of both commands depends on the
# degrees swept, not on the space.
FULL_DEGREE_SPACES = [
    {"kind": "sphere", "dimension": 3},
    {"kind": "sphere", "dimension": 5},
    {"kind": "complex_projective", "dimension": 4},
    {"kind": "complex_projective", "dimension": 8},
    {"kind": "quaternionic_projective", "dimension": 8},
    {"kind": "octonionic_plane", "dimension": 16},
]
EVEN_DEGREE_SPACES = [
    {"kind": "sphere", "dimension": d, "even_degrees_only": True} for d in (3, 4, 5, 6)
]

# p-value pairs whose ratio slopes fit their targets within 0.25.
S3_FIFTH_P = [2, 4, 6, 8]
MIXED_P = [6, 8, 10, 12]
# Constrained S^3 x 5 shells of 10 to 13 members.
SHELL_LEVELS = [2000, 2002, 2003, 2005, 2006, 2009, 2010, 2013, 2014, 2015, 2016, 2017]


def _pair(rng: random.Random, pool) -> dict:
    alpha, beta = rng.choice(pool)
    return {"alpha": alpha, "beta": beta}


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _circle_kernels(rng: random.Random) -> list[tuple[str, dict]]:
    configs = [
        (
            "opnorm_p2",
            {
                "command": "opnorm",
                "seed": rng.randrange(2**31),
                "parameters": {
                    **_pair(rng, CATALOG_PAIRS),
                    "p": 2,
                    "n_values": DOUBLING_64_2048,
                    "slope_tolerance": 0.03,
                },
            },
        )
    ]
    for p in (6, 8):
        configs.append(
            (
                f"opnorm_p{p}",
                {
                    "command": "opnorm",
                    "seed": rng.randrange(2**31),
                    "parameters": {
                        **_pair(rng, CATALOG_PAIRS),
                        "p": p,
                        "n_values": DOUBLING_64_2048,
                        "slope_tolerance": 0.05,
                    },
                },
            )
        )
    configs.append(
        (
            "kernel_norms",
            {
                "command": "kernel-norms",
                "parameters": {
                    **_pair(rng, KERNEL_NORM_PAIRS),
                    "q_values": [2, 4],
                    "n_values": DOUBLING_64_2048,
                    "slope_tolerance": 0.05,
                },
            },
        )
    )
    return configs


def _flat_restriction(rng: random.Random) -> list[tuple[str, dict]]:
    # Sign flips inside a row change the submanifold but not |A|, which is
    # all the grid sizes depend on.
    s3_fifth = {
        "command": "sharpness",
        "parameters": {
            "factors": {"space": S3, "copies": 5},
            "matrix": [[1, 0], [1, _sign(rng)], [0, 1], [0, 0], [0, 0]],
            "offset": [0, 0, 0, 0, 0],
            "box": [[-0.25, 0.25], [-0.25, 0.25]],
            "p_values": sorted(rng.sample(S3_FIFTH_P, 2)),
            "level_min": 1700,
            "level_max": 9900,
            "level_count": 12,
            "slope_tolerance": 0.25,
        },
    }
    mixed = {
        "command": "sharpness",
        "parameters": {
            "factors": [S2, S3, CP2, S3],
            "matrix": [[1, 0], [1, _sign(rng)], [0, 1], [0, 0]],
            "offset": [0, 0, 0, 0],
            "p_values": sorted(rng.sample(MIXED_P, 2)),
            "level_min": 1000,
            "level_max": 9000,
            "level_count": 8,
            "slope_tolerance": 0.25,
        },
    }
    shell = {
        "command": "shell",
        "parameters": {
            "factors": {"space": S3, "copies": 5},
            "level": rng.choice(SHELL_LEVELS),
            "ordering_constraint": True,
        },
    }
    return [("sharpness_s3_fifth", s3_fifth), ("sharpness_mixed", mixed), ("shell_s3_fifth", shell)]


def _spectral_tables(rng: random.Random) -> list[tuple[str, dict]]:
    return [
        (
            "fourier_full",
            {"command": "fourier", "parameters": {"space": rng.choice(FULL_DEGREE_SPACES), "n_max": 350}},
        ),
        (
            "fourier_even",
            {"command": "fourier", "parameters": {"space": rng.choice(EVEN_DEGREE_SPACES), "n_max": 420}},
        ),
        (
            "dimension",
            {"command": "dimension", "parameters": {"space": rng.choice(FULL_DEGREE_SPACES), "n_max": 300}},
        ),
        (
            "jacobi",
            {
                "command": "jacobi",
                "parameters": {**_pair(rng, JACOBI_PAIRS), "n_max": 2048, "grid_size": 2048},
            },
        ),
    ]


WORKLOADS = {
    "circle_kernels": _circle_kernels,
    "flat_restriction": _flat_restriction,
    "spectral_tables": _spectral_tables,
}


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(name, config) pairs of one workload, in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def dump(config: dict) -> bytes:
    """The config file's bytes: canonical JSON, so equal configs give equal files."""
    return (json.dumps(config, indent=2, sort_keys=True) + "\n").encode()
