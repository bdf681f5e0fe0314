"""Numerical checks for Jacobi convolution kernels, spherical functions on
compact rank-one symmetric spaces, and restriction exponents on their products.

Exported names and the submodules resolve on first use (PEP 562), so that
importing the package, or one of its modules, loads no module it does not
need: each CLI command loads only the layers it runs.
"""

import importlib

# The module that defines each exported name.
_EXPORTS = {
    "special": (
        "JacobiParams",
        "AsymptoticFrame",
        "jacobi_eval",
        "jacobi_binomial",
        "chebyshev_half_case",
        "jacobi_theta_derivative",
        "interior_main_term",
        "edge_main_term",
        "bessel_j",
    ),
    "spaces": (
        "CrossSpace",
        "sphere",
        "real_projective",
        "complex_projective",
        "quaternionic_projective",
        "octonionic_plane",
        "catalog",
        "spherical_eval",
        "fourier_expansion",
        "rep_dimension",
        "laplace_eigenvalue",
    ),
    "torus": (
        "PeriodicGrid",
        "lp_norm_periodic",
        "kernel_lp_norm",
        "envelope_A",
        "envelope_A_tilde",
        "opnorm_l2_exact",
        "opnorm_bracket",
        "tensor_opnorm_upper",
        "fit_exponent",
    ),
    "products": (
        "ProductManifold",
        "LatticeShell",
        "enumerate_shell",
        "extremizer_eval",
        "extremizer_l2_norm",
        "FlatSubmanifold",
        "restriction_lp_norm",
        "pointwise_lower_check",
        "exponent_table",
        "sharpness_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", *_EXPORTS)

# As before these became lazy, a star import also binds the four layers.
__all__ = [*_MODULE_OF, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
