"""Quantitative compactness certificates for measures, paths, and path laws.

The package computes exact scaled Prokhorov distances between finitely
supported measures, covering/packing profiles, minimal enclosing balls,
interpolation nets for equicontinuous path families, and the
truncate-and-cover certificates tying tightness and equicontinuity defects
to covering radii.  Every headline number ships with a certificate that can
be rechecked without rerunning the solver.

Importing the package runs none of its modules.  Each submodule but ``cli``
sits in ``sys.modules`` and on the package, made lazy by
``importlib.util.LazyLoader``: it runs on the first read of one of its
attributes, and so do the modules it imports from.  A public name read from
the package runs its own module only.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: the public names that the package serves, by the submodule that defines them
_EXPORTS = {
    "metric": ("FiniteMetricSpace", "IndexSet", "inflate", "open_ball"),
    "prokhorov": (
        "DiscreteMeasure",
        "tv_distance",
        "check_alpha",
        "prokhorov_distance",
        "prokhorov_distances",
        "prokhorov_sweep",
        "prokhorov_oracle",
        "CouplingCertificate",
        "ViolationCertificate",
        "ProkhorovResult",
        "MuUtResult",
        "mu_ut",
        "diameter_partition",
        "ProkhorovNet",
        "prokhorov_net",
        "verify_qprokh",
    ),
    "cover": ("cover_profile", "CoverProfile", "exact_kcenter", "covering_radius"),
    "ball": (
        "chebyshev_center",
        "chebyshev_centers",
        "BallCertificate",
        "jung_ratio",
        "jung_check",
        "JungCheck",
    ),
    "paths": (
        "PLPath",
        "values_at",
        "uniform_distance",
        "modulus",
        "moduli",
        "mu_uec_family",
        "aa_net",
        "AANet",
        "verify_qaa",
        "QAAReport",
    ),
    "stochastic": (
        "PathEnsemble",
        "mu_sub_hat",
        "MuSubResult",
        "mu_suec_hat",
        "MuSuecResult",
        "path_distances",
        "path_metric_space",
        "path_prokhorov",
        "sample_walks",
        "verify_qsaa",
        "QSAAReport",
    ),
    "errors": ("QCompactError", "InternalConsistencyError"),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _register_lazily(name: str) -> None:
    """Put the submodule ``name`` in ``sys.modules`` and on the package,
    unexecuted."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in (*_EXPORTS, "arrays", "maxflow", "serialize", "tolerances"):
    _register_lazily(_name)
del _name


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value
    return value
