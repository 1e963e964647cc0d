"""Quantitative compactness certificates for measures, paths, and path laws.

The package computes exact scaled Prokhorov distances between finitely
supported measures, covering/packing profiles, minimal enclosing balls,
interpolation nets for equicontinuous path families, and the
truncate-and-cover certificates tying tightness and equicontinuity defects
to covering radii.  Every headline number ships with a certificate that can
be rechecked without rerunning the solver.
"""

from .ball import (
    BallCertificate,
    JungCheck,
    chebyshev_center,
    chebyshev_centers,
    jung_check,
    jung_ratio,
)
from .cover import CoverProfile, cover_profile, covering_radius, exact_kcenter
from .errors import InternalConsistencyError, QCompactError
from .metric import FiniteMetricSpace, IndexSet, inflate, open_ball
from .paths import (
    AANet,
    PLPath,
    QAAReport,
    aa_net,
    moduli,
    modulus,
    mu_uec_family,
    uniform_distance,
    values_at,
    verify_qaa,
)
from .prokhorov import (
    CouplingCertificate,
    DiscreteMeasure,
    MuUtResult,
    ProkhorovNet,
    ProkhorovResult,
    ViolationCertificate,
    check_alpha,
    diameter_partition,
    mu_ut,
    prokhorov_distance,
    prokhorov_distances,
    prokhorov_net,
    prokhorov_oracle,
    prokhorov_sweep,
    tv_distance,
    verify_qprokh,
)
from .stochastic import (
    MuSubResult,
    MuSuecResult,
    PathEnsemble,
    QSAAReport,
    mu_sub_hat,
    mu_suec_hat,
    path_distances,
    path_metric_space,
    path_prokhorov,
    sample_walks,
    verify_qsaa,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteMetricSpace",
    "IndexSet",
    "inflate",
    "open_ball",
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
    "cover_profile",
    "CoverProfile",
    "exact_kcenter",
    "covering_radius",
    "chebyshev_center",
    "chebyshev_centers",
    "BallCertificate",
    "jung_ratio",
    "jung_check",
    "JungCheck",
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
    "QCompactError",
    "InternalConsistencyError",
    "__version__",
]
