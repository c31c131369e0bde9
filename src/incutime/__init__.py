"""Day-resolution incubation time estimation from censored exposure data.

The estimand is the day-averaged distribution function of the incubation
time: the probability that symptoms start by the end of day i, averaged over
the moment of infection within the day.  Estimation is nonparametric maximum
likelihood over discrete masses on integer days, with observed-information
and bootstrap confidence intervals, a truncated exponential parametric
baseline, and a simulation engine for coverage studies.
"""

from .bootstrap import bootstrap_ci, resample
from .errors import (
    BootstrapFailureError,
    DatasetValidationError,
    DegenerateFitError,
    IncutimeError,
    InfeasiblePointError,
    InfeasibleRecordError,
    NonConvergenceError,
    SingularMatrixError,
)
from .inference import (
    FisherResult,
    averaged_inverse_information,
    cdf_covariance,
    extend_variances,
    fisher_result,
    observed_fisher,
    wald_intervals,
)
from .model import (
    Dataset,
    DayCdf,
    Grid,
    IntervalRow,
    IntervalTable,
    MassFunction,
    candidate_grid,
    cdf_from_mass,
    validate_dataset,
)
from .parametric import (
    TruncExpFit,
    TruncExpParams,
    day_band_integral,
    fit_trunc_exp,
    trunc_exp_cdf,
    trunc_exp_fbar,
    trunc_exp_loglik,
)
from .simulate import (
    ExposureSpec,
    TruthSpec,
    draw_doubly,
    draw_singly,
    true_fbar,
    truth_cdf,
)
from .solver import (
    IterationTrace,
    fenchel_residuals,
    fit_npmle,
    fit_weights,
    phi,
    phi_gradient,
)
from .weights import (
    WeightMatrix,
    build_weight_matrix,
    psi_weight,
    window_weight,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapFailureError",
    "Dataset",
    "DatasetValidationError",
    "DayCdf",
    "DegenerateFitError",
    "ExposureSpec",
    "FisherResult",
    "Grid",
    "IncutimeError",
    "InfeasiblePointError",
    "InfeasibleRecordError",
    "IntervalRow",
    "IntervalTable",
    "IterationTrace",
    "MassFunction",
    "NonConvergenceError",
    "SingularMatrixError",
    "TruncExpFit",
    "TruncExpParams",
    "TruthSpec",
    "WeightMatrix",
    "averaged_inverse_information",
    "bootstrap_ci",
    "build_weight_matrix",
    "candidate_grid",
    "cdf_covariance",
    "cdf_from_mass",
    "day_band_integral",
    "draw_doubly",
    "draw_singly",
    "extend_variances",
    "fenchel_residuals",
    "fisher_result",
    "fit_npmle",
    "fit_trunc_exp",
    "fit_weights",
    "observed_fisher",
    "phi",
    "phi_gradient",
    "psi_weight",
    "window_weight",
    "resample",
    "trunc_exp_cdf",
    "trunc_exp_fbar",
    "trunc_exp_loglik",
    "true_fbar",
    "truth_cdf",
    "validate_dataset",
    "wald_intervals",
]
