"""Sparse individualized thresholds via kernel-smoothed classification loss.

The estimand is a coefficient vector theta scoring covariates z against a
scalar response threshold: a unit is predicted positive when x exceeds
theta'z.  Estimation minimizes an l1-penalized kernel smoothing of the 0-1
loss by multi-stage proximal gradient along a geometric penalty path, with
theory-driven, cross-validated, or dyadic-grid-adaptive tuning, simulators
for the models used in calibration studies, and numerical probes for the
pieces the theory leans on.
"""

from .errors import ConvergenceWarning, InputError, NumericError
from .kernels import (
    BUILTIN_KERNELS,
    Kernel,
    KernelReport,
    SurrogateLoss,
    get_kernel,
    kernel_moment,
    make_higher_order_gaussian,
    verify_proper,
)
from .risk import (
    Dataset,
    SmoothedRiskSpec,
    class_weights,
    empirical_gradient,
    empirical_risk,
    objective,
    zero_one_risk,
)
from .optimizer import (
    PathConfig,
    SolutionPath,
    StageRecord,
    path_following,
    suboptimality,
)
from .tuning import (
    CvResult,
    LepskiFit,
    build_lepski_grid,
    cross_validate_lambda,
    default_lambda_grid,
    lepski_bandwidth,
    lepski_sparsity,
    select_lepski_bandwidth,
    select_lepski_sparsity,
    target_lambda,
    theoretical_bandwidth,
)
from .simulate import (
    BenchmarkResult,
    BenchmarkRow,
    SimSpec,
    ToyRiskTable,
    derive_seed,
    estimation_error,
    generate,
    run_benchmark,
    top_support,
    toy_population_risks,
)
from .diagnostics import (
    ProbeReport,
    bias_probe,
    gradient_check,
    population_gradient,
    restricted_curvature_probe,
    variance_probe,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceWarning", "InputError", "NumericError",
    "BUILTIN_KERNELS", "Kernel", "KernelReport", "SurrogateLoss",
    "get_kernel", "kernel_moment", "make_higher_order_gaussian",
    "verify_proper",
    "Dataset", "SmoothedRiskSpec", "class_weights",
    "empirical_gradient", "empirical_risk", "objective", "zero_one_risk",
    "PathConfig", "SolutionPath", "StageRecord", "path_following",
    "suboptimality",
    "CvResult", "LepskiFit",
    "build_lepski_grid", "cross_validate_lambda", "default_lambda_grid",
    "lepski_bandwidth", "lepski_sparsity", "select_lepski_bandwidth",
    "select_lepski_sparsity", "target_lambda", "theoretical_bandwidth",
    "BenchmarkResult", "BenchmarkRow", "SimSpec", "ToyRiskTable",
    "derive_seed", "estimation_error", "generate", "run_benchmark",
    "top_support", "toy_population_risks",
    "ProbeReport", "bias_probe", "gradient_check", "population_gradient",
    "restricted_curvature_probe", "variance_probe",
    "ColumnRoles", "load_csv",
    "__version__",
]


def __getattr__(name):
    # import cli on first use, so ``python -m smooth_threshold.cli`` runs it fresh
    if name in ("ColumnRoles", "load_csv"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
