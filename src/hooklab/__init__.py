"""Exact-arithmetic engine and verification harness for partition,
hook-length, content and Eulerian identities.

Everything computes over the rationals; no floats anywhere in the math
path.  The harness (`hooklab.harness`, `hooklab` CLI) runs a registry of
identity checks and reports verified/refuted verdicts with witnesses.
"""

from .errors import (
    BadConstantTerm,
    BudgetExceeded,
    DivisionByNonUnit,
    ExponentOverflow,
    HooklabError,
    NonPolynomialResult,
    NotSquare,
    NotUnivariate,
    UnknownCheck,
    VariableOutOfScope,
)
from .harness import (
    Check,
    CheckResult,
    Report,
    registry,
    run_all,
    run_check,
)
from .multipoly import NVARS, VAR_INDEX, VARIABLES, MultiPoly, RatFunc
from .partitions import (
    CellStats,
    CoreFamily,
    Partition,
    cell_stats,
    enumerate_sss_cores,
    hook_part_census,
    is_t_core,
    partition_count,
    partition_list,
    rr_sets,
)
from .series import (
    TruncatedSeries,
    binomial_series,
    eta_product,
    gaussian_binomial,
    geometric,
)
from .sturm import SturmReport, sturm_analysis, unimodal

__version__ = "0.1.0"

__all__ = [
    "BadConstantTerm",
    "BudgetExceeded",
    "CellStats",
    "Check",
    "CheckResult",
    "CoreFamily",
    "DivisionByNonUnit",
    "ExponentOverflow",
    "HooklabError",
    "MultiPoly",
    "NVARS",
    "NonPolynomialResult",
    "NotSquare",
    "NotUnivariate",
    "Partition",
    "RatFunc",
    "Report",
    "SturmReport",
    "TruncatedSeries",
    "UnknownCheck",
    "VAR_INDEX",
    "VARIABLES",
    "VariableOutOfScope",
    "binomial_series",
    "cell_stats",
    "enumerate_sss_cores",
    "eta_product",
    "gaussian_binomial",
    "geometric",
    "hook_part_census",
    "is_t_core",
    "partition_count",
    "partition_list",
    "registry",
    "rr_sets",
    "run_all",
    "run_check",
    "sturm_analysis",
    "unimodal",
    "__version__",
]
