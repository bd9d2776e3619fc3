"""Survival probabilities for a two-season discrete risk process.

Periods alternate between two claim distributions while the surplus
gains a premium of 2 each period; the package computes the probability
that the surplus stays positive, over a finite horizon or forever.

Entry points:

* :func:`survival_finite` / :func:`dp_oracle` / :func:`mc_estimate` for
  finite horizons (recursion, brute-force check, simulation);
* :func:`survival_ultimate` for the infinite horizon, with
  :func:`boundary_oracle` as the independent cross-check;
* :func:`classify` for the case split driving the ultimate solve;
* :mod:`ruinwalk.conjectures` for the nonsingularity probes;
* :mod:`ruinwalk.reference_tables` for the bundled regression tables;
* ``ruinwalk`` console script for all of the above.
"""

from .errors import (
    InvalidModelError,
    NumericalError,
    PrecisionError,
    SingularSystemError,
)
from .finite import (
    McEstimate,
    SurvivalGrid,
    dp_oracle,
    dp_survival_curve,
    mc_estimate,
    survival_finite,
)
from .model import (
    CaseKind,
    CaseTag,
    ModelSpec,
    classify,
    net_profit_margin,
)
from .pmf import (
    Pmf,
    convolve,
    from_probs,
    make_displaced_poisson,
    parse_pmf_spec,
    point_mass,
)
from .ultimate import (
    InitialValues,
    Residuals,
    SequenceSet,
    UltimateResult,
    boundary_oracle,
    build_sequences,
    extend_ultimate,
    no_net_profit_values,
    residuals,
    solve_initials,
    survival_ultimate,
)

__version__ = "0.1.0"

__all__ = [
    "CaseKind",
    "CaseTag",
    "InitialValues",
    "InvalidModelError",
    "McEstimate",
    "ModelSpec",
    "NumericalError",
    "Pmf",
    "PrecisionError",
    "Residuals",
    "SequenceSet",
    "SingularSystemError",
    "SurvivalGrid",
    "UltimateResult",
    "boundary_oracle",
    "build_sequences",
    "classify",
    "convolve",
    "dp_oracle",
    "dp_survival_curve",
    "extend_ultimate",
    "from_probs",
    "make_displaced_poisson",
    "mc_estimate",
    "net_profit_margin",
    "no_net_profit_values",
    "parse_pmf_spec",
    "point_mass",
    "residuals",
    "solve_initials",
    "survival_finite",
    "survival_ultimate",
    "__version__",
]
