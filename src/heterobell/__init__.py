"""Exact heterogeneous Stirling numbers and Bell polynomials.

A single deformation parameter lam moves the whole theory between the
Stirling-2/Bell world (lam = 0) and the Lah world (lam = 1); the
probabilistic versions average the construction over i.i.d. copies of a
random variable known through its exact raw moments.  Everything is
rational arithmetic; an identity verifier holds the independent
computation routes to exact agreement.
"""

from .arith import (
    binomial,
    deg_rising_factorial,
    factorial,
    format_rational,
    multinomial,
    parse_rational,
)
from .distributions import (
    Bernoulli,
    Constant,
    Distribution,
    FiniteSupport,
    MomentList,
    Poisson,
    deg_rising_moment,
    format_distribution,
    parse_distribution,
    raw_moment,
    sum_deg_rising_moment,
    sum_raw_moment,
)
from .errors import (
    HeterobellError,
    InsufficientSequence,
    MissingDistribution,
    MomentUnavailable,
    NonPositiveEvaluationPoint,
    ParseError,
    PartsMismatch,
    SeriesNotCertified,
    UnknownIdentity,
    UnsupportedDistribution,
)
from .hetero import (
    Route,
    SeriesEvaluation,
    dobinski_details,
    hetero_bell_poly,
    hetero_derivative,
    hetero_stirling,
    prob_hetero_bell_poly,
    prob_hetero_bell_recurrence,
    prob_hetero_stirling,
    prob_lah,
    prob_stirling2,
)
from .identities import (
    IDENTITY_TAGS,
    IdentityReport,
    load_grid_config,
    run_identities,
    run_identity,
    verify_identity,
)
from .iid import compositions, order_split_rhs
from .polynomial import Polynomial
from .triangles import (
    bell_poly,
    complete_bell,
    deg_rising_poly,
    deg_stirling1,
    lah,
    lah_bell_poly,
    partial_bell,
    stirling1u,
    stirling2,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo of the package: every lru_cache, the triangle, moment and partial Bell rows among them.

    Every memo otherwise lives as long as the process.  Values computed
    afterwards are equal to those before; only their cost is paid again.
    """
    import sys

    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


__all__ = [name for name in dir() if not name.startswith("_")]
