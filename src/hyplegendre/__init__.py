"""hyplegendre: exact hypergeometric solutions of a generalized
Legendre-type ODE class, its two named specializations, and the
verification machinery tying them together.

Quick start:

>>> from hyplegendre import OdeParams, indicial_exponents
>>> p = OdeParams(a1=-2, b1=0, a2=0, b2=0, a3=0, b3=0, c3=0,
...               lam=6.0, xi1=-1.0, xi2=1.0)
>>> indicial_exponents(p).mu_inf.as_tuple()
(-2.0, 3.0)
"""

from .errors import (
    ComplexExponent,
    DegenerateC,
    DegenerateCase,
    DomainError,
    Error,
    InvalidParams,
    NoConvergence,
    ParseError,
    PoleError,
    RootMismatch,
)
from .hypergeom import (
    Hyp2F1,
    gamma,
    hyp2f1,
    pfaff_transform,
    pochhammer,
    rgamma,
)
from .legendre_families import (
    LegendreTriple,
    UniversalParams,
    generalized_solutions,
    kuipers_reduction_check,
    map_to_triple,
    universal_hypergeometric,
    universal_ode_embedding,
    universal_ode_residual,
    universal_sum,
)
from .ode_solutions import (
    BranchId,
    CoordinateMap,
    IndicialExponents,
    MapVariant,
    OdeParams,
    RootPair,
    SolutionBranch,
    build_branch,
    connection_check,
    evaluate,
    indicial_exponents,
    reduced_equation_coefficients,
    residual,
)

__version__ = "0.1.0"
