"""Exact real arithmetic from integer maps, with an infinitesimal extension.

Reals are carried by integer-to-integer maps of bounded discrepancy with
certified bounds; an index-dependent layer on top yields infinitesimal and
infinite elements, a computable ultrafilter simulator decides equality of
general index rules over eventually periodic sets, and a derivative engine
computes exact derivatives as standard parts of difference quotients.
"""

from .ahom import (
    AlmostHom,
    BoundReport,
    CertificateError,
    Compose,
    FloorLinear,
    FloorSqrt,
    IntScale,
    Invert,
    Neg,
    RuleSyntaxError,
    Sum,
    discrepancy,
    format_rule,
    parse_rule,
    verify_bound,
)
from .calculus import RatFunction, SubstitutionPole, adequal, derivative_at, extend
from .hyper import (
    DivisionByZeroGerm,
    GeneralRescaling,
    HyperClass,
    HyperKind,
    InfiniteElement,
    Order,
    PiecewiseRescaling,
    PoleAtIndex,
    RationalSlopeGerm,
    classify,
    constant_rescaling,
    dx,
    eq_mod_filter,
    from_real,
    omega,
    phi_component,
    realize_component,
    standard_part,
)
from .indexset import IndexSet, IndexSetSyntaxError
from .lup import (
    ClosureReport,
    LimitFilterSpec,
    Partition,
    PartitionError,
    UndecidableWithinBudget,
    is_admissible,
)
from .reals import (
    EudoxusReal,
    Greater,
    IndistinguishableWithin,
    Less,
    Negative,
    Positive,
    UndecidedSign,
    ZeroWithin,
    from_rational,
    from_sqrt_int,
)
from .ufsim import Containment, FilterState, TraceError, Verdict, fresh_state, query

__version__ = "0.1.0"
