"""Exact real arithmetic from integer maps, with an infinitesimal extension.

Reals are carried by integer-to-integer maps of bounded discrepancy with
certified bounds; an index-dependent layer on top yields infinitesimal and
infinite elements, a computable ultrafilter simulator decides equality of
general index rules over eventually periodic sets, and a derivative engine
computes exact derivatives as standard parts of difference quotients.

Names load on first access: `import eudoxus` imports no submodule, and the
first read of an exported name imports the one module that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "ahom": "AlmostHom BoundReport CertificateError Compose FloorLinear FloorSqrt IntScale"
    " Invert Neg RuleSyntaxError Sum discrepancy format_rule parse_rule verify_bound",
    "calculus": "RatFunction SubstitutionPole adequal derivative_at extend",
    "hyper": "DivisionByZeroGerm GeneralRescaling HyperClass HyperKind InfiniteElement"
    " Order PiecewiseRescaling PoleAtIndex RationalSlopeGerm classify constant_rescaling"
    " dx eq_mod_filter from_real omega phi_component realize_component standard_part",
    "indexset": "IndexSet IndexSetSyntaxError",
    "lup": "ClosureReport LimitFilterSpec Partition PartitionError"
    " UndecidableWithinBudget is_admissible",
    "reals": "EudoxusReal Greater IndistinguishableWithin Less Negative Positive"
    " UndecidedSign ZeroWithin from_rational from_sqrt_int",
    "ufsim": "Containment FilterState TraceError Verdict fresh_state query",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
