"""Exact real arithmetic from integer maps, with an infinitesimal extension.

Reals are carried by integer-to-integer maps of bounded discrepancy with
certified bounds; an index-dependent layer on top yields infinitesimal and
infinite elements, a computable ultrafilter simulator decides equality of
general index rules over eventually periodic sets, and a derivative engine
computes exact derivatives as standard parts of difference quotients.

Names load on first access: `import eudoxus` imports no submodule, and the
first read of an exported name imports the one module that defines it. This
module imports nothing, and every command loads it, so the record base is here.
"""

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
    value = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class Record:
    """Base of the immutable records. A subclass's fields are its own
    annotations in order, or its base's where it has none. A record is built
    from its field values in order, then `__post_init__` checks them; it
    refuses assignment, equals a same-type record with equal fields, hashes
    its field tuple and prints as `Name(field=value, ...)`. Methods may cache
    derived values in the instance `__dict__`; nothing is generated per class.
    """

    _fields = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__) or cls._fields

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} field values")
        self.__dict__.update(zip(self._fields, values))
        self.__post_init__()

    def __post_init__(self):
        """Check the fields once they are set; the base checks nothing."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def _values(self) -> tuple:
        return tuple([self.__dict__[name] for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"
