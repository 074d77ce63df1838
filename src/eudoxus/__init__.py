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
    "ahom": "AlmostHom BoundReport CertificateError Compose FloorLinear FloorSqrt Invert"
    " Neg RuleSyntaxError Sum discrepancy format_rule parse_rule verify_bound",
    "calculus": "RatFunction SubstitutionPole adequal derivative_at extend",
    "hyper": "DivisionByZeroGerm GeneralRescaling HyperClass HyperKind InfiniteElement"
    " Order PiecewiseRescaling PoleAtIndex RationalSlopeGerm classify constant_rescaling"
    " dx eq_mod_filter from_real omega phi_component realize_component standard_part",
    "indexset": "IndexSet IndexSetSyntaxError",
    "lup": "ClosureReport LimitFilterSpec Partition PartitionError"
    " UndecidableWithinBudget is_admissible",
    "reals": "EudoxusReal Negative Positive UndecidedSign ZeroWithin from_rational from_sqrt_int",
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
    annotations in order, or its base's where it has none. Only
    `Record.__init__` sets them, from their final values in order (a
    subclass's own constructor canonicalizes first), and it keeps that tuple;
    `__post_init__` then checks them. A record refuses assignment, equals a
    same-type record with an equal tuple, hashes the tuple and prints as
    `Name(field=value, ...)`. Methods may cache derived values in the
    instance `__dict__`; nothing is generated per class.
    """

    _fields = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__) or cls._fields

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} field values")
        fields = self.__dict__  # a loop of stores beats update(zip(...)) on a few fields
        for name, value in zip(self._fields, values):
            fields[name] = value
        fields["_tuple"] = values
        self.__post_init__()

    def __post_init__(self):
        """Check the fields once they are set; the base checks nothing."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __eq__(self, other):
        return self._tuple == other._tuple if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._tuple)

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._tuple))
        return f"{type(self).__qualname__}({shown})"
