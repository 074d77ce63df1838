"""Record semantics: one sample of each kind of immutable record prints,
compares, hashes and refuses change the same way."""

from fractions import Fraction

import pytest

from eudoxus import ahom, expr, hyper, indexset, polyq, reals, ufsim

# name -> (sample, its field names, its repr)
_SAMPLES = {
    "IndexSet": (
        lambda: indexset.IndexSet("0110", "10"),
        ("pre", "period"),
        "IndexSet(pre='01', period='10')",
    ),
    "ZeroWithin": (
        lambda: reals.ZeroWithin(Fraction(1, 8)),
        ("eps",),
        "ZeroWithin(eps=Fraction(1, 8))",
    ),
    "HyperClass": (
        lambda: hyper.HyperClass(hyper.HyperKind.APPRECIABLE_FINITE, Fraction(3, 2)),
        ("kind", "st"),
        "HyperClass(kind=<HyperKind.APPRECIABLE_FINITE: 'AppreciableFinite'>,"
        " st=Fraction(3, 2))",
    ),
    "Dx": (expr.Dx, (), "Dx()"),
    "RatFun": (
        lambda: polyq.RatFun((Fraction(1, 2), 1), (0, 2)),
        ("num", "den"),
        "RatFun(num=(1, 2), den=(0, 4))",
    ),
    "FilterState": (
        lambda: ufsim.query(ufsim.fresh_state(), indexset.evens())[1],
        ("log", "meet"),
        "FilterState(log=((IndexSet(pre='', period='10'), <Verdict.ACCEPTED:"
        " 'Accepted'>),), meet=IndexSet(pre='', period='10'))",
    ),
    "BoundReport": (
        lambda: ahom.BoundReport(2, True),
        ("max_abs_discrepancy", "ok"),
        "BoundReport(max_abs_discrepancy=2, ok=True)",
    ),
}


@pytest.mark.parametrize("name", _SAMPLES)
def test_a_record_prints_compares_hashes_and_refuses_change(name):
    make, fields, shown = _SAMPLES[name]
    record = make()
    assert repr(record) == shown
    values = [getattr(record, field) for field in fields]
    twin = type(record)(*values)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    for field in fields or ("anything",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(TypeError):
        type(record)(*values, None, None)
    if fields:
        with pytest.raises(TypeError):
            type(record)(*values[:-1])


def test_equal_fields_under_another_type_compare_unequal():
    assert reals.Positive() != reals.Negative()
    a, b = expr.IntLit(1), expr.Dx()
    assert expr.Add(a, b) != expr.Sub(a, b)
    quotient = polyq.RatFun((1, 2), (3,))
    germ = hyper.RationalSlopeGerm((1, 2), (3,))
    assert (quotient.num, quotient.den) == (germ.num, germ.den)
    assert quotient != germ and germ != quotient
