import random
from fractions import Fraction

import pytest

from eudoxus import hyper, indexset, lup
from eudoxus.hyper import constant_rescaling, dx, from_real, piecewise
from eudoxus.indexset import IndexSet
from eudoxus.lup import (
    LimitFilterSpec,
    Partition,
    PartitionError,
    UndecidableWithinBudget,
    common_refinement,
    eq_relation_contains,
    is_admissible,
    restricted_closure_check,
)
from eudoxus.reals import from_rational, from_sqrt_int


def _halves() -> Partition:
    return Partition((indexset.evens(), indexset.odds()))


def _thirds() -> Partition:
    return Partition(
        (
            indexset.multiples(3),
            indexset.IndexSet("01", "010"),
            indexset.IndexSet("001", "001"),
        )
    )


def test_partition_validation():
    _halves()
    with pytest.raises(PartitionError):
        Partition((indexset.evens(),))
    with pytest.raises(PartitionError):
        Partition((indexset.evens(), indexset.full()))
    with pytest.raises(PartitionError):
        Partition(())


def test_eq_relation_examples():
    assert eq_relation_contains(from_real(7), _halves())
    assert not eq_relation_contains(dx(), _halves())
    two_valued = piecewise(
        (
            (indexset.evens(), from_sqrt_int(2)),
            (indexset.odds(), from_sqrt_int(3)),
        )
    )
    assert eq_relation_contains(two_valued, _halves())


def test_admissibility_examples():
    spec = LimitFilterSpec((_halves(),))
    assert is_admissible(from_real(Fraction(3)), spec)
    assert is_admissible(from_real(Fraction(-7, 2)), LimitFilterSpec((_thirds(),)))
    assert not is_admissible(dx(), spec)
    assert not is_admissible(dx(), LimitFilterSpec((_thirds(),)))
    two_valued = piecewise(
        (
            (indexset.evens(), from_sqrt_int(2)),
            (indexset.odds(), from_sqrt_int(3)),
        )
    )
    assert is_admissible(two_valued, spec)
    assert not is_admissible(two_valued, LimitFilterSpec((Partition((indexset.full(),)),)))


def test_common_refinement():
    refined = common_refinement((_halves(), _thirds()))
    assert len(refined.classes) == 6
    assert is_admissible(from_real(1), LimitFilterSpec((_halves(), _thirds())))


def test_admissible_for_partition_implies_admissible_for_refinement():
    two_valued = piecewise(
        (
            (indexset.evens(), from_sqrt_int(2)),
            (indexset.odds(), from_sqrt_int(3)),
        )
    )
    coarse = LimitFilterSpec((_halves(),))
    fine = LimitFilterSpec((_halves(), _thirds()))
    assert is_admissible(two_valued, coarse)
    assert is_admissible(two_valued, fine)


def test_constants_admissible_for_every_tested_filter():
    for spec in (
        LimitFilterSpec((_halves(),)),
        LimitFilterSpec((_thirds(),)),
        LimitFilterSpec((_halves(), _thirds())),
    ):
        assert is_admissible(constant_rescaling(from_sqrt_int(5)), spec)
        assert is_admissible(from_real(Fraction(9, 7)), spec)


def test_closure_under_sum_and_product():
    rng = random.Random(55)
    spec = LimitFilterSpec((_halves(),))
    values = [from_sqrt_int(k) for k in (2, 3, 5, 7)]
    elements = [
        piecewise(
            (
                (indexset.evens(), rng.choice(values)),
                (indexset.odds(), rng.choice(values)),
            )
        )
        for _ in range(8)
    ]
    report = restricted_closure_check(elements, spec)
    assert report.ok
    assert report.pairs_checked == 28


def test_closure_check_on_germs_uses_hyper_arithmetic(monkeypatch):
    calls = []
    for name in ("add", "mul"):
        fn = getattr(hyper, name)
        monkeypatch.setattr(
            hyper, name, lambda a, b, fn=fn, name=name: calls.append(name) or fn(a, b)
        )
    spec = LimitFilterSpec((_halves(),))
    report = restricted_closure_check([from_real(1), from_real(2)], spec)
    assert report.ok
    assert calls == ["add", "mul"]


def test_closure_check_of_no_elements_with_or_without_rng():
    spec = LimitFilterSpec((_halves(),))
    assert restricted_closure_check([], spec) == lup.ClosureReport(0, ())


def test_closure_check_rejects_inadmissible_input():
    spec = LimitFilterSpec((_halves(),))
    with pytest.raises(ValueError):
        restricted_closure_check([dx()], spec)


def test_undecidable_reported_not_guessed():
    # A reciprocal of unlike radicals has no exact slope, and it meets a
    # rational within 10^-16 of it, which no 64-point window refutes.
    blurry = from_sqrt_int(2).add(from_sqrt_int(3)).recip(1 << 20)
    near = from_rational(317837245195782, 10**15)
    tangled = piecewise(
        (
            (indexset.evens(), blurry),
            (indexset.odds(), near),
        )
    )
    with pytest.raises(UndecidableWithinBudget):
        eq_relation_contains(tangled, Partition((indexset.full(),)))


def test_opaque_rescaling_on_infinite_class_is_undecidable():
    opaque = hyper.GeneralRescaling(lambda n: from_rational(1, n + 1))
    with pytest.raises(UndecidableWithinBudget):
        eq_relation_contains(opaque, _halves())


def test_opaque_rescaling_on_finite_class_is_enumerated():
    # Class 0 is {0, 1}, finite; class 1 is every index from 2 on.
    classes = Partition((IndexSet("11", "0"), IndexSet("00", "1")))
    identity = hyper.GeneralRescaling(lambda n: from_rational(n, 1))
    assert eq_relation_contains(identity, classes) is False  # 0 != 1 on class 0
    constant = hyper.GeneralRescaling(lambda n: from_rational(1, 2))
    with pytest.raises(UndecidableWithinBudget):
        eq_relation_contains(constant, classes)


def test_germ_verdict_ignores_class_order_and_poles():
    # 1/(i - 1) has a pole at index 1 and dx = 1/i one at index 0; each pole
    # sits in a finite class, listed first and then last.
    for g, finite, rest in (
        (hyper.germ((1,), (-1, 1)), IndexSet("01", "0"), IndexSet("10", "1")),
        (dx(), indexset.singleton(0), IndexSet("0", "1")),
    ):
        for classes in ((finite, rest), (rest, finite)):
            assert not eq_relation_contains(g, Partition(classes))
            assert eq_relation_contains(from_real(5), Partition(classes))
