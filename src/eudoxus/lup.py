"""Admissibility under partition-generated filters on pairs of indices.

A finite partition of the index line into eventually periodic classes
induces an equivalence relation; a filter generated by finitely many such
partitions admits exactly the elements whose components are constant on each
class of the common refinement. That membership is decidable here because
(a) a finite partition has an infinite class, and a nonconstant rational
slope takes each value finitely often, so only constant germs are admitted,
and (b) piecewise rescalings expose which catalogue values meet which
classes. Anything the certificates cannot settle is reported, never guessed.
"""

from __future__ import annotations

import itertools

from . import Record, hyper, indexset
from .hyper import PiecewiseRescaling, RationalSlopeGerm
from .indexset import IndexSet, PartitionError


class UndecidableWithinBudget(Exception):
    """Per-class equality could not be certified either way."""
    exit_code = 3  # the CLI's exit code: domain error


class Partition(Record):
    classes: tuple[IndexSet, ...]

    def __post_init__(self):
        indexset.check_partition(self.classes)


class LimitFilterSpec(Record):
    generators: tuple[Partition, ...]

    def __post_init__(self):
        if not self.generators:
            raise PartitionError("filter spec needs at least one generator")


def common_refinement(partitions) -> Partition:
    cells = [indexset.full()]
    for part in partitions:
        cells = [
            hit
            for cell in cells
            for cls in part.classes
            if (hit := indexset.intersect(cell, cls)) != indexset.empty()
        ]
    return Partition(tuple(cells))


def _values_on_class(x, cls: IndexSet):
    """Distinct component values an element takes on a class (with evidence)."""
    if isinstance(x, PiecewiseRescaling):
        return [v for _, v, _ in x.cells(((cls, None),))]
    if cls.is_finite():
        return [x.component(n) for n in cls.members_if_finite()]
    raise UndecidableWithinBudget(
        "cannot enumerate component values of an opaque rescaling on an "
        "infinite class"
    )


def eq_relation_contains(x, partition: Partition) -> bool:
    """Whether the equalizer relation of x refines the partition's relation.

    Germs: some class is infinite and a nonconstant slope takes each value
    only finitely often, so the answer is `is_constant()`. Rescalings: every
    pair of values meeting the same class must be certified equal.
    """
    if isinstance(x, RationalSlopeGerm):
        return x.is_constant()
    from .reals import certified_equal

    for cls in partition.classes:
        vals = _values_on_class(x, cls)
        for a, b in itertools.combinations(vals, 2):
            verdict = certified_equal(a, b)
            if verdict is None:
                raise UndecidableWithinBudget(
                    "per-class equality of component values is not certified"
                )
            if not verdict:
                return False
    return True


def is_admissible(x, spec: LimitFilterSpec) -> bool:
    """Membership of the equalizer in the generated filter.

    It suffices to test the common refinement of all generators: refinements
    only shrink classes, and constancy on a class passes to its subsets.
    """
    return eq_relation_contains(x, common_refinement(spec.generators))


class ClosureReport(Record):
    pairs_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def restricted_closure_check(xs, spec: LimitFilterSpec) -> ClosureReport:
    """Verify sums and products of admissible elements stay admissible."""
    for i, x in enumerate(xs):
        if not is_admissible(x, spec):
            raise ValueError(f"element {i} is not admissible; precondition violated")
    pairs = list(itertools.combinations(range(len(xs)), 2))
    violations = []
    for i, j in pairs:
        a, b = xs[i], xs[j]
        if isinstance(a, RationalSlopeGerm):
            total, product = hyper.add(a, b), hyper.mul(a, b)
        else:
            total, product = a.add(b), a.mul(b)
        if not is_admissible(total, spec):
            violations.append(f"sum of elements {i}, {j} is not admissible")
        if not is_admissible(product, spec):
            violations.append(f"product of elements {i}, {j} is not admissible")
    return ClosureReport(len(pairs), tuple(violations))
