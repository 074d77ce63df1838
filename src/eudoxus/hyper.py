"""Infinitesimal-enriched arithmetic built from index-dependent slopes.

The decidable tier is `RationalSlopeGerm`: an element whose component at
index n is the real of slope r(n) = P(n)/Q(n) for integer polynomials P, Q.
Ordering such germs needs no ultrafilter at all - the sign of r_x(i) - r_y(i)
is eventually constant, so the verdict set is cofinite or finite and every
non-principal ultrafilter agrees. Classification into zero / infinitesimal /
appreciable / infinite reads off the degree gap and leading coefficients. The
germ is a view of `polyq.RatFun`, and the view is data: the noun "germ", the
variable i it prints in and the PoleAtIndex error; `str` is the quotient's.

The general tier is a rescaling: an arbitrary rule from indices to reals of
the certified catalogue. Equality there genuinely depends on the ultrafilter.
A piecewise rule has an exact agreement set, decided through the simulator
when every meeting value pair is certified; an opaque rule is only sampled,
so its equality is reported as empirical, never certified. This tier imports
the real, set and simulator layers where it uses them, so germs load none.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from . import Record, polyq
from .polyq import DivisionByZeroGerm  # noqa: F401 - re-exported


class PoleAtIndex(ValueError):
    """The component slope is undefined at this index (denominator root)."""
    exit_code = 3  # the CLI's exit code: domain error

    def __init__(self, n: int):
        super().__init__(f"pole at index {n}")
        self.n = n


class InfiniteElement(ValueError):
    """Standard part requested for an infinite element."""
    exit_code = 3  # the CLI's exit code: domain error


class RationalSlopeGerm(polyq.RatFun):
    """Slope function r(i) = num(i)/den(i): the shared quotient type, read
    as a germ in the index i whose poles raise PoleAtIndex."""

    noun = "germ"
    var = "i"

    def pole(self, n) -> Exception:
        return PoleAtIndex(n)


def germ(num, den=(1,)) -> RationalSlopeGerm:
    return RationalSlopeGerm(tuple(num), tuple(den))


def dx() -> RationalSlopeGerm:
    """The canonical positive infinitesimal: slope 1/i at index i."""
    return germ((1,), (0, 1))


def omega() -> RationalSlopeGerm:
    """The canonical infinite element: slope i at index i."""
    return germ((0, 1))


from_real = RationalSlopeGerm.constant  # constant in the index

add = RationalSlopeGerm.__add__
sub = RationalSlopeGerm.__sub__
mul = RationalSlopeGerm.__mul__
div = RationalSlopeGerm.__truediv__
pow_ = RationalSlopeGerm.__pow__


class Order(enum.Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"


def compare(x: RationalSlopeGerm, y: RationalSlopeGerm) -> Order:
    """Eventual-sign comparison; ultrafilter-independent on this tier.

    Both denominators have positive leading coefficients, so x - y has the
    eventual sign of its numerator x.num*y.den - y.num*x.den. For nonzero x
    and y that is read from the normal forms' leading terms: the larger
    degree gap deg num - deg den dominates, and equal gaps compare the
    leading ratios. Only a zero operand or a tie expands the cross products.
    """
    if x.num and y.num:
        p, q = x.num[-1] * y.den[-1], y.num[-1] * x.den[-1]
        gap = len(x.num) + len(y.den) - len(y.num) - len(x.den)
        lead = p if gap > 0 else -q if gap < 0 else p - q
        if lead:
            return Order.GREATER if lead > 0 else Order.LESS
    d = polyq.sub(polyq.mul(x.num, y.den), polyq.mul(y.num, x.den))
    if not d:
        return Order.EQUAL
    return Order.GREATER if polyq.leading(d) > 0 else Order.LESS


class HyperKind(enum.Enum):
    ZERO = "Zero"
    POSITIVE_INFINITESIMAL = "PositiveInfinitesimal"
    NEGATIVE_INFINITESIMAL = "NegativeInfinitesimal"
    APPRECIABLE_FINITE = "AppreciableFinite"
    POSITIVE_INFINITE = "PositiveInfinite"
    NEGATIVE_INFINITE = "NegativeInfinite"


class HyperClass(Record):
    kind: HyperKind
    st: Fraction | None  # standard part; None for infinite elements


def classify(x: RationalSlopeGerm) -> HyperClass:
    """Zero, infinitesimal, appreciable or infinite, read off `leading_term`."""
    lead, gap = leading_term(x)
    if lead == 0:
        return HyperClass(HyperKind.ZERO, Fraction(0))
    if gap < 0:
        kind = (
            HyperKind.POSITIVE_INFINITESIMAL
            if lead > 0
            else HyperKind.NEGATIVE_INFINITESIMAL
        )
        return HyperClass(kind, Fraction(0))
    if gap == 0:
        return HyperClass(HyperKind.APPRECIABLE_FINITE, lead)
    kind = HyperKind.POSITIVE_INFINITE if lead > 0 else HyperKind.NEGATIVE_INFINITE
    return HyperClass(kind, None)


def standard_part(x: RationalSlopeGerm) -> Fraction:
    """The real infinitely close to a finite germ; errors on infinite ones."""
    c = classify(x)
    if c.st is None:
        raise InfiniteElement(f"{x} has no standard part")
    return c.st


def leading_term(x: RationalSlopeGerm) -> tuple[Fraction, int]:
    """Asymptotics c*i^d of the slope function; (0, 0) for the zero germ."""
    if x.is_zero():
        return Fraction(0), 0
    c = Fraction(polyq.leading(x.num), polyq.leading(x.den))
    return c, polyq.degree(x.num) - polyq.degree(x.den)


def phi_component(x: RationalSlopeGerm, n: int) -> Fraction:
    """The component slope at index n."""
    return x(n)


def realize_component(x: RationalSlopeGerm, n: int) -> EudoxusReal:
    """The component at index n as a certified real of the exact slope."""
    from .reals import from_rational

    r = phi_component(x, n)
    return from_rational(r.numerator, r.denominator)


def format_leading_term(x: RationalSlopeGerm) -> str:
    c, d = leading_term(x)
    return f"{polyq.fraction_text(c)}*i^{d}"


# -- general rescalings -------------------------------------------------------


class GeneralRescaling(Record):
    """An index-to-real rule; each component carries its own certificate."""

    component_fn: Callable[[int], EudoxusReal]

    def component(self, n: int) -> EudoxusReal:
        return self.component_fn(n)


class PiecewiseRescaling(Record):
    """A rescaling given by finitely many eventually periodic pieces.

    The piece sets must partition the index line; the structure makes
    per-class equality questions decidable where a bare rule would not be.
    """

    pieces: tuple[tuple[IndexSet, EudoxusReal], ...]

    def __post_init__(self):
        from .indexset import check_partition

        check_partition(s for s, _ in self.pieces)

    def component(self, n: int) -> EudoxusReal:
        for s, v in self.pieces:
            if s.member(n):
                return v
        raise AssertionError("pieces cover the index line")

    def cells(self, pieces):
        """(s & t, v, w) for each (s, v) in self and (t, w) in `pieces` that meet."""
        from .indexset import empty, intersect

        for s, v in self.pieces:
            for t, w in pieces:
                cell = intersect(s, t)
                if cell != empty():
                    yield cell, v, w

    def add(self, other: "PiecewiseRescaling") -> "PiecewiseRescaling":
        return piecewise((c, v.add(w)) for c, v, w in self.cells(other.pieces))

    def mul(self, other: "PiecewiseRescaling") -> "PiecewiseRescaling":
        return piecewise((c, v.mul(w)) for c, v, w in self.cells(other.pieces))


def constant_rescaling(x: EudoxusReal) -> PiecewiseRescaling:
    from .indexset import full

    return PiecewiseRescaling(((full(), x),))


def piecewise(pairs) -> PiecewiseRescaling:
    return PiecewiseRescaling(tuple(pairs))


# -- equality modulo the simulated ultrafilter --------------------------------


class CertifiedEqual(Record):
    agreement: IndexSet


class CertifiedUnequal(Record):
    agreement: IndexSet


class Empirical(Record):
    agreement_fraction: Fraction


SAMPLED = 49  # indices 0..48 are all that is seen of an opaque rescaling


def eq_mod_filter(x, y, state: FilterState):
    """Equality of two rescalings modulo the simulated ultrafilter.

    By Los's theorem x = y exactly when the agreement set {n : x_n = y_n} is
    in the ultrafilter. For piecewise rescalings that set is exact: the union
    of the cells of meeting pieces whose values are certified equal. When
    every meeting pair is certified either way, the set is queried and the
    verdict is Certified. Otherwise the report is Empirical: the density of
    the cells not certified unequal over one period, or for an opaque rule,
    which is never Certified, the share of indices 0..SAMPLED-1.

    Returns (verdict, updated filter state).
    """
    from . import indexset, ufsim
    from .reals import certified_equal

    if not (isinstance(x, PiecewiseRescaling) and isinstance(y, PiecewiseRescaling)):
        agree = sum(
            certified_equal(x.component(n), y.component(n)) is not False
            for n in range(SAMPLED)
        )
        return Empirical(Fraction(agree, SAMPLED)), state

    agreement, decided = indexset.empty(), True
    for cell, v, w in x.cells(y.pieces):
        same = certified_equal(v, w)
        decided = decided and same is not None
        if same is not False:
            agreement = indexset.union(agreement, cell)
    if not decided:
        density = Fraction(agreement.period.count("1"), len(agreement.period))
        return Empirical(density), state
    verdict, state = ufsim.query(state, agreement)
    if verdict is ufsim.Verdict.ACCEPTED:
        return CertifiedEqual(agreement), state
    return CertifiedUnequal(agreement), state
