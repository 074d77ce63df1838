"""The ordered field of reals represented by almost homomorphisms.

A real is an almost homomorphism considered modulo bounded maps; the slope
lim f(n)/n is the number it denotes, and the certified bound C turns every
finite computation into an interval statement: |f(n)/n - r| <= C/n for n >= 1.

Equality is decided on the ring that rationals and roots generate under +,
-, * and is semidecidable beyond it, and the API never pretends otherwise: a
sign read takes a budget and may answer "zero within eps", and
`equals_within` is the window surrogate used by the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from . import Record, ahom
from .ahom import (
    AlmostHom,
    Compose,
    FloorLinear,
    FloorSqrt,
    Invert,
    Neg,
    Sum,
)
from .polyq import decimal_of_fraction


class UndecidedSign(Exception):
    """The sign scan exhausted its budget; carries the certified radius."""
    exit_code = 2  # the CLI's exit code: budget exhausted

    def __init__(self, eps: Fraction, budget: int):
        super().__init__(
            f"sign undecided within budget {budget}; |value| <= {eps}"
        )
        self.eps = eps
        self.budget = budget


class Positive(Record):
    pass


class Negative(Record):
    pass


class ZeroWithin(Record):
    """Certified interval verdict: the represented real r has |r| <= eps."""

    eps: Fraction


class EudoxusReal(Record):
    """A real number carried by a chosen certified representative."""

    rep: AlmostHom

    # -- field structure ----------------------------------------------------

    def add(self, other: "EudoxusReal") -> "EudoxusReal":
        return EudoxusReal(Sum(self.rep, other.rep))

    def neg(self) -> "EudoxusReal":
        return EudoxusReal(Neg(self.rep))

    def sub(self, other: "EudoxusReal") -> "EudoxusReal":
        return self.add(other.neg())

    def mul(self, other: "EudoxusReal") -> "EudoxusReal":
        """Multiplication is composition of representatives. A factor that is
        the identity map leaves the other one as it is, and a product of two
        known slopes is carried by the product slope's `Slope.rep`. Otherwise
        a known slope goes outside, where `Compose.bound` reads it at +-C of
        the other factor f; an f at most SHALLOW deep stays outside where
        that bound is no larger."""
        f, g = self.rep, other.rep
        if f == _IDENTITY:
            return other
        if g == _IDENTITY:
            return self
        if f.slope is None and g.slope is not None:
            orders = (Compose(g, f),) if f.depth > ahom.SHALLOW else (Compose(f, g), Compose(g, f))
            return EudoxusReal(min(orders, key=lambda h: h.bound))
        if f.slope is None or g.slope is None:
            return EudoxusReal(Compose(f, g))
        return EudoxusReal(f.slope.times(g.slope).rep())

    def recip(self, budget: int) -> "EudoxusReal":
        """Multiplicative inverse, requiring a decided sign within budget.

        A negative f is inverted as -(1/(-f)), at the witness n of f's own
        scan: the first probe with |f(n)| > C is the first with -f(n) > C.
        """
        n, v = self._scan(budget)
        f, c = self.rep, self.rep.bound
        if v > c:
            return EudoxusReal(Invert(f, n))
        if v < -c:
            return EudoxusReal(Neg(Invert(Neg(f), n)))
        raise UndecidedSign(Fraction(c + abs(v), n), budget)

    __add__, __sub__, __mul__, __neg__ = add, sub, mul, neg

    # -- observation --------------------------------------------------------

    def slope_approx(self, k: int) -> Fraction:
        """rep(2^k)/2^k; within bound/2^k of the represented real."""
        if k < 0:
            raise ValueError("dyadic depth must be nonnegative")
        n = 1 << k
        return Fraction(self.rep.eval(n), n)

    def _scan(self, budget: int) -> tuple[int, int]:
        """(n, f(n)) at the first n = 1, 2, 4, ... <= budget with |f(n)| > C,
        or at the last n probed when there is none."""
        if budget < 1:
            raise ValueError("budget must be positive")
        f, c = self.rep, self.rep.bound
        n = 1
        while True:
            v = f.eval(n)
            if abs(v) > c or 2 * n > budget:
                return n, v
            n *= 2

    def sign_budget(self, budget: int):
        """The sign read from one scan of n = 1, 2, 4, ... <= budget.

        f(n) > C certifies r > 0 and f(n) < -C certifies r < 0 because
        |f(n) - r*n| <= C for n >= 1. If no witness appears the verdict is
        ZeroWithin((C + |f(n_max)|)/n_max), which is equally certified.
        """
        n, v = self._scan(budget)
        c = self.rep.bound
        if v > c:
            return Positive()
        if v < -c:
            return Negative()
        return ZeroWithin(Fraction(c + abs(v), n))

    def equals_within(self, other: "EudoxusReal", window: int) -> bool:
        """Window surrogate for class equality, read at n = 0..window.

        If the two elements are equal then h = f - g has |h(n)| <= tol =
        C_f + C_g for all n >= 0, so a violation refutes equality while a pass
        certifies agreement at every probed scale; the negative half is then
        implied, as h(-n) = h(0) - h(n) - d_h(n, -n) with each term at most tol.
        Where `ahom.form_terms` gives h's exact slope r in at most one term,
        r decides: |h(n) - r*n| <= tol at every n (the slope lemma in
        `ahom.Compose`), so r = 0 passes, and |r|*window > 2*tol fails, with
        |h(window)| > tol. Otherwise h is evaluated once, as its form.
        """
        if window < 1:
            raise ValueError("window must be positive")
        diff = Sum(self.rep, Neg(other.rep))
        tol = diff.bound  # C_f + C_g
        terms = ahom.form_terms(ahom.linear_form(diff))
        if terms is not None and len(terms) < 2:
            if not terms or terms[0].scaled(window).exceeds(2 * tol):
                return not terms
        vals = ahom.eval_range(diff, range(window + 1))
        return -tol <= min(vals) and max(vals) <= tol

    def eval_index(self, digits: int) -> int:
        """The index n that `to_decimal(digits)` evaluates at.

        It is chosen with bound/n <= 0.5 * 10^-(digits+2), two guard digits
        below the contract, so the final rounding step owns almost the whole
        error allowance.
        """
        return 2 * self.rep.bound * 10 ** (digits + 2)

    def to_decimal(self, digits: int) -> str:
        """Signed decimal string within 10^-digits of the represented real;
        rep(n) is read from rep's linear form, so cancelled terms cost nothing."""
        if digits < 1:
            raise ValueError("digits must be positive")
        n = self.eval_index(digits)
        v = sum(c * g.eval(n) for g, c in ahom.linear_form(self.rep).values())
        return decimal_of_fraction(Fraction(v, n), digits)


def from_rational(p: int, q: int) -> EudoxusReal:
    """The rational p/q, represented exactly by the slope-p/q line."""
    return EudoxusReal(FloorLinear(p, q))


def from_sqrt_int(k: int) -> EudoxusReal:
    """The square root of a nonnegative integer k."""
    return EudoxusReal(FloorSqrt(k))


_IDENTITY = FloorLinear(1, 1)


# -- decidable slice of equality ---------------------------------------------
#
# On the rule catalogue many elements have an exact slope q * sqrt(k), an
# `ahom.Slope` that each node carries as `slope` where its structure decides
# it, and `ahom.form_terms` reads that of any +, -, * tree over roots as
# unlike radicals: a sound, certified equality decision. A certified window
# violation gives a sound inequality decision; all else is undecided (None).

REFUTATION_WINDOW = 64  # the window certified_equal searches for a violation


def certified_equal(x: EudoxusReal, y: EudoxusReal):
    """Three-valued equality: True/False when certified, None when undecided;
    x = y exactly when the terms of x - y are empty."""
    sx, sy = x.rep.slope, y.rep.slope
    if sx is not None and sy is not None:
        return sx.same(sy)
    terms = ahom.form_terms(ahom.linear_form(Sum(x.rep, Neg(y.rep))))
    if terms is not None:
        return not terms
    if not x.equals_within(y, REFUTATION_WINDOW):
        return False
    return None
