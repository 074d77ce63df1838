"""Differentiation through infinitesimal increments.

Rational functions over the rationals extend exactly to the germ field, so
the difference quotient (f(x0 + h) - f(x0))/h with h the canonical
infinitesimal is itself a germ, and its standard part is the derivative -
computed exactly, with no limits, tolerances, or floating point. The class of
functions is restricted to rational functions precisely so that every step of
this pipeline stays exact.
"""

from __future__ import annotations

from fractions import Fraction

from . import hyper, polyq
from .hyper import RationalSlopeGerm, dx, from_real, leading_term, standard_part


class SubstitutionPole(ZeroDivisionError):
    """The function's denominator vanishes at the substitution point."""


class RatFunction(polyq.RatFun):
    """Quotient of integer-coefficient polynomials in one variable: the
    shared quotient type, read as a function of x.

    Rational coefficients are accepted at construction and cleared to the
    reduced integer normal form, so equal functions are structurally equal.
    """

    def pole(self, x0) -> Exception:
        return SubstitutionPole(f"pole at x = {polyq.fraction_text(x0)}")


def variable() -> RatFunction:
    return RatFunction((0, 1), (1,))


def from_coeffs(coeffs) -> RatFunction:
    """Polynomial with the given coefficients, lowest degree first."""
    return RatFunction(tuple(coeffs), (1,))


def extend(f: RatFunction, x: RationalSlopeGerm) -> RationalSlopeGerm:
    """Evaluate f at a germ argument by exact substitution.

    With D = max(deg f.num, deg f.den), both f.num and f.den are evaluated
    as x.den^D * p(x.num/x.den) by homogeneous Horner; the factor x.den^D
    cancels in the quotient.
    """
    d = max(polyq.degree(f.num), polyq.degree(f.den))
    top: polyq.Coeffs = ()
    bottom: polyq.Coeffs = ()
    power: polyq.Coeffs = (1,)  # x.den^(d - k)
    for k in range(d, -1, -1):
        a = f.num[k] if k < len(f.num) else 0
        b = f.den[k] if k < len(f.den) else 0
        top = polyq.add(polyq.mul(top, x.num), polyq.scale(power, a))
        bottom = polyq.add(polyq.mul(bottom, x.num), polyq.scale(power, b))
        power = polyq.mul(power, x.den)
    if not bottom:
        raise SubstitutionPole("denominator vanishes identically at the argument")
    return RationalSlopeGerm(top, bottom)


def derivative_at(f: RatFunction, x0) -> Fraction:
    """The real adequal to the ratio (f(x0 + h) - f(x0)) / h.

    For rational f this is the formal derivative at x0, exactly.
    """
    x0 = Fraction(x0)
    fx0 = f(x0)  # raises SubstitutionPole off the domain
    h = dx()
    shifted = hyper.add(from_real(x0), h)
    dy = hyper.sub(extend(f, shifted), from_real(fx0))
    return standard_part(hyper.div(dy, h))


def adequal(x: RationalSlopeGerm, y: RationalSlopeGerm) -> bool:
    """True when x - y is zero or infinitesimal: a zero leading coefficient
    or a negative degree gap in `leading_term`."""
    lead, gap = leading_term(hyper.sub(x, y))
    return lead == 0 or gap < 0
