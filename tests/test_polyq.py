import random
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

import pytest

from eudoxus import polyq
from eudoxus.calculus import RatFunction
from eudoxus.hyper import RationalSlopeGerm

from oracles import fraction_gcd, fraction_long_division, poly_eval


def _poly(rng: random.Random, degree: int) -> tuple:
    coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
    return tuple(coeffs)


def test_divide_exact_recovers_the_cofactor():
    rng = random.Random(91)
    for _ in range(500):
        a, b = _poly(rng, rng.randint(0, 8)), _poly(rng, rng.randint(0, 6))
        quotient, remainder = fraction_long_division(polyq.mul(a, b), b)
        assert not any(remainder)
        assert polyq.divide_exact(polyq.mul(a, b), b) == tuple(quotient) == a


def test_divide_exact_raises_when_not_exact():
    rng = random.Random(92)
    for case in range(500):
        b = _poly(rng, rng.randint(1, 5))
        if case % 2:
            # Exact over the rationals, but the quotient a/2 is not integral.
            a = _poly(rng, rng.randint(0, 6))
            a = (a[0] | 1,) + a[1:]
            p, d = polyq.mul(a, b), polyq.scale(b, 2)
        else:
            p, d = _poly(rng, rng.randint(0, 9)), b
        quotient, remainder = fraction_long_division(p, d)
        assert any(remainder) or any(c.denominator != 1 for c in quotient)
        with pytest.raises(ArithmeticError):
            polyq.divide_exact(p, d)


def test_divide_exact_examples():
    assert polyq.divide_exact((), (1, 1)) == ()
    assert polyq.divide_exact((-1, 0, 1), (1, 1)) == (-1, 1)
    with pytest.raises(ArithmeticError):
        polyq.divide_exact((1, 1), (2, 2))
    with pytest.raises(ArithmeticError):
        polyq.divide_exact((1,), (1, 1))


def _wide_poly(rng: random.Random, degree: int, size: int) -> tuple:
    """Coefficients up to `size` in absolute value, with a nonzero lead of
    either sign."""
    lead = rng.choice([-1, 1]) * rng.randint(1, size)
    return tuple(rng.randint(-size, size) for _ in range(degree)) + (lead,)


def _gcd_cases(rng: random.Random):
    """Pairs with a planted common factor, coprime pairs, an integer content
    shared by both sides (as 6a over 4b), x^m on one side only, constants and
    zero."""
    for case in range(2400):
        size = rng.choice([9, 1000, 10**6])
        a = _wide_poly(rng, rng.randint(0, 6), size)
        b = _wide_poly(rng, rng.randint(0, 6), size)
        if case % 3:
            common = _wide_poly(rng, rng.randint(1, 4), rng.choice([3, size]))
            a, b = polyq.mul(common, a), polyq.mul(common, b)
        if case % 5 == 1:
            k = rng.choice([2, 6, 12, 30, 97])
            a, b = polyq.scale(a, k * rng.randint(1, 5)), polyq.scale(b, k * rng.randint(1, 5))
        elif case % 5 == 2:
            x_m = (0,) * rng.randint(1, 8) + (1,)
            a, b = (polyq.mul(x_m, a), b) if case % 2 else (a, polyq.mul(x_m, b))
        if case % 50 == 0:
            a = ()
        elif case % 50 == 1:
            b = (rng.randint(1, size),)
        yield a, b


def _x_power_cases(rng: random.Random):
    """`_gcd_cases` with a power x^m, m up to 50, planted on one side or both."""
    for case, (a, b) in zip(range(240), _gcd_cases(rng)):
        x_m = (0,) * rng.randint(1, 50) + (1,)
        a = polyq.mul(x_m, a)
        if case % 2:
            b = polyq.mul((0,) * rng.randint(1, 50) + (1,), b)
        yield a, b


def _expected_normal_form(num, den):
    """num/den in lowest terms through the oracle gcd and Fraction division."""
    if not num:
        return (), (1,)
    g = fraction_gcd(num, den)
    n, d = fraction_long_division(num, g)[0], fraction_long_division(den, g)[0]
    assert all(c.denominator == 1 for c in n + d)
    c = gcd(*(int(v) for v in n + d))
    c = c if d[-1] > 0 else -c
    return tuple(int(v) // c for v in n), tuple(int(v) // c for v in d)


def test_gcd_and_normal_form_match_the_euclid_oracle():
    cases = chain(_gcd_cases(random.Random(93)), _x_power_cases(random.Random(94)))
    for a, b in cases:
        assert polyq.gcd(a, b) == fraction_gcd(a, b)
        if b:
            assert polyq.normalize_ratfun(a, b) == _expected_normal_form(a, b)


def _cleared(coeffs, m):
    """Fraction or float coefficients times m, as ints (m clears them all)."""
    scaled = [Fraction(c) * m for c in coeffs]
    assert all(c.denominator == 1 for c in scaled)
    return tuple(int(c) for c in scaled)


@pytest.mark.parametrize("view", [RationalSlopeGerm, RatFunction], ids=lambda v: v.__name__)
def test_views_built_from_fractions_and_floats_store_the_cleared_normal_form(view):
    rng = random.Random(96)
    for case in range(400):
        a = _wide_poly(rng, rng.randint(0, 4), 9)
        b = _wide_poly(rng, rng.randint(0, 4), 9)
        if case % 2:
            common = _wide_poly(rng, rng.randint(1, 2), 3)
            a, b = polyq.mul(common, a), polyq.mul(common, b)
        num = [Fraction(c, rng.randint(1, 12)) for c in a]
        den = [c / rng.choice([1, 2, 4, 8]) if case % 3 else Fraction(c, 6) for c in b]
        m = lcm(*(Fraction(c).denominator for c in num + den))
        f = view(tuple(num), tuple(den))
        assert (f.num, f.den) == _expected_normal_form(_cleared(num, m), _cleared(den, m))
        assert all(type(c) is int for c in f.num + f.den), (num, den)


def test_gcd_examples():
    assert polyq.gcd((-2, 0, 2), (3, 3)) == (1, 1)  # (x - 1)(x + 1) and x + 1
    assert polyq.gcd((0, -4), (0, 0, 6)) == (0, 1)
    assert polyq.gcd((5,), (0, 1)) == (1,)
    assert polyq.gcd((), (0, -3)) == (0, 1)
    assert polyq.gcd((), ()) == ()
    assert polyq.gcd((1, 2, 1, 0, 0), (-1, -1)) == (1, 1)  # untrimmed input


def test_gcd_falls_back_to_pseudo_remainders(pseudo_rem_calls):
    # x^13 - x and x^13 - x + 2730 are coprime, yet both are divisible by
    # 2730 = 2*3*5*7*13 at every integer (Fermat), so every evaluation gcd
    # carries that factor, and at each of the heuristic's points its digits
    # fail to read back as a divisor.
    x13 = (0, -1) + (0,) * 11 + (1,)
    common = (1, 1)
    a = polyq.mul(common, x13)
    b = polyq.mul(common, polyq.add(x13, (2730,)))
    assert polyq.gcd(a, b) == fraction_gcd(a, b) == common
    assert pseudo_rem_calls


def test_coprime_gcd_exits_without_pseudo_remainders(pseudo_rem_calls):
    x, x_plus_1 = (0, 1), (1, 1)
    assert polyq.gcd(polyq.pow_(x_plus_1, 1000), polyq.pow_(x, 1000)) == (1,)
    shifted = polyq.sub(polyq.pow_(x_plus_1, 400), polyq.pow_(x, 400))
    assert polyq.gcd(shifted, polyq.pow_(x, 400)) == (1,)
    assert not pseudo_rem_calls


@pytest.mark.parametrize("x", [0, 1, -1, -3, 7, 10**50, -(10**30), Fraction(-7, 3)], ids=str)
def test_eval_at_matches_horner_at_every_length(x):
    rng = random.Random(95)
    for length in chain(range(0, 70), range(70, 301, 23), (300,)):
        size = rng.choice([9, 10**6, 10**40])
        p = tuple(rng.randint(-size, size) for _ in range(length))
        value = polyq.eval_at(p, x)
        assert value == poly_eval(p, x), (length, x)
        assert type(value) is type(x) or not p


def test_trim_keeps_a_trimmed_tuple():
    p = (1, 2, 3)
    assert polyq.trim(p) is p
    assert polyq.trim(()) == ()
    assert polyq.trim((1, 0, 0)) == (1,)
    assert polyq.trim([0, 0]) == ()
