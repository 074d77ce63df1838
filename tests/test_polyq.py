import random

import pytest

from eudoxus import polyq

from oracles import fraction_long_division


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
