import random
from fractions import Fraction

import pytest

from eudoxus import calculus, hyper, polyq
from eudoxus.calculus import (
    RatFunction,
    SubstitutionPole,
    adequal,
    derivative_at,
    extend,
    from_coeffs,
    variable,
)
from eudoxus.hyper import dx, from_real, omega

from oracles import poly_derivative, poly_eval, ratfn_derivative_value


def test_extend_examples():
    square = from_coeffs((0, 0, 1))
    shifted = extend(square, hyper.add(from_real(1), dx()))
    assert shifted == hyper.germ((1, 2, 1), (0, 0, 1))  # (i+1)^2 / i^2
    assert extend(RatFunction.constant(5), dx()) == from_real(5)
    reciprocal = RatFunction.constant(1) / variable()
    assert extend(reciprocal, dx()) == omega()


def test_extend_pole():
    reciprocal = RatFunction.constant(1) / variable()
    with pytest.raises(SubstitutionPole):
        extend(reciprocal, from_real(0))


def test_derivative_examples():
    assert derivative_at(from_coeffs((0, 0, 1)), 3) == 6
    assert derivative_at(from_coeffs((0, -2, 0, 1)), 2) == 10
    assert derivative_at(RatFunction.constant(5), Fraction(7, 3)) == 0


def test_derivative_pole():
    reciprocal = RatFunction.constant(1) / variable()
    with pytest.raises(SubstitutionPole):
        derivative_at(reciprocal, 0)
    assert derivative_at(reciprocal, 2) == Fraction(-1, 4)


def _random_poly(rng: random.Random, max_deg: int = 8) -> tuple:
    deg = rng.randint(0, max_deg)
    coeffs = [
        Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(deg + 1)
    ]
    return tuple(coeffs)


def test_extend_agrees_with_pointwise_evaluation():
    # extend(f, x) is the germ whose value at index i is f(x(i)); this holds
    # at every index where x and f(x(i)) are defined, the zero function too.
    rng = random.Random(319)
    for trial in range(200):
        if trial % 10 == 0:
            f = RatFunction.constant(0)
        else:
            f = RatFunction(_random_poly(rng, 16), _random_poly(rng, 16))
        num = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
        den = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))] + [rng.randint(1, 9)]
        x = hyper.germ(num, den)
        try:
            fx = extend(f, x)
        except SubstitutionPole:
            fx = None
        for i in range(25):
            try:
                expected = f(x(i))
            except (hyper.PoleAtIndex, SubstitutionPole):
                continue
            assert fx is not None and fx(i) == expected, (f, x, i)


def test_derivative_matches_symbolic_oracle_exactly():
    rng = random.Random(314)
    for _ in range(60):
        coeffs = _random_poly(rng)
        x0 = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        f = from_coeffs(coeffs)
        assert derivative_at(f, x0) == poly_eval(poly_derivative(coeffs), x0)


def test_derivative_on_rational_functions_matches_quotient_rule():
    rng = random.Random(315)
    done = 0
    while done < 30:
        num = _random_poly(rng, 4)
        den = _random_poly(rng, 3)
        if not any(den):
            continue
        f = RatFunction(num, den)
        x0 = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        if poly_eval(den, x0) == 0:
            continue
        assert derivative_at(f, x0) == ratfn_derivative_value(num, den, x0)
        done += 1


def test_linearity_and_product_rule_exact():
    rng = random.Random(316)
    for _ in range(40):
        cf, cg = _random_poly(rng, 5), _random_poly(rng, 5)
        f, g = from_coeffs(cf), from_coeffs(cg)
        x0 = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        assert derivative_at(f + g, x0) == derivative_at(f, x0) + derivative_at(g, x0)
        assert derivative_at(f * g, x0) == f(x0) * derivative_at(g, x0) + derivative_at(
            f, x0
        ) * g(x0)


def test_squared_increment_gives_the_same_derivative():
    # The derivative is increment-independent: replacing the canonical
    # infinitesimal h by h^2 must not change the standard part of the ratio.
    rng = random.Random(317)
    h = dx()
    h2 = hyper.mul(h, h)
    for _ in range(20):
        coeffs = _random_poly(rng, 6)
        f = from_coeffs(coeffs)
        x0 = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        shifted = extend(f, hyper.add(from_real(x0), h2))
        ratio = hyper.div(hyper.sub(shifted, from_real(f(x0))), h2)
        assert hyper.standard_part(ratio) == derivative_at(f, x0)


def test_adequal_examples():
    assert adequal(hyper.add(from_real(3), dx()), from_real(3))
    assert not adequal(omega(), hyper.add(omega(), from_real(1)))
    assert adequal(dx(), hyper.mul(dx(), dx()))


def test_adequal_is_an_equivalence_on_finite_germs():
    rng = random.Random(318)
    finite = []
    while len(finite) < 30:
        num = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 3)))
        den = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 3)))
        if not any(den):
            continue
        g = hyper.RationalSlopeGerm(num, den)
        if hyper.classify(g).st is not None:
            finite.append(g)
    for g in finite:
        assert adequal(g, g)
    for _ in range(200):
        a, b, c = rng.choice(finite), rng.choice(finite), rng.choice(finite)
        assert adequal(a, b) == adequal(b, a)
        if adequal(a, b) and adequal(b, c):
            assert adequal(a, c)


def test_ratfunction_normal_form():
    f = RatFunction((Fraction(1, 2), Fraction(1, 2)), (1,))
    g = RatFunction((1, 1), (2,))
    assert f == g
    assert str(from_coeffs((0, -2, 0, 1))) == "x^3 - 2*x"
    assert str(RatFunction((0, 0, 1), (1, 1))) == "x^2/(x + 1)"
    assert str(RatFunction((1, 1), (0, 1))) == "(x + 1)/x"


def test_bare_ratfun_pole_is_zero_division():
    f = polyq.RatFun((1,), (-1, 1))
    assert f(3) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError, match="pole at 1"):
        f(1)
