import operator
import random
from fractions import Fraction

import pytest

from eudoxus import hyper, indexset, polyq, ufsim
from eudoxus.ahom import FloorLinear, verify_bound
from eudoxus.hyper import (
    CertifiedEqual,
    CertifiedUnequal,
    DivisionByZeroGerm,
    Empirical,
    HyperKind,
    InfiniteElement,
    Order,
    PiecewiseRescaling,
    PoleAtIndex,
    RationalSlopeGerm,
    classify,
    compare,
    constant_rescaling,
    dx,
    eq_mod_filter,
    from_real,
    leading_term,
    omega,
    phi_component,
    piecewise,
    realize_component,
    standard_part,
)
from eudoxus.indexset import IndexSet
from eudoxus.reals import from_rational, from_sqrt_int

from oracles import agreement_form, interpolate_ratfn


def test_dx_examples():
    d = dx()
    assert phi_component(d, 5) == Fraction(1, 5)
    assert classify(d).kind is HyperKind.POSITIVE_INFINITESIMAL
    assert compare(d, from_real(Fraction(1, 1000))) is Order.LESS


def test_from_real_examples():
    three = from_real(3)
    assert all(phi_component(three, n) == 3 for n in range(1, 20))
    assert classify(from_real(0)).kind is HyperKind.ZERO
    cls = classify(from_real(Fraction(-7, 2)))
    assert cls.kind is HyperKind.APPRECIABLE_FINITE and cls.st == Fraction(-7, 2)


def test_arithmetic_examples():
    assert hyper.mul(dx(), omega()) == from_real(1)
    shifted = hyper.add(from_real(3), dx())
    assert shifted.num == (1, 3) and shifted.den == (0, 1)
    with pytest.raises(DivisionByZeroGerm):
        hyper.div(from_real(1), from_real(0))


def test_omega_examples():
    assert classify(omega()).kind is HyperKind.POSITIVE_INFINITE
    assert hyper.mul(omega(), dx()) == from_real(1)
    assert compare(omega(), from_real(10**6)) is Order.GREATER


def test_compare_examples():
    d = dx()
    assert compare(d, hyper.mul(d, d)) is Order.GREATER
    assert compare(hyper.add(from_real(1), d), from_real(1)) is Order.GREATER
    assert compare(d, d) is Order.EQUAL


def test_classify_examples():
    d = dx()
    assert classify(hyper.mul(d, d)).kind is HyperKind.POSITIVE_INFINITESIMAL
    ratio = hyper.div(hyper.add(omega(), from_real(1)), omega())
    cls = classify(ratio)
    assert cls.kind is HyperKind.APPRECIABLE_FINITE and cls.st == 1
    assert classify(hyper.sub(d, d)).kind is HyperKind.ZERO
    assert classify(-d).kind is HyperKind.NEGATIVE_INFINITESIMAL


def test_standard_part_examples():
    assert standard_part(hyper.add(from_real(3), dx())) == 3
    assert standard_part(dx()) == 0
    with pytest.raises(InfiniteElement):
        standard_part(omega())


def test_phi_component_examples():
    assert phi_component(dx(), 5) == Fraction(1, 5)
    square = hyper.pow_(hyper.add(from_real(1), dx()), 2)
    assert phi_component(square, 2) == Fraction(9, 4)
    assert phi_component(from_real(3), 17) == 3
    with pytest.raises(PoleAtIndex):
        phi_component(dx(), 0)


def test_realize_component_examples():
    assert realize_component(dx(), 3).rep == FloorLinear(1, 3)
    assert realize_component(from_real(Fraction(22, 7)), 11).rep == FloorLinear(22, 7)
    assert realize_component(omega(), 4).rep == FloorLinear(4, 1)
    assert verify_bound(realize_component(dx(), 3).rep, 50).ok


def _sample_germ(rng: random.Random) -> RationalSlopeGerm:
    num = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 5)))
    den = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 5)))
    if not any(den):
        den = (1,)
    return RationalSlopeGerm(num, den)


def test_ordered_field_axioms_exact():
    rng = random.Random(99)
    pool = [_sample_germ(rng) for _ in range(1000)]
    for _ in range(400):
        x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
    for _ in range(300):
        x, y = rng.choice(pool), rng.choice(pool)
        a, b = compare(x, y), compare(y, x)
        flip = {Order.LESS: Order.GREATER, Order.GREATER: Order.LESS, Order.EQUAL: Order.EQUAL}
        assert flip[a] == b
        assert (a is Order.EQUAL) == (x == y)
    for _ in range(200):
        x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if compare(x, y) is not Order.GREATER and compare(y, z) is not Order.GREATER:
            assert compare(x, z) is not Order.GREATER


def test_standard_part_is_a_ring_homomorphism():
    rng = random.Random(100)
    finite = []
    while len(finite) < 200:
        g = _sample_germ(rng)
        if classify(g).st is not None:
            finite.append(g)
    for _ in range(200):
        x, y = rng.choice(finite), rng.choice(finite)
        assert standard_part(x + y) == standard_part(x) + standard_part(y)
        assert standard_part(x * y) == standard_part(x) * standard_part(y)


def _cross_sign(x: RationalSlopeGerm, y: RationalSlopeGerm) -> int:
    """Sign of the leading coefficient of x.num*y.den - y.num*x.den, the
    whole cross product expanded by schoolbook convolution."""
    n = max(len(x.num) + len(y.den), len(y.num) + len(x.den))
    d = [0] * n
    for (p, q), s in (((x.num, y.den), 1), ((y.num, x.den), -1)):
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                d[i + j] += s * a * b
    lead = next((c for c in reversed(d) if c), 0)
    return (lead > 0) - (lead < 0)


def test_compare_matches_the_cross_product_sign():
    rng = random.Random(102)
    sign = {Order.LESS: -1, Order.EQUAL: 0, Order.GREATER: 1}
    zero = from_real(0)
    seen = set()
    for case in range(3000):
        x = _sample_germ(rng)
        kind = case % 5
        if kind == 0:  # independent: mostly distinct degree gaps
            y = _sample_germ(rng)
        elif kind == 1:  # tied leading terms: x plus a lower-order multiple
            y = x + x * dx() * from_real(rng.choice([-3, -1, 2]))
        elif kind == 2:  # equal degree gaps, leading ratios usually apart
            y = x * from_real(Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
        elif kind == 3:  # the same germ, built apart from a scaled quotient
            k = rng.randint(2, 9)
            y = hyper.germ(polyq.scale(x.num, k), polyq.scale(x.den, k))
        else:
            y = zero
        for a, b in ((x, y), (y, x)):
            verdict = sign[compare(a, b)]
            assert verdict == _cross_sign(a, b)
            tie = not a.is_zero() and leading_term(a) == leading_term(b)
            seen.add((kind, verdict, tie))
    assert sign[compare(zero, zero)] == 0
    # Every shape above produced each verdict it can, ties included.
    assert {(1, -1, True), (1, 1, True), (2, -1, False), (2, 1, False)} <= seen
    assert {(3, 0, True), (4, -1, False), (4, 1, False)} <= seen


def test_compare_has_a_computable_threshold():
    rng = random.Random(101)
    done = 0
    while done < 60:
        x, y = _sample_germ(rng), _sample_germ(rng)
        verdict = compare(x, y)
        if verdict is Order.EQUAL:
            continue
        d = hyper.sub(x, y)
        bound = max(abs(c) for c in d.num) + max(abs(c) for c in d.den)
        start = bound + 1
        for i in range(start, start + 1000, 7):
            vx, vy = phi_component(x, i), phi_component(y, i)
            if verdict is Order.GREATER:
                assert vx > vy
            else:
                assert vx < vy
        done += 1


def test_phi_round_trip_by_interpolation():
    rng = random.Random(102)
    for _ in range(40):
        g = _sample_germ(rng)
        dn, dd = polyq.degree(g.num), max(0, polyq.degree(g.den))
        if dn < 0:
            continue
        needed = dn + dd + 2
        samples = []
        n = 1
        while len(samples) < needed:
            try:
                samples.append((n, phi_component(g, n)))
            except PoleAtIndex:
                pass
            n += 1
        num, den = interpolate_ratfn(samples, dn, dd)
        assert RationalSlopeGerm(num, den) == g


def test_realize_component_slope_matches_phi():
    rng = random.Random(103)
    for _ in range(60):
        g = _sample_germ(rng)
        for n in range(1, 6):
            try:
                r = phi_component(g, n)
            except PoleAtIndex:
                continue
            comp = realize_component(g, n)
            k = 20
            assert abs(comp.slope_approx(k) - r) <= Fraction(comp.rep.bound, 2**k)


def test_leading_term_and_format():
    assert leading_term(dx()) == (Fraction(1), -1)
    assert leading_term(omega()) == (Fraction(1), 1)
    assert leading_term(from_real(Fraction(-3, 4))) == (Fraction(-3, 4), 0)
    assert str(hyper.add(from_real(3), dx())) == "(3*i + 1)/i"
    assert str(from_real(5)) == "5"
    assert str(hyper.germ((1,), (1, 1))) == "1/(i + 1)"


def test_piecewise_requires_disjoint_cover():
    with pytest.raises(ValueError):
        piecewise(((indexset.evens(), from_sqrt_int(2)),))
    with pytest.raises(ValueError):
        piecewise(
            (
                (indexset.evens(), from_sqrt_int(2)),
                (indexset.full(), from_sqrt_int(3)),
            )
        )


def test_eq_mod_filter_identical_rules():
    x = constant_rescaling(from_sqrt_int(2))
    verdict, state = eq_mod_filter(x, x, ufsim.fresh_state())
    assert isinstance(verdict, CertifiedEqual)
    assert verdict.agreement == indexset.full()


def test_eq_mod_filter_piecewise_agreement_on_evens():
    x = piecewise(
        (
            (indexset.evens(), from_sqrt_int(2)),
            (indexset.odds(), from_rational(0, 1)),
        ),
    )
    y = constant_rescaling(from_sqrt_int(2))

    # With evens already accepted the verdict is certified equality.
    _, state = ufsim.query(ufsim.fresh_state(), indexset.evens())
    verdict, state = eq_mod_filter(x, y, state)
    assert isinstance(verdict, CertifiedEqual)
    assert verdict.agreement == indexset.evens()

    # From a fresh state the accept-first policy forces the same verdict.
    verdict, state = eq_mod_filter(x, y, ufsim.fresh_state())
    assert isinstance(verdict, CertifiedEqual)
    assert (indexset.evens(), ufsim.Verdict.ACCEPTED) in state.log


def test_eq_mod_filter_certified_unequal_after_commitment():
    x = piecewise(
        (
            (indexset.evens(), from_sqrt_int(2)),
            (indexset.odds(), from_rational(0, 1)),
        )
    )
    y = constant_rescaling(from_sqrt_int(2))
    _, state = ufsim.query(ufsim.fresh_state(), indexset.odds())
    verdict, state = eq_mod_filter(x, y, state)
    assert isinstance(verdict, CertifiedUnequal)


def test_eq_mod_filter_empirical_when_not_certifiable():
    # A reciprocal of unlike radicals has no exact slope, and it meets a
    # rational within 10^-16 of it, which no 64-point window refutes.
    blurry = from_sqrt_int(2).add(from_sqrt_int(3)).recip(1 << 20)
    close = from_rational(317837245195782, 10**15)
    x = constant_rescaling(blurry)
    y = constant_rescaling(close)
    verdict, _ = eq_mod_filter(x, y, ufsim.fresh_state())
    assert isinstance(verdict, Empirical)
    assert 0 <= verdict.agreement_fraction <= 1


def test_eq_mod_filter_agreement_changing_past_index_48():
    s = IndexSet("", "1" * 49 + "0")
    x = piecewise(((s, from_sqrt_int(2)), (indexset.complement(s), from_sqrt_int(3))))
    y = constant_rescaling(from_sqrt_int(2))
    _, state = ufsim.query(ufsim.fresh_state(), indexset.complement(s))
    verdict, state = eq_mod_filter(x, y, state)
    assert verdict == CertifiedUnequal(s)
    assert ufsim.contains(state, verdict.agreement) is ufsim.Containment.FORCED_OUT


def test_eq_mod_filter_opaque_rescaling_is_never_certified():
    state = ufsim.fresh_state()
    root2 = hyper.GeneralRescaling(lambda n: from_sqrt_int(2))
    assert eq_mod_filter(root2, root2, state) == (Empirical(Fraction(1)), state)
    # Of indices 0..48 the 24 odd ones agree with the constant 1.
    parity = hyper.GeneralRescaling(lambda n: from_rational(n % 2, 1))
    one = constant_rescaling(from_rational(1, 1))
    assert eq_mod_filter(parity, one, state) == (Empirical(Fraction(24, 49)), state)


# Representations of each exact value, by label. "blur" and "near" differ,
# but no certificate can tell them apart.
_REPRESENTATIONS = {
    "2": (from_rational(2, 1), from_sqrt_int(4)),
    "sqrt2": (from_sqrt_int(2),),
    "3/2": (from_rational(3, 2),),
    # 1/(sqrt(2) + sqrt(3)) has no exact slope, and no 64-point window
    # refutes it against a rational within 10^-16 of it.
    "blur": (from_sqrt_int(2).add(from_sqrt_int(3)).recip(1 << 20),),
    "near": (from_rational(317837245195782, 10**15),),
}


def _random_rule(rng: random.Random, labels):
    """A piecewise rescaling with preperiod 0-5 and period 1-60, and the
    (pre, period) lists of the labels of its values."""
    pre = [rng.choice(labels) for _ in range(rng.randint(0, 5))]
    period = [rng.choice(labels) for _ in range(rng.randint(1, 60))]

    def bits(seq, label):
        return "".join("1" if v == label else "0" for v in seq)

    rule = piecewise(
        (IndexSet(bits(pre, v), bits(period, v)), rng.choice(_REPRESENTATIONS[v]))
        for v in sorted(set(pre + period))
    )
    return (pre, period), rule


def _random_set(rng: random.Random) -> IndexSet:
    pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
    return IndexSet(pre, "".join(rng.choice("01") for _ in range(rng.randint(1, 12))))


def test_eq_mod_filter_matches_brute_force_agreement():
    rng = random.Random(1212)
    seen = []
    for case in range(150):
        labels = ["2", "sqrt2", "3/2"] + (["blur", "near"] if case % 3 == 0 else [])
        (xl, x), (yl, y) = _random_rule(rng, labels), _random_rule(rng, labels)
        exact = agreement_form(xl, yl, operator.eq)
        priors = [_random_set(rng) for _ in range(rng.randint(0, 3))]
        if case % 2:  # commit to the disagreement set first, as in the repro
            priors.insert(0, indexset.complement(IndexSet(*exact)))
        state = ufsim.fresh_state()
        for prior in priors:
            _, state = ufsim.query(state, prior)
        verdict, after = eq_mod_filter(x, y, state)
        possible = agreement_form(
            xl, yl, lambda a, b: a == b or {a, b} == {"blur", "near"}
        )
        seen.append(type(verdict))
        if possible != exact:
            # Some meeting pair is undecided: the density of the cells not
            # certified unequal, and no commitment.
            period = possible[1]
            assert verdict == Empirical(Fraction(period.count("1"), len(period)))
            assert after == state
            continue
        agreement = IndexSet(*exact)
        accepted, expected = ufsim.query(state, agreement)
        if accepted is ufsim.Verdict.ACCEPTED:
            assert verdict == CertifiedEqual(agreement)
            assert ufsim.contains(after, agreement) is ufsim.Containment.FORCED_IN
        else:
            assert verdict == CertifiedUnequal(agreement)
            assert ufsim.contains(after, agreement) is ufsim.Containment.FORCED_OUT
        assert after == expected
    assert {CertifiedEqual, CertifiedUnequal, Empirical} <= set(seen)
