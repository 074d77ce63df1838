import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from eudoxus import ahom, reals
from eudoxus.ahom import (
    Compose,
    FloorLinear,
    FloorSqrt,
    Invert,
    Neg,
    Sum,
    format_rule,
    parse_rule,
    verify_bound,
)
from eudoxus.reals import (
    EudoxusReal,
    Negative,
    Positive,
    UndecidedSign,
    ZeroWithin,
    certified_equal,
    decimal_of_fraction,
    from_rational,
    from_sqrt_int,
)

from oracles import (
    bisect_isqrt,
    int_multiple,
    long_division_decimal,
    sqrt_decimal_truncated,
    squarefree_map,
    squarefree_slope,
    tree_bound,
    tree_direction,
    tree_slope,
    window_equal,
)


def test_from_rational_examples():
    assert from_rational(1, 2).rep.eval(1024) == 512
    zero = from_rational(0, 1)
    assert isinstance(zero.sign_budget(1024), ZeroWithin)
    v = from_rational(22, 7).slope_approx(16)
    assert v == Fraction(205970, 65536)
    assert abs(v - Fraction(22, 7)) <= Fraction(1, 2**16)


def test_from_rational_rejects_bad_denominator():
    with pytest.raises(ValueError):
        from_rational(1, 0)
    with pytest.raises(ValueError):
        from_rational(1, -2)


def test_from_sqrt_examples():
    assert from_sqrt_int(4).equals_within(from_rational(2, 1), 256)
    assert from_sqrt_int(2).to_decimal(5) == "1.41421"
    assert isinstance(from_sqrt_int(0).sign_budget(64), ZeroWithin)


def test_field_operation_examples():
    two = from_sqrt_int(2)
    assert two.mul(two).equals_within(from_rational(2, 1), 512)
    x = from_sqrt_int(3)
    assert x.mul(from_rational(1, 1)).equals_within(x, 256)
    lhs = from_rational(1, 3).add(from_rational(1, 6))
    assert lhs.equals_within(from_rational(1, 2), 256)


def test_recip_examples():
    half = from_rational(2, 1).recip(1 << 20)
    v = half.slope_approx(12)
    assert abs(v - Fraction(1, 2)) <= Fraction(1, 2**10)
    root = from_sqrt_int(2)
    assert root.mul(root.recip(1 << 20)).equals_within(from_rational(1, 1), 200)
    with pytest.raises(UndecidedSign):
        from_rational(0, 1).recip(1 << 20)


def test_recip_negative_and_representative_certificate():
    inv = from_rational(-3, 4).recip(1 << 20)
    assert abs(inv.slope_approx(14) - Fraction(-4, 3)) <= Fraction(
        inv.rep.bound, 2**14
    )
    assert verify_bound(from_rational(5, 2).recip(1 << 20).rep, 40).ok


def test_slope_approx_examples():
    assert from_rational(1, 2).slope_approx(10) == Fraction(1, 2)
    v = from_sqrt_int(2).slope_approx(20)
    assert abs(v * v - 2) <= Fraction(4, 2**20)
    n = 1 << 16
    assert from_rational(22, 7).slope_approx(16) == Fraction(22 * n // 7, n)


def test_sign_budget_examples():
    assert isinstance(from_rational(1, 3).sign_budget(64), Positive)
    verdict = from_rational(0, 1).sign_budget(1024)
    assert isinstance(verdict, ZeroWithin) and verdict.eps <= Fraction(1, 1024)
    two = from_sqrt_int(2)
    near_zero = two.mul(two).sub(from_rational(2, 1)).sign_budget(1 << 20)
    assert isinstance(near_zero, ZeroWithin)
    assert near_zero.eps <= Fraction(1, 2**14)
    assert isinstance(from_rational(-1, 5).sign_budget(256), Negative)


def test_compare_examples():
    # x < y, x > y and x ~ y are read from the sign of x - y.
    assert isinstance(
        from_rational(1, 3).sub(from_rational(1, 2)).sign_budget(256), Negative
    )
    assert isinstance(
        from_sqrt_int(2).sub(from_rational(141, 100)).sign_budget(1 << 16), Positive
    )
    x = from_sqrt_int(7)
    assert isinstance(x.sub(x).sign_budget(1 << 10), ZeroWithin)


def test_to_decimal_examples():
    assert from_sqrt_int(2).to_decimal(5) == "1.41421"
    assert from_rational(1, 4).to_decimal(3) == "0.250"
    assert from_rational(22, 7).to_decimal(6) == "3.142857"
    assert from_rational(22, 7).to_decimal(6) == long_division_decimal(22, 7, 6)


def test_to_decimal_error_contract():
    rng = random.Random(40)
    for _ in range(50):
        p, q = rng.randint(-400, 400), rng.randint(1, 400)
        digits = rng.randint(1, 8)
        rendered = from_rational(p, q).to_decimal(digits)
        assert abs(Fraction(rendered) - Fraction(p, q)) <= Fraction(1, 10**digits)


def test_to_decimal_against_sqrt_oracle():
    for k, digits in ((2, 10), (3, 12), (5, 8)):
        rendered = from_sqrt_int(k).to_decimal(digits)
        oracle = sqrt_decimal_truncated(k, digits)
        assert abs(Fraction(rendered) - Fraction(oracle)) <= Fraction(1, 10**digits)


def test_decimal_of_fraction_signs():
    assert decimal_of_fraction(Fraction(-1, 4), 3) == "-0.250"
    assert decimal_of_fraction(Fraction(0), 2) == "0.00"


def _sample(rng: random.Random) -> EudoxusReal:
    if rng.random() < 0.6:
        return from_rational(rng.randint(-50, 50), rng.randint(1, 50))
    return from_sqrt_int(rng.randint(0, 20))


def test_field_axioms_modulo_bounded():
    rng = random.Random(31)
    for _ in range(100):
        x, y, z = _sample(rng), _sample(rng), _sample(rng)
        assert x.add(y).add(z).equals_within(x.add(y.add(z)), 256)
        assert x.mul(y).equals_within(y.mul(x), 256)
        assert x.mul(y.add(z)).equals_within(x.mul(y).add(x.mul(z)), 256)


def _like_radical(rng: random.Random, k: int) -> EudoxusReal:
    """A rational if k = 1, else a signed root of k*m^2: of the class of sqrt(k)."""
    if k == 1:
        return from_rational(rng.randint(-9, 9), rng.randint(1, 9))
    root = from_sqrt_int(k * rng.randint(1, 3) ** 2)
    return root if rng.random() < 0.5 else root.neg()


def _window_pair(rng: random.Random, kind: str, window: int) -> tuple:
    if kind == "zero":  # x*(y+z) and x*y + x*z over one radical class
        x = _like_radical(rng, rng.choice((1, 2, 3)))
        k = rng.choice((1, 2, 5))
        y, z = _like_radical(rng, k), _like_radical(rng, k)
        return x.mul(y.add(z)), x.mul(y).add(x.mul(z))
    if kind == "known":  # f and f plus the line 1/m, m on both sides of window/(2*tol)
        f = _like_radical(rng, rng.choice((1, 2, 3))).add(_sample(rng))
        m0 = window // (4 * f.rep.bound + 2)
        m = max(1, rng.randint(m0 // 2, 2 * m0 + 2))
        return f, EudoxusReal(Sum(f.rep, FloorLinear(rng.choice((-1, 1)), m)))
    k, j = sorted(rng.sample((2, 3, 5, 6, 7, 10, 11), 2))
    if rng.random() < 0.5:  # sqrt(k) against a line near it: two unlike terms
        q = rng.choice((7, 70, 7000))
        return from_sqrt_int(k), from_rational(isqrt(k * q * q) + rng.randint(-1, 1), q)
    # 1/(sqrt(k) + sqrt(j)) = (sqrt(j) - sqrt(k))/(j - k), an Invert of unlike
    # radicals, whose slope no form reads
    y, z = from_sqrt_int(k), from_sqrt_int(j)
    return y.add(z).recip(1 << 20), z.sub(y).mul(from_rational(1, j - k))


def test_slope_decisions_agree_with_the_window_check():
    rng = random.Random(2027)
    seen = {}
    for kind in ("zero", "known", "undecided"):
        for window in (1, 64, 1000):
            for _ in range(40):
                f, g = _window_pair(rng, kind, window)
                form = ahom.linear_form(Sum(f.rep, Neg(g.rep)))
                terms = ahom.form_terms(form)
                if terms is None or len(terms) > 1:
                    found = "undecided"
                else:
                    tol = f.rep.bound + g.rep.bound
                    q, k = terms[0] if terms else (0, 1)
                    found = "zero" if q == 0 else "known"
                    decided = q == 0 or q * q * k * window * window > 4 * tol * tol
                    found += " decided" if decided else " in the window"
                want = window_equal(f.rep, g.rep, window)
                assert f.equals_within(g, window) is want, (str(f.rep), str(g.rep), window)
                seen.setdefault(found, set()).add(want)
                assert found.startswith(kind), (kind, found, str(f.rep), str(g.rep))
                assert form or kind != "zero"
    assert seen["zero decided"] == {True}
    assert seen["known decided"] == {False}
    assert seen["known in the window"] == {True, False}
    assert seen["undecided"] == {True, False}


def test_embedding_is_a_homomorphism():
    rng = random.Random(32)
    for _ in range(500):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        fa = from_rational(a.numerator, a.denominator)
        fb = from_rational(b.numerator, b.denominator)
        s, p = a + b, a * b
        assert fa.add(fb).equals_within(from_rational(s.numerator, s.denominator), 128)
        assert fa.mul(fb).equals_within(from_rational(p.numerator, p.denominator), 128)


def test_order_and_slope_agree():
    rng = random.Random(33)
    for _ in range(100):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        x = from_rational(a.numerator, a.denominator)
        y = from_rational(b.numerator, b.denominator)
        verdict = x.sub(y).sign_budget(1 << 16)
        if isinstance(verdict, Negative):
            assert x.slope_approx(24) < y.slope_approx(24)
        elif isinstance(verdict, Positive):
            assert x.slope_approx(24) > y.slope_approx(24)
        else:
            assert a == b


def test_slope_error_bound_exact():
    rng = random.Random(34)
    for _ in range(100):
        p, q = rng.randint(-50, 50), rng.randint(1, 50)
        k = rng.randint(0, 16)
        x = from_rational(p, q)
        assert abs(x.slope_approx(k) - Fraction(p, q)) <= Fraction(x.rep.bound, 2**k)
    for k_val in (2, 3, 5, 7, 10):
        x = from_sqrt_int(k_val)
        for depth in (8, 12, 16):
            v = x.slope_approx(depth)
            t = Fraction(x.rep.bound, 2**depth)
            # |v - sqrt(k)| <= t, checked by squaring (exact rationals only).
            assert (v + t) ** 2 >= k_val
            assert v - t <= 0 or (v - t) ** 2 <= k_val


def test_slope_convergence_invariant():
    rng = random.Random(35)
    for _ in range(40):
        x = _sample(rng)
        n, m = rng.randint(1, 4000), rng.randint(1, 4000)
        lhs = abs(
            Fraction(x.rep.eval(n), n) - Fraction(x.rep.eval(m), m)
        )
        assert lhs <= x.rep.bound * (Fraction(1, n) + Fraction(1, m))


def test_slope_round_trip_tightens_with_depth():
    # from_rational(slope_approx(x, k)) converges to x in the order: the
    # difference sits strictly inside (-3/2^k, 3/2^k) at every depth.
    x = from_sqrt_int(2)
    for k in (6, 10, 14):
        v = x.slope_approx(k)
        approx = from_rational(v.numerator, v.denominator)
        radius = from_rational(3, 2**k)
        budget = 1 << (k + 8)
        assert isinstance(x.sub(approx).sub(radius).sign_budget(budget), Negative)
        assert isinstance(x.sub(approx).sub(radius.neg()).sign_budget(budget), Positive)


def test_exact_slope_extraction():
    assert from_rational(3, 4).rep.slope == (Fraction(3, 4), 1)
    assert from_sqrt_int(8).rep.slope == (Fraction(1), 8)
    assert from_sqrt_int(9).rep.slope == (Fraction(1), 9)
    prod = from_sqrt_int(2).mul(from_sqrt_int(3))
    assert prod.rep.slope == (Fraction(1), 6)
    tot = from_sqrt_int(2).add(from_sqrt_int(2))
    assert tot.rep.slope == (Fraction(2), 2)
    mixed = from_sqrt_int(2).add(from_sqrt_int(3))
    assert mixed.rep.slope is None
    inv = from_sqrt_int(2).recip(1 << 20)
    assert inv.rep.slope == (Fraction(1, 2), 2)


def test_equals_within_rejects_a_window_below_one():
    for window in (0, -1):
        with pytest.raises(ValueError, match="window must be positive"):
            from_rational(1, 1).equals_within(from_rational(2, 1), window)


def test_certified_equal_three_values():
    assert certified_equal(from_sqrt_int(2), from_sqrt_int(2)) is True
    assert certified_equal(from_sqrt_int(4), from_rational(2, 1)) is True
    assert certified_equal(from_sqrt_int(2), from_rational(3, 2)) is False
    # Unlike radicals are linearly independent over Q, so sqrt(2) + sqrt(3)
    # differs from every rational, even one within 10^-15 of it.
    blur = from_sqrt_int(2).add(from_sqrt_int(3))
    near = from_rational(3146264369941973, 10**15)
    assert certified_equal(blur, near) is False
    # Its reciprocal has no exact slope, and no 64-point window refutes it.
    assert certified_equal(blur.recip(1 << 20), from_rational(317837245195782, 10**15)) is None
    twice = from_sqrt_int(2).add(from_sqrt_int(2))
    assert certified_equal(from_sqrt_int(8), twice) is True


def test_certified_equal_is_fast_on_huge_radicands():
    # Factoring a 41-digit radicand by trial division takes about 10^20 steps;
    # a child process lets the timeout fail the test instead of hanging it.
    code = (
        "from eudoxus.reals import certified_equal, from_rational, from_sqrt_int\n"
        "k = 10**40 + 121\n"
        "root = from_sqrt_int(k)\n"
        "print(certified_equal(root.add(root), from_sqrt_int(4 * k)),"
        " certified_equal(root, from_sqrt_int(2)),"
        " certified_equal(root.mul(root), from_rational(k, 1)))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        encoding="utf-8",
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "True"]


_RADICANDS = (0, 1, 2, 3, 4, 6, 8, 9, 12, 18, 27, 50)


def _slope_tree(rng: random.Random, depth: int):
    """A rule tree of sums, products, negations, multiples and inverses over
    rationals and roots of small radicands, square and not."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return FloorSqrt(rng.choice(_RADICANDS))
        return FloorLinear(rng.randint(-3, 3), rng.randint(1, 3))
    x = _slope_tree(rng, depth - 1)
    pick = rng.randrange(5)
    if pick < 2:
        return (Sum, Compose)[pick](x, _slope_tree(rng, depth - 1))
    if pick == 2:
        return Neg(x)
    if pick == 3:
        return int_multiple(rng.randint(-3, 3), x)
    try:
        return EudoxusReal(x).recip(1 << 10).rep
    except UndecidedSign:
        return x


def test_exact_slope_agrees_with_the_squarefree_normal_form():
    rng = random.Random(2718)
    trees = [_slope_tree(rng, rng.randint(0, 3)) for _ in range(400)]
    slopes = []
    for f in trees:
        got, want = f.slope, squarefree_slope(f)
        assert (got is None) == (want is None), f
        if got is not None:
            (q, k), (qs, m) = got, want
            assert k >= 1 and q * qs >= 0 and q * q * k == qs * qs * m, f
        slopes.append(want)
    verdicts = []
    for _ in range(8000):
        i, j = rng.randrange(len(trees)), rng.randrange(len(trees))
        if slopes[i] is not None and slopes[j] is not None:
            verdict = certified_equal(EudoxusReal(trees[i]), EudoxusReal(trees[j]))
            assert verdict is (slopes[i] == slopes[j]), (trees[i], trees[j])
            verdicts.append(verdict)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 1000


# The radicands 0..40 with no prime factor above 7.
_SMOOTH = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 24, 25, 27, 28, 30, 32, 35, 36, 40)


def _ring_pair(rng: random.Random, depth: int) -> tuple:
    """A +, -, * real of depth <= `depth` over rationals and roots of
    radicands <= 40 with no prime factor above 7, and a twin built apart by
    the ring laws: sums and products swapped and a product over a sum
    distributed. The squarefree parts of such roots' products fall in 16
    classes, `ahom.TERMS`, so the slope reader always answers."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            x = from_rational(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            x = from_sqrt_int(rng.choice(_SMOOTH))
        return x, x
    (a, a2), (b, b2) = _ring_pair(rng, depth - 1), _ring_pair(rng, depth - 1)
    op = rng.choice("+-*d" if depth > 1 else "+-*")
    if op == "+":
        return a.add(b), b2.add(a2)
    if op == "-":
        return a.sub(b), b2.neg().add(a2)
    if op == "*":
        return a.mul(b), b2.mul(a2)
    (b, b2), (c, c2) = _ring_pair(rng, depth - 2), _ring_pair(rng, depth - 2)
    return a.mul(b.add(c)), a2.mul(b2).add(a2.mul(c2))


def test_ring_equality_agrees_with_the_squarefree_map():
    rng = random.Random(4040)
    pool = [_ring_pair(rng, rng.randint(0, 4)) for _ in range(120)]
    verdicts = []
    for _ in range(300):
        (x, twin), (y, _) = rng.choice(pool), rng.choice(pool)
        for a, b in ((x, twin), (x, y), (x, twin.add(from_rational(1, 10**6)))):
            want = squarefree_map(a.rep) == squarefree_map(b.rep) != None  # noqa: E711
            assert certified_equal(a, b) is want, (str(a.rep), str(b.rep))
            window = rng.choice((1, 64, 256))
            assert a.equals_within(b, window) is window_equal(a.rep, b.rep, window), (
                str(a.rep),
                str(b.rep),
                window,
            )
            verdicts.append(want)
    assert verdicts.count(True) > 200 and verdicts.count(False) > 400
    # Past TERMS unlike terms the reader gives up.
    primes = [p for p in range(2, 60) if all(p % d for d in range(2, p))]
    for count, read in ((16, True), (17, False)):
        roots = from_sqrt_int(primes[0])
        for p in primes[1:count]:
            roots = roots.add(from_sqrt_int(p))
        terms = ahom.form_terms(ahom.linear_form(roots.rep))
        assert (terms is not None) is read and (not read or len(terms) == count)


def test_node_facts_match_the_recursive_rules():
    rng = random.Random(1615)
    kinds = set()
    for _ in range(2000):
        f = _slope_tree(rng, rng.randint(0, 4))
        assert (f.bound, f.direction, f.slope) == (
            tree_bound(f),
            tree_direction(f),
            tree_slope(f),
        ), f
        kinds.add(type(f))
    assert kinds == {FloorLinear, FloorSqrt, Sum, Neg, Compose, Invert}


def test_certified_equal_answers_on_a_long_chain_of_sums():
    x = y = from_rational(1, 3)
    for _ in range(1200):
        x = x.add(from_rational(1, 3))
        y = y.add(from_rational(1, 3))
    assert certified_equal(x, from_rational(1201, 3)) is True
    assert certified_equal(x, y) is True


def test_certified_equal_answers_on_a_long_chain_of_products():
    # Built as nodes: `mul` returns the other factor for the identity map.
    x = from_rational(1, 1)
    for _ in range(1200):
        x = EudoxusReal(Compose(x.rep, FloorLinear(1, 1)))
    assert certified_equal(x, from_rational(1, 1)) is True


def test_certified_equal_answers_on_a_chain_whose_bounds_need_deep_evaluation():
    # Each Compose bound evaluates the chain so far at arguments no earlier
    # node has seen, so every level is evaluated anew. The chain is built as
    # nodes, since `mul` carries a product of known slopes by a leaf.
    y, r = from_rational(1, 1), Fraction(1)
    for _ in range(300):
        y = EudoxusReal(Compose(y.rep, FloorSqrt(4))).add(from_rational(1, 7))
        r = 2 * r + Fraction(1, 7)
    assert certified_equal(y, from_rational(r.numerator, r.denominator)) is True
    assert certified_equal(y, from_rational(r.numerator + 1, r.denominator)) is False


def _radical_chain(terms: int) -> EudoxusReal:
    """sqrt(2) + sqrt(3) + sqrt(3) + ..., a left-deep sum whose slope is None."""
    x = from_sqrt_int(2)
    for _ in range(terms - 1):
        x = x.add(from_sqrt_int(3))
    return x


def test_window_checks_answer_on_long_chains_of_unlike_radicals():
    x, y = _radical_chain(5000), _radical_chain(5000)
    assert x.rep.slope is None and x.rep.depth == 4999
    assert x.equals_within(y, 1000) is True
    assert verify_bound(x.rep, 20).ok
    assert certified_equal(x, y) is True
    # Rule text, hashing and equality answer at this depth too.
    assert str(x.rep) == str(y.rep) and str(x.rep).startswith("sum(sum(sum(")
    assert hash(x.rep) == hash(y.rep) and x.rep == y.rep
    assert parse_rule(format_rule(x.rep)) == x.rep
    assert repr(x.rep) == f"parse_rule({str(x.rep)!r})"
    assert eval(repr(x.rep), {"parse_rule": parse_rule}) == x.rep
    # The difference is the one term -sqrt(3), which no 64-point window
    # refutes at this depth's tolerance; its terms do.
    assert certified_equal(x, x.add(from_sqrt_int(3))) is False


def test_certified_equal_reads_equal_maps_built_apart():
    x, y, z = from_sqrt_int(2), from_sqrt_int(3), from_rational(1, 7)
    assert certified_equal(x.add(y).add(z), x.add(y.add(z))) is True
    assert certified_equal(x.add(y).sub(y), from_sqrt_int(2)) is True
    assert certified_equal(x.add(y), x.add(y).add(from_rational(1, 1))) is False


def _balanced_sum(leaves):
    while len(leaves) > 1:
        leaves = [Sum(a, b) for a, b in zip(leaves[::2], leaves[1::2])]
    return EudoxusReal(leaves[0])


def test_a_window_check_keeps_no_values_between_points_or_calls(monkeypatch):
    # Two balanced sums of 4,096 leaves; values kept per node would hold
    # several megabytes. They differ in one leaf, sqrt(2) against the line of
    # slope 1414/1000, so their difference has no exact slope and the window
    # is evaluated, and it stays within the tolerance.
    leaves = [FloorSqrt(2 + i % 7) for i in range(4096)]
    x = _balanced_sum(leaves)
    y = _balanced_sum([FloorLinear(1414, 1000)] + leaves[1:])
    windows, eval_range = [], ahom.eval_range
    monkeypatch.setattr(ahom, "eval_range", lambda f, a: windows.append(a) or eval_range(f, a))
    tracemalloc.start()
    try:
        assert x.equals_within(y, 1000) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert windows == [range(1001)]


def test_representative_certificates_hold_for_compounds():
    x = from_sqrt_int(2).mul(from_sqrt_int(3)).add(from_rational(-7, 3))
    assert verify_bound(x.rep, 100).ok
    assert isinstance(x.rep, type(x.add(x).rep.left))  # Sum node shape


def _known_slope_real(rng: random.Random, depth: int) -> EudoxusReal:
    """A real whose exact slope is known: rationals, roots, sums of like
    radicals, negations and reciprocals of those, and their products."""
    if depth == 0 or rng.random() < 0.3:
        k, m = rng.randint(0, 12), rng.randint(1, 3)
        return rng.choice(
            (
                from_rational(rng.randint(-9, 9), rng.randint(1, 9)),
                from_sqrt_int(k),
                from_sqrt_int(k).add(from_sqrt_int(k * m * m)),
            )
        )
    x = _known_slope_real(rng, depth - 1)
    kind = rng.choice(("like", "neg", "recip", "mul"))
    if kind == "like":
        return x.add(x.mul(from_rational(rng.randint(-3, 3), rng.randint(1, 3))))
    if kind == "neg":
        return x.neg()
    if kind == "recip" and x.rep.slope[0] != 0:
        return x.recip(1 << 20)
    return x.mul(_known_slope_real(rng, depth - 1))


def test_products_of_known_slopes_get_a_shallow_representative():
    rng = random.Random(2025)
    identity, shallow = FloorLinear(1, 1), 0
    for _ in range(300):
        x, y = _known_slope_real(rng, 3), _known_slope_real(rng, 3)
        assert x.rep.slope is not None and y.rep.slope is not None
        p = x.mul(y)
        if identity not in (x.rep, y.rep):
            assert p.rep.depth <= 2, (x.rep, y.rep)
            shallow += 1
        assert verify_bound(p.rep, 30).ok, p.rep
        composed = EudoxusReal(Compose(x.rep, y.rep))
        assert certified_equal(p, composed) is True
        assert window_equal(p.rep, composed.rep, 256), (x.rep, y.rep)
        assert x.mul(y) == y.mul(x)
        one = reals.from_rational(1, 1)
        assert one.mul(x) is x and x.mul(one) is x
    assert shallow > 250


def test_a_long_product_chain_stays_shallow():
    # Was quadratic: each Compose bound evaluated the whole chain so far.
    y, r = from_rational(1, 1), Fraction(1)
    for _ in range(1200):
        y = y.mul(from_sqrt_int(4))
        r *= 2
        assert y.rep.depth <= 2
    assert y.rep == FloorLinear(2**1200, 1)
    for _ in range(1200):
        y = y.mul(from_sqrt_int(4)).add(from_rational(1, 7))
        r = 2 * r + Fraction(1, 7)
        assert y.rep.depth <= 2
    assert certified_equal(y, from_rational(r.numerator, r.denominator)) is True


def _random_real(rng: random.Random, depth: int) -> EudoxusReal:
    """A tree of depth <= `depth` over signed rationals, roots and values
    within 10^-6 of zero."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(
            (
                from_rational(rng.randint(-9, 9), rng.randint(1, 9)),
                from_sqrt_int(rng.randint(0, 12)).mul(from_rational(rng.choice((-1, 1)), 1)),
                from_rational(rng.choice((-1, 1)), 10 ** rng.randint(1, 6)),
                from_sqrt_int(2).mul(from_sqrt_int(2)).sub(from_rational(2, 1)),
            )
        )
    x, y = _random_real(rng, depth - 1), _random_real(rng, depth - 1)
    return rng.choice((x.add(y), x.sub(y), x.mul(y), x.neg(), x.sub(x)))


def test_recip_inverts_at_the_first_sign_witness():
    rng = random.Random(9)
    budgets = (1, 2, 3, 8, 100, 1 << 10, 1 << 16)
    for _ in range(150):
        x = _random_real(rng, 3)
        f, c = x.rep, x.rep.bound
        for b in budgets:
            verdict = x.sign_budget(b)
            ladder = [1 << j for j in range(b.bit_length())]
            n = next((n for n in ladder if abs(f.eval(n)) > c), None)
            assert (n is None) == isinstance(verdict, ZeroWithin)
            if n is None:
                with pytest.raises(UndecidedSign) as exc:
                    x.recip(b)
                assert exc.value.eps == verdict.eps and exc.value.budget == b
            elif f.eval(n) > c:
                assert isinstance(verdict, Positive)
                assert x.recip(b).rep == Invert(f, n)
            else:
                assert isinstance(verdict, Negative)
                assert x.recip(b).rep == Neg(Invert(Neg(f), n))
