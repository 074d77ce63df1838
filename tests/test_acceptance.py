"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime limit is pinned here, not configured.
"""

import random
import time
from fractions import Fraction

from eudoxus import hyper, indexset, lup, polyq, reals, ufsim
from eudoxus.ahom import FloorLinear, FloorSqrt, Compose, eval_range, verify_bound
from eudoxus.calculus import derivative_at, from_coeffs
from eudoxus.cli import main
from eudoxus.expr import ExprSyntaxError, format_ast, parse
from eudoxus.hyper import (
    PoleAtIndex,
    RationalSlopeGerm,
    classify,
    compare,
    dx,
    from_real,
    phi_component,
    realize_component,
)
from eudoxus.indexset import IndexSet
from eudoxus.lup import LimitFilterSpec, Partition, restricted_closure_check
from eudoxus.reals import from_rational, from_sqrt_int

from oracles import (
    interpolate_ratfn,
    poly_derivative,
    poly_eval,
    sqrt_decimal_truncated,
)
from test_expr import _gen


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_digit_extraction(capsys):
    started = time.monotonic()
    code = main(["digits", "sqrt(2)", "-p", "30"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 0
    rendered = Fraction(out.strip())
    oracle = Fraction(sqrt_decimal_truncated(2, 30))
    assert abs(rendered - oracle) <= Fraction(1, 10**30)
    assert elapsed < 10.0
    with capsys.disabled():
        _report(1, "digit extraction to 30 places")


def test_criterion_02_field_axioms():
    started = time.monotonic()
    rng = random.Random(202)

    def sample():
        if rng.random() < 0.6:
            return from_rational(rng.randint(-50, 50), rng.randint(1, 50))
        return from_sqrt_int(rng.randint(0, 20))

    for i in range(1000):
        x, y, z = sample(), sample(), sample()
        assert x.add(y).add(z).equals_within(x.add(y.add(z)), 1000)
        assert x.mul(y).equals_within(y.mul(x), 1000)
        assert x.mul(y.add(z)).equals_within(x.mul(y).add(x.mul(z)), 1000)
        if i % 100 == 0:
            # spot audit: no construction violates its own certificate
            assert verify_bound(x.mul(y.add(z)).rep, 20).ok
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(2, "field axioms on 1000 random triples")


def test_criterion_03_multiplication_as_composition():
    f2 = FloorSqrt(2)
    doubled = FloorLinear(2, 1)
    composed = Compose(f2, f2)
    tol = composed.bound + doubled.bound
    window = range(-10_000, 10_001)
    for a, b in zip(eval_range(composed, window), eval_range(doubled, window)):
        assert abs(a - b) <= tol
    _report(3, "sqrt(2) composed with itself is the doubling map")


def test_criterion_04_slope_functional():
    rng = random.Random(204)
    k = 20
    for _ in range(200):
        p, q = rng.randint(-200, 200), rng.randint(1, 200)
        x = from_rational(p, q)
        v = x.slope_approx(k)
        assert abs(v - Fraction(p, q)) <= Fraction(x.rep.bound, 2**k)
    _report(4, "slope functional within bound/2^20 on 200 rationals")


def test_criterion_05_infinitesimal_ordering():
    d = dx()
    assert classify(d).kind is hyper.HyperKind.POSITIVE_INFINITESIMAL
    assert compare(d, from_real(0)) is hyper.Order.GREATER
    for k in range(1, 1_000_001):
        assert compare(d, from_real(Fraction(1, k))) is hyper.Order.LESS
    _report(5, "0 < dx < 1/k for every k up to 10^6")


def test_criterion_06_derivative_engine():
    started = time.monotonic()
    rng = random.Random(206)
    for _ in range(100):
        deg = rng.randint(0, 8)
        coeffs = tuple(
            Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(deg + 1)
        )
        x0 = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        assert derivative_at(from_coeffs(coeffs), x0) == poly_eval(
            poly_derivative(coeffs), x0
        )
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(6, "derivatives of 100 random polynomials, exact")


def test_criterion_07_ultrafilter_simulator():
    rng = random.Random(207)
    state = ufsim.fresh_state()
    for _ in range(10_000):
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        s = IndexSet(pre, per)
        verdict, state = ufsim.query(state, s)
        assert state.meet.is_infinite()
        if s.is_cofinite():
            assert verdict is ufsim.Verdict.ACCEPTED
        if s.is_finite():
            assert verdict is ufsim.Verdict.REJECTED
    replayed = ufsim.replay(list(state.log))
    assert replayed == state
    assert ufsim.export_trace(replayed) == ufsim.export_trace(state)
    _report(7, "10^4 queries keep the FIP and replay byte-identically")


def test_criterion_08_phi_consistency():
    rng = random.Random(208)
    checked = 0
    while checked < 100:
        num = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 5)))
        den = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 5)))
        if not any(den):
            continue
        g = RationalSlopeGerm(num, den)
        if g.is_zero():
            continue
        dn, dd = polyq.degree(g.num), polyq.degree(g.den)
        samples = []
        n = 1
        while len(samples) < dn + dd + 2:
            try:
                samples.append((n, phi_component(g, n)))
            except PoleAtIndex:
                pass
            n += 1
        rebuilt_num, rebuilt_den = interpolate_ratfn(samples, dn, dd)
        assert RationalSlopeGerm(rebuilt_num, rebuilt_den) == g
        k = 20
        for idx, value in samples[:3]:
            comp = realize_component(g, idx)
            assert abs(comp.slope_approx(k) - value) <= Fraction(comp.rep.bound, 2**k)
        checked += 1
    _report(8, "phi components reconstruct 100 germs exactly")


def test_criterion_09_limit_ultrapower():
    halves = Partition((indexset.evens(), indexset.odds()))
    thirds = Partition(
        (
            indexset.multiples(3),
            indexset.IndexSet("01", "010"),
            indexset.IndexSet("001", "001"),
        )
    )
    quarters = Partition(
        tuple(
            IndexSet("", "0" * r + "1" + "0" * (3 - r)) for r in range(4)
        )
    )
    filters = [
        LimitFilterSpec((halves,)),
        LimitFilterSpec((thirds,)),
        LimitFilterSpec((quarters,)),
        LimitFilterSpec((halves, thirds)),
    ]
    for spec in filters:
        assert lup.is_admissible(from_real(Fraction(5, 3)), spec)
        assert not lup.is_admissible(dx(), spec)
    rng = random.Random(209)
    values = [from_sqrt_int(k) for k in (2, 3, 5, 7)]
    elements = [
        hyper.piecewise(
            (
                (indexset.evens(), rng.choice(values)),
                (indexset.odds(), rng.choice(values)),
            )
        )
        for _ in range(21)
    ]
    report = restricted_closure_check(elements, LimitFilterSpec((halves,)))
    assert report.ok and report.pairs_checked == 210
    _report(9, "constants in, dx out, closure holds for all 210 pairs")


def test_criterion_10_parser_robustness():
    rng = random.Random(210)
    for _ in range(10_000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
        text = raw.decode("latin-1")
        try:
            parse(text)
        except ExprSyntaxError as exc:
            assert 0 <= exc.offset <= len(text)
    for _ in range(1000):
        tree = parse(format_ast(_gen(rng, rng.randint(0, 4))))
        assert parse(format_ast(tree)) == tree
    _report(10, "10^4 fuzz inputs survived, 10^3 round trips exact")
