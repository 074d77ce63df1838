import copy
import pickle
import random
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from eudoxus import ahom, indexset
from eudoxus.ahom import (
    CertificateError,
    Compose,
    FloorLinear,
    FloorSqrt,
    Invert,
    Neg,
    RuleSyntaxError,
    Slope,
    Sum,
    discrepancy,
    eval_range,
    format_rule,
    linear_form,
    parse_rule,
    verify_bound,
)
from eudoxus.reals import EudoxusReal, UndecidedSign, certified_equal, from_rational, from_sqrt_int

from oracles import (
    bisect_isqrt,
    full_window_discrepancy,
    int_multiple,
    invert_bound,
    least_reaching,
    path_linear_form,
    structural_key,
    window_equal,
)


# -- evaluation ----------------------------------------------------------------


def test_floor_linear_eval():
    assert FloorLinear(1, 2).eval(7) == 3


def test_floor_sqrt_eval_matches_isqrt_oracle():
    assert FloorSqrt(2).eval(10) == bisect_isqrt(200) == 14


def test_compose_eval_matches_oracle():
    f = Compose(FloorSqrt(2), FloorSqrt(2))
    inner = bisect_isqrt(200)
    assert f.eval(10) == bisect_isqrt(2 * inner * inner) == 19


def test_floor_is_toward_minus_infinity():
    assert FloorLinear(1, 2).eval(-7) == -4
    assert FloorLinear(-1, 2).eval(7) == -4


def test_eval_deterministic_and_cache_transparent():
    f = Compose(FloorSqrt(3), FloorLinear(7, 5))
    baseline = [f.eval(a) for a in range(-50, 51)]
    assert [f.eval(a) for a in range(-50, 51)] == baseline


def test_eval_range_agrees_with_pointwise():
    nodes = [
        FloorLinear(-7, 3),
        FloorSqrt(5),
        Sum(FloorSqrt(2), Neg(FloorLinear(1, 3))),
        int_multiple(-3, FloorSqrt(7)),
        Compose(FloorLinear(2, 3), FloorSqrt(2)),
    ]
    for f in nodes:
        window = list(range(-40, 41))
        assert eval_range(f, window) == [f.eval(a) for a in window]


def test_linear_form_merges_like_leaves_and_cancels_opposite_terms():
    x, y = FloorSqrt(2), Compose(FloorSqrt(3), FloorLinear(1, 2))
    five = FloorLinear(5, 1)
    f = Sum(Sum(x, int_multiple(3, FloorSqrt(2))), Sum(Neg(y), Sum(five, Neg(five))))
    assert linear_form(f) == {x: [x, 4], y: [y, -1]}
    assert linear_form(Sum(f, Neg(f))) == {}
    # Every atom is keyed by value: a Compose built apart cancels too.
    twin = Compose(FloorSqrt(3), FloorLinear(1, 2))
    assert linear_form(Sum(y, Neg(twin))) == {}


def _shared_dag(rng, size):
    """A rule DAG of `size` linear nodes, each a Sum, Neg or integer multiple
    of nodes built before it, so that most nodes have several parents; the
    atoms are a few leaves, a Compose, and equal leaves built apart."""
    nodes = [FloorSqrt(2), FloorSqrt(3), FloorLinear(1, 3), FloorLinear(-1, 3)]
    nodes += [FloorSqrt(2), Compose(FloorSqrt(2), FloorLinear(1, 2))]
    for _ in range(size):
        a, b = rng.choice(nodes), rng.choice(nodes[-4:])
        kind = rng.randrange(4)
        if kind < 2:
            nodes.append(Sum(a, b) if kind else Sum(b, b))
        elif kind == 2:
            nodes.append(Neg(b))
        else:
            nodes.append(int_multiple(rng.randint(-3, 3), b))
    return nodes[-1]


def test_linear_form_of_shared_dags_matches_the_path_walk():
    rng = random.Random(2222)
    for _ in range(300):
        f = _shared_dag(rng, rng.randint(1, 14))
        assert linear_form(f) == path_linear_form(f), format_rule(f)


def test_linear_form_expands_each_shared_node_once():
    # 2^60 paths reach the leaf; a walk that expands paths would not end.
    f = FloorSqrt(2)
    for _ in range(60):
        f = Sum(f, f)
    assert linear_form(f) == {FloorSqrt(2): [FloorSqrt(2), 2**60]}
    x = EudoxusReal(FloorSqrt(2))
    for _ in range(60):
        x = x.add(x)
    assert x.equals_within(x, 64)


def _combination_tree(rng, depth, shared):
    """A tree over all six node kinds whose leaves are often one of the
    `shared` objects or an equal leaf built apart; some sums cancel a subtree
    against its own negation, some integer multiples are by 0, and `recip`
    makes the Inverts."""
    if depth == 0 or rng.random() < 0.2:
        leaf = rng.choice(shared)
        pick = rng.random()
        if pick < 0.4:
            return leaf
        if pick < 0.7:
            return parse_rule(format_rule(leaf))
        if pick < 0.85:
            return FloorLinear(rng.randint(-9, 9), rng.randint(1, 7))
        return FloorSqrt(rng.randint(0, 20))
    a = _combination_tree(rng, depth - 1, shared)
    kind = rng.randrange(6)
    if kind == 0:
        return Sum(a, _combination_tree(rng, depth - 1, shared))
    if kind == 1:
        return Neg(a)
    if kind == 2:
        return int_multiple(rng.randint(-3, 3), a)
    if kind == 3:
        return Compose(a, _combination_tree(rng, depth - 1, shared))
    if kind == 4:
        twin = rng.choice((a, parse_rule(format_rule(a))))
        return Sum(a, rng.choice((Neg(twin), Neg(Neg(Neg(twin))))))
    try:
        return EudoxusReal(a).recip(1 << 10).rep
    except UndecidedSign:
        return a


def _node_kinds(f, kinds):
    kinds.add(type(f))
    for h in vars(f).values():
        if isinstance(h, ahom.AlmostHom):
            _node_kinds(h, kinds)
    return kinds


def test_eval_range_of_a_linear_form_agrees_with_pointwise(monkeypatch):
    # With SHALLOW at 0 every Compose atom is evaluated point by point.
    for shallow in (ahom.SHALLOW, 0):
        monkeypatch.setattr(ahom, "SHALLOW", shallow)
        rng = random.Random(1616)
        shared = [FloorSqrt(2), FloorSqrt(3), FloorLinear(1, 3), FloorLinear(-5, 2)]
        kinds, cancelled = set(), 0
        for _ in range(2000):
            f = _combination_tree(rng, rng.randint(0, 3), shared)
            _node_kinds(f, kinds)
            cancelled += not linear_form(f)
            big = [rng.randint(-10**12, 10**12) for _ in range(4)]
            scattered = big + [rng.randint(-40, 40) for _ in range(4)]
            for args in (range(-12, 13), range(-40, -30), scattered + scattered[::3]):
                assert eval_range(f, args) == [f.eval(a) for a in args], format_rule(f)
        assert kinds == {FloorLinear, FloorSqrt, Sum, Neg, Compose, Invert}
        assert cancelled >= 50


def test_equality_and_hash_agree_with_the_structural_key():
    rng = random.Random(1619)
    shared = [FloorSqrt(2), FloorSqrt(3), FloorLinear(1, 3), FloorLinear(-5, 2)]
    equal = 0
    for _ in range(2000):
        f = _combination_tree(rng, rng.randint(0, 3), shared)
        twin = parse_rule(format_rule(f))
        g = rng.choice((twin, _combination_tree(rng, rng.randint(0, 3), shared)))
        same = structural_key(f) == structural_key(g)
        assert (f == g) is same, (format_rule(f), format_rule(g))
        if f == g:
            assert hash(f) == hash(g), format_rule(f)
            equal += 1
    assert equal >= 900 and 2000 - equal >= 900


def test_equals_within_agrees_with_the_two_tree_window_check():
    rng = random.Random(1618)
    shared = [FloorSqrt(2), FloorSqrt(5), FloorLinear(2, 3)]
    answers = []
    for _ in range(150):
        f = _combination_tree(rng, rng.randint(0, 3), shared)
        g = rng.choice(
            (
                parse_rule(format_rule(f)),
                Sum(Neg(Neg(f)), int_multiple(0, _combination_tree(rng, 2, shared))),
                Sum(f, FloorLinear(1, rng.choice((1, 40, 700)))),
                _combination_tree(rng, rng.randint(0, 3), shared),
            )
        )
        for window in (1, 64, 1000):
            want = window_equal(f, g, window)
            assert EudoxusReal(f).equals_within(EudoxusReal(g), window) is want, (
                format_rule(f), format_rule(g), window
            )
            answers.append(want)
    assert answers.count(True) >= 100 and answers.count(False) >= 100


def _unlike_radical_real(rng, depth):
    """A real over the unlike radicals sqrt(2), sqrt(3), sqrt(5), sqrt(7) and
    small rationals: sums, products (a `Compose` where a factor's slope is
    unknown) and reciprocals (`Invert`, or `Neg(Invert(Neg f))` where f is
    negative)."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.7:
            return from_sqrt_int(rng.choice((2, 3, 5, 7)))
        return from_rational(rng.randint(-9, 9), rng.randint(1, 7))
    x = _unlike_radical_real(rng, depth - 1)
    kind = rng.randrange(4)
    if kind == 0:
        return x.add(_unlike_radical_real(rng, depth - 1))
    if kind == 1:
        return x.mul(_unlike_radical_real(rng, depth - 1))
    if kind == 2:
        return x.neg()
    try:
        return x.recip(1 << 10)
    except UndecidedSign:
        return x


def test_equals_within_agrees_with_the_two_tree_window_check_on_reciprocals():
    # The oracle reads both halves of the window, n < 0 at 3(C_f + C_g), and
    # equals_within reads n >= 0 alone: they agree wherever the certificates
    # are sound.
    rng = random.Random(1619)
    one = from_rational(1, 1)
    answers, shapes = [], set()
    while len(answers) < 630:
        x = _unlike_radical_real(rng, 3).add(from_sqrt_int(rng.choice((2, 3))))
        y, z = _unlike_radical_real(rng, 2), _unlike_radical_real(rng, 2)
        try:
            r = x.recip(1 << 10)
        except UndecidedSign:
            continue
        pairs = (
            (r.mul(x), one),
            (r.mul(x.add(one)), one),
            (r.neg(), x.neg().recip(1 << 10)),
            (r.mul(y), y.mul(r)),
            (x.mul(y.add(z)), x.mul(y).add(x.mul(z))),
            (r, r.add(from_rational(1, rng.choice((1, 40, 700))))),
            (x.mul(y), _unlike_radical_real(rng, 3)),
        )
        for f, g in pairs:
            for h in (f.rep, g.rep):
                if isinstance(h, Neg) and isinstance(h.inner, Invert):
                    shapes.add("Neg(Invert(Neg f))")
                elif isinstance(h, (Invert, Compose)):
                    shapes.add(type(h).__name__)
            for window in (1, 64, 300):
                want = window_equal(f.rep, g.rep, window)
                assert f.equals_within(g, window) is want, (str(f.rep), str(g.rep), window)
                answers.append(want)
    assert shapes == {"Invert", "Neg(Invert(Neg f))", "Compose"}
    assert answers.count(True) >= 100 and answers.count(False) >= 100


def test_eval_range_of_an_invert_free_tree_adds_no_memo_entries():
    def memo_sizes(f, sizes):
        sizes.append(len(vars(f).get("_memo", ())))
        for h in vars(f).values():
            if isinstance(h, ahom.AlmostHom):
                memo_sizes(h, sizes)
        return sizes

    rng = random.Random(1617)
    checked = 0
    while checked < 100:
        f = _random_tree(rng, 3)
        if Invert in _node_kinds(f, set()):
            continue
        before = memo_sizes(f, [])
        eval_range(f, range(-300, 301))
        assert memo_sizes(f, []) == before, format_rule(f)
        checked += 1


# -- discrepancy and certificates ------------------------------------------------


def test_discrepancy_examples():
    assert discrepancy(FloorLinear(1, 2), 3, 5) == 1
    assert discrepancy(FloorLinear(1, 2), 2, 4) == 0
    assert discrepancy(FloorSqrt(2), 10, 10) == bisect_isqrt(800) - 2 * bisect_isqrt(200) == 0


def test_discrepancy_aborts_on_certificate_violation():
    f = Compose(FloorSqrt(2), FloorSqrt(2))
    f.__dict__["bound"] = 0  # corrupt the cached certificate
    with pytest.raises(CertificateError):
        for p in range(-5, 6):
            for q in range(-5, 6):
                discrepancy(f, p, q)


def test_verify_bound_examples():
    report = verify_bound(FloorLinear(1, 2), 100)
    assert report.ok and report.max_abs_discrepancy == 1
    assert verify_bound(Sum(FloorLinear(1, 2), FloorLinear(1, 2)), 50).ok
    assert verify_bound(FloorSqrt(2), 100).ok


def test_verify_bound_reads_each_unordered_pair_once_and_agrees():
    rng = random.Random(537)
    for _ in range(200):
        f, window = _random_tree(rng, 3), rng.randint(1, 25)
        report = verify_bound(f, window)
        worst = full_window_discrepancy(f, window)
        assert report.max_abs_discrepancy == worst, (format_rule(f), window)
        assert report.ok == (worst <= f.bound)


def test_bound_propagation_rules():
    f, g = FloorLinear(1, 2), FloorLinear(1, 3)
    assert Sum(f, f).bound == 2
    assert Neg(f).bound == f.bound
    assert int_multiple(-4, g).bound == 4 * g.bound
    c = Compose(FloorSqrt(2), FloorSqrt(2))
    peak = max(abs(FloorSqrt(2).eval(e)) for e in range(-2, 3))
    assert c.bound == 2 * 2 + peak


def test_certificate_soundness_random_constructions():
    rng = random.Random(1105)
    nodes = []
    for _ in range(3):
        nodes.append(FloorLinear(rng.randint(-20, 20), rng.randint(1, 20)))
        nodes.append(FloorSqrt(rng.randint(0, 20)))
    nodes.append(Sum(nodes[0], nodes[1]))
    nodes.append(Neg(nodes[2]))
    nodes.append(int_multiple(rng.randint(-20, 20), nodes[3]))
    nodes.append(Compose(nodes[1], nodes[0]))
    nodes.append(Compose(nodes[0], nodes[1]))
    for f in nodes:
        assert verify_bound(f, 200).ok, format_rule(f)


def test_floor_sum_identity_for_positive_slopes():
    rng = random.Random(7)
    for _ in range(10):
        f = FloorLinear(rng.randint(1, 30), rng.randint(1, 30))
        vals = eval_range(f, range(-60, 61))
        for p in range(-30, 31):
            for q in range(-30, 31):
                d = vals[60 + p + q] - vals[60 + p] - vals[60 + q]
                assert d in (0, 1)


def test_floor_sqrt_odd_symmetry():
    f = FloorSqrt(2)
    for a in range(-200, 201):
        assert f.eval(-a) == -f.eval(a)


# -- pointwise algebra -----------------------------------------------------------


def test_add_examples():
    s = Sum(FloorLinear(1, 2), FloorLinear(1, 3))
    assert s.eval(6) == 5
    f = FloorSqrt(2)
    cancel = Sum(f, Neg(f))
    assert all(cancel.eval(a) == 0 for a in range(-100, 101))


def test_neg_examples():
    assert Neg(FloorLinear(1, 2)).eval(7) == -3
    f = FloorSqrt(2)
    assert Neg(Neg(f)).eval(10) == f.eval(10) == 14
    assert Neg(FloorSqrt(2)).eval(10) == -14


def test_compose_examples():
    c = Compose(FloorLinear(1, 2), FloorLinear(1, 3))
    assert c.eval(12) == 2
    assert Compose(FloorSqrt(2), FloorSqrt(2)).eval(10) == 19


def test_compose_commutes_modulo_bounded():
    f, g = FloorSqrt(2), FloorLinear(1, 3)
    fg, gf = Compose(f, g), Compose(g, f)
    tol = fg.bound + gf.bound
    window = range(-1000, 1001)
    for a, b in zip(eval_range(fg, window), eval_range(gf, window)):
        assert abs(a - b) <= tol


# -- serialization ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "linear(1/2)",
        "linear(-22/7)",
        "sqrt(2)",
        "sum(linear(1/2),sqrt(3))",
        "neg(sqrt(5))",
        "compose(linear(-4/1),linear(2/3))",
        "compose(sqrt(2),linear(1/3))",
    ],
)
def test_rule_text_round_trip(text):
    node = parse_rule(text)
    assert format_rule(node) == text
    assert parse_rule(format_rule(node)) == node


def test_parse_rule_rejects_malformed():
    with pytest.raises(RuleSyntaxError) as exc:
        parse_rule("linear(1/2")
    assert exc.value.offset == 10
    with pytest.raises(RuleSyntaxError):
        parse_rule("mystery(1)")
    with pytest.raises(RuleSyntaxError):
        parse_rule("sqrt(2)x")


# One input per place a reader can fail, with its message and offset.
_READER_MESSAGES = [
    (parse_rule, "", "expected rule name", 0),
    (parse_rule, "mystery(1)", "unknown rule name 'mystery'", 8),
    (parse_rule, "sqrt 2", "expected '('", 4),
    (parse_rule, "linear(1,2)", "expected '/'", 8),
    (parse_rule, "sum(sqrt(2)/sqrt(3))", "expected ','", 11),
    (parse_rule, "sqrt(n)", "expected integer", 5),
    (parse_rule, "linear(-n/2)", "expected integer", 8),
    (parse_rule, "scale(2,sqrt(2))", "unknown rule name 'scale'", 6),
    (parse_rule, "linear(1/2", "expected ')'", 10),
    (parse_rule, "sqrt(2)x", "trailing input after rule", 7),
    (parse_rule, "sqrt(" + "1" * 5000 + ")", "integer too long", 5),
    (indexset.parse, "per:10", "expected 'pre:'", 0),
    (indexset.parse, "pre:01;px:1", "expected ';per:'", 6),
    (indexset.parse, "pre:0;per:", "period must be nonempty", 10),
    (indexset.parse, "pre:;per:10x", "trailing input after set spec", 11),
]


@pytest.mark.parametrize(
    "reader, text, message, offset",
    _READER_MESSAGES,
    ids=[f"{reader.__module__}:{text[:32]}" for reader, text, *_ in _READER_MESSAGES],
)
def test_reader_messages_are_pinned(reader, text, message, offset):
    with pytest.raises(ValueError) as exc:
        reader(text)
    assert str(exc.value) == f"{message} (offset {offset})"
    assert exc.value.offset == offset


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("linear(1/0)", "denominator must be a positive integer", 0),
        ("sqrt(-1)", "radicand must be nonnegative", 0),
        ("invert(linear(1/1),0)", "witness index must be positive", 0),
        ("invert(linear(-1/1),1)", "witness does not certify positivity", 0),
        ("sum(sqrt(2),linear(1/0))", "denominator must be a positive integer", 12),
        ("linear(\u00b2/1)", "expected integer", 7),  # superscript two
        ("linear(\u0663/1)", "expected integer", 7),  # Arabic-Indic three
        ("\u00e9(1)", "expected rule name", 0),
    ],
)
def test_malformed_rule_texts_raise_rule_syntax_errors(text, message, offset):
    # Rejected constructor arguments point at the node's name; names and
    # digits are ASCII, so every text that parses round-trips.
    with pytest.raises(RuleSyntaxError) as exc:
        parse_rule(text)
    assert str(exc.value) == f"{message} (offset {offset})"
    assert exc.value.offset == offset


def test_invert_round_trip():
    from eudoxus.reals import from_rational

    inv = from_rational(3, 2).recip(1 << 20).rep
    assert parse_rule(format_rule(inv)) == inv


# -- Invert search, monotonicity and Compose endpoints ------------------------------


def _witnessed(f, limit=1024):
    """Invert(f, n) at the first n = 1, 2, 4, ... <= limit certifying f > 0."""
    n = 1
    while n <= limit:
        if f.eval(n) > f.bound:
            return Invert(f, n)
        n *= 2
    return None


_MONOTONE_INNER = [
    FloorSqrt(2),
    FloorLinear(3, 7),
    FloorLinear(41, 3),
    Sum(FloorSqrt(3), FloorLinear(1, 2)),
    int_multiple(2, FloorSqrt(5)),
    Neg(FloorLinear(-5, 4)),
    Compose(FloorSqrt(2), FloorLinear(2, 3)),
    Compose(FloorLinear(-1, 1), FloorLinear(-7, 5)),
    _witnessed(FloorSqrt(2)),
    _witnessed(_witnessed(FloorSqrt(3))),
]

_NON_MONOTONE_INNER = [
    Sum(FloorSqrt(3), Neg(FloorSqrt(2))),  # sqrt(3) - sqrt(2)
    Sum(FloorLinear(1, 2), Neg(FloorLinear(1, 3))),
    Sum(FloorSqrt(7), FloorLinear(-1, 3)),
]


@pytest.mark.parametrize("inner", _MONOTONE_INNER + _NON_MONOTONE_INNER, ids=format_rule)
def test_invert_value_is_least_index_reaching_p(inner):
    inv = _witnessed(inner)
    assert inv is not None
    f = inner.eval
    probes = list(range(-200, 201)) + [997, 4096, 12345, -20011]
    for p in probes:
        expected = least_reaching(f, p) if p >= 0 else -least_reaching(f, -p)
        assert inv.eval(p) == expected, p


def test_invert_inner_directions_cover_both_search_paths():
    assert all(f.direction == 1 for f in _MONOTONE_INNER)
    assert all(f.direction is None for f in _NON_MONOTONE_INNER)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return FloorLinear(rng.randint(-6, 6), rng.randint(1, 5))
        return FloorSqrt(rng.randint(0, 12))
    kind = rng.choice(("sum", "neg", "multiple", "compose", "invert"))
    a = _random_tree(rng, depth - 1)
    if kind == "sum":
        return Sum(a, _random_tree(rng, depth - 1))
    if kind == "neg":
        return Neg(a)
    if kind == "multiple":
        return int_multiple(rng.randint(-3, 3), a)
    if kind == "compose":
        return Compose(a, _random_tree(rng, depth - 1))
    return _witnessed(a) or _witnessed(Neg(a)) or a


def test_invert_bound_matches_fraction_oracle():
    rng = random.Random(1884)
    checked = 0
    for _ in range(300):
        f = _random_tree(rng, 3)
        inv = _witnessed(f) or _witnessed(Neg(f))
        if inv is not None:
            assert inv.bound == invert_bound(inv.inner, inv.witness_n), format_rule(inv)
            checked += 1
    assert checked >= 150


def test_direction_is_sound_on_random_trees():
    rng = random.Random(2004)
    window = range(-120, 121)
    decided = 0
    for _ in range(150):
        f = _random_tree(rng, 3)
        d = f.direction
        if d is None:
            continue
        decided += 1
        vals = eval_range(f, window)
        steps = [b - a for a, b in zip(vals, vals[1:])]
        if d == 0:
            assert all(s == 0 for s in steps), format_rule(f)
        else:
            assert all(d * s >= 0 for s in steps), format_rule(f)
    assert decided >= 75


def test_facts_of_a_long_left_deep_sum_are_read_without_recursion():
    f = FloorSqrt(2)
    for _ in range(4999):
        f = Sum(f, FloorSqrt(2))
    assert (f.bound, f.direction, f.slope) == (10000, 1, (5000, 2))


def test_flat_evaluation_makes_the_calls_and_memo_entries_recursion_makes(monkeypatch):
    calls = []
    plain = ahom.AlmostHom.eval
    monkeypatch.setattr(ahom.AlmostHom, "eval", lambda f, a: calls.append(a) or plain(f, a))

    def memos(f, seen):
        seen.append(sorted(vars(f).get("_memo", {}).items()))
        for h in vars(f).values():
            if isinstance(h, ahom.AlmostHom):
                memos(h, seen)
        return seen

    rng = random.Random(2026)
    for _ in range(300):
        text = format_rule(_random_tree(rng, 4))
        args = [rng.randint(-2000, 2000) for _ in range(3)]
        runs = []
        for shallow in (ahom.SHALLOW, 0):  # recursion, then a flat walk at every inner node
            f = parse_rule(text)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(ahom, "SHALLOW", shallow)
                runs.append(([f.eval(a) for a in args], len(calls), memos(f, [])))
        assert runs[0] == runs[1], text


def test_evaluation_of_a_deep_chain_stays_below_the_recursion_limit():
    f = g = FloorSqrt(2)
    for _ in range(3000):
        f = Compose(Sum(f, FloorLinear(1, 7)), FloorLinear(1, 1))
        g = Compose(Sum(g, FloorLinear(1, 7)), FloorLinear(1, 1))
    assert f.depth == 6000
    assert f.eval(7) == 9 + 3000  # floor(7*sqrt(2)) plus 3000 times floor(7/7)
    assert eval_range(f, range(-3, 4)) == [f.eval(a) for a in range(-3, 4)]
    assert verify_bound(f, 2).ok
    assert certified_equal(EudoxusReal(f), EudoxusReal(g)) is True
    # Twins built over shared subtrees compare without entering them: h has
    # 21 distinct nodes but 2^20 leaves, whose walk or rule text takes seconds.
    h = FloorSqrt(2)
    for _ in range(20):
        h = Sum(h, h)
    start = time.perf_counter()
    assert certified_equal(EudoxusReal(Compose(h, f)), EudoxusReal(Compose(h, f))) is True
    assert Sum(h, FloorSqrt(3)) != Sum(h, FloorSqrt(5))
    assert time.perf_counter() - start < 1


def test_equality_walks_shared_subtrees_once():
    # Each DAG has 61 distinct nodes and 2^60 paths, so a walk of the tree
    # would not end; a child process lets the timeout fail the test instead.
    code = (
        "from eudoxus.ahom import FloorSqrt, Sum\n"
        "def dag(leaf):\n"
        "    f = leaf\n"
        "    for _ in range(60):\n"
        "        f = Sum(f, f)\n"
        "    return f\n"
        "print(dag(FloorSqrt(2)) == dag(FloorSqrt(2)), dag(FloorSqrt(2)) == dag(FloorSqrt(3)))"
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
    assert proc.stdout.split() == ["True", "False"]


def test_compose_endpoint_peak_equals_full_scan():
    rng = random.Random(2003)
    inners = [FloorSqrt(2), int_multiple(7, FloorSqrt(3)), _witnessed(FloorLinear(1, 9))]
    checked = 0
    while checked < 60:
        g = _random_tree(rng, 2)
        if g.direction is None:
            continue
        for inner in inners:
            c = inner.bound
            scan = max(abs(g.eval(e)) for e in range(-c, c + 1))
            assert Compose(g, inner).bound == 2 * g.bound + scan, format_rule(g)
        checked += 1


def test_non_monotone_outer_bound_reads_two_values():
    g = Sum(FloorSqrt(3), Neg(FloorSqrt(2)))
    inner = int_multiple(500, FloorSqrt(2))
    assert g.direction is None and inner.bound >= 1000
    Compose(g, inner).bound
    # The slope bound reads g at +-C_inner only; a scan of every
    # |e| <= C_inner reads 2*C_inner + 1 values.
    assert len(g._memo) <= 2


def test_non_monotone_outer_slope_bound_audits():
    rng = random.Random(2012)
    inners = [
        int_multiple(50, FloorSqrt(2)),
        int_multiple(-120, FloorLinear(3, 4)),
        int_multiple(40, Sum(FloorSqrt(3), Neg(FloorSqrt(2)))),
        _witnessed(int_multiple(100, FloorLinear(1, 50))),
    ]
    assert all(inner.bound >= 100 for inner in inners)
    checked = 0
    while checked < 40:
        g = _random_tree(rng, 3)
        if g.direction is not None:
            continue
        for inner in inners:
            c = inner.bound
            scan = max(abs(g.eval(e)) for e in range(-c, c + 1))
            f = Compose(g, inner)
            assert f.bound <= 2 * g.bound + scan + 2 * g.bound, format_rule(f)
            assert verify_bound(f, 30).ok, format_rule(f)
        checked += 1


def _square(f):
    return Compose(f, f)


@pytest.mark.parametrize(
    "f",
    [
        _witnessed(_witnessed(_witnessed(FloorSqrt(2)))),
        Compose(FloorLinear(1, 1), _witnessed(Compose(FloorLinear(1, 1), _witnessed(FloorSqrt(5))))),
        _square(_square(FloorSqrt(2))),
        Compose(FloorSqrt(3), _square(_square(FloorSqrt(3)))),
        _square(Compose(FloorSqrt(7), _square(FloorSqrt(7)))),
    ],
    ids=format_rule,
)
def test_deep_invert_and_squared_power_certificates_audit(f):
    assert verify_bound(f, 30).ok


# -- exact slopes ------------------------------------------------------------------


def _squarefree_part(k: int) -> int:
    """k with every square factor divided out, by trial division."""
    d = 2
    while d * d <= k:
        while k % (d * d) == 0:
            k //= d * d
        d += 1
    return k


def _slope_value(s) -> Decimal:
    """q*sqrt(k) by `decimal`, at the precision of the current context."""
    q, k = s
    return Decimal(q.numerator) / Decimal(q.denominator) * Decimal(k).sqrt()


def _random_slope(rng: random.Random) -> Slope:
    """Zero or a signed q times sqrt(m^2 * r), so radicands share square factors."""
    q = Fraction(0 if rng.random() < 0.15 else rng.randint(-30, 30), rng.randint(1, 20))
    return Slope(q, rng.choice((1, 2, 3, 6, 7)) * rng.randint(1, 4) ** 2)


def test_slope_methods_agree_with_fraction_and_decimal_references():
    rng = random.Random(2028)
    seen = {"unlike": 0, "same": 0, "zero": 0}
    with localcontext() as ctx:
        ctx.prec = 60

        def close(got: Slope, want: Decimal) -> bool:
            return abs(_slope_value(got) - want) <= Decimal(10) ** -50 * max(1, abs(want))

        for _ in range(3000):
            a = _random_slope(rng)
            if rng.random() < 0.3:  # the value of a, or of -a, written over another radicand
                m = rng.randint(1, 3)
                b = Slope(rng.choice((1, -1)) * a.q / m, a.k * m * m)
            else:
                b = _random_slope(rng)
            va, vb, m = _slope_value(a), _slope_value(b), rng.randint(-5, 5)
            unlike = a.q != 0 and b.q != 0 and _squarefree_part(a.k) != _squarefree_part(b.k)
            total = a.plus(b)
            assert (total is None) == unlike, (a, b)
            assert total is None or close(total, va + vb), (a, b)
            assert close(a.times(b), va * vb) and close(a.scaled(m), m * va), (a, b, m)
            inverse = a.inverse()
            assert (inverse is None) == (a.q == 0), a
            assert inverse is None or close(inverse, 1 / va), a
            same = close(b, va)
            assert a.same(b) is same and (a.rep() == b.rep()) is same, (a, b)
            for s in (a, total or b):
                shown = EudoxusReal(s.rep()).to_decimal(40)
                assert abs(Decimal(shown) - _slope_value(s)) <= Decimal(10) ** -40, s
            seen["unlike"] += unlike
            seen["same"] += same
            seen["zero"] += a.q == 0
    assert min(seen.values()) > 200, seen


def test_a_node_pickles_and_copies_with_its_slope():
    f = Sum(FloorSqrt(2), Compose(FloorSqrt(2), FloorSqrt(4)))
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert g == f and g.slope == (Fraction(3), 2) and type(g.slope) is Slope


def test_a_rational_slope_is_its_own_line():
    rng = random.Random(2029)
    for _ in range(500):
        q, m = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)), rng.randint(1, 9)
        line = Slope(q, 1).rep()
        assert line == FloorLinear(q.numerator, q.denominator)
        assert line == Slope(q / m, m * m).rep(), (q, m)
        # Zero times any root is the zero line, of bound 1, not sqrt(0).
        assert Slope(Fraction(0), m * m + 1).rep() == FloorLinear(0, 1), m
