import random
from math import lcm

import pytest

from eudoxus.indexset import (
    IndexSet,
    IndexSetSyntaxError,
    complement,
    difference,
    empty,
    evens,
    format_set,
    full,
    intersect,
    multiples,
    odds,
    parse,
    singleton,
    union,
)

from oracles import periodic_set_form


def test_membership_examples():
    assert evens().member(4)
    assert not evens().member(5)
    assert IndexSet("00000", "1").is_cofinite()
    assert evens().is_infinite() and not evens().is_cofinite()
    assert IndexSet("101", "0").is_finite()


def test_set_algebra_examples():
    assert intersect(evens(), complement(evens())) == empty()
    assert intersect(evens(), multiples(3)) == multiples(6)
    sixes = intersect(evens(), multiples(3))
    assert len(sixes.period) == 6 and sixes.period.count("1") == 1


def test_canonical_form_is_minimal_and_unique():
    assert IndexSet("", "1010") == evens()
    assert IndexSet("10", "10") == evens()
    assert IndexSet("0", "0101").pre == ""
    assert IndexSet("0", "0101").period == "01"
    s = IndexSet("0110", "110110")
    again = IndexSet(s.pre, s.period)
    assert (again.pre, again.period) == (s.pre, s.period)


def test_members_if_finite():
    assert IndexSet("101", "0").members_if_finite() == [0, 2]
    with pytest.raises(ValueError):
        evens().members_if_finite()


def test_parse_format_examples():
    assert parse("pre:;per:10") == evens()
    assert parse("pre:00000;per:1") == IndexSet("00000", "1")
    assert format_set(parse("pre:;per:1010")) == "pre:;per:10"
    with pytest.raises(IndexSetSyntaxError):
        parse("pre:;per:")


def test_parse_errors_carry_offsets():
    with pytest.raises(IndexSetSyntaxError) as exc:
        parse("per:10")
    assert exc.value.offset == 0
    with pytest.raises(IndexSetSyntaxError) as exc:
        parse("pre:01;px:1")
    assert exc.value.offset == 6
    with pytest.raises(IndexSetSyntaxError) as exc:
        parse("pre:;per:10x")
    assert exc.value.offset == 11


def _sample(rng: random.Random) -> IndexSet:
    pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
    per = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
    return IndexSet(pre, per)


def test_boolean_algebra_laws_hold_exactly():
    rng = random.Random(2718)
    for _ in range(10_000):
        s, t = _sample(rng), _sample(rng)
        assert complement(union(s, t)) == intersect(complement(s), complement(t))
        assert complement(intersect(s, t)) == union(complement(s), complement(t))
        assert complement(complement(s)) == s
        assert difference(s, t) == intersect(s, complement(t))
        u = _sample(rng)
        assert intersect(s, union(t, u)) == union(intersect(s, t), intersect(s, u))


def test_operations_match_pointwise_semantics():
    rng = random.Random(2719)
    for _ in range(2000):
        s, t = _sample(rng), _sample(rng)
        window = max(len(s.pre), len(t.pre)) + 4 * lcm(len(s.period), len(t.period))
        for n in range(window):
            assert union(s, t).member(n) == (s.member(n) or t.member(n))
            assert intersect(s, t).member(n) == (s.member(n) and t.member(n))
            assert complement(s).member(n) == (not s.member(n))


def _membership(pre: str, period: str):
    """Membership read straight from raw bit strings, period at absolute phase."""
    return lambda n: (pre[n] if n < len(pre) else period[n % len(period)]) == "1"


def test_operations_match_the_membership_oracle():
    rng = random.Random(2721)

    def bits(lo: int, hi: int) -> str:
        return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))

    for _ in range(4000):
        (a, b), (c, d) = (bits(0, 8), bits(1, 12)), (bits(0, 8), bits(1, 12))
        s, t = IndexSet(a, b), IndexSet(c, d)
        in_s, in_t = _membership(a, b), _membership(c, d)
        start, period = max(len(a), len(c)), lcm(len(b), len(d))
        for got, member in (
            (union(s, t), lambda n: in_s(n) or in_t(n)),
            (intersect(s, t), lambda n: in_s(n) and in_t(n)),
            (difference(s, t), lambda n: in_s(n) and not in_t(n)),
            (complement(s), lambda n: not in_s(n)),
        ):
            assert (got.pre, got.period) == periodic_set_form(member, start, period), (a, b, c, d)


def test_bits_are_checked():
    for pre, period in (("", "012"), ("1 0", "1"), ("", "1\n"), ("\u0661", "0")):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            IndexSet(pre, period)


def test_equality_iff_pointwise_agreement():
    rng = random.Random(2720)
    for _ in range(2000):
        s, t = _sample(rng), _sample(rng)
        window = (
            max(len(s.pre), len(t.pre))
            + 2 * lcm(len(s.period), len(t.period))
        )
        agree = all(s.member(n) == t.member(n) for n in range(window))
        assert agree == (s == t)


def test_classification_predicates():
    assert full().is_cofinite()
    assert empty().is_finite()
    assert singleton(5).is_finite()
    assert complement(singleton(5)).is_cofinite()
    assert odds().is_infinite()
    assert not odds().is_cofinite()


def test_singleton_rejects_negative_index():
    with pytest.raises(ValueError, match="natural numbers"):
        singleton(-3)


def _canonical_by_oracle(pre: str, period: str) -> tuple[str, str]:
    return periodic_set_form(_membership(pre, period), len(pre), len(period))


def _assert_canonical(pre: str, period: str) -> None:
    s = IndexSet(pre, period)
    assert (s.pre, s.period) == _canonical_by_oracle(pre, period), (pre, period)


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


@pytest.mark.parametrize("length", [840, 4096, 27720])
def test_canonical_form_of_words_tiled_to_smooth_lengths(length):
    rng = random.Random(length)
    divisors = [m for m in range(1, length + 1) if length % m == 0]
    for m in rng.sample(divisors, 10) + [length]:
        word = _bits(rng, m)
        _assert_canonical(_bits(rng, rng.randint(0, 8)), word * (length // m))


def test_canonical_form_at_prime_and_prime_square_lengths():
    rng = random.Random(2722)
    lengths = [(p, p**e) for p in (2, 3, 5, 7, 11, 13, 31, 101) for e in (1, 2)]
    for p, length in lengths + [(1009, 1009)]:
        for word in ("0" * length, "1" * length, _bits(rng, length), _bits(rng, p) * (length // p)):
            _assert_canonical(_bits(rng, rng.randint(0, 5)), word)


def test_canonical_form_of_sparse_periods():
    rng = random.Random(2723)
    for ones in (1, 2, 3):
        for _ in range(20):
            if rng.random() < 0.5:  # evenly spaced ones: the period is 840 / ones
                first = rng.randrange(840 // ones)
                at = {first + k * 840 // ones for k in range(ones)}
            else:
                at = set(rng.sample(range(840), ones))
            period = "".join("1" if i in at else "0" for i in range(840))
            _assert_canonical(_bits(rng, rng.randint(0, 6)), period)


def test_canonical_form_trims_preperiod_bits_the_period_explains():
    rng = random.Random(2724)
    for _ in range(500):
        word = _bits(rng, rng.randint(1, 12))
        period = word * rng.randint(1, 5)
        head = _bits(rng, rng.randint(0, 10))
        n = len(head) + rng.randint(0, 40)
        tiled = period * (n // len(period) + 1)
        _assert_canonical(head + tiled[len(head) : n], period)


def test_a_long_preperiod_is_trimmed_to_its_last_unexplained_bit():
    period = "011010"
    n = 131_072
    tiled = (period * (n // len(period) + 1))[:n]
    for k in (0, 77, n - 1):
        flipped = "1" if tiled[k] == "0" else "0"
        s = IndexSet(tiled[:k] + flipped + tiled[k + 1 :], period)
        assert (s.pre, s.period) == (tiled[:k] + flipped, period)
    assert IndexSet(tiled, period * 4) == IndexSet("", period)
