import random
import re

import pytest

from eudoxus.expr import (
    Add,
    Classify,
    Context,
    Div,
    Dx,
    MAX_NESTING,
    ExprSyntaxError,
    IntLit,
    Mul,
    Omega,
    Pow,
    SortError,
    SqrtInt,
    St,
    Sub,
    Var,
    VarOutsideDerive,
    format_ast,
    parse,
    typecheck,
)
from oracles import first_sort_error


def test_parse_examples():
    assert parse("st((1+dx)^2)") == St(Pow(Add(IntLit(1), Dx()), 2))
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1++2")
    assert exc.value.offset == 2
    with pytest.raises(ExprSyntaxError) as exc:
        parse("2^3^2")
    assert exc.value.offset == 3  # nonassociative power


def test_parse_error_reports_expected_set():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1+")
    assert exc.value.expected
    assert exc.value.offset == 2
    with pytest.raises(ExprSyntaxError) as exc:
        parse("sqrt(2")
    assert "')'" in exc.value.expected


def test_quotients_of_integer_literals_are_not_folded():
    # Each value tier evaluates a quotient of literals exactly.
    assert parse("22/7") == Div(IntLit(22), IntLit(7))
    assert parse("22/7^2") == Div(IntLit(22), Pow(IntLit(7), 2))
    assert parse("1/0") == Div(IntLit(1), IntLit(0))
    assert parse("4/2") == Div(IntLit(4), IntLit(2))


def test_typecheck_examples():
    assert typecheck(parse("sqrt(2)*sqrt(2)"), Context.REAL) is None
    with pytest.raises(SortError):
        typecheck(parse("dx"), Context.REAL)
    assert typecheck(parse("x^2 - 2*x"), Context.DERIVE) is None


def test_typecheck_variable_scoping():
    with pytest.raises(VarOutsideDerive):
        typecheck(parse("x + 1"), Context.REAL)
    with pytest.raises(VarOutsideDerive):
        typecheck(parse("x"), Context.HYPER)


def test_typecheck_promotion_and_st():
    assert typecheck(parse("1 + dx"), Context.HYPER) is None
    assert typecheck(parse("st(1 + dx)"), Context.HYPER) is None
    assert typecheck(parse("st(1/2)"), Context.REAL) is None


def test_typecheck_classify_only_at_top_level():
    assert typecheck(parse("classify(dx)"), Context.HYPER) is None
    with pytest.raises(SortError):
        typecheck(parse("1 + classify(dx)"), Context.HYPER)
    with pytest.raises(SortError):
        typecheck(parse("classify(1)"), Context.REAL)


def test_typecheck_sqrt_in_hyper_context():
    # Perfect squares have an exact rational-slope form; other roots do not.
    assert typecheck(parse("sqrt(4) + dx"), Context.HYPER) is None
    with pytest.raises(SortError):
        typecheck(parse("sqrt(2) + dx"), Context.HYPER)
    with pytest.raises(SortError):
        typecheck(parse("sqrt(2)*x"), Context.DERIVE)


@pytest.mark.parametrize("opener", ["(", "st(", "classify("])
def test_nesting_limit(opener):
    def nested(depth):
        return opener * depth + "1" + ")" * depth

    parse(nested(MAX_NESTING - 1))
    with pytest.raises(ExprSyntaxError) as exc:
        parse(nested(600))
    assert exc.value.offset == MAX_NESTING * len(opener)


_ATOM = "expected integer, 'sqrt', 'dx', 'omega', 'x', 'st', 'classify', '('"
_TAIL = "expected operator, end of input"
# One input per place the parser can fail, with its whole message.
_MESSAGES = {
    "": f"unexpected 'end of input' (offset 0); {_ATOM}",
    "1+": f"unexpected 'end of input' (offset 2); {_ATOM}",
    "1 @ 2": f"unknown character '@' (offset 2); {_TAIL}",
    "sqrt(2": "unexpected 'end of input' (offset 6); expected ')'",
    "sqrt 2": "unexpected '2' (offset 5); expected '('",
    "sqrt(x)": "unexpected 'x' (offset 5); expected integer",
    "2^x": "unexpected 'x' (offset 2); expected integer",
    "2^3^2": f"unexpected '^' (offset 3); {_TAIL}",
    "foo": f"unexpected 'foo' (offset 0); {_ATOM}",
    "(1": "unexpected 'end of input' (offset 2); expected ')'",
    "st 1": "unexpected '1' (offset 3); expected '('",
    "1)": f"unexpected ')' (offset 1); {_TAIL}",
    "classify(": f"unexpected 'end of input' (offset 9); {_ATOM}",
    ")": f"unexpected ')' (offset 0); {_ATOM}",
    "1 2": f"unexpected '2' (offset 2); {_TAIL}",
    "(" * 101 + "1" + ")" * 101: "nesting deeper than 100 levels (offset 100)",
    # Offsets count the whitespace skipped before a token, and the end of
    # the text is a token of its own.
    "  st( dx": "unexpected 'end of input' (offset 8); expected ')'",
    "  st( @ )": f"unknown character '@' (offset 6); {_ATOM}",
    "1 + ": f"unexpected 'end of input' (offset 4); {_ATOM}",
}


@pytest.mark.parametrize(
    "text", _MESSAGES, ids=lambda text: text if len(text) < 20 else "101 nested ("
)
def test_parser_messages_are_pinned(text):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == _MESSAGES[text]


def test_typecheck_raises_the_first_error_in_reading_order():
    # st( is read before its argument, and the left operand before the right.
    with pytest.raises(SortError, match="st"):
        typecheck(parse("st(dx)"), Context.DERIVE)
    with pytest.raises(SortError, match="dx"):
        typecheck(parse("dx + st(x)"), Context.DERIVE)
    with pytest.raises(SortError, match="classify"):
        typecheck(parse("1 + classify(x)"), Context.HYPER)


def _gen_checked(rng: random.Random, depth: int, leaves):
    """A tree over all thirteen node kinds, its leaves drawn from `leaves`;
    `classify(` wraps the root or an inner node now and then."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(leaves)(rng)
    pick = rng.random()
    if pick < 0.7:
        left = _gen_checked(rng, depth - 1, leaves)
        return rng.choice((Add, Sub, Mul, Div))(left, _gen_checked(rng, depth - 1, leaves))
    if pick < 0.8:
        return Pow(_gen_checked(rng, depth - 1, leaves), rng.randint(0, 3))
    wrap = St if pick < 0.95 else Classify
    return wrap(_gen_checked(rng, depth - 1, leaves))


_LEAVES = (
    lambda rng: IntLit(rng.randint(0, 9)),
    lambda rng: Div(IntLit(rng.randint(1, 9)), IntLit(rng.randint(2, 9))),
    lambda rng: SqrtInt(rng.randint(0, 30)),  # squares and non-squares
    lambda rng: Dx(),
    lambda rng: Omega(),
    lambda rng: Var(),
)


def test_typecheck_matches_the_sort_folding_checker():
    # The walk raises what the sort-folding checker in `oracles` reports,
    # with the same class and the same text, or nothing where it finds none.
    rng = random.Random(1313)
    outcomes = set()
    for _ in range(3000):
        leaves = rng.sample(_LEAVES, rng.randint(1, 3))
        tree = _gen_checked(rng, rng.randint(0, 5), leaves)
        if rng.random() < 0.3:
            tree = Classify(tree)
        for ctx in Context:
            expected = first_sort_error(tree, ctx)
            try:
                typecheck(tree, ctx)
            except SortError as exc:
                assert (type(exc), str(exc)) == (type(expected), str(expected)), tree
                outcomes.add((ctx, re.sub(r"[0-9]+", "k", str(exc).split()[0])))
            else:
                assert expected is None, tree
                outcomes.add((ctx, None))
    # Every context accepts some trees, and every kind of error occurs.
    assert {(ctx, None) for ctx in Context} <= outcomes
    assert {text for _, text in outcomes} == {
        None, "dx", "omega", "x", "sqrt(...)", "sqrt(k)", "st(...)", "classify(...)"
    }


def _gen(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice(
            (
                IntLit(rng.randint(0, 99)),
                Div(IntLit(rng.randint(1, 99)), IntLit(rng.randint(1, 99))),
                SqrtInt(rng.randint(0, 30)),
                Dx(),
                Omega(),
            )
        )
    pick = rng.random()
    if pick < 0.2:
        return Add(_gen(rng, depth - 1), _gen(rng, depth - 1))
    if pick < 0.4:
        return Sub(_gen(rng, depth - 1), _gen(rng, depth - 1))
    if pick < 0.6:
        return Mul(_gen(rng, depth - 1), _gen(rng, depth - 1))
    if pick < 0.75:
        return Div(_gen(rng, depth - 1), _gen(rng, depth - 1))
    if pick < 0.9:
        return Pow(_gen(rng, depth - 1), rng.randint(0, 5))
    return St(_gen(rng, depth - 1))


def test_format_parse_round_trip_on_generated_trees():
    rng = random.Random(1234)
    for _ in range(1000):
        generated = _gen(rng, rng.randint(0, 4))
        stable = parse(format_ast(generated))
        assert parse(format_ast(stable)) == stable
        assert format_ast(parse(format_ast(stable))) == format_ast(stable)


def test_fuzz_never_crashes_and_offsets_stay_in_range():
    rng = random.Random(4321)
    alphabet = "0123456789+-*/^()sqrtdxomegastclassify xX_@#.~\t\n\\'\""
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        try:
            parse(text)
        except ExprSyntaxError as exc:
            assert 0 <= exc.offset <= len(text)

