"""Parser and sort checker for the CLI expressions.

Grammar (normative for the command line):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' int]                 -- power is nonassociative
    atom   := int | 'sqrt' '(' int ')' | 'dx' | 'omega' | 'x'
            | 'st' '(' expr ')' | 'classify' '(' expr ')' | '(' expr ')'

Parsing is one pass of recursive descent over the matches of one regex,
each match a token, and folds no constants: `22/7` is a quotient of two
integer literals, which each value tier evaluates exactly. Power exponents
are integer literals because only integer powers are exact in both tiers.
Nesting of '(', 'st(' and 'classify(' is capped at MAX_NESTING levels, and
a literal longer than the interpreter converts from text is a syntax error.

An expression is read in one of three contexts: REAL (a digits query over
exact reals), HYPER (a query over hyperreal germs) and DERIVE (a derivative
body in `x`). `dx`/`omega` exist only in HYPER and `x` only in DERIVE, and
the first node in reading order that its context rejects is the error
reported. Evaluation and formatting are each one `fold` with a table of
per-node-type handlers; checking is one walk that stops at that first error.
"""

from __future__ import annotations

import enum
import re
from math import isqrt

from . import Record


class ExprSyntaxError(ValueError):
    """Parse failure with byte offset and the set of expected tokens."""
    exit_code = 1  # the CLI's exit code: usage or parse error

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"{message} (offset {offset})"
        if expected:
            detail += "; expected " + ", ".join(expected)
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


class SortError(Exception):
    """The expression is well-formed but lives in the wrong value tier."""
    exit_code = 3  # the CLI's exit code: domain error


class VarOutsideDerive(SortError):
    """`x` used outside a derivative body."""


# -- syntax trees -------------------------------------------------------------


class IntLit(Record):
    value: int


class SqrtInt(Record):
    k: int


class Dx(Record):
    pass


class Omega(Record):
    pass


class Var(Record):
    pass


class Add(Record):
    left: object
    right: object


class Sub(Record):
    left: object
    right: object


class Mul(Record):
    left: object
    right: object


class Div(Record):
    left: object
    right: object


class Pow(Record):
    base: object
    exponent: int


class St(Record):
    inner: object


class Classify(Record):
    inner: object


_ATOM_EXPECTED = ("integer", "'sqrt'", "'dx'", "'omega'", "'x'", "'st'", "'classify'", "'('")

# Binary operators by precedence level, loosest first; all are left-assoc.
# Token texts never repeat across token kinds, so the parser dispatches on
# the text alone.
_OPERATORS = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})
_LEAVES = {"dx": Dx, "omega": Omega, "x": Var}
# Each opener wraps the parenthesised expression that follows it.
_OPENERS = {"(": lambda inner: inner, "st": St, "classify": Classify}

# One group per token kind: an integer, a name, a symbol, a character no
# token starts with, and the end of the text. The classes are ASCII, so a
# non-ASCII digit or letter is an error token. Whitespace, which `\s`
# matches for exactly the characters where str.isspace() is true, matches no
# group and is skipped; `\Z` matches once, at the end.
_TOKEN = re.compile(
    r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<symbol>[-+*/^()])|(?P<error>\S)|(?P<end>\Z)"
)

# Deepest nesting of '(', 'st(' and 'classify(' the recursive-descent parser
# accepts; it keeps the parser's own recursion far below the interpreter limit.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the token matches of one text: a token's kind
    is its match's `lastgroup`, its text `m[0]` and its offset `m.start()`."""

    def __init__(self, text: str):
        self.tokens = list(_TOKEN.finditer(text))
        self.pos = 0
        self.depth = 0

    @property
    def current(self) -> re.Match:
        return self.tokens[self.pos]

    def advance(self) -> re.Match:
        m = self.tokens[self.pos]
        self.pos += 1
        return m

    def fail(self, expected: tuple[str, ...]):
        m = self.current
        if m.lastgroup == "error":
            raise ExprSyntaxError(f"unknown character {m[0]!r}", m.start(), expected)
        raise ExprSyntaxError(f"unexpected {m[0] or 'end of input'!r}", m.start(), expected)

    def expect_symbol(self, symbol: str):
        if self.current[0] != symbol:
            self.fail((f"'{symbol}'",))
        self.advance()

    def expect_int(self) -> int:
        if self.current.lastgroup != "int":
            self.fail(("integer",))
        m = self.advance()
        try:
            return int(m[0])
        except ValueError:  # more digits than the interpreter converts
            raise ExprSyntaxError("integer literal too long", m.start()) from None

    def expr(self, level: int = 0):
        """Operands joined by the operators of `level`, left to right.

        An operand is parsed by a direct call, never through a helper, so
        that each nesting level costs few interpreter frames.
        """
        innermost = level + 1 == len(_OPERATORS)
        node = self.factor() if innermost else self.expr(level + 1)
        while (build := _OPERATORS[level].get(self.current[0])) is not None:
            self.advance()
            node = build(node, self.factor() if innermost else self.expr(level + 1))
        return node

    def factor(self):
        node = self.atom()
        if self.current[0] == "^":
            self.advance()
            node = Pow(node, self.expect_int())
        return node

    def atom(self):
        m = self.current
        text = m[0]
        if m.lastgroup == "int":
            return IntLit(self.expect_int())
        if text in _LEAVES:
            self.advance()
            return _LEAVES[text]()
        if text == "sqrt":
            self.advance()
            self.expect_symbol("(")
            k = self.expect_int()
            self.expect_symbol(")")
            return SqrtInt(k)
        if text not in _OPENERS:
            self.fail(_ATOM_EXPECTED)
        self.advance()
        if text != "(":  # a named opener takes its '(' next
            self.expect_symbol("(")
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels", m.start()
            )
        self.depth += 1
        inner = self.expr()
        self.expect_symbol(")")
        self.depth -= 1
        return _OPENERS[text](inner)


def parse(text: str):
    """Parse an expression into its syntax tree."""
    parser = _Parser(text)
    node = parser.expr()
    if parser.current.lastgroup != "end":
        parser.fail(("operator", "end of input"))
    return node


# The fields of each inner node that hold subtrees: those annotated `object`.
CHILDREN = {
    cls: tuple(name for name, kind in cls.__annotations__.items() if kind == "object")
    for cls in (Add, Sub, Mul, Div, Pow, St, Classify)
}


def fold(tree, table):
    """Combine a tree bottom-up, iteratively, so depth costs no recursion.

    `table` maps a node type to `handler(node, *child_values)`. Children are
    folded first, left to right, then their parent. A node whose type has no
    handler is a SortError, raised before its children are visited.
    """
    values: list = []
    stack = [(tree, None, ())]
    while stack:
        node, handler, fields = stack.pop()
        if handler is not None:
            split = len(values) - len(fields)
            args = values[split:]
            del values[split:]
            values.append(handler(node, *args))
            continue
        handler = table.get(type(node))
        if handler is None:
            raise SortError(f"{type(node).__name__} has no value in this sort")
        fields = CHILDREN.get(type(node))
        if fields is None:
            values.append(handler(node))
            continue
        stack.append((node, handler, fields))
        for field in reversed(fields):
            stack.append((getattr(node, field), None, ()))
    return values[0]


# -- sort checking ------------------------------------------------------------


class Context(enum.Enum):
    REAL = "real"
    HYPER = "hyper"
    DERIVE = "derive"


def exact_int_sqrt(k: int) -> int:
    """The root of a perfect square k; SortError for any other k, whose root
    has no exact rational-slope form."""
    root = isqrt(k)
    if root * root != k:
        raise SortError(
            f"sqrt({k}) is irrational and has no exact "
            "rational-slope form; use a real-context query"
        )
    return root


# The contexts that admit each restricted node kind, and its error elsewhere.
_NOT_DERIVE = (Context.REAL, Context.HYPER)
_ADMITTED = {
    Dx: ((Context.HYPER,), SortError, "dx only exists in the hyperreal context"),
    Omega: ((Context.HYPER,), SortError, "omega only exists in the hyperreal context"),
    Var: (
        (Context.DERIVE,), VarOutsideDerive, "x is only meaningful in a derivative body"
    ),
    SqrtInt: (_NOT_DERIVE, SortError, "sqrt(...) is not allowed in a derivative body"),
    St: (_NOT_DERIVE, SortError, "st(...) is not allowed in a derivative body"),
    Classify: (
        (), SortError, "classify(...) is only allowed as the outermost hyperreal query"
    ),
}


def typecheck(node, ctx: Context) -> None:
    """Raise the first SortError of the expression in the given context.

    One walk in reading order (a node before its children, a left operand
    before the right) stops at the first node the context rejects. The
    reporting form `classify(...)` is accepted only around a whole hyperreal
    query, whose walk starts inside it; `sqrt(k)` there needs a square k.
    """
    stack = [node.inner if ctx is Context.HYPER and type(node) is Classify else node]
    while stack:
        n = stack.pop()
        kind = type(n)
        rule = _ADMITTED.get(kind)
        if rule is not None and ctx not in rule[0]:
            raise rule[1](rule[2])
        if kind is SqrtInt and ctx is Context.HYPER:
            exact_int_sqrt(n.k)
        stack.extend(getattr(n, f) for f in reversed(CHILDREN.get(kind, ())))


# -- formatting ---------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _infix(op: str, prec: int):
    def render(n, left, right):
        (ls, lp), (rs, rp) = left, right
        if lp < prec:
            ls = f"({ls})"
        if rp <= prec:
            rs = f"({rs})"
        return f"{ls}{op}{rs}", prec

    return render


def _power(n, base):
    bs, bp = base
    if bp < _PREC_ATOM:
        bs = f"({bs})"
    return f"{bs}^{n.exponent}", _PREC_POW


_FORMAT = {
    IntLit: lambda n: (str(n.value), _PREC_ATOM),
    SqrtInt: lambda n: (f"sqrt({n.k})", _PREC_ATOM),
    Dx: lambda n: ("dx", _PREC_ATOM),
    Omega: lambda n: ("omega", _PREC_ATOM),
    Var: lambda n: ("x", _PREC_ATOM),
    Add: _infix(" + ", _PREC_ADD),
    Sub: _infix(" - ", _PREC_ADD),
    Mul: _infix("*", _PREC_MUL),
    Div: _infix("/", _PREC_MUL),
    Pow: _power,
    St: lambda n, inner: (f"st({inner[0]})", _PREC_ATOM),
    Classify: lambda n, inner: (f"classify({inner[0]})", _PREC_ATOM),
}


def format_ast(node) -> str:
    """Render a tree so that parsing the result reproduces it."""
    return fold(node, _FORMAT)[0]
