"""Independent oracles for the benchmark's expected answers.

Nothing here imports eudoxus or reads its output. Expressions are the
benchmark's own trees (see `render`), real values come from the `decimal`
module at a working precision far above the requested one, germs and
rational functions are pairs of Fraction-coefficient polynomials, and the
ultrafilter is a direct model of the accept-first policy over eventually
periodic sets kept as explicit bit windows.

Expression trees are tuples:

    ("int", n) ("rat", p, q) ("sqrt", k) ("dx",) ("omega",) ("x",)
    ("add", a, b) ("sub", a, b) ("mul", a, b) ("div", a, b)
    ("pow", a, e) ("st", a) ("classify", a) ("paren", a, depth)
"""

from __future__ import annotations

import decimal
import re
from fractions import Fraction
from math import gcd

# -- rendering ----------------------------------------------------------------

_OPS = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def render(t) -> str:
    """CLI text of a tree; every compound operand is parenthesised."""
    tag = t[0]
    if tag == "int":
        return str(t[1])
    if tag == "rat":
        return f"({t[1]}/{t[2]})"
    if tag == "sqrt":
        return f"sqrt({t[1]})"
    if tag in ("dx", "omega", "x"):
        return tag
    if tag in _OPS:
        return f"({render(t[1])}{_OPS[tag]}{render(t[2])})"
    if tag == "pow":
        base = render(t[1])
        if not (base.startswith("(") or base.startswith("sqrt") or base.isalnum()):
            base = f"({base})"
        return f"{base}^{t[2]}"
    if tag in ("st", "classify"):
        return f"{tag}({render(t[1])})"
    if tag == "paren":
        return "(" * t[2] + render(t[1]) + ")" * t[2]
    raise ValueError(f"unknown tree tag {tag!r}")


def _unwrap(t):
    while t[0] == "paren":
        t = t[1]
    return t


# -- exact reals through `decimal` --------------------------------------------


class ZeroDivisor(ArithmeticError):
    """The tree divides by an exact zero."""


def _perfect_root(k: int):
    lo, hi = 0, max(1, k)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid * mid <= k:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo * lo == k else None


def _real(t, ctx: decimal.Context, peak: list):
    tag = t[0]
    if tag == "int":
        v = decimal.Decimal(t[1])
    elif tag == "rat":
        v = ctx.divide(decimal.Decimal(t[1]), decimal.Decimal(t[2]))
    elif tag == "sqrt":
        v = ctx.sqrt(decimal.Decimal(t[1]))
    elif tag == "paren":
        v = _real(_unwrap(t), ctx, peak)
    elif tag == "st":
        v = _real(t[1], ctx, peak)
    elif tag == "pow":
        base = _real(t[1], ctx, peak)
        v = decimal.Decimal(1)
        for _ in range(t[2]):
            v = ctx.multiply(v, base)
    elif tag in _OPS:
        a, b = _real(t[1], ctx, peak), _real(t[2], ctx, peak)
        if tag == "add":
            v = ctx.add(a, b)
        elif tag == "sub":
            v = ctx.subtract(a, b)
        elif tag == "mul":
            v = ctx.multiply(a, b)
        else:
            if b.is_zero():
                raise ZeroDivisor(render(t[2]))
            v = ctx.divide(a, b)
    else:
        raise ValueError(f"{tag} has no real value")
    if not v.is_zero():
        peak[0] = max(peak[0], v.adjusted())
    return v


def real_value(t, digits: int) -> Fraction:
    """The tree's value within 10^-(digits+40), as an exact Fraction.

    A first pass finds the largest intermediate magnitude; the second pass
    carries enough significant digits that cancellation between such
    intermediates still leaves digits+60 correct places.
    """
    peak = [0]
    _real(t, decimal.Context(prec=60), peak)
    prec = digits + 80 + 2 * max(0, peak[0])
    return Fraction(_real(t, decimal.Context(prec=prec), [0]))


def check_digits(text: str, t, digits: int) -> bool:
    """`text` renders the tree to `digits` places with error <= 10^-digits."""
    if not re.fullmatch(r"-?\d+\.\d{%d}" % digits, text):
        return False
    return abs(Fraction(text) - real_value(t, digits)) <= Fraction(1, 10**digits)


# -- Fraction polynomials (lowest degree first) ---------------------------------


def ptrim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def padd(p, q):
    n = max(len(p), len(q))
    return ptrim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def pneg(p):
    return tuple(-c for c in p)


def pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ptrim(out)


def peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p):
    return tuple(k * c for k, c in enumerate(p))[1:]


def pdivmod(p, q):
    """Quotient and remainder over the rationals (q nonzero)."""
    r = [Fraction(c) for c in p]
    out = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = r[i + len(q) - 1] / q[-1]
        out[i] = c
        for j, qc in enumerate(q):
            r[i + j] -= c * qc
    return ptrim(out), ptrim(r)


def pgcd(p, q):
    """Monic gcd over the rationals."""
    a, b = ptrim(p), ptrim(q)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return tuple(c / a[-1] for c in a) if a else ()


def reduce_ratfn(num, den):
    g = pgcd(num, den)
    if len(g) > 1:
        num, den = pdivmod(num, g)[0], pdivmod(den, g)[0]
    return num, den


class SortMismatch(Exception):
    """The tree has no value in the requested tier (the CLI exits 3)."""


def germ(t):
    """(P, Q) with the germ's slope P(i)/Q(i); raises ZeroDivisor/SortMismatch."""
    tag = t[0]
    one = (Fraction(1),)
    if tag == "int":
        return ((Fraction(t[1]),) if t[1] else ()), one
    if tag == "rat":
        return ptrim((Fraction(t[1], t[2]),)), one
    if tag == "sqrt":
        root = _perfect_root(t[1])
        if root is None:
            raise SortMismatch(f"sqrt({t[1]}) is irrational")
        return ((Fraction(root),) if root else ()), one
    if tag == "dx":
        return one, (Fraction(0), Fraction(1))
    if tag == "omega":
        return (Fraction(0), Fraction(1)), one
    if tag == "x":
        return (Fraction(0), Fraction(1)), one
    if tag == "paren":
        return germ(_unwrap(t))
    if tag == "classify":
        return germ(t[1])
    if tag == "st":
        st = classify(*germ(t[1]))[1]
        if st is None:
            raise SortMismatch("standard part of an infinite element")
        return ((st,) if st else ()), one
    if tag == "pow":
        num, den = germ(t[1])
        pn, pd = one, one
        for _ in range(t[2]):
            pn, pd = pmul(pn, num), pmul(pd, den)
        return pn, pd
    (an, ad), (bn, bd) = germ(t[1]), germ(t[2])
    if tag == "add":
        return padd(pmul(an, bd), pmul(bn, ad)), pmul(ad, bd)
    if tag == "sub":
        return padd(pmul(an, bd), pneg(pmul(bn, ad))), pmul(ad, bd)
    if tag == "mul":
        return pmul(an, bn), pmul(ad, bd)
    if tag == "div":
        if not bn:
            raise ZeroDivisor(render(t[2]))
        return pmul(an, bd), pmul(ad, bn)
    raise ValueError(f"unknown tree tag {tag!r}")


_KINDS = {
    (-1, 1): "PositiveInfinitesimal",
    (-1, -1): "NegativeInfinitesimal",
    (0, 0): "AppreciableFinite",
    (1, 1): "PositiveInfinite",
    (1, -1): "NegativeInfinite",
}


def classify(num, den):
    """(kind, standard part or None, leading coefficient, leading degree).

    The degree gap and the ratio of leading coefficients do not change when
    a common factor is cancelled, so no reduction is needed here.
    """
    if not num:
        return "Zero", Fraction(0), Fraction(0), 0
    gap = (len(num) - 1) - (len(den) - 1)
    lead = num[-1] / den[-1]
    if gap == 0:
        return "AppreciableFinite", lead, lead, 0
    kind = _KINDS[(1 if gap > 0 else -1, 1 if lead > 0 else -1)]
    st = None if gap > 0 else Fraction(0)
    return kind, st, lead, gap


def parse_poly_text(text: str, var: str = "i"):
    """Coefficients of a polynomial printed as `3*i^2 - i + 5`."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    coeffs: dict[int, Fraction] = {}
    for sign, body in re.findall(r"(^-?|[+-] )([^ ]+)", text):
        neg = sign.strip() == "-"
        if var in body:
            c, _, power = body.partition(var)
            c = Fraction(c.rstrip("*")) if c else Fraction(1)
            k = int(power[1:]) if power.startswith("^") else 1
        else:
            c, k = Fraction(body), 0
        coeffs[k] = coeffs.get(k, 0) + (-c if neg else c)
    return ptrim(coeffs.get(k, Fraction(0)) for k in range(max(coeffs, default=-1) + 1))


def _split_quotient(text: str):
    depth = 0
    for pos, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "/" and depth == 0:
            return text[:pos], text[pos + 1 :]
    return text, "1"


def hyper_lines(t):
    """Expected `hyper eval` lines before the germ line, and the germ (P, Q).

    `check_hyper` compares the germ with the printed quotient by
    cross-multiplying, so the printed form need not match this one.
    """
    num, den = germ(t)
    kind, st, lead, gap = classify(num, den)
    lines = [f"class: {kind}"]
    if st is not None:
        lines.append(f"st: {st}")
    lines.append(f"leading: {lead}*i^{gap}")
    return lines, num, den


def check_hyper(out_lines: list[str], t) -> bool:
    fixed, num, den = hyper_lines(t)
    if out_lines[:-1] != fixed or not out_lines[-1].startswith("germ: "):
        return False
    top, bottom = _split_quotient(out_lines[-1][len("germ: ") :])
    try:
        pn, pd = parse_poly_text(top), parse_poly_text(bottom)
    except (ValueError, ZeroDivisionError):
        return False
    return bool(pd) and pmul(pn, den) == pmul(num, pd)


# -- derivatives ----------------------------------------------------------------


class Pole(ArithmeticError):
    """The reduced denominator vanishes at the evaluation point."""


def derivative(t, x0: Fraction) -> Fraction:
    """Quotient rule on the reduced rational function, at x0."""
    num, den = reduce_ratfn(*germ(t))
    dv = peval(den, x0)
    if dv == 0:
        raise Pole(str(x0))
    return (peval(pderiv(num), x0) * dv - peval(num, x0) * peval(pderiv(den), x0)) / (
        dv * dv
    )


def check_derive(out_lines: list[str], t, x0: Fraction, places: int = 10) -> bool:
    """Exact line equal to the oracle, decimal line within half an ulp."""
    if len(out_lines) != 2:
        return False
    exact, dec = out_lines
    value = derivative(t, x0)
    if not re.fullmatch(r"-?\d+(/\d+)?", exact) or Fraction(exact) != value:
        return False
    if not re.fullmatch(r"-?\d+\.\d{%d}" % places, dec):
        return False
    return abs(Fraction(dec) - value) <= Fraction(1, 2 * 10**places)


# -- eventually periodic sets and the accept-first ultrafilter -------------------


class PSet:
    """Bits for n < start + length; beyond that bits repeat with `length`.

    Phase is relative to `start` here (the program uses absolute phase), so
    agreement between the two is a real check of both encodings.
    """

    __slots__ = ("start", "length", "bits")

    def __init__(self, start: int, length: int, bits):
        self.start, self.length, self.bits = start, length, tuple(bits)

    @classmethod
    def from_spec(cls, spec: str) -> "PSet":
        m = re.fullmatch(r"pre:([01]*);per:([01]+)", spec)
        if m is None:
            raise ValueError(f"bad set spec {spec!r}")
        pre, per = m.group(1), m.group(2)
        # Absolute phase: index n >= len(pre) reads per[n % len(per)].
        window = [c == "1" for c in pre]
        window += [per[n % len(per)] == "1" for n in range(len(pre), len(pre) + len(per))]
        return cls(len(pre), len(per), window)

    def member(self, n: int) -> bool:
        if n < len(self.bits):
            return self.bits[n]
        return self.bits[self.start + (n - self.start) % self.length]

    def combine(self, other: "PSet", op) -> "PSet":
        start = max(self.start, other.start)
        length = self.length * other.length // gcd(self.length, other.length)
        return PSet(
            start,
            length,
            [op(self.member(n), other.member(n)) for n in range(start + length)],
        )

    def complement(self) -> "PSet":
        return PSet(self.start, self.length, [not b for b in self.bits])

    def is_infinite(self) -> bool:
        return any(self.bits[self.start :])

    def key(self, start: int, length: int) -> tuple:
        return tuple(self.member(n) for n in range(start + length))

    def same(self, other: "PSet") -> bool:
        start = max(self.start, other.start)
        length = self.length * other.length // gcd(self.length, other.length)
        return self.key(start, length) == other.key(start, length)


def _and(a, b):
    return a and b


class UltraModel:
    """Accept-first decisions: keep the meet of all commitments; accept a
    queried set when its intersection with the meet is infinite, otherwise
    reject it and commit its complement. Repeated queries answer from the log.

    `max_pre` and `max_per` bound the queried sets' preperiods and periods;
    they fix one window on which equal sets have equal bit patterns.
    """

    def __init__(self, max_pre: int, max_per: int):
        length = 1
        for k in range(1, max_per + 1):
            length = length * k // gcd(length, k)
        self.window = (max_pre, length)
        self.meet = PSet(0, 1, [True])
        self.log: list[tuple[PSet, str]] = []
        self.decided: dict[tuple, str] = {}

    def is_new(self, s: PSet) -> bool:
        return s.key(*self.window) not in self.decided

    def would_accept(self, s: PSet) -> bool:
        """The verdict a first query of s would get, without committing it."""
        return s.combine(self.meet, _and).is_infinite()

    def query(self, s: PSet) -> str:
        key = s.key(*self.window)
        if key in self.decided:
            return self.decided[key]
        hit = s.combine(self.meet, _and)
        if hit.is_infinite():
            self.meet, verdict = hit, "Accepted"
        else:
            self.meet, verdict = s.complement().combine(self.meet, _and), "Rejected"
        self.log.append((s, verdict))
        self.decided[key] = verdict
        return verdict

    def contains(self, s: PSet) -> str:
        if not self.meet.combine(s.complement(), _and).is_infinite():
            return "ForcedIn"
        if not s.combine(self.meet, _and).is_infinite():
            return "ForcedOut"
        return "Undecided"


def check_trace(out_lines: list[str], log) -> bool:
    """`ultra trace` lines list the logged sets and verdicts, in order."""
    if len(out_lines) != len(log):
        return False
    for line, (s, verdict) in zip(out_lines, log):
        word, _, spec = line.partition(" ")
        try:
            if word != verdict or not PSet.from_spec(spec).same(s):
                return False
        except ValueError:
            return False
    return True


# -- partitions and admissibility -------------------------------------------------


class BadPartition(ValueError):
    """The classes overlap or leave an index uncovered (the CLI exits 1)."""


def admissible(t, class_specs: list[str]) -> bool:
    """Whether the germ is constant on every class of the partition.

    The partition is checked by brute force over one full window. On an
    infinite class a rational slope is constant only if the germ is; on a
    finite class the slope values at its members must agree.
    """
    classes = [PSet.from_spec(s) for s in class_specs]
    start = max(c.start for c in classes)
    length = 1
    for c in classes:
        length = length * c.length // gcd(length, c.length)
    for n in range(start + length):
        if sum(c.member(n) for c in classes) != 1:
            raise BadPartition(f"index {n} is not covered exactly once")
    num, den = reduce_ratfn(*germ(t))
    constant = len(num) <= 1 and len(den) == 1
    for c in classes:
        if c.is_infinite():
            if not constant:
                return False
            continue
        members = [n for n in range(c.start) if c.bits[n]]
        values = set()
        for n in members:
            dv = peval(den, n)
            if dv == 0:
                raise Pole(str(n))
            values.add(peval(num, n) / dv)
        if len(values) > 1:
            return False
    return True


# -- germ order -------------------------------------------------------------------


def eventual_order(x, y) -> str:
    """Eventual sign of x - y for germs given as (P, Q) Fraction pairs."""
    (xn, xd), (yn, yd) = x, y
    diff = padd(pmul(xn, yd), pneg(pmul(yn, xd)))
    if not diff:
        return "Equal"
    sign = (diff[-1] > 0) == (pmul(xd, yd)[-1] > 0)
    return "Greater" if sign else "Less"
