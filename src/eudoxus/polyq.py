"""Dense integer-coefficient polynomials and the one rational-function type.

Coefficients are stored lowest-degree first; the zero polynomial is the empty
tuple. All arithmetic is exact (ints, with Fractions only in transient
values). `RatFun` is the shared quotient behind index-dependent slopes
(`hyper.RationalSlopeGerm`) and the calculus layer (`calculus.RatFunction`);
it prints itself in its view's variable, i for germs and x otherwise.
`gcd` is GCDHEU: if the integer gcd of both inputs' values at xi =
2*min(max norm) + 29 is below xi/2, the root bound proves them coprime;
otherwise it is read back in xi-adic digits and confirmed by `divide_exact`,
with the pseudo-remainder loop as the fallback. `normalize_ratfun` drops a
gcd's power of the variable as a slice of both sides, and `eval_at` splits a
long polynomial into halves, so high-degree normal forms need neither a long
division by x^m nor Horner's rule at a large xi.
`int_text`, `fraction_text` and `decimal_of_fraction` print integers and
fractions at any length, also past Python's 4,300-digit limit on int-to-str
conversion.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm

from . import Record

Coeffs = tuple


def trim(coeffs) -> Coeffs:
    if type(coeffs) is tuple and (not coeffs or coeffs[-1]):
        return coeffs  # already trimmed
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Coeffs) -> int:
    """Degree, with the convention that the zero polynomial has degree -1."""
    return len(p) - 1


def leading(p: Coeffs) -> int:
    return p[-1] if p else 0


def add(p: Coeffs, q: Coeffs) -> Coeffs:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p: Coeffs) -> Coeffs:
    return tuple(-c for c in p)


def sub(p: Coeffs, q: Coeffs) -> Coeffs:
    return add(p, neg(q))


def mul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def scale(p: Coeffs, c) -> Coeffs:
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def pow_(p: Coeffs, k: int) -> Coeffs:
    if k < 0:
        raise ValueError("negative polynomial power")
    out: Coeffs = (1,)
    base = p
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return out


_PIECE = 32  # the longest piece `eval_at` runs Horner on


def eval_at(p: Coeffs, x):
    """p(x) for an int or a Fraction x.

    A polynomial of more than 32 coefficients is evaluated by halves: Horner
    on each piece of 32, then neighbours joined as lo + x^h * hi with h = 32,
    64, 128, ..., the powers got by squaring. So a long polynomial at a large
    x multiplies numbers of balanced size, where Horner multiplies the whole
    running value by x once per coefficient.
    """
    if len(p) <= _PIECE:
        acc = 0
        for c in reversed(p):
            acc = acc * x + c
        return acc
    vals = [eval_at(p[lo : lo + _PIECE], x) for lo in range(0, len(p), _PIECE)]
    power = x**_PIECE
    while True:
        joined = [lo + power * hi for lo, hi in zip(vals[::2], vals[1::2])]
        vals = joined + vals[2 * len(joined) :]  # an odd last piece waits a round
        if len(vals) == 1:
            return vals[0]
        power *= power


def content(p: Coeffs) -> int:
    return _int_gcd(*p)


def primitive(p: Coeffs) -> Coeffs:
    c = content(p)
    if c in (0, 1):
        return p
    return tuple(a // c for a in p)


def pseudo_rem(p: Coeffs, q: Coeffs) -> Coeffs:
    """Pseudo-remainder of p by q (q nonzero), up to powers of leading(q)."""
    dq = degree(q)
    lq = leading(q)
    r = list(p)
    while True:
        while r and r[-1] == 0:
            r.pop()
        dr = len(r) - 1
        if dr < dq:
            return tuple(r)
        lr = r[-1]
        r = [lq * c for c in r]
        shift = dr - dq
        for j, qc in enumerate(q):
            r[shift + j] -= lr * qc


def gcd(p: Coeffs, q: Coeffs) -> Coeffs:
    """Primitive polynomial gcd with positive leading coefficient.

    GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 7, 1989): h is the integer
    gcd of the primitive inputs' values at xi = 2*m + 29, where m =
    min(|a|, |b|) (max norms). A common factor C of positive degree has only
    roots of modulus at most 1 + m (Cauchy's bound for the smaller input), so
    |C(xi)| >= xi - 1 - m = m + 28 > xi/2, and C(xi) divides h: h < xi/2
    proves a and b coprime. Below xi/2, h is also its own one symmetric
    xi-adic digit, so the digit read would give the constant gcd 1 as well.
    Otherwise h's symmetric xi-adic digits give a polynomial whose primitive
    part is the gcd once `divide_exact` confirms that it divides a and b.
    After six failed confirmations, each at a larger xi, the
    pseudo-remainder loop decides. A power x^m dividing both inputs, which
    would multiply each value by xi^m, is taken out first.
    """
    a, b = primitive(trim(p)), primitive(trim(q))
    if a and b and not a[0] and not b[0]:
        m = min(next(i for i, c in enumerate(f) if c) for f in (a, b))
        return (0,) * m + gcd(a[m:], b[m:])
    if a and b:
        xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
        for _ in range(6):
            h = _int_gcd(eval_at(a, xi), eval_at(b, xi))
            if 2 * h < xi:
                return (1,)
            digits = []
            while h:
                digits.append((h + xi // 2) % xi - xi // 2)
                h = (h - digits[-1]) // xi
            g = primitive(tuple(digits))
            g = neg(g) if g[-1] < 0 else g
            try:
                divide_exact(a, g), divide_exact(b, g)
                return g
            except ArithmeticError:
                xi = xi * 73794 // 27011  # GCDHEU's growth factor, about 2.732
    while b:
        a, b = b, primitive(pseudo_rem(a, b))
    if leading(a) < 0:
        a = neg(a)
    return a


def divide_exact(p: Coeffs, d: Coeffs) -> Coeffs:
    """Exact quotient p/d by integer long division; ArithmeticError unless d
    divides p with an integer quotient, as a primitive divisor over the
    rationals does by Gauss's lemma."""
    p, d = trim(p), trim(d)
    dd, ld = degree(d), leading(d)
    r = list(p)
    out = [0] * (len(p) - dd)
    for i in range(len(out) - 1, -1, -1):
        # A step that does not divide leaves its nonzero remainder in r[dd + i].
        out[i] = r[dd + i] // ld
        for j, dc in enumerate(d):
            r[i + j] -= out[i] * dc
    if any(r):
        raise ArithmeticError("non-exact polynomial division")
    return tuple(out)


def normalize_ratfun(num, den) -> tuple[Coeffs, Coeffs]:
    """Reduce num/den to lowest terms.

    The result has coprime numerator and denominator, joint coefficient
    content 1, and a positive leading denominator coefficient; the zero
    function is ((), (1,)). This makes equal rational functions structurally
    identical.
    """
    num, den = trim(num), trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator polynomial")
    if not num:
        return (), (1,)
    if degree(num) > 0 and degree(den) > 0:
        g = gcd(num, den)
        if not g[0]:  # x^m divides both: drop m low zeros as a slice
            m = next(i for i, c in enumerate(g) if c)
            num, den, g = num[m:], den[m:], g[m:]
        if degree(g) > 0:
            num, den = divide_exact(num, g), divide_exact(den, g)
    c = _int_gcd(*num, *den)
    if c > 1:
        num = tuple(a // c for a in num)
        den = tuple(a // c for a in den)
    if leading(den) < 0:
        num, den = neg(num), neg(den)
    return num, den


class DivisionByZeroGerm(ZeroDivisionError):
    """Division by the zero rational function."""


class RatFun(Record):
    """Quotient num/den of integer polynomials, stored in reduced normal form.

    Rational coefficients are cleared at construction; integer input, such as
    every result of arithmetic, goes straight to normalize_ratfun. Subclasses
    are views, and a view is data: the `noun` that names the quotient in
    messages, the `var` it prints in, and the error `pole(x)` returns for a
    pole. `str` prints num/den in the view's variable, bracketing a side only
    where it has more than one term.
    """

    num: Coeffs
    den: Coeffs

    noun = "function"
    var = "x"

    def __init__(self, num: Coeffs, den: Coeffs):
        if any(type(c) is not int for p in (num, den) for c in p):
            num, mn = from_fraction_coeffs(num)
            den, md = from_fraction_coeffs(den)
            num, den = scale(num, md), scale(den, mn)
        super().__init__(*normalize_ratfun(num, den))

    @classmethod
    def constant(cls, q):
        """The rational number q (an int or a Fraction) as a constant quotient."""
        n, d = q.as_integer_ratio()
        return cls((n,), (d,))

    def pole(self, x) -> Exception:
        return ZeroDivisionError(f"pole at {x}")

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return degree(self.num) <= 0 and degree(self.den) == 0

    def __add__(self, other):
        num = add(mul(self.num, other.den), mul(other.num, self.den))
        return type(self)(num, mul(self.den, other.den))

    def __sub__(self, other):
        num = sub(mul(self.num, other.den), mul(other.num, self.den))
        return type(self)(num, mul(self.den, other.den))

    def __mul__(self, other):
        return type(self)(mul(self.num, other.num), mul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise DivisionByZeroGerm(f"division by the zero {self.noun}")
        return type(self)(mul(self.num, other.den), mul(self.den, other.num))

    def __neg__(self):
        return type(self)(neg(self.num), self.den)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power; divide instead")
        return type(self)(pow_(self.num, k), pow_(self.den, k))

    def __call__(self, x) -> Fraction:
        """The value at the point x; the view's pole error where den(x) = 0."""
        dv = eval_at(self.den, x)
        if dv == 0:
            raise self.pole(x)
        return Fraction(eval_at(self.num, x), dv)

    def __str__(self) -> str:
        num, den = (format_poly(p, self.var) for p in (self.num, self.den))
        if self.den == (1,):
            return num
        return "/".join(f"({t})" if " " in t else t for t in (num, den))


def from_fraction_coeffs(coeffs) -> tuple[Coeffs, int]:
    """Clear denominators: return (integer coefficients, common multiplier)."""
    fracs = [Fraction(c) for c in coeffs]
    m = lcm(*(c.denominator for c in fracs))
    return trim(int(c * m) for c in fracs), m


_LIMB = 10**1000  # 1,000 digits per int-to-str conversion: below Python's 4,300


def int_text(n: int) -> str:
    """n in decimal at any length, converted one 1,000-digit limb at a time."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    limbs = []
    while n >= _LIMB:
        n, low = divmod(n, _LIMB)
        limbs.append(f"{low:01000d}")
    return sign + str(n) + "".join(reversed(limbs))


def fraction_text(q: Fraction) -> str:
    """`n` or `n/d`, as str(Fraction) prints q, at any length."""
    if q.denominator == 1:
        return int_text(q.numerator)
    return f"{int_text(q.numerator)}/{int_text(q.denominator)}"


def decimal_of_fraction(value: Fraction, digits: int) -> str:
    """Fixed-point rendering with round-half-up at the last digit, at any
    number of digits."""
    if digits < 1:
        raise ValueError("digits must be positive")
    scaled = value * 10**digits
    units = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if units < 0 else ""
    ipart, fpart = divmod(abs(units), 10**digits)
    # The leading 1 of 10**digits + fpart keeps fpart's leading zeros.
    return f"{sign}{int_text(ipart)}.{int_text(10**digits + fpart)[1:]}"


def format_poly(p: Coeffs, var: str) -> str:
    if not p:
        return "0"
    parts = []
    for k in range(degree(p), -1, -1):
        c = p[k]
        if c == 0:
            continue
        if k == 0:
            body = int_text(abs(c))
        else:
            v = var if k == 1 else f"{var}^{k}"
            body = v if abs(c) == 1 else f"{int_text(abs(c))}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
