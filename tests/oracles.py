"""Independent oracles for expected values.

Everything here deliberately avoids the library's own code paths: integer
square roots are computed by bisection rather than math.isqrt, decimals by
long division, derivatives by coefficient formulas, rational-function
reconstruction by Gaussian elimination over Fractions, and polynomial gcds
by the monic Euclidean algorithm over Fractions.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from math import ceil, gcd, lcm


def bisect_isqrt(n: int) -> int:
    """floor(sqrt(n)) for n >= 0 via plain bisection."""
    if n < 0:
        raise ValueError("negative argument")
    lo, hi = 0, max(1, n)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def sqrt_decimal_truncated(k: int, digits: int) -> str:
    """The first `digits` decimals of sqrt(k), truncated (never rounded)."""
    scaled = bisect_isqrt(k * 10 ** (2 * digits))
    ipart, frac = divmod(scaled, 10**digits)
    return f"{ipart}.{frac:0{digits}d}"


def sqrt_difference_power_decimal(a: int, b: int, n: int, digits: int) -> str:
    """(sqrt(a) - sqrt(b))^n rounded half-up to `digits` places, by `decimal`.

    For a, b < 100 every factor is below 10 in size, so the value has at
    most n integer digits, and n + digits + 40 significant digits keep the
    rounding error of the n + 2 operations far below the last place kept.
    """
    with localcontext() as ctx:
        ctx.prec = n + digits + 40
        x = (Decimal(a).sqrt() - Decimal(b).sqrt()) ** n
        return str(x.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_UP))


def long_division_decimal(p: int, q: int, digits: int) -> str:
    """Truncated decimal expansion of p/q (p, q >= 0) by long division."""
    if p < 0 or q <= 0:
        raise ValueError("nonnegative p and positive q only")
    ipart, rem = divmod(p, q)
    out = []
    for _ in range(digits):
        rem *= 10
        d, rem = divmod(rem, q)
        out.append(str(d))
    return f"{ipart}." + "".join(out)


def poly_derivative(coeffs):
    """Formal derivative of a coefficient list (lowest degree first)."""
    return tuple(k * c for k, c in enumerate(coeffs))[1:]


def poly_eval(coeffs, x):
    """Horner's rule over Fractions, one coefficient at a time."""
    acc = Fraction(0)
    for c in reversed(tuple(coeffs)):
        acc = acc * x + c
    return acc


def ratfn_derivative_value(num, den, x0: Fraction) -> Fraction:
    """Quotient-rule derivative of num/den at x0."""
    n, d = tuple(num), tuple(den)
    dn, dd = poly_derivative(n), poly_derivative(d)
    dv = poly_eval(d, x0)
    if dv == 0:
        raise ZeroDivisionError("pole")
    return (poly_eval(dn, x0) * dv - poly_eval(n, x0) * poly_eval(dd, x0)) / dv**2


def kernel_vector(rows, ncols):
    """A nontrivial kernel vector of a homogeneous system over Fractions.

    Assumes the kernel is nontrivial (guaranteed in the interpolation use,
    where a known solution exists).
    """
    m = [[Fraction(v) for v in row] for row in rows]
    pivots: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots[c] = r
        r += 1
    free = next(c for c in range(ncols) if c not in pivots)
    v = [Fraction(0)] * ncols
    v[free] = Fraction(1)
    for c, row in pivots.items():
        v[c] = -m[row][free]
    return v


def interpolate_ratfn(samples, num_deg: int, den_deg: int):
    """Reconstruct integer-coefficient (num, den) from (n, value) samples.

    Solves P(n) - value * Q(n) = 0 for the unknown coefficients; needs
    num_deg + den_deg + 2 samples to pin the function down up to scale.
    """
    ncols = num_deg + den_deg + 2
    rows = []
    for n, value in samples:
        row = [Fraction(n) ** k for k in range(num_deg + 1)]
        row += [-value * Fraction(n) ** k for k in range(den_deg + 1)]
        rows.append(row)
    v = kernel_vector(rows, ncols)
    lcm = 1
    for c in v:
        lcm = lcm * c.denominator // _gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in v]
    return tuple(ints[: num_deg + 1]), tuple(ints[num_deg + 1 :])


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def invert_bound(inner, witness_n: int) -> int:
    """The Invert certificate ceil(3*(C/r_lo + 1)) in Fractions, where C is
    inner's bound and r_lo the largest (f(n) - C)/n over the probes
    n = witness_n * 2^j, j <= 12."""
    c = inner.bound
    r_lo = max(
        Fraction(inner.eval(witness_n << j) - c, witness_n << j) for j in range(13)
    )
    return ceil(3 * (c / r_lo + 1))


def least_reaching(f, p: int) -> int:
    """min{a >= 0 : f(a) >= p}, counting up from a = 0.

    `f` is any callable on the integers that eventually reaches p; no
    monotonicity or slope estimate is assumed.
    """
    a = 0
    while f(a) < p:
        a += 1
    return a


def periodic_set_form(member, start: int, period: int) -> tuple[str, str]:
    """The canonical (pre, period) bit strings of the set {n : member(n)},
    given that membership repeats with `period` from index `start` on: the
    least period d, then the least preperiod p, with the period at absolute
    phase (its bit i is the membership of every n >= p with n % d == i).
    A brute force over the membership of the first start + 2 * period
    indices: a tail that repeats with `period` repeats with d exactly when
    one `period`-long window of it does."""
    bits = [member(n) for n in range(start + 2 * period)]
    d = next(
        d
        for d in range(1, period + 1)
        if all(bits[n] == bits[n + d] for n in range(start, start + period))
    )
    p = next(
        p
        for p in range(start + 1)
        if all(bits[n] == bits[n + d] for n in range(p, start))
    )
    text = ["1" if b else "0" for b in bits]
    return "".join(text[:p]), "".join(text[p + (i - p) % d] for i in range(d))


def agreement_form(x, y, agree) -> tuple[str, str]:
    """The canonical (pre, period) bit strings of {n : agree(x_n, y_n)} for
    two piecewise rules, each given as the (pre, period) lists of the exact
    values it takes, the period at absolute phase. A brute force over the
    first max pre + 2 * lcm indices, through `periodic_set_form`."""

    def at(rule, n):
        pre, period = rule
        return pre[n] if n < len(pre) else period[n % len(period)]

    start = max(len(x[0]), len(y[0]))
    return periodic_set_form(
        lambda n: agree(at(x, n), at(y, n)), start, lcm(len(x[1]), len(y[1]))
    )


def fraction_long_division(p, d):
    """(quotient, remainder) of the polynomial p by d over the rationals, as
    Fraction lists lowest degree first, by schoolbook long division."""
    r = [Fraction(c) for c in p]
    q = [Fraction(0)] * max(0, len(p) - len(d) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = r[i + len(d) - 1] / d[-1]
        for j, c in enumerate(d):
            r[i + j] -= q[i] * c
    return q, r


def fraction_gcd(p, q):
    """gcd of two integer polynomials by the monic Euclidean algorithm over
    the rationals, given as the primitive integer polynomial with positive
    leading coefficient; () when both are zero."""

    def strip(r):
        r = list(r)
        while r and r[-1] == 0:
            r.pop()
        return r

    a, b = strip(Fraction(c) for c in p), strip(Fraction(c) for c in q)
    while b:
        b = [c / b[-1] for c in b]
        a, b = b, strip(fraction_long_division(a, b)[1])
    if not a:
        return ()
    m = lcm(*(c.denominator for c in a))
    ints = [int(c * m) for c in a]
    g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return tuple(c // g for c in ints)


def first_sort_error(tree, ctx):
    """The SortError an expression raises in a context, or None, by the
    errors-as-values rule: every subtree yields its sort ("Real", "Hyper",
    "Poly", with Real promoted to Hyper and both to Poly in a mixed node) or
    its first error in reading order, and a node's own error comes before
    its children's, a left operand's before the right one's."""
    from eudoxus import expr

    hyper, derive = ctx is expr.Context.HYPER, ctx is expr.Context.DERIVE

    def sort_of(n):
        kind = type(n)
        if kind is expr.IntLit:
            return "Poly" if derive else "Real"
        if kind is expr.SqrtInt:
            if derive:
                return expr.SortError("sqrt(...) is not allowed in a derivative body")
            if hyper and bisect_isqrt(n.k) ** 2 != n.k:
                return expr.SortError(
                    f"sqrt({n.k}) is irrational and has no exact "
                    "rational-slope form; use a real-context query"
                )
            return "Real"
        if kind in (expr.Dx, expr.Omega):
            name = "dx" if kind is expr.Dx else "omega"
            if hyper:
                return "Hyper"
            return expr.SortError(f"{name} only exists in the hyperreal context")
        if kind is expr.Var:
            if derive:
                return "Poly"
            return expr.VarOutsideDerive("x is only meaningful in a derivative body")
        if kind in (expr.Add, expr.Sub, expr.Mul, expr.Div):
            left, right = sort_of(n.left), sort_of(n.right)
            for sort in (left, right):
                if isinstance(sort, expr.SortError):
                    return sort
            for sort in ("Poly", "Hyper"):
                if sort in (left, right):
                    return sort
            return "Real"
        if kind is expr.Pow:
            return sort_of(n.base)
        inner = sort_of(n.inner)
        if kind is expr.St:
            if derive:
                return expr.SortError("st(...) is not allowed in a derivative body")
            return inner if isinstance(inner, expr.SortError) else "Real"
        if not hyper or n is not tree:  # Classify
            return expr.SortError(
                "classify(...) is only allowed as the outermost hyperreal query"
            )
        return inner if isinstance(inner, expr.SortError) else "Hyper"

    result = sort_of(tree)
    return result if isinstance(result, expr.SortError) else None


def _squarefree(k: int) -> tuple[int, int]:
    """(s, m) with k = s^2 * m and m squarefree, by trial division."""
    s, m, d = 1, k, 2
    while d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
            s *= d
        d += 1
    return s, m


def squarefree_slope(f):
    """The exact slope of a rule tree as (q, m) meaning q*sqrt(m) with m
    squarefree (zero as (0, 1)), or None where no such form is derived; m is
    found by trial division, so keep radicands small."""
    from eudoxus import ahom

    def normal(q, k):
        if q == 0:
            return Fraction(0), 1
        s, m = _squarefree(k)
        return q * s, m

    kind = type(f)
    if kind is ahom.FloorLinear:
        return normal(Fraction(f.p, f.q), 1)
    if kind is ahom.FloorSqrt:
        return normal(Fraction(1 if f.k else 0), f.k)
    if kind in (ahom.Neg, ahom.Invert):
        s = squarefree_slope(f.inner)
        if s is None or (kind is ahom.Invert and s[0] == 0):
            return None
        if kind is ahom.Neg:
            return -s[0], s[1]
        return 1 / (s[0] * s[1]), s[1]
    if kind is ahom.Sum:
        a, b = squarefree_slope(f.left), squarefree_slope(f.right)
        if a is None or b is None:
            return None
        if a[0] == 0 or b[0] == 0:
            return b if a[0] == 0 else a
        return normal(a[0] + b[0], a[1]) if a[1] == b[1] else None
    if kind is ahom.Compose:
        a, b = squarefree_slope(f.outer), squarefree_slope(f.inner)
        if a is None or b is None:
            return None
        return normal(a[0] * b[0], a[1] * b[1])
    return None


def squarefree_map(f):
    """The exact slope of a +, -, * rule tree as {m: q}, the sum of q*sqrt(m)
    over squarefree m with every q != 0; None where another node appears.
    Radicands are factored by trial division, so keep them small; a product
    multiplies out term by term, and like radicals meet as equal keys."""
    from eudoxus import ahom

    kind = type(f)
    if kind is ahom.FloorLinear:
        return {1: Fraction(f.p, f.q)} if f.p else {}
    if kind is ahom.FloorSqrt:
        s, m = _squarefree(f.k)
        return {m: Fraction(s)} if f.k else {}
    if kind is ahom.Neg:
        inner = squarefree_map(f.inner)
        return None if inner is None else {m: -q for m, q in inner.items()}
    if kind not in (ahom.Sum, ahom.Compose):
        return None
    pair = (f.left, f.right) if kind is ahom.Sum else (f.outer, f.inner)
    a, b = (squarefree_map(g) for g in pair)
    if a is None or b is None:
        return None
    if kind is ahom.Sum:
        items = [*a.items(), *b.items()]
    else:
        items = []
        for ma, qa in a.items():
            for mb, qb in b.items():
                s, m = _squarefree(ma * mb)
                items.append((m, qa * qb * s))
    terms = {}
    for m, q in items:
        terms[m] = terms.get(m, 0) + q
    return {m: q for m, q in terms.items() if q}


# -- rule-node facts, recomputed by walking down the tree ----------------------
#
# The rules for a node's bound, direction and exact slope as recursive
# functions that read nothing the node stores: each call walks the whole
# subtree. They are the reference the facts set at construction must match.


def tree_bound(f) -> int:
    """The certified discrepancy bound of a rule tree."""
    from eudoxus import ahom

    kind = type(f)
    if kind is ahom.FloorLinear:
        return 1
    if kind is ahom.FloorSqrt:
        return 2
    if kind is ahom.Sum:
        return tree_bound(f.left) + tree_bound(f.right)
    if kind is ahom.Neg:
        return tree_bound(f.inner)
    if kind is ahom.Compose:
        c, g = tree_bound(f.inner), f.outer
        ends = abs(g.eval(c)), abs(g.eval(-c))
        if tree_direction(g) is not None:
            return 2 * tree_bound(g) + max(ends)
        return 4 * tree_bound(g) + min(ends)
    if kind is ahom.Invert:
        inner, c = f.inner, tree_bound(f.inner)
        probes = [(n, inner.eval(n)) for n in (f.witness_n << j for j in range(13))]
        return 3 + min(-(-3 * c * n // (fn - c)) for n, fn in probes if fn > c)
    raise TypeError(f"unknown rule node {kind.__name__}")


def tree_direction(f):
    """+1, -1 or 0 when the structure makes f nondecreasing, nonincreasing or
    constant; None when it does not decide."""
    from eudoxus import ahom

    kind = type(f)
    if kind is ahom.FloorLinear:
        return (f.p > 0) - (f.p < 0)
    if kind is ahom.FloorSqrt:
        return 1 if f.k else 0
    if kind is ahom.Sum:
        a, b = tree_direction(f.left), tree_direction(f.right)
        if a == 0:
            return b
        if b == 0:
            return a
        return a if a == b else None
    if kind is ahom.Neg:
        d = tree_direction(f.inner)
        return None if d is None else -d
    if kind is ahom.Compose:
        a, b = tree_direction(f.outer), tree_direction(f.inner)
        if a == 0 or b == 0:
            return 0
        return None if a is None or b is None else a * b
    if kind is ahom.Invert:
        return 1
    raise TypeError(f"unknown rule node {kind.__name__}")


def tree_slope(f):
    """The exact slope as (q, k) meaning q*sqrt(k), k >= 1 and not factored;
    None where the structure does not decide it. Like radicals, which a Sum
    joins, are those whose ka*kb is a perfect square."""
    from eudoxus import ahom

    kind = type(f)
    if kind is ahom.FloorLinear:
        return Fraction(f.p, f.q), 1
    if kind is ahom.FloorSqrt:
        return (Fraction(1), f.k) if f.k else (Fraction(0), 1)
    if kind is ahom.Neg:
        s = tree_slope(f.inner)
        return None if s is None else (-s[0], s[1])
    if kind is ahom.Sum:
        a, b = tree_slope(f.left), tree_slope(f.right)
        if a is None or b is None:
            return None
        if a[0] == 0:
            return b
        if b[0] == 0:
            return a
        (qa, ka), (qb, kb) = a, b
        r = bisect_isqrt(ka * kb)
        return (qa + qb * r / ka, ka) if r * r == ka * kb else None
    if kind is ahom.Compose:
        a, b = tree_slope(f.outer), tree_slope(f.inner)
        if a is None or b is None:
            return None
        return a[0] * b[0], a[1] * b[1]
    if kind is ahom.Invert:
        s = tree_slope(f.inner)
        if s is None or s[0] == 0:
            return None
        return 1 / (s[0] * s[1]), s[1]
    return None


def structural_key(f):
    """A rule tree as nested tuples (type name, field values, children's
    keys), built by walking the whole tree: two trees are the same exactly
    when their keys are equal."""
    from eudoxus import ahom

    values = [getattr(f, name) for name, _ in ahom._RULE_FIELDS[type(f)]]
    children = [v for v in values if isinstance(v, ahom.AlmostHom)]
    return (
        type(f).__name__,
        tuple(v for v in values if not isinstance(v, ahom.AlmostHom)),
        tuple(structural_key(c) for c in children),
    )


def window_equal(f, g, window: int) -> bool:
    """The window check of `EudoxusReal.equals_within` on two rule trees,
    as two separate evaluations compared pair by pair: f and g are each
    evaluated by `eval` at every probe, and only then subtracted."""
    tol = f.bound + g.bound
    for args, limit in ((range(window + 1), tol), (range(-window, 0), 3 * tol)):
        for a, b in zip([f.eval(n) for n in args], [g.eval(n) for n in args]):
            if abs(a - b) > limit:
                return False
    return True


def path_linear_form(f) -> dict:
    """`ahom.linear_form` by expanding every path: each Sum and Neg is
    walked once per path that reaches it, so a node shared by several
    parents is expanded once for each of them."""
    from eudoxus import ahom

    form = {}
    todo = [(f, 1)]
    while todo:
        g, c = todo.pop()
        if isinstance(g, ahom.Sum):
            todo += (g.left, c), (g.right, c)
        elif isinstance(g, ahom.Neg):
            todo.append((g.inner, -c))
        else:
            term = form.setdefault(g, [g, 0])
            term[1] += c
            if not term[1]:
                del form[g]
    return form


def int_multiple(m: int, f):
    """m*f as a rule tree: the binary doublings f, f+f, ... summed by `Sum`,
    negated once when m < 0, so its bound is |m|*C_f and its slope m*slope(f);
    m = 0 gives f - f. Built from the library's nodes, not an oracle."""
    from eudoxus.ahom import Neg, Sum

    if m == 0:
        return Sum(f, Neg(f))
    total, power, n = None, f, abs(m)
    while True:
        if n & 1:
            total = power if total is None else Sum(total, power)
        n >>= 1
        if not n:
            return Neg(total) if m < 0 else total
        power = Sum(power, power)


def full_window_discrepancy(f, window: int) -> int:
    """max |f(p+q) - f(p) - f(q)| over every ordered pair p, q in
    [-window, window], each value read by `eval`: the double loop that
    `ahom.verify_bound` halves by symmetry."""
    return max(
        abs(f.eval(p + q) - f.eval(p) - f.eval(q))
        for p in range(-window, window + 1)
        for q in range(-window, window + 1)
    )
