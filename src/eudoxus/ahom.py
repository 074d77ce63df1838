"""Almost homomorphisms of the integers with certified discrepancy bounds.

An almost homomorphism is a total map f: Z -> Z whose discrepancy

    d_f(p, q) = f(p + q) - f(p) - f(q)

has finite range. Every value here is a node of a closed catalogue of six
rule kinds (lines, roots, sums, negations, compositions, order inverses; m*f
is sums and a negation) and carries a certified integer bound C with
|d_f(p, q)| <= C for all p, q. The catalogue keeps evaluation total,
deterministic and serializable. A node sets its bound, direction, exact
slope and hash when built, from its children's, so downstream error
estimates are certificates rather than hopes, and a read costs O(1) at any
depth. Equality, the rule text and `repr`, and the evaluation of a node over
SHALLOW levels deep, run from explicit stacks, so depth is no limit. Bulk
evaluation reads sums and negations as one linear form over atoms keyed by
value (`linear_form`), expanding each distinct node once. Exact slopes are
`Slope` values, combined only through its methods: a `Sum` joins like
radicals with `Slope.plus`, and `form_terms` reads a linear form's slope as
unlike radicals, multiplying out products. No floats.

Concurrency: nodes are immutable after construction. The per-node memo table
only caches values of a pure function, so concurrent use from several threads
is safe (a race can at worst recompute the same value).
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from math import gcd, isqrt

from . import Record


class CertificateError(Exception):
    """A certified discrepancy bound was violated; this is a construction bug."""
    exit_code = 3  # the CLI's exit code: domain error


class RuleSyntaxError(ValueError):
    """Malformed rule text; carries the byte offset of the failure."""
    exit_code = 1  # the CLI's exit code: usage or parse error

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class Slope(namedtuple("Slope", "q k")):
    """The exact slope q*sqrt(k) of a node as the pair (q, k): rational q,
    integer k >= 1. k is not factored: sqrt(8) has slope (1, 8). Slopes
    combine through named methods, since a tuple's `+` and `*` concatenate
    and repeat; a slope is never falsy, so `s and s.scaled(m)` keeps None.
    """

    __slots__ = ()
    _SQUARES = [(m, {i * i % m for i in range(m)}) for m in (64, 63, 65, 11)]  # squares mod m

    def plus(self, other: Slope):
        """The slope of a sum; None for unlike radicals: both nonzero, ka*kb not a square."""
        (qa, ka), (qb, kb) = self, other
        if qa == 0 or qb == 0:
            return other if qa == 0 else self
        n = ka * kb  # a residue no square has rejects n before its root is taken
        if any(n % m not in squares for m, squares in self._SQUARES):
            return None
        r = ka if ka == kb else isqrt(n)  # qb*sqrt(kb) = (qb*r/ka)*sqrt(ka) if r*r == ka*kb
        return Slope(qa + qb * r / ka, ka) if r * r == n else None

    def scaled(self, m) -> Slope:
        return Slope(m * self.q, self.k)

    def times(self, other: Slope) -> Slope:
        return Slope(self.q * other.q, self.k * other.k)

    def inverse(self):
        """1/(q*sqrt(k)) = (1/(q*k))*sqrt(k); None for zero."""
        q, k = self
        return None if q == 0 else Slope(1 / (q * k), k)

    def same(self, other: Slope) -> bool:
        """Value equality, read from the difference."""
        d = self.plus(other.scaled(-1))
        return d is not None and d.q == 0

    def exceeds(self, bound) -> bool:
        """|q*sqrt(k)| > bound, for a rational bound >= 0."""
        return self.q * self.q * self.k > bound * bound

    def rep(self) -> AlmostHom:
        """The canonical node of this slope, of depth <= 2. A rational slope,
        q = 0 or k a perfect square, is its own line. Any other is keyed by
        the reduced fraction N/D = q^2*k, which needs no factoring: sqrt(N)
        when D = 1 and sqrt(N*D) composed with the line of slope 1/D when
        D > 1, these two negated when q < 0.
        """
        q, k = self
        rk = isqrt(k)
        if not q or rk * rk == k:
            r = q * rk
            return FloorLinear(r.numerator, r.denominator)
        r = q * q * k
        n, d = r.numerator, r.denominator
        root = FloorSqrt(n) if d == 1 else Compose(FloorLinear(1, d), FloorSqrt(n * d))
        return Neg(root) if q < 0 else root


class AlmostHom(Record):
    """Base class of rule-tree nodes.

    Subclasses provide `_raw` (the closed-form evaluator) and, when built,
    record through `_facts` four facts set from their children's: `bound`
    (the certified discrepancy bound), `direction` (the monotonicity the
    node has by construction: +1 nondecreasing, -1 nonincreasing, 0
    constant), `slope` (the exact `Slope`, None where the structure does
    not decide), and `depth`. `_facts` also fixes the node's hash from its
    type and field values, a child's hash being stored already. Two nodes are
    equal when they share type, hash and integer fields and their children
    are equal, compared pair by pair from a stack that skips a subtree both
    sides share. `repr` is the `parse_rule` call that rebuilds the node.
    `eval` memoizes per node and evaluates a deep node without deep
    recursion; evaluation is observationally pure.
    """

    depth = 0  # levels of nodes below this one; leaves keep 0

    def _facts(self, **facts) -> None:
        """Record a node's facts and hash as it is built, through `vars`."""
        vars(self).update(facts, _hash=hash((type(self), *self._tuple)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlmostHom):
            return NotImplemented
        # Each pair of subtrees is compared once, also where the trees share
        # them; `seen` is made with the first child pair, so leaves skip it.
        pairs, seen = [(self, other)], None
        while pairs:
            f, g = pairs.pop()
            if f is g:
                continue
            if type(f) is not type(g) or f._hash != g._hash:
                return False
            for name, is_int in _RULE_FIELDS[type(f)]:
                a, b = getattr(f, name), getattr(g, name)
                if not is_int:
                    if seen is None:
                        seen = set()
                    if (id(a), id(b)) not in seen:
                        seen.add((id(a), id(b)))
                        pairs.append((a, b))
                elif a != b:
                    return False
        return True

    def __repr__(self) -> str:
        return f"parse_rule({format_rule(self)!r})"

    @cached_property
    def _memo(self) -> dict:
        return {}

    def eval(self, a: int) -> int:
        memo = self._memo
        v = memo.get(a)
        if v is None:
            v = self._raw(a) if self.depth <= SHALLOW else _eval_flat(self, a)
            memo[a] = v
        return v

    def _raw(self, a: int) -> int:
        raise NotImplementedError

    def _parts(self, a: int) -> tuple:
        """The (node, argument) pairs `_raw(a)` evaluates whose arguments are
        known yet; () where `_raw` evaluates nothing or searches by itself."""
        return ()

    def __str__(self) -> str:
        return format_rule(self)


class FloorLinear(AlmostHom):
    """a -> floor(p*a/q), the slope-p/q line sampled on the integers.

    Floor is toward minus infinity, so the map is exact on negative inputs
    too. The discrepancy floor(r(p+q)) - floor(rp) - floor(rq) is always
    0 or 1, hence the constant bound.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("denominator must be a positive integer")
        p = self.p
        self._facts(bound=1, direction=(p > 0) - (p < 0), slope=Slope(Fraction(p, self.q), 1))

    def _raw(self, a: int) -> int:
        return (self.p * a) // self.q


class FloorSqrt(AlmostHom):
    """a -> sign(a) * isqrt(k * a^2), the slope-sqrt(k) map.

    For a >= 0 this is floor(sqrt(k) * a); negative arguments use the odd
    extension, which changes each value by at most 1 and therefore keeps the
    discrepancy within 2.
    """

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("radicand must be nonnegative")
        k = self.k
        self._facts(bound=2, direction=1 if k else 0, slope=Slope(Fraction(1 if k else 0), k or 1))

    def _raw(self, a: int) -> int:
        if a < 0:
            return -isqrt(self.k * a * a)
        return isqrt(self.k * a * a)


class Sum(AlmostHom):
    """Pointwise sum; discrepancies add, so bounds add."""

    left: AlmostHom
    right: AlmostHom

    def __post_init__(self):
        a, b = self.left, self.right
        da, db, sa, sb = a.direction, b.direction, a.slope, b.slope
        self._facts(
            bound=a.bound + b.bound,
            depth=1 + max(a.depth, b.depth),
            direction=db if da == 0 else da if db == 0 or da == db else None,
            slope=sa and sb and sa.plus(sb),
        )

    def _raw(self, a: int) -> int:
        return self.left.eval(a) + self.right.eval(a)

    def _parts(self, a: int) -> tuple:
        return (self.left, a), (self.right, a)


class Neg(AlmostHom):
    """Pointwise negation; the bound is unchanged."""

    inner: AlmostHom

    def __post_init__(self):
        f = self.inner
        d, s = f.direction, f.slope
        self._facts(
            bound=f.bound,
            depth=f.depth + 1,
            direction=None if d is None else -d,
            slope=s and s.scaled(-1),
        )

    def _raw(self, a: int) -> int:
        return -self.inner.eval(a)

    def _parts(self, a: int) -> tuple:
        return ((self.inner, a),)


class Compose(AlmostHom):
    """Composition outer(inner(a)).

    Writing inner(p+q) = inner(p) + inner(q) + e with |e| <= C_inner gives

        d = outer(e) + d_outer(inner(p) + inner(q), e) + d_outer(inner(p), inner(q))

    so |d| <= 2*C_outer + max(|outer(e)| : |e| <= C_inner). When `outer` is
    monotone by construction, outer(e) lies between outer(-C_inner) and
    outer(C_inner), so the max is taken at those two endpoints.

    Any other outer g is bounded by its slope. Since |g(2n) - 2g(n)| <= C_g,
    the terms g(2^j n)/2^j move by at most C_g/2^(j+1) per step, so they
    converge to a limit s(n) with |g(n) - s(n)| <= C_g. And s(n) = r*n for
    the slope r = s(1): |g(mn) - m*g(n)| <= (m-1)*C_g for m >= 1 gives
    s(mn) = m*s(n), and |g(n) + g(-n)| <= 2*C_g gives s(-n) = -s(n). So for
    |e| <= c:

        |g(e)| <= |r|*c + C_g <= min(|g(c)|, |g(-c)|) + 2*C_g,

    and the bound is 4*C_g + min(|g(c)|, |g(-c)|): two evaluations, and
    never more than 2*C_g above the bound a scan of every |e| <= c gives.
    """

    outer: AlmostHom
    inner: AlmostHom

    def __post_init__(self):
        g, f = self.outer, self.inner
        a, b = g.direction, f.direction
        self._facts(
            depth=1 + max(g.depth, f.depth),
            direction=0 if a == 0 or b == 0 else None if a is None or b is None else a * b,
            slope=g.slope and f.slope and g.slope.times(f.slope),
        )
        # Read now, like the other facts, so that no later read walks down a
        # chain of products whose bounds were never computed.
        self.bound

    @cached_property
    def bound(self) -> int:
        c = self.inner.bound
        g = self.outer
        ends = abs(g.eval(c)), abs(g.eval(-c))
        if g.direction is not None:
            return 2 * g.bound + max(ends)
        return 4 * g.bound + min(ends)

    def _raw(self, a: int) -> int:
        return self.outer.eval(self.inner.eval(a))

    def _parts(self, a: int) -> tuple:
        memo = self.inner._memo
        return ((self.outer, memo[a]),) if a in memo else ((self.inner, a),)


class Invert(AlmostHom):
    """Order-theoretic inverse of a certified-positive almost homomorphism.

    For p >= 0 the value is min{a >= 0 : inner(a) >= p}, extended oddly to
    p < 0; this represents 1/r when inner represents r > 0. The map is
    nondecreasing. `witness_n` is an index with inner(witness_n) >
    inner.bound, certifying positivity; from it a positive rational lower
    bound r_lo <= r is derived, giving the certificate
    |value(p) - p/r| <= C/r + 1 and hence the bound 3*(C/r_lo + 1).
    """

    inner: AlmostHom
    witness_n: int

    def __post_init__(self):
        f, c = self.inner, self.inner.bound
        if self.witness_n < 1:
            raise ValueError("witness index must be positive")
        if f.eval(self.witness_n) <= c:
            raise ValueError("witness does not certify positivity")
        # r_lo is the best lower bound (f(n) - C)/n over a fixed schedule of
        # probes n = witness_n * 2^j, j <= 12, with f(n) > C. Since ceil is
        # monotone, ceil(3*(C/r_lo + 1)) is the least of the probes' integer
        # ceilings 3 + ceil(3*C*n/(f(n) - C)).
        probes = [(n, f.eval(n)) for n in (self.witness_n << j for j in range(13))]
        self._facts(
            bound=3 + min(-(-3 * c * n // (fn - c)) for n, fn in probes if fn > c),
            depth=f.depth + 1,
            direction=1,
            slope=f.slope and f.slope.inverse(),
        )

    def _raw(self, a: int) -> int:
        if a < 0:
            return -self._search(-a)
        return self._search(a)

    def _search(self, p: int) -> int:
        """min{a >= 0 : f(a) >= p} for p >= 0, where f = inner has slope r > 0.

        Since |f(a) - r*a| <= C for a >= 0, one probe f(n) > C brackets r in
        [lo, hi] = [(f(n) - C)/n, (f(n) + C)/n], and then f(a) <= hi*a + C < p
        for every 0 <= a < a_lo = ceil((p - C)/hi), while f(a_hi) >= p at
        a_hi = ceil((p + C)/lo) + 1. Every a below a_lo fails, so the answer
        is the first a >= a_lo with f(a) >= p whichever probe n closed the
        bracket: n only decides how wide [a_lo, a_hi] is. The probes climb
        the ladder max(witness_n, 1024) * 2^j from the rung just below p/16
        until the window is narrow, all in exact integer arithmetic. A
        nondecreasing f is bisected over [a_lo, a_hi]; any other f is
        scanned upward from a_lo, since it may cross p more than once.
        """
        f, c = self.inner, self.inner.bound
        base = max(self.witness_n, 1024)
        n = base << max(0, ((p >> 4) // base).bit_length() - 1)
        while True:
            fn = f.eval(n)
            if fn > c:
                a_lo = -((c - p) * n // (fn + c)) if p > c else 0
                a_hi = -(-(p + c) * n // (fn - c)) + 1
                if a_hi - a_lo <= max(64, -(-2 * c * n // (fn - c)) + 8):
                    break
            n *= 2
        if f.direction == 1:
            while a_lo < a_hi:
                mid = (a_lo + a_hi) // 2
                if f.eval(mid) >= p:
                    a_hi = mid
                else:
                    a_lo = mid + 1
            return a_lo
        a = a_lo
        while f.eval(a) < p:
            a += 1
        return a


# A node at most this many levels deep is evaluated by plain recursion, a
# few frames per level; a deeper one by `_eval_flat`. Recursion stays because
# evaluating every tree from the stack slowed real-digits.
SHALLOW = 64


def _eval_flat(f: AlmostHom, a: int) -> int:
    """f._raw(a) at a Python stack depth that does not grow with f's.

    The pairs below f that `_parts` names are memoized first, bottom-up from
    an explicit stack, through the same `_raw` calls the recursive `eval`
    makes, so the memo entries and eval calls are the same. A shallow pair
    is left to `_raw`'s own recursion.
    """
    todo = [(f, a)]
    while todo:
        g, x = todo[-1]
        if x not in g._memo:
            if g.depth > SHALLOW:
                need = [(h, y) for h, y in g._parts(x) if y not in h._memo]
                if need:
                    todo += need
                    continue
            g._memo[x] = g._raw(x)
        todo.pop()
    return f._memo[a]


def linear_form(f: AlmostHom) -> dict:
    """f as {key: [atom, c]}: f = sum of c*atom at every point, each c != 0.

    Sum and Neg nodes pass their coefficient, Neg negated, to their children.
    They are expanded from a heap deepest first, with their coefficients
    merged by identity: a parent is deeper than its children, so each
    distinct node is expanded once, after all of its parents, and a tree
    that shares subtrees costs its nodes, not its paths. Every other node is
    an atom keyed by value: equal atoms merge, and opposite ones cancel,
    also where they were built apart.
    """
    form, pending, heap = {}, {}, []
    parts = ((f, 1),)
    while True:
        for g, c in parts:
            if isinstance(g, (Sum, Neg)):
                key = id(g)
                if key not in pending:
                    pending[key] = 0
                    heappush(heap, (-g.depth, key, g))
                pending[key] += c
            else:
                term = form.setdefault(g, [g, 0])
                term[1] += c
                if not term[1]:
                    del form[g]
        if not heap:
            return form
        _, key, g = heappop(heap)
        c = pending.pop(key)
        if isinstance(g, Sum):
            parts = (g.left, c), (g.right, c)
        else:
            parts = ((g.inner, -c),)


TERMS = 16  # the most unlike terms `form_terms` carries


def form_terms(form: dict, _known=None):
    """The slope of a `linear_form` as pairwise unlike nonzero `Slope` terms.

    An atom of known slope is one term, and a Compose atom at most SHALLOW
    deep the products of its outer and inner maps' terms (a product's slope
    is its factors'), sqrt(ka*kb) taken as d*sqrt(ka*kb/d^2) for d = gcd(ka,
    kb). Like terms join through `Slope.plus`, and a zero term is dropped, so
    by Besicovitch (1940), unlike square roots being linearly independent
    over Q, the slope is zero exactly when the list is empty. Any other atom
    or over TERMS terms give None. `_known` keeps terms by node id, so a
    product DAG costs its nodes.
    """
    known = {} if _known is None else _known
    terms = []
    for g, c in form.values():
        if g.slope is not None:
            parts = (g.slope,)
        elif type(g) is Compose and g.depth <= SHALLOW:
            if id(g) not in known:
                outer = form_terms(linear_form(g.outer), known)
                inner = outer and form_terms(linear_form(g.inner), known)  # [] is zero
                known[id(g)] = inner and [
                    Slope(a.q * b.q * d, a.k // d * (b.k // d))
                    for a in outer for b in inner for d in (gcd(a.k, b.k),)
                ]
            parts = known[id(g)]
            if parts is None:
                return None
        else:
            return None
        for s in (p.scaled(c) for p in parts if p.q):
            for i, t in enumerate(terms):
                joined = t.plus(s)
                if joined is not None:
                    terms[i : i + 1] = [joined] if joined.q else []
                    break
            else:
                if len(terms) == TERMS:
                    return None
                terms.append(s)
    return terms


def eval_range(f: AlmostHom, args) -> list[int]:
    """Evaluate f on an iterable of arguments in bulk.

    Semantically identical to [f.eval(a) for a in args]. f is read as its
    `linear_form`, and each atom is evaluated once over all of args: a leaf
    by its closed form, a Compose at most SHALLOW levels deep by two bulk
    passes, any other atom point by point through `eval`. Terms that cancel
    are never evaluated, and a tree of any depth costs bounded recursion.
    Window checks and certificate audits lean on this.
    """
    args = args if isinstance(args, list) else list(args)
    total = None
    for g, c in linear_form(f).values():
        if isinstance(g, FloorLinear):
            p, q = g.p, g.q
            vals = [p * a // q for a in args]
        elif isinstance(g, FloorSqrt):
            k = g.k
            vals = [isqrt(k * a * a) if a >= 0 else -isqrt(k * a * a) for a in args]
        elif isinstance(g, Compose) and g.depth <= SHALLOW:
            vals = eval_range(g.outer, eval_range(g.inner, args))
        else:
            vals = [g.eval(a) for a in args]
        if total is None:
            total = vals if c == 1 else [c * v for v in vals]
        else:
            total = [t + c * v for t, v in zip(total, vals)]
    return [0] * len(args) if total is None else total


def discrepancy(f: AlmostHom, p: int, q: int) -> int:
    """d_f(p, q) = f(p+q) - f(p) - f(q), checked against the certificate."""
    d = f.eval(p + q) - f.eval(p) - f.eval(q)
    if abs(d) > f.bound:
        raise CertificateError(
            f"discrepancy {d} at ({p}, {q}) exceeds certified bound "
            f"{f.bound} for {format_rule(f)}"
        )
    return d


class BoundReport(Record):
    max_abs_discrepancy: int
    ok: bool


def verify_bound(f: AlmostHom, window: int) -> BoundReport:
    """Exhaustively audit the certificate over p, q in [-window, window].

    d(p, q) = d(q, p), so each unordered pair is read once, with q >= p.
    """
    if window < 1:
        raise ValueError("window must be positive")
    vals = eval_range(f, range(-2 * window, 2 * window + 1))
    base = 2 * window
    worst = 0
    for p in range(-window, window + 1):
        fp = vals[base + p]
        row = base + p
        for q in range(p, window + 1):
            d = vals[row + q] - fp - vals[base + q]
            if d < 0:
                d = -d
            if d > worst:
                worst = d
    return BoundReport(worst, worst <= f.bound)


# --- canonical text form ---------------------------------------------------
#
# linear(p/q) | sqrt(k) | sum(A,B) | neg(A) | compose(A,B) | invert(A,n)
# -- no whitespace; round-trips exactly. The arguments are the
# node's fields in declaration order, `/`-separated for `linear`
# and `,`-separated otherwise: an `int` field is an integer (annotations are
# strings in this module), any other field a nested rule. Both directions
# run from an explicit stack, so text of any depth is read and printed.

_RULE_CLASSES = {
    "linear": FloorLinear,
    "sqrt": FloorSqrt,
    "sum": Sum,
    "neg": Neg,
    "compose": Compose,
    "invert": Invert,
}
_RULE_TAGS = {cls: tag for tag, cls in _RULE_CLASSES.items()}
# Each node class's fields as (name, is an integer) pairs, read once.
_RULE_FIELDS = {c: [(n, t == "int") for n, t in c.__annotations__.items()] for c in _RULE_TAGS}


def _separator(cls) -> str:
    return "/" if cls is FloorLinear else ","


def format_rule(f: AlmostHom) -> str:
    """f's canonical text, its tokens emitted in pre-order from a stack."""
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        cls = type(g)
        if cls is str:
            out.append(g)
        elif cls in _RULE_TAGS:
            todo.append(")")
            for name, is_int in reversed(_RULE_FIELDS[cls]):
                v = getattr(g, name)
                todo += str(v) if is_int else v, _separator(cls)
            todo[-1] = _RULE_TAGS[cls] + "("  # replaces the separator before the first field
        else:
            raise TypeError(f"unknown rule node {cls.__name__}")
    return "".join(out)


# One token is a name, an integer or any other single character, and an empty
# token ends the text. The groups are ASCII, so every text that parses is one
# that `format_rule` prints.
_RULE_TOKEN = re.compile(r"([A-Za-z]+)|(-?[0-9]+)|(.|\Z)", re.S)


def parse_rule(text: str) -> AlmostHom:
    """Parse the canonical text form; inverse of `format_rule`.

    One pass splits the text into tokens, and one frame per open rule holds
    its name token, its class and the arguments read so far. Malformed text
    raises RuleSyntaxError at the offset of the first token out of place, and
    a node whose constructor rejects its arguments at the offset of the
    node's name.
    """
    tokens = _RULE_TOKEN.finditer(text)

    def take(expected: str) -> re.Match:
        """The next token, which must be of the kind `expected` names."""
        tok = next(tokens)
        if ("rule name", "integer", repr(tok[0]))[tok.lastindex - 1] != expected:
            # A lone '-' reads as the sign of an integer whose digits are missing.
            lone_sign = expected == "integer" and tok[0] == "-"
            raise RuleSyntaxError(
                f"expected {expected}", tok.end() if lone_sign else tok.start()
            )
        return tok

    def integer() -> int:
        tok = take("integer")
        try:
            return int(tok[0])
        except ValueError:  # more digits than the interpreter converts
            raise RuleSyntaxError("integer too long", tok.start()) from None

    def open_rule() -> tuple:
        name = take("rule name")
        take("'('")
        cls = _RULE_CLASSES.get(name[0])
        if cls is None:
            raise RuleSyntaxError(f"unknown rule name {name[0]!r}", name.end() + 1)
        return name, cls, []

    frames = [open_rule()]
    while frames:
        name, cls, args = frames[-1]
        if len(args) < len(_RULE_FIELDS[cls]):
            if args:
                take(repr(_separator(cls)))
            if _RULE_FIELDS[cls][len(args)][1]:
                args.append(integer())
            else:
                frames.append(open_rule())
            continue
        try:
            node = cls(*args)
        except ValueError as exc:
            raise RuleSyntaxError(str(exc), name.start()) from None
        take("')'")
        frames.pop()
        if frames:
            frames[-1][2].append(node)
    trailing = next(tokens)
    if trailing[0]:
        raise RuleSyntaxError("trailing input after rule", trailing.start())
    return node
