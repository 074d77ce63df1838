"""Seeded request streams for the four workloads, and their expected outcomes.

A workload is one pass: a fixed list of requests that the harness replays,
pass after pass, for the length of a run. Every class of request has a fixed
count per pass and the seed draws the parameters and the order, so two seeds
give different inputs with the same mix. Heavy classes draw their cost-setting
parameters from small pools without replacement, so each pass holds the same
set of costly shapes and run-to-run spread stays low.

A request is a `Request`: either a CLI argument list for `eudoxus.cli.main`
or a library call (`lib`) that `run_library` executes. `check` turns the
observed outcome into None (as expected) or a failure cause, using only the
oracles in `oracles.py`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import oracles as O

WORKLOADS = ("real-digits", "germ-calculus", "ultra-session", "library-batch")

STATE = "@STATE@"  # placeholder for the ultra state file in argument lists


@dataclass
class Request:
    cls: str  # request class, for the report
    argv: tuple = ()  # CLI arguments (empty for library calls)
    lib: tuple = ()  # (shape, data) for library calls
    expect: tuple = ()  # oracle input, interpreted by `check`
    stress: bool = False  # beyond today's limits: a clean exit also passes


# -- shared tree builders ---------------------------------------------------------

_NON_SQUARES = [k for k in range(2, 40) if int(k**0.5) ** 2 != k]


def _atom(rng, kind):
    if kind == "rat":
        return ("rat", rng.randint(1, 99), rng.randint(2, 99))
    if kind == "sqrt":
        return ("sqrt", rng.choice(_NON_SQUARES))
    return ("int", rng.randint(1, 20))


_ATOMS = ("sqrt", "rat", "sqrt", "int")


def _light_real(rng, i):
    """The i-th light expression: shape and atom kinds follow i, so every
    seed has the same mix; the numbers come from the seed."""
    shape = i % 5
    if shape == 4:
        return ("pow", ("sqrt", rng.randint(2, 7)), rng.randint(2, 16))
    t = _atom(rng, _ATOMS[i % 4])
    for j in range(shape):
        t = (("add", "sub", "mul")[(i + j) % 3], t, _atom(rng, _ATOMS[(i + j + 1) % 4]))
    return t


def _positive_real(rng, i):
    """A positive divisor whose sign is decided at the first probe."""
    t = ("sqrt", rng.choice(_NON_SQUARES))
    return ("add", _atom(rng, _ATOMS[i % 4]), t) if i % 3 else t


def _poly(rng, var, degree, den=False):
    """Sum of c*var^j with nonnegative literals, top degree exactly `degree`."""
    t = ("int", rng.randint(1, 9))
    for j in range(1, degree + 1):
        if j < degree and rng.random() < 0.5:
            continue
        c = ("int", rng.randint(1, 9)) if rng.random() < 0.8 else ("rat", rng.randint(1, 9), rng.randint(2, 9))
        term = (var,) if j == 1 else ("pow", (var,), j)
        op = "add" if den or rng.random() < 0.7 else "sub"
        t = (op, t, ("mul", c, term))
    return t


def _deep(rng, inner):
    return ("paren", inner, rng.randint(580, 620))


# -- real-digits ------------------------------------------------------------------


def _real_digits(rng) -> list[Request]:
    reqs = []
    precisions = (10, 30, 100, 300)

    def digits(cls, t, p, stress=False):
        reqs.append(
            Request(cls, ("digits", O.render(t), "-p", str(p)), expect=("digits", t, p), stress=stress)
        )

    for i in range(128):
        digits("light", _light_real(rng, i), precisions[(i // 5) % 4])
    for i in range(40):
        t = ("div", _atom(rng, _ATOMS[i % 4]), _positive_real(rng, i // 4))
        digits("invert1", t, precisions[(i // 4) % 4])
    # The costly classes take every member of a fixed pool, in seeded order.
    for k, p in rng.sample([(k, p) for k in (2, 3, 5, 6, 7, 10) for p in (10, 30)], 12):
        digits("invert2", ("div", ("int", 1), ("div", ("int", 1), ("sqrt", k))), p)
    for k in rng.sample([2, 3, 5, 7], 4):
        t = ("div", ("int", 1), ("div", ("int", 1), ("div", ("int", 1), ("sqrt", k))))
        digits("invert3", t, 10)
    scan_pool = [(2, 12), (3, 12), (5, 12), (2, 10), (3, 10), (5, 10), (6, 10), (7, 10)]
    for k, e in rng.sample(scan_pool, len(scan_pool)):
        digits("compose-scan", ("mul", ("sqrt", k), ("pow", ("sqrt", k), e)), 10)
    for _ in range(6):
        k = rng.choice(_NON_SQUARES)
        t = ("div", ("int", 1), ("sub", ("mul", ("sqrt", k), ("sqrt", k)), ("int", k)))
        argv = ("digits", O.render(t), "--budget", str(rng.choice((16, 64, 256))))
        reqs.append(Request("budget-exit", argv, expect=("exit", 2)))
    for _ in range(2):
        digits("stress-power", ("pow", ("sqrt", 2), rng.randint(950, 1050)), 10, stress=True)
        digits("stress-depth", _deep(rng, _light_real(rng, rng.randrange(5))), 10, stress=True)
    return reqs


# -- germ-calculus ----------------------------------------------------------------


def _germ_tree(rng, i):
    """The i-th germ: shape and degree follow i, coefficients the seed."""
    shape, degree = i % 5, 2 + (i // 5) % 15
    var = ("omega", "dx")[(i // 5) % 2]
    if shape == 0:
        return _poly(rng, var, degree)
    if shape == 1:
        return ("pow", ("add", ("int", 1), ("dx",)), degree)
    if shape in (2, 3):
        t = ("div", _poly(rng, var, 2 + degree % 7), _poly(rng, "omega", 2 + (degree * 3) % 7, den=True))
        return ("st", t) if shape == 3 else t
    inner = ("add", _poly(rng, "omega", 2 + degree % 5), ("sqrt", rng.choice((4, 9, 16, 25))))
    return ("classify", inner) if i % 2 else inner


def _ratfn_tree(rng, i):
    """The i-th derivative body: a polynomial of degree 2-16 or a quotient."""
    degree = 2 + (i // 2) % 15
    if i % 2 == 0:
        return _poly(rng, "x", degree)
    return ("div", _poly(rng, "x", 2 + degree % 7), _poly(rng, "x", 1 + degree % 6, den=True))


def _partition(rng):
    """Class specs of a disjoint cover with period m <= 12; some carve a
    finite class out of small positive indices."""
    m = rng.randint(2, 12)
    count = rng.randint(2, min(4, m))
    owner = list(range(count)) + [rng.randrange(count) for _ in range(m - count)]
    rng.shuffle(owner)
    pers = ["".join("1" if owner[r] == c else "0" for r in range(m)) for c in range(count)]
    specs = [f"pre:;per:{per}" for per in pers]
    if rng.random() < 0.4:
        c = rng.randrange(count)
        pool = [n for n in range(1, 3 * m) if owner[n % m] == c]
        carve = sorted(rng.sample(pool, min(len(pool), rng.randint(1, 3))))
        width = carve[-1] + 1
        kept = "".join(
            "1" if owner[n % m] == c and n not in carve else "0" for n in range(width)
        )
        specs[c] = f"pre:{kept};per:{pers[c]}"
        specs.append(f"pre:{''.join('1' if n in carve else '0' for n in range(width))};per:0")
    return specs


def _lup_germ(rng, i):
    shape = i % 5
    if shape == 0:
        return ("int", rng.randint(0, 20))
    if shape == 1:
        return ("rat", rng.randint(1, 20), rng.randint(2, 9))
    if shape == 2:
        return ("add", ("pow", ("omega",), rng.randint(1, 4)), ("int", rng.randint(0, 9)))
    if shape == 3:
        return ("add", ("pow", ("dx",), rng.randint(1, 4)), ("int", rng.randint(0, 9)))
    return ("div", ("add", ("omega",), ("int", rng.randint(1, 9))), ("add", ("omega",), ("int", rng.randint(1, 9))))


def _germ_calculus(rng) -> list[Request]:
    reqs = []

    def hyper(cls, t, stress=False):
        reqs.append(Request(cls, ("hyper", "eval", O.render(t)), expect=("hyper", t), stress=stress))

    def derive(cls, t, at, stress=False):
        argv = ("derive", O.render(t), f"--at={at}")
        reqs.append(Request(cls, argv, expect=("derive", t, at), stress=stress))

    for i in range(140):
        hyper("hyper", _germ_tree(rng, i))
    for _ in range(6):
        hyper("hyper-irrational", ("add", ("dx",), ("sqrt", rng.choice(_NON_SQUARES))))
    for _ in range(4):
        hyper("hyper-infinite-st", ("st", _poly(rng, "omega", rng.randint(1, 6))))
    for _ in range(4):
        hyper("hyper-zero-divisor", ("div", ("omega",), ("sub", ("dx",), ("dx",))))
    for i in range(100):
        derive("derive", _ratfn_tree(rng, i), Fraction(rng.randint(-9, 9), 1 + i % 9))
    for _ in range(6):
        r = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        den = ("mul", ("sub", ("x",), ("rat", r.numerator, r.denominator)), _poly(rng, "x", 2, den=True))
        derive("derive-pole", ("div", _poly(rng, "x", rng.randint(1, 5)), den), r)
    for i in range(34):
        t, specs = _lup_germ(rng, i), _partition(rng)
        argv = ("lup", "check", O.render(t), "--partition", ";".join(specs))
        reqs.append(Request("lup", argv, expect=("lup", t, specs)))
    for i in range(3):
        hyper("stress-depth", _deep(rng, _germ_tree(rng, i)), stress=True)
        derive("stress-depth", _deep(rng, _ratfn_tree(rng, i)), Fraction(rng.randint(1, 9), 2), stress=True)
    return reqs


# -- ultra-session ----------------------------------------------------------------


def _primitive_bits(rng, length):
    """Random bits of exactly this minimal period."""
    while True:
        bits = "".join(rng.choice("01") for _ in range(length))
        if all(bits != bits[:d] * (length // d) for d in range(1, length) if length % d == 0):
            return bits


def _ultra_session(rng) -> list[Request]:
    """150 requests on one session with a fixed schedule: kinds, periods
    (the meet period reaches 840 early for every seed) and verdicts (one new
    query in four is rejected, catching up when a rejection was out of
    reach). The seed draws the bits; the accept-first model picks, among
    random sets of the scheduled period, a new one that gets the scheduled
    verdict. Every tenth query repeats an earlier set."""
    periods = (2, 4, 8, 3, 6, 5, 7)
    model = O.UltraModel(3, 8)
    queried: list[str] = []
    rejected = 0
    reqs = []
    for i in range(150):
        if i % 10 == 9:
            reqs.append(Request("ultra-trace", ("ultra", "trace", "--state", STATE), expect=("ultra", "trace")))
            continue
        kind = "contains" if i % 5 == 2 else "query"
        if kind == "query" and len(queried) % 10 == 9:
            spec = rng.choice(queried)
        else:
            accept, fallback = rejected >= (len(model.log) + 1) // 4, None
            for _ in range(500):
                pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
                spec = f"pre:{pre};per:{_primitive_bits(rng, periods[i % len(periods)])}"
                s = O.PSet.from_spec(spec)
                if kind == "contains" or (model.is_new(s) and model.would_accept(s) == accept):
                    break
                if fallback is None and model.is_new(s):
                    fallback = spec
            else:  # the scheduled verdict is out of reach: take a new set
                spec = fallback or spec
        if kind == "query":
            queried.append(spec)
            rejected += model.query(O.PSet.from_spec(spec)) == "Rejected" and spec not in queried[:-1]
        reqs.append(Request(f"ultra-{kind}", ("ultra", kind, spec, "--state", STATE), expect=("ultra", kind, spec)))
    return reqs


# -- library-batch ----------------------------------------------------------------


def _set_spec(rng):
    """A random set shaped like acceptance criterion 07's queries."""
    pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
    per = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
    return f"pre:{pre};per:{per}"


def _germ_coeffs(rng):
    num = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
    den = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
    if not any(den):
        den = (1,)
    return num, den


def _real_spec(rng, kind):
    if kind == "rat":
        return ("rat", rng.randint(-50, 50), rng.randint(1, 50))
    return ("sqrt", rng.randint(0, 20))


def _library_batch(rng) -> list[Request]:
    reqs = []
    for i in range(50):
        if i % 2 == 0:
            k0 = rng.randint(1, 10**6)
            reqs.append(Request("order-dx", lib=("order-dx", (k0, 100))))
        else:
            pairs = tuple((_germ_coeffs(rng), _germ_coeffs(rng)) for _ in range(50))
            reqs.append(Request("order-pairs", lib=("order-pairs", pairs)))
    for i in range(50):  # every rational/root pattern of a triple, in turn
        triple = tuple(_real_spec(rng, "sqrt" if (i >> j) & 1 else "rat") for j in range(3))
        reqs.append(Request("field-laws", lib=("field-laws", triple)))
    for _ in range(3):
        specs = tuple(_set_spec(rng) for _ in range(1000))
        reqs.append(Request("ufsim-log", lib=("ufsim-log", specs)))
    rng.shuffle(reqs)
    first = next(i for i, r in enumerate(reqs) if r.cls == "field-laws")
    reqs.insert(0, reqs.pop(first))
    return reqs


def _lib_germ(hyper, spec):
    num, den = spec
    return hyper.RationalSlopeGerm(tuple(num), tuple(den))


def _lib_real(reals, spec):
    if spec[0] == "rat":
        return reals.from_rational(spec[1], spec[2])
    return reals.from_sqrt_int(spec[1])


def run_library(shape: str, data):
    """Execute one library request; returns a plain comparable result."""
    from eudoxus import ahom, hyper, indexset, reals, ufsim

    if shape == "order-dx":
        k0, count = data
        d = hyper.dx()
        out = [hyper.compare(d, hyper.from_real(0)).value]
        for k in range(k0, k0 + count):
            out.append(hyper.compare(d, hyper.from_real(Fraction(1, k))).value)
        return out
    if shape == "order-pairs":
        return [
            hyper.compare(_lib_germ(hyper, a), _lib_germ(hyper, b)).value for a, b in data
        ]
    if shape == "field-laws":
        x, y, z = (_lib_real(reals, s) for s in data)
        one = reals.from_rational(1, 1)
        return [
            x.add(y).add(z).equals_within(x.add(y.add(z)), 1000),
            x.mul(y).equals_within(y.mul(x), 1000),
            x.mul(y.add(z)).equals_within(x.mul(y).add(x.mul(z)), 1000),
            x.add(y).equals_within(x.add(y).add(one), 1000),
            ahom.verify_bound(x.mul(y.add(z)).rep, 20).ok,
        ]
    if shape == "ufsim-log":
        state = ufsim.fresh_state()
        verdicts = []
        for spec in data:
            verdict, state = ufsim.query(state, indexset.parse(spec))
            verdicts.append(verdict.value)
        replayed = ufsim.replay(list(state.log))
        return [verdicts, replayed == state, state.meet.is_infinite()]
    raise ValueError(f"unknown library shape {shape!r}")


def library_expected(shape: str, data):
    """The oracle's value of `run_library(shape, data)`."""
    if shape == "order-dx":
        k0, count = data
        dx = ((Fraction(1),), (Fraction(0), Fraction(1)))
        out = [O.eventual_order(dx, ((), (Fraction(1),)))]
        for k in range(k0, k0 + count):
            out.append(O.eventual_order(dx, ((Fraction(1, k),), (Fraction(1),))))
        return out
    if shape == "order-pairs":
        def frac(spec):
            return tuple(O.ptrim(Fraction(c) for c in spec[0])), tuple(
                O.ptrim(Fraction(c) for c in spec[1])
            )

        return [O.eventual_order(frac(a), frac(b)) for a, b in data]
    if shape == "field-laws":
        # Field laws hold exactly; a shift by 1 is refuted at window 1000;
        # every certificate is sound.
        return [True, True, True, False, True]
    if shape == "ufsim-log":
        model = O.UltraModel(5, 6)
        verdicts = [model.query(O.PSet.from_spec(spec)) for spec in data]
        return [verdicts, True, True]
    raise ValueError(f"unknown library shape {shape!r}")


# -- generation and checking --------------------------------------------------------

_GENERATORS = {
    "real-digits": _real_digits,
    "germ-calculus": _germ_calculus,
    "ultra-session": _ultra_session,
    "library-batch": _library_batch,
}


def generate(workload: str, seed: int) -> list[Request]:
    """The pass for `workload` under `seed`; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    reqs = _GENERATORS[workload](rng)
    if workload in ("real-digits", "germ-calculus"):
        rng.shuffle(reqs)
        first = next(i for i, r in enumerate(reqs) if not r.stress and r.cls in ("light", "hyper"))
        reqs.insert(0, reqs.pop(first))
    return reqs


def expected_ultra(reqs: list[Request]) -> list:
    """Replay an ultra pass through the model; one expected value per request."""
    model = O.UltraModel(3, 8)
    out = []
    for r in reqs:
        if r.expect[1] == "trace":
            out.append(list(model.log))
        elif r.expect[1] == "query":
            out.append([model.query(O.PSet.from_spec(r.expect[2]))])
        else:
            out.append([model.contains(O.PSet.from_spec(r.expect[2]))])
    return out


def check(req: Request, outcome, ultra_expected=None):
    """None when the outcome is what the oracle predicts, else the cause.

    `outcome` is ("exit", code, stdout lines, stderr text) for CLI requests
    or ("value", result) for library calls.
    """
    if outcome[0] == "value":
        return None if outcome[1] == library_expected(*req.lib) else "wrong_value"
    _, code, lines, err = outcome
    clean = code in (1, 2, 3) and not lines and len(err.strip().splitlines()) == 1
    try:
        ok = _matches(req, code, lines, ultra_expected)
    except (O.ZeroDivisor, O.SortMismatch, O.Pole):
        ok = code == 3 and clean
        return None if ok else "unexpected_exit" if code != 0 else "wrong_value"
    except O.BadPartition:
        return None if code == 1 else "unexpected_exit"
    if req.stress and clean:
        return None
    if ok:
        return None
    return "wrong_value" if code == 0 else "unexpected_exit"


def _matches(req: Request, code: int, lines: list[str], ultra_expected) -> bool:
    kind = req.expect[0]
    if kind == "exit":
        return code == req.expect[1]
    if kind == "digits":
        _, t, p = req.expect
        O.real_value(t, p)  # raises ZeroDivisor before any output check
        return code == 0 and len(lines) == 1 and O.check_digits(lines[0], t, p)
    if kind == "hyper":
        O.hyper_lines(req.expect[1])  # raises for exit-3 trees
        return code == 0 and O.check_hyper(lines, req.expect[1])
    if kind == "derive":
        _, t, at = req.expect
        O.derivative(t, at)
        return code == 0 and O.check_derive(lines, t, at)
    if kind == "lup":
        _, t, specs = req.expect
        answer = "admissible" if O.admissible(t, specs) else "not admissible"
        return code == 0 and lines == [answer]
    if kind == "ultra":
        if code != 0:
            return False
        if req.expect[1] == "trace":
            return O.check_trace(lines, ultra_expected)
        return lines == ultra_expected
    raise ValueError(f"unknown expectation {kind!r}")
