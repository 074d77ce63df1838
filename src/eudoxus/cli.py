"""Command-line front end binding the library together.

Commands: `digits` (decimal rendering of exact reals), `hyper eval`
(classification, standard part and leading term of a germ), `derive` (exact
derivative of a rational function at a rational point), `ultra` (persistent
ultrafilter sessions over eventually periodic sets), `lup check`
(admissibility under a partition-generated filter), `selftest`.

Exit codes: 0 success, 1 usage or parse error, 2 budget exhaustion,
3 domain or sort error. Output is deterministic: the same invocation against
the same state file produces byte-identical output. `--json` switches every
command to a stable envelope {command, result, diagnostics, budget_used}.

The library is imported inside the functions that use it, so a command loads
only the modules it runs.
"""

from __future__ import annotations

import argparse
import fcntl
import importlib
import json
import os
import re
import shutil
import sys
from contextlib import ExitStack, contextmanager, suppress

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_DOMAIN = 3

# Kept readable here for bench/tracer.py; the handlers use the home modules.
_ELSEWHERE = {"typecheck": "expr", "derivative_at": "calculus", "verify_bound": "ahom"}


def __getattr__(name):
    if name not in _ELSEWHERE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("." + _ELSEWHERE[name], __package__), name)


class ConfigError(ValueError):
    exit_code = EXIT_USAGE


class Config:
    """The settings: each annotated name is a key, set to its default here."""

    budget: int = 2**20
    default_precision: int = 10
    state_path: str = "ultra.trace"


def load_config(path: str | None) -> Config:
    """Config file `key = value` with `#` comments; env vars override the
    file; command-line flags override both (applied by `main`)."""
    cfg = Config()
    if path is not None:
        text = _read_text(path, "config file")
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            _set_config_key(cfg, key, value, f"line {line_no}")
    for key in Config.__annotations__:
        var = "EUDOXUS_" + key.upper()
        if var in os.environ:
            _set_config_key(cfg, key, os.environ[var], var)
    return cfg


def _set_config_key(cfg: Config, key: str, value: str | int, where: str) -> None:
    if key not in Config.__annotations__:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if isinstance(getattr(cfg, key), int):
        try:
            number = int(value)
        except ValueError:
            raise ConfigError(f"{where}: {key} must be an integer") from None
        if number < 1:
            raise ConfigError(f"{where}: {key} must be positive")
        setattr(cfg, key, number)
    else:
        setattr(cfg, key, value)


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None


# -- expression evaluation ----------------------------------------------------


# The CLI reads every expression through `_read`, with one of two tables for
# `expr.fold`, one per value tier: `_real_ops` folds a real into a Fraction or
# a rule tree, `_quotient_ops(view)` folds anything else into the given view
# of `polyq.RatFun`. The quotient table reaches `hyper` through the module at
# call time, so wrappers on its functions see every call.


def _read(text: str, context: str, table: dict):
    """Parse `text`, check it in `expr.Context(context)` and fold it with
    `table`. Each step reports the first error in reading order."""
    from . import expr

    tree = expr.parse(text)
    expr.typecheck(tree, expr.Context(context))
    return expr.fold(tree, table)


def _real_power(base, k: int):
    """base^k by repeated squaring, O(log k) deep.

    An odd step composes the base outside the square (base*(x*x)), which
    gives the smaller certificate.
    """
    if k == 0:
        from . import reals

        return reals.from_rational(1, 1)
    if k == 1:
        return base
    half = _real_power(base, k // 2)
    square = half.mul(half)
    return base.mul(square) if k % 2 else square


def _real(value):
    """A value of the real fold as a real: a Fraction becomes its line."""
    from . import reals

    if isinstance(value, reals.EudoxusReal):
        return value
    return reals.from_rational(value.numerator, value.denominator)


def _real_ops(budget: int) -> dict:
    """The real table. A rational subexpression, of integer literals and
    roots of perfect squares, folds to an exact Fraction, which becomes a
    real only where it meets one."""
    from fractions import Fraction
    from math import isqrt

    from . import expr, reals

    def quotient(n, left, right):
        if type(right) is Fraction and not right:
            raise ZeroDivisionError("division by zero")
        if type(left) is type(right) is Fraction:
            return left / right
        return _real(left).mul(_real(right).recip(budget))

    return {
        expr.IntLit: lambda n: Fraction(n.value),
        expr.SqrtInt: lambda n: (
            Fraction(r) if (r := isqrt(n.k)) * r == n.k else reals.from_sqrt_int(n.k)
        ),
        expr.Add: lambda n, a, b: a + b if type(a) is type(b) is Fraction else _real(a) + _real(b),
        expr.Sub: lambda n, a, b: a - b if type(a) is type(b) is Fraction else _real(a) - _real(b),
        expr.Mul: lambda n, a, b: a * b if type(a) is type(b) is Fraction else _real(a) * _real(b),
        expr.Div: quotient,
        expr.Pow: lambda n, b: (pow if type(b) is Fraction else _real_power)(b, n.exponent),
        expr.St: lambda n, x: x,  # st is the identity on embedded reals
    }


def _quotient_ops(view) -> dict:
    """The quotient table, building values of `view`; `expr.typecheck` has
    already rejected every leaf the context does not admit."""
    from . import expr, hyper

    return {
        expr.IntLit: lambda n: view.constant(n.value),
        expr.SqrtInt: lambda n: view.constant(expr.exact_int_sqrt(n.k)),
        expr.Dx: lambda n: hyper.dx(),
        expr.Omega: lambda n: hyper.omega(),
        expr.Var: lambda n: view((0, 1), (1,)),
        expr.Add: lambda n, a, b: hyper.add(a, b),
        expr.Sub: lambda n, a, b: hyper.sub(a, b),
        expr.Mul: lambda n, a, b: hyper.mul(a, b),
        expr.Div: lambda n, a, b: hyper.div(a, b),
        expr.Pow: lambda n, x: hyper.pow_(x, n.exponent),
        expr.St: lambda n, x: view.constant(hyper.standard_part(x)),
        expr.Classify: lambda n, x: x,
    }


# -- command handlers ----------------------------------------------------------
#
# Each handler returns (result, text lines, budget used); `main` prints them.


def cmd_digits(args, cfg: Config):
    precision = cfg.default_precision
    value = _real(_read(args.expr, "real", _real_ops(cfg.budget)))
    rendered = value.to_decimal(precision)
    return {"value": rendered, "precision": precision}, [rendered], value.eval_index(precision)


def cmd_hyper_eval(args, cfg: Config):
    from . import hyper, polyq

    value = _read(args.expr, "hyper", _quotient_ops(hyper.RationalSlopeGerm))
    cls = hyper.classify(value)
    result = {
        "class": cls.kind.value,
        "st": None if cls.st is None else polyq.fraction_text(cls.st),
        "leading": hyper.format_leading_term(value),
        "germ": str(value),
    }
    return result, [f"{k}: {v}" for k, v in result.items() if v is not None], 0


def cmd_derive(args, cfg: Config):
    from . import calculus, polyq

    fn = _read(args.poly, "derive", _quotient_ops(calculus.RatFunction))
    slope = calculus.derivative_at(fn, args.at)
    exact = polyq.fraction_text(slope)
    decimal = polyq.decimal_of_fraction(slope, cfg.default_precision)
    result = {"exact": exact, "decimal": decimal, "at": polyq.fraction_text(args.at)}
    return result, [exact, decimal], 0


def _load_state(path: str, budget: int):
    """Return (text, state): the state file holds the lines of `text` and then
    those of `state.log`. A missing file is the fresh state.

    The checkpoint `<path>.meet`, beside the symlink's target, stands in for
    the replay when it is the file's text byte for byte plus one whole last
    line, and the budget that line records is within `budget`. Then `text`
    is the whole file and the state carries only the meet. Otherwise the file
    is replayed, as `import_trace` checks it, and `text` is empty.
    """
    from . import indexset, ufsim

    if not os.path.exists(path):
        return "", ufsim.fresh_state()
    text = _read_text(path, "state file")
    # An unreadable checkpoint (ConfigError) or a bad last line is a miss.
    with suppress(ValueError):
        saved = _read_text(os.path.realpath(path) + ".meet", "checkpoint")
        cut = saved.rfind("\n", 0, len(saved) - 1) + 1  # where the last line starts
        if saved.endswith("\n") and cut == len(text) and saved.startswith(text):
            checked, _, spec = saved[cut:-1].partition(" ")
            if int(checked) <= budget:
                return text, ufsim.FilterState((), indexset.parse(spec))
    return "", ufsim.import_trace(text, budget=budget)


def _read_state(path: str, budget: int):
    """`_load_state` for a read. A replay writes the checkpoint, under the lock
    and while the file still holds the replayed trace, but never the file."""
    from . import ufsim

    text, state = _load_state(path, budget)
    if state.log:
        with suppress(ConfigError), _locked(path := os.path.realpath(path)):
            if _read_text(path, "state file") == (replayed := ufsim.export_trace(state)):
                _save_checkpoint(path, replayed, state, budget)
    return text, state


def _save_checkpoint(path: str, text: str, state, budget: int) -> None:
    """Write `<path>.meet`: `text`, then `budget`, under which every step of
    `text` was checked, and the meet of `state`. A torn or stale checkpoint
    only misses, so it is written in place, unsynced, with the state file's
    permission bits. `query` and the reads that replay write it here."""
    from . import indexset

    with suppress(OSError), open(path + ".meet", "w", encoding="utf-8") as fh:
        shutil.copymode(path, path + ".meet")
        fh.write(text)
        fh.write(f"{budget} {indexset.format_set(state.meet)}\n")


@contextmanager
def _locked(path: str):
    with ExitStack() as stack:
        try:
            fh = stack.enter_context(open(path + ".lock", "w", encoding="utf-8"))
            fcntl.flock(fh, fcntl.LOCK_EX)
        except OSError as exc:
            raise ConfigError(f"cannot lock state file: {exc}") from None
        stack.callback(fcntl.flock, fh, fcntl.LOCK_UN)
        yield


def _replace_file(path: str, text: str) -> None:
    """Write `text` to a sibling temporary file, then rename it over `path`.

    A reader, or a crash part-way through, sees the old file or the new one,
    never a mix. The new file keeps the old one's permission bits. Callers
    hold the state lock and pass a path without symlinks, so one temporary
    name serves and a symlink is never replaced by a regular file. A failed
    write removes the temporary file, and an OSError becomes a ConfigError.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write state file: {exc}") from None
        raise


def cmd_ultra_query(args, cfg: Config):
    from . import indexset, ufsim

    s = indexset.parse(args.setspec)
    # One lock per real file, and the rename lands on a symlink's target.
    path = os.path.realpath(cfg.state_path)
    with _locked(path):
        text, state = _load_state(path, cfg.budget)
        # A set the text holds is a repeat: its line is the answer, and the
        # checkpointed file stays as it is.
        verdict = ufsim.find_verdict(text, s)
        if verdict is None:
            verdict, state = ufsim.query(state, s, budget=cfg.budget)
            _replace_file(path, text := text + ufsim.export_trace(state))
            _save_checkpoint(path, text, state, cfg.budget)
    result = {"verdict": verdict.value, "set": indexset.format_set(s)}
    return result, [verdict.value], 0


def cmd_ultra_contains(args, cfg: Config):
    from . import indexset, ufsim

    s = indexset.parse(args.setspec)
    _, state = _read_state(cfg.state_path, cfg.budget)
    answer = ufsim.contains(state, s, budget=cfg.budget)
    result = {"containment": answer.value, "set": indexset.format_set(s)}
    return result, [answer.value], 0


def cmd_ultra_trace(args, cfg: Config):
    from . import ufsim

    text, state = _read_state(cfg.state_path, cfg.budget)
    lines = (text + ufsim.export_trace(state)).splitlines()
    return {"entries": lines}, lines, 0


def cmd_lup_check(args, cfg: Config):
    from . import hyper, indexset, lup

    value = _read(args.expr, "hyper", _quotient_ops(hyper.RationalSlopeGerm))
    chunks = re.split(r";\s*(?=pre:)", args.partition.strip())
    partition = lup.Partition(tuple(indexset.parse(c.strip()) for c in chunks))
    admissible = lup.is_admissible(value, lup.LimitFilterSpec((partition,)))
    text = "admissible" if admissible else "not admissible"
    result = {"admissible": admissible, "classes": len(partition.classes)}
    return result, [text], 0


# -- selftest -------------------------------------------------------------------
#
# Each suite takes the shared `random.Random` and yields one item per check:
# whether it passed, then the failure messages to report if it did not.


def _suite_kernel(rng):
    from . import ahom
    from .ahom import Compose, FloorLinear, FloorSqrt, Neg, Sum

    nodes = [
        FloorLinear(3, 7),
        FloorLinear(-22, 7),
        FloorSqrt(2),
        FloorSqrt(10),
        Sum(FloorLinear(1, 2), FloorSqrt(3)),
        Neg(FloorSqrt(5)),
        Compose(FloorLinear(-4, 1), FloorLinear(2, 3)),
        Compose(FloorSqrt(2), FloorSqrt(2)),
        Compose(FloorLinear(5, 3), FloorSqrt(7)),
    ]
    for _ in range(4):
        nodes.append(FloorLinear(rng.randint(-20, 20), rng.randint(1, 20)))
    for f in nodes:
        text = ahom.format_rule(f)
        yield ahom.verify_bound(f, 30).ok, f"certificate violated for {text}"
        yield ahom.parse_rule(text) == f, f"serialization round trip failed for {text}"
    lin = FloorLinear(3, 5)
    for p in range(-25, 26):
        for q in range(-25, 26):
            yield ahom.discrepancy(lin, p, q) in (0, 1), (
                f"floor-sum identity failed at ({p}, {q})"
            )
    root = FloorSqrt(7)
    for a in range(-50, 51):
        yield root.eval(-a) == -root.eval(a), f"odd symmetry failed at {a}"


def _suite_reals(rng):
    from fractions import Fraction

    from . import reals

    def sample() -> reals.EudoxusReal:
        if rng.random() < 0.5:
            return reals.from_rational(rng.randint(-50, 50), rng.randint(1, 50))
        return reals.from_sqrt_int(rng.randint(0, 20))

    for _ in range(15):
        x, y, z = sample(), sample(), sample()
        yield x.add(y).add(z).equals_within(x.add(y.add(z)), 64), (
            "associativity of addition failed"
        )
        yield x.mul(y).equals_within(y.mul(x), 64), (
            "commutativity of multiplication failed"
        )
        lhs = x.mul(y.add(z))
        rhs = x.mul(y).add(x.mul(z))
        yield lhs.equals_within(rhs, 64), "distributivity failed"
    for _ in range(15):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        fa = reals.from_rational(a.numerator, a.denominator)
        fb = reals.from_rational(b.numerator, b.denominator)
        total = a + b
        prod = a * b
        yield fa.add(fb).equals_within(
            reals.from_rational(total.numerator, total.denominator), 64
        ), "embedding does not preserve addition"
        yield fa.mul(fb).equals_within(
            reals.from_rational(prod.numerator, prod.denominator), 64
        ), "embedding does not preserve multiplication"
    two = reals.from_sqrt_int(2)
    yield two.mul(two).equals_within(reals.from_rational(2, 1), 128), (
        "sqrt(2)^2 is not 2 within certified bounds"
    )
    yield reals.from_rational(1, 4).to_decimal(3) == "0.250", (
        "decimal rendering of 1/4 failed"
    )
    depth = 16
    for _ in range(10):
        p, q = rng.randint(-40, 40), rng.randint(1, 40)
        x = reals.from_rational(p, q)
        error = abs(x.slope_approx(depth) - Fraction(p, q))
        yield error <= Fraction(x.rep.bound, 2**depth), "slope error bound violated"


def _suite_indexsets(rng):
    from . import indexset

    def sample() -> indexset.IndexSet:
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        return indexset.IndexSet(pre, per)

    for _ in range(150):
        s, t = sample(), sample()
        lhs = indexset.complement(indexset.union(s, t))
        rhs = indexset.intersect(indexset.complement(s), indexset.complement(t))
        yield lhs == rhs, "De Morgan law failed"
        yield indexset.complement(indexset.complement(s)) == s, (
            "double complement failed"
        )
        window = 4 * len(s.period) * len(t.period) + len(s.pre) + len(t.pre) + 8
        hit = indexset.intersect(s, t)
        yield all(
            hit.member(n) == (s.member(n) and t.member(n)) for n in range(window)
        ), "pointwise intersection mismatch"
    yield indexset.parse("pre:;per:10") == indexset.evens(), "parse of evens failed"


def _suite_ultrafilter(rng):
    from . import indexset, ufsim

    state = ufsim.fresh_state()
    for _ in range(300):
        pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
        per = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
        s = indexset.IndexSet(pre, per)
        verdict, state = ufsim.query(state, s)
        holds = {
            "meet became finite": state.meet.is_infinite(),
            "cofinite set rejected": not s.is_cofinite()
            or verdict is ufsim.Verdict.ACCEPTED,
            "finite set accepted": not s.is_finite()
            or verdict is ufsim.Verdict.REJECTED,
        }
        yield all(holds.values()), *(m for m, ok in holds.items() if not ok)
    verdict, state = ufsim.query(state, indexset.singleton(17))
    yield verdict is ufsim.Verdict.REJECTED, "singleton accepted"
    yield ufsim.import_trace(ufsim.export_trace(state)) == state, (
        "trace round trip failed"
    )


def _suite_germs(rng):
    from . import hyper

    def sample() -> hyper.RationalSlopeGerm:
        num = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        den = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        if not any(den):
            den = (1,)
        return hyper.RationalSlopeGerm(num, den)

    for _ in range(60):
        x, y, z = sample(), sample(), sample()
        yield (x + y) + z == x + (y + z), "germ associativity failed"
        yield x * (y + z) == x * y + x * z, "germ distributivity failed"
    d = hyper.dx()
    yield hyper.classify(d).kind is hyper.HyperKind.POSITIVE_INFINITESIMAL, (
        "dx not classified as a positive infinitesimal"
    )
    yield hyper.compare(d, d * d) is hyper.Order.GREATER, "dx vs dx^2 ordering failed"
    yield d * hyper.omega() == hyper.from_real(1), "dx * omega is not 1"


def _suite_derivatives(rng):
    from fractions import Fraction

    from . import calculus
    from .calculus import derivative_at

    cases = [
        (calculus.from_coeffs((0, 0, 1)), Fraction(3), Fraction(6)),
        (calculus.from_coeffs((0, -2, 0, 1)), Fraction(2), Fraction(10)),
        (calculus.RatFunction.constant(5), Fraction(1), Fraction(0)),
        (
            calculus.RatFunction.constant(1) / calculus.variable(),
            Fraction(2),
            Fraction(-1, 4),
        ),
    ]
    for fn, at, expected in cases:
        yield derivative_at(fn, at) == expected, f"derivative of {fn} at {at} incorrect"
    for _ in range(10):
        coeffs_f = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        coeffs_g = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        f = calculus.from_coeffs(tuple(coeffs_f))
        g = calculus.from_coeffs(tuple(coeffs_g))
        at = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        lhs = derivative_at(f * g, at)
        rhs = f(at) * derivative_at(g, at) + derivative_at(f, at) * g(at)
        yield lhs == rhs, "product rule failed"


def _suite_admissibility(rng):
    from . import hyper, indexset, lup, reals

    half = lup.Partition((indexset.evens(), indexset.odds()))
    spec = lup.LimitFilterSpec((half,))
    yield lup.is_admissible(hyper.from_real(7), spec), "constant germ not admissible"
    yield not lup.is_admissible(hyper.dx(), spec), (
        "dx admissible for a finite partition"
    )
    values = [reals.from_sqrt_int(k) for k in (2, 3, 5)]
    elements = [
        hyper.piecewise(
            ((indexset.evens(), rng.choice(values)), (indexset.odds(), rng.choice(values)))
        )
        for _ in range(6)
    ]
    yield lup.restricted_closure_check(elements, spec).ok, "closure check failed"


def _suite_parser(rng):
    from . import expr

    alphabet = "0123456789+-*/^()sqrtdxomegastclassify @#"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        try:
            expr.parse(text)
            ok, message = True, ""
        except expr.ExprSyntaxError as exc:
            ok, message = exc.offset <= len(text), "error offset past end of input"
        except Exception as exc:  # noqa: BLE001 - the point of the fuzz
            ok, message = False, f"parser raised {type(exc).__name__} on {text!r}"
        yield ok, message
    tree = expr.parse("st((1 + dx)^2) * 3 - 22/7")
    yield expr.parse(expr.format_ast(tree)) == tree, "format/parse round trip failed"


_SUITES = (
    ("kernel-certificates", _suite_kernel),
    ("real-field", _suite_reals),
    ("index-sets", _suite_indexsets),
    ("ultrafilter", _suite_ultrafilter),
    ("germ-field", _suite_germs),
    ("derivatives", _suite_derivatives),
    ("admissibility", _suite_admissibility),
    ("parser", _suite_parser),
)


def cmd_selftest(args, cfg: Config):
    import random

    rng = random.Random(20250801)
    total_checks = total_failures = 0
    lines = []
    suites_json = []
    for name, suite in _SUITES:
        results = list(suite(rng))
        checks = len(results)
        failures = [m for ok, *messages in results if not ok for m in messages]
        total_checks += checks
        total_failures += len(failures)
        status = "PASS" if not failures else "FAIL"
        lines.append(f"{name}: {status} ({checks} checks)")
        lines.extend(f"  - {failure}" for failure in failures)
        suites_json.append(
            {"name": name, "status": status, "checks": checks, "failures": failures}
        )
    lines.append(
        f"selftest: {len(_SUITES)} suites, {total_checks} checks, "
        f"{total_failures} failures"
    )
    result = {"suites": suites_json, "checks": total_checks, "failures": total_failures}
    return result, lines, 0


# -- argument parsing -----------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A negative fraction such as -1/2 is a value, as -1 and -.5 are,
        # not an option: `derive --at -1/2` then reads its point.
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


def _fraction(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):  # argparse would let 1/0 escape
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


# Words -> (top-level help, arguments). The handler of `ultra query` is
# `cmd_ultra_query`, and the words are its `--json` command label.
_COMMANDS = {
    "digits": ("decimal rendering", {"expr": {}, "-p --precision": {"type": int}}),
    "hyper eval": ("hyperreal germ queries", {"expr": {}}),
    "derive": (
        "exact derivative",
        {"poly": {}, "--at": {"type": _fraction, "required": True}},
    ),
    "ultra query": ("ultrafilter sessions", {"setspec": {}}),
    "ultra contains": ("ultrafilter sessions", {"setspec": {}}),
    "ultra trace": ("ultrafilter sessions", {}),
    "lup check": (
        "limit-filter admissibility",
        {"expr": {}, "--partition": {"required": True}},
    ),
    "selftest": ("invariant suites", {}),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="structured output")
    common.add_argument("--config", metavar="FILE", help="configuration file")
    common.add_argument("--budget", type=int, help="sign-decision budget")
    common.add_argument("--state", metavar="FILE", help="ultrafilter state file")

    parser = _ArgumentParser(
        prog="eudoxus",
        description="Exact real and infinitesimal arithmetic from integer maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, (help_text, arguments) in _COMMANDS.items():
        first, *rest = words.split()
        if not rest:
            leaf = sub.add_parser(first, parents=[common], help=help_text)
        else:
            if first not in groups:
                group = sub.add_parser(first, help=help_text)
                groups[first] = group.add_subparsers(
                    dest=f"{first}_command", required=True
                )
            leaf = groups[first].add_parser(rest[0], parents=[common])
        for names, options in arguments.items():
            leaf.add_argument(*names.split(), **options)
        leaf.set_defaults(words=words)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code == 2 else exc.code
    try:
        cfg = load_config(args.config)
        for flag, key in (
            ("budget", "budget"),
            ("precision", "default_precision"),
            ("state", "state_path"),
        ):
            value = getattr(args, flag, None)
            if value is not None:
                _set_config_key(cfg, key, value, "--" + flag)
        handler = globals()["cmd_" + args.words.replace(" ", "_")]
        result, lines, budget_used = handler(args, cfg)
    except Exception as exc:
        # A user error carries `exit_code`; a bare ZeroDivisionError is a domain error.
        default = EXIT_DOMAIN if isinstance(exc, ZeroDivisionError) else None
        code = getattr(exc, "exit_code", default)
        if code is None:
            raise
        prefix = "budget exhausted" if code == EXIT_BUDGET else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    if args.json:
        envelope = {
            "command": args.words,
            "result": result,
            "diagnostics": [],
            "budget_used": budget_used,
        }
        print(json.dumps(envelope, sort_keys=True))
    else:
        for line in lines:
            print(line)
    # A selftest with failures exits as a usage error does.
    return EXIT_USAGE if result.get("failures") else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
