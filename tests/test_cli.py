import errno
import fcntl
import json
import operator
import os
import random
import re
import stat
import time
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from eudoxus import ahom, calculus, cli, expr, hyper, indexset, lup, polyq, reals, ufsim
from eudoxus.cli import _real_power, main
from eudoxus.expr import MAX_NESTING

from oracles import bisect_isqrt, sqrt_difference_power_decimal, window_equal


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_digits_examples(capsys):
    code, out, _ = run_cli(["digits", "sqrt(2)", "-p", "5"], capsys)
    assert code == 0 and out == "1.41421\n"
    code, out, _ = run_cli(["digits", "22/7", "-p", "6"], capsys)
    assert code == 0 and out == "3.142857\n"


def test_digits_renders_past_the_int_to_str_digit_limit(capsys):
    digits = 5000
    code, out, err = run_cli(["digits", "sqrt(2)", "-p", str(digits)], capsys)
    truncated = isqrt(2 * 10 ** (2 * (digits + 1)))  # digits + 1 places
    units = (truncated + 5) // 10  # rounded half up to `digits` places
    chunks = []
    for _ in range(digits // 100):
        units, chunk = divmod(units, 10**100)
        chunks.append(f"{chunk:0100d}")
    assert (code, err) == (0, "")
    assert out == f"{units}." + "".join(reversed(chunks)) + "\n"


def test_digits_of_a_long_flat_sum_answers(capsys):
    code, out, err = run_cli(["digits", "+".join(["sqrt(2)"] * 900), "-p", "20"], capsys)
    assert (code, out, err) == (0, "1272.79220613578554392152\n", "")  # 900*sqrt(2)


def test_digits_sort_error_exits_3(capsys):
    code, _, err = run_cli(["digits", "dx", "-p", "3"], capsys)
    assert code == 3 and "hyperreal" in err


def test_digits_budget_exhaustion_exits_2(capsys):
    code, _, err = run_cli(
        ["digits", "1/(sqrt(2)*sqrt(2)-2)", "--budget", "4096"], capsys
    )
    assert code == 2 and "budget" in err


@pytest.mark.parametrize(
    "text",
    ["1/0", "1/(2-2)", "sqrt(2)/(3-3)", "1/st(2-2)", "1/(sqrt(9)-3)^2", "1/(1/(sqrt(4)-2))"],
)
def test_digits_exact_zero_divisor_exits_3(text, capsys):
    code, out, err = run_cli(["digits", text], capsys)
    assert (code, out, err) == (3, "", "error: division by zero\n")


@pytest.mark.parametrize(
    "text, offset",
    [("1" + "0" * 5000, 0), ("2^1" + "0" * 5000, 2), ("sqrt(1" + "0" * 5000 + ")", 5)],
    ids=["literal", "exponent", "sqrt"],
)
def test_integer_literal_past_the_digit_limit_exits_1(text, offset, capsys):
    code, out, err = run_cli(["digits", text], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: integer literal too long (offset {offset})\n"


@pytest.mark.parametrize(
    "text, code, out, err",
    [
        ("1/sqrt(0)", 3, "", "error: division by zero\n"),
        ("1/(sqrt(4)-2)", 3, "", "error: division by zero\n"),
        ("1/sqrt(4)", 0, "0.5000000000\n", ""),
    ],
)
def test_digits_perfect_square_root_divisors(text, code, out, err, capsys):
    assert run_cli(["digits", text], capsys) == (code, out, err)


def test_irrational_root_divisor_stays_undecided(capsys):
    # In the last, the dividend is folded first, and its scan fails before
    # the zero divisor is reached.
    texts = ("1/(sqrt(3)*sqrt(3)-3)", "1/st(sqrt(3)*sqrt(3)-3)", "(1/(sqrt(3)*sqrt(3)-3))/(2-2)")
    for text in texts:
        code, out, err = run_cli(["digits", text], capsys)
        assert (code, out) == (2, "") and err.startswith("budget exhausted"), text


_UNDECIDED = "1/(sqrt(3)*sqrt(3)-3)"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        # When both operands of a quotient fail, the dividend's error is the
        # one reported, the reading order of the parser and the sort check.
        (["digits", f"(1/0)/({_UNDECIDED})", "--budget", "64"], 3, "error: division by zero\n"),
        (
            ["digits", f"({_UNDECIDED})/(1/0)", "--budget", "64"],
            2,
            "budget exhausted: sign undecided within budget 64; |value| <= 1/32\n",
        ),
        # A flag is checked as a file or environment value is, and named.
        (["digits", "1", "--budget", "0"], 1, "error: --budget: budget must be positive\n"),
        (["digits", "1", "-p", "0"], 1, "error: --precision: default_precision must be positive\n"),
    ],
    ids=["dividend-fails-first", "mirrored", "budget-flag", "precision-flag"],
)
def test_input_errors_are_reported_in_reading_order_and_by_source(argv, code, err, capsys):
    assert run_cli(argv, capsys) == (code, "", err)


@pytest.mark.parametrize(
    "argv, out",
    [
        # 1+2 is the one line of slope 3, of bound 1, not a sum of two lines.
        (
            ["digits", "1+2+sqrt(2)", "--json"],
            '{"budget_used": 6000000000000, "command": "digits", "diagnostics": [], '
            '"result": {"precision": 10, "value": "4.4142135624"}}\n',
        ),
        # An exact quotient needs no sign scan of the divisor 1/10^9.
        (["digits", "1/(1/1000000000)"], "1000000000.0000000000\n"),
        # The exact sum 201/200 rounds half up, not the sum of three lines.
        (["digits", "1/7+6/7+1/200", "-p", "2"], "1.01\n"),
    ],
    ids=["sum-bound", "quotient", "rounding"],
)
def test_rational_subexpressions_fold_exactly(argv, out, capsys):
    assert run_cli(argv, capsys) == (0, out, "")


_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _rational_expression(rng, depth):
    """Seeded text over literals, roots of perfect squares, + - * /, small
    powers, st and parentheses, with its exact value: None once a divisor
    is zero."""
    if depth == 0 or rng.random() < 0.2:
        n = rng.randint(0, 12)
        return (f"sqrt({n * n})", Fraction(n)) if rng.random() < 0.3 else (str(n), Fraction(n))
    pick = rng.random()
    text, value = _rational_expression(rng, depth - 1)
    if pick < 0.15:
        k = rng.randint(0, 3)
        return f"({text})^{k}", None if value is None else value**k
    if pick < 0.25:
        return f"st({text})", value
    op = rng.choice("+-*/")
    right_text, right = _rational_expression(rng, depth - 1)
    text = f"({text}){op}({right_text})"
    if value is None or right is None or (op == "/" and right == 0):
        return text, None
    return text, _OPERATIONS[op](value, right)


def test_rational_expressions_answer_as_their_reduced_quotient(capsys, monkeypatch):
    # The whole envelope, budget_used included, is that of a/b: a rational
    # expression folds to one exact Fraction, a single line at the root.
    calls = []
    plain = ahom.AlmostHom.eval
    monkeypatch.setattr(ahom.AlmostHom, "eval", lambda f, a: calls.append(a) or plain(f, a))
    rng = random.Random(3030)
    zero_divisors = 0
    for _ in range(200):
        text, value = _rational_expression(rng, rng.randint(1, 5))
        precision = str(rng.choice((1, 2, 5, 10, 30)))
        del calls[:]
        outcome = run_cli(["digits", text, "-p", precision, "--json"], capsys)
        if value is None:
            assert outcome == (3, "", "error: division by zero\n"), text
            assert calls == [], text  # no real was built, let alone evaluated
            zero_divisors += 1
            continue
        a, b = value.numerator, value.denominator
        quotient = f"{a}/{b}" if a >= 0 else f"0-{-a}/{b}"  # the grammar has no unary minus
        assert outcome == run_cli(["digits", quotient, "-p", precision, "--json"], capsys), text
    assert 10 < zero_divisors < 100


def test_parse_error_exits_1(capsys):
    code, _, err = run_cli(["digits", "1++2"], capsys)
    assert code == 1 and "offset 2" in err


def test_usage_errors_exit_1(capsys):
    assert run_cli(["mystery"], capsys)[0] == 1
    assert run_cli(["derive", "x^2"], capsys)[0] == 1  # missing --at
    assert run_cli(["digits", "1", "-p", "x"], capsys)[0] == 1


# `--help` goes to stdout with exit 0, a usage error to stderr with exit 1.
_HELP_AND_USAGE_ERRORS = {
    "": """\
usage: eudoxus [-h] {digits,hyper,derive,ultra,lup,selftest} ...
eudoxus: error: the following arguments are required: command
""",
    "--help": """\
usage: eudoxus [-h] {digits,hyper,derive,ultra,lup,selftest} ...

Exact real and infinitesimal arithmetic from integer maps.

positional arguments:
  {digits,hyper,derive,ultra,lup,selftest}
    digits              decimal rendering
    hyper               hyperreal germ queries
    derive              exact derivative
    ultra               ultrafilter sessions
    lup                 limit-filter admissibility
    selftest            invariant suites

options:
  -h, --help            show this help message and exit
""",
    "mystery": """\
usage: eudoxus [-h] {digits,hyper,derive,ultra,lup,selftest} ...
eudoxus: error: argument command: invalid choice: 'mystery' (choose from 'digits', 'hyper', 'derive', 'ultra', 'lup', 'selftest')
""",
    "digits --help": """\
usage: eudoxus digits [-h] [--json] [--config FILE] [--budget BUDGET]
                      [--state FILE] [-p PRECISION]
                      expr

positional arguments:
  expr

options:
  -h, --help            show this help message and exit
  --json                structured output
  --config FILE         configuration file
  --budget BUDGET       sign-decision budget
  --state FILE          ultrafilter state file
  -p PRECISION, --precision PRECISION
""",
    "hyper --help": """\
usage: eudoxus hyper [-h] {eval} ...

positional arguments:
  {eval}

options:
  -h, --help  show this help message and exit
""",
    "hyper eval --help": """\
usage: eudoxus hyper eval [-h] [--json] [--config FILE] [--budget BUDGET]
                          [--state FILE]
                          expr

positional arguments:
  expr

options:
  -h, --help       show this help message and exit
  --json           structured output
  --config FILE    configuration file
  --budget BUDGET  sign-decision budget
  --state FILE     ultrafilter state file
""",
    "derive --help": """\
usage: eudoxus derive [-h] [--json] [--config FILE] [--budget BUDGET]
                      [--state FILE] --at AT
                      poly

positional arguments:
  poly

options:
  -h, --help       show this help message and exit
  --json           structured output
  --config FILE    configuration file
  --budget BUDGET  sign-decision budget
  --state FILE     ultrafilter state file
  --at AT
""",
    "ultra --help": """\
usage: eudoxus ultra [-h] {query,contains,trace} ...

positional arguments:
  {query,contains,trace}

options:
  -h, --help            show this help message and exit
""",
    "ultra query --help": """\
usage: eudoxus ultra query [-h] [--json] [--config FILE] [--budget BUDGET]
                           [--state FILE]
                           setspec

positional arguments:
  setspec

options:
  -h, --help       show this help message and exit
  --json           structured output
  --config FILE    configuration file
  --budget BUDGET  sign-decision budget
  --state FILE     ultrafilter state file
""",
    "ultra contains --help": """\
usage: eudoxus ultra contains [-h] [--json] [--config FILE] [--budget BUDGET]
                              [--state FILE]
                              setspec

positional arguments:
  setspec

options:
  -h, --help       show this help message and exit
  --json           structured output
  --config FILE    configuration file
  --budget BUDGET  sign-decision budget
  --state FILE     ultrafilter state file
""",
    "ultra trace --help": """\
usage: eudoxus ultra trace [-h] [--json] [--config FILE] [--budget BUDGET]
                           [--state FILE]

options:
  -h, --help       show this help message and exit
  --json           structured output
  --config FILE    configuration file
  --budget BUDGET  sign-decision budget
  --state FILE     ultrafilter state file
""",
    "lup --help": """\
usage: eudoxus lup [-h] {check} ...

positional arguments:
  {check}

options:
  -h, --help  show this help message and exit
""",
    "lup check --help": """\
usage: eudoxus lup check [-h] [--json] [--config FILE] [--budget BUDGET]
                         [--state FILE] --partition PARTITION
                         expr

positional arguments:
  expr

options:
  -h, --help            show this help message and exit
  --json                structured output
  --config FILE         configuration file
  --budget BUDGET       sign-decision budget
  --state FILE          ultrafilter state file
  --partition PARTITION
""",
    "selftest --help": """\
usage: eudoxus selftest [-h] [--json] [--config FILE] [--budget BUDGET]
                        [--state FILE]

options:
  -h, --help       show this help message and exit
  --json           structured output
  --config FILE    configuration file
  --budget BUDGET  sign-decision budget
  --state FILE     ultrafilter state file
""",
    "derive x^2": """\
usage: eudoxus derive [-h] [--json] [--config FILE] [--budget BUDGET]
                      [--state FILE] --at AT
                      poly
eudoxus derive: error: the following arguments are required: --at
""",
    "lup check dx": """\
usage: eudoxus lup check [-h] [--json] [--config FILE] [--budget BUDGET]
                         [--state FILE] --partition PARTITION
                         expr
eudoxus lup check: error: the following arguments are required: --partition
""",
    "digits 1 -p x": """\
usage: eudoxus digits [-h] [--json] [--config FILE] [--budget BUDGET]
                      [--state FILE] [-p PRECISION]
                      expr
eudoxus digits: error: argument -p/--precision: invalid int value: 'x'
""",
    "hyper nope": """\
usage: eudoxus hyper [-h] {eval} ...
eudoxus hyper: error: argument hyper_command: invalid choice: 'nope' (choose from 'eval')
""",
}


def _as_python_3_11(text: str) -> str:
    """Spell as Python 3.11 does the two things newer argparse versions
    render differently: a short option's metavar and the choices list."""
    text = text.replace(
        "-p, --precision PRECISION", "-p PRECISION, --precision PRECISION"
    )
    return re.sub(
        r"\(choose from ([^)']*)\)",
        lambda m: "(choose from '" + m[1].replace(", ", "', '") + "')",
        text,
    )


@pytest.mark.parametrize("line", list(_HELP_AND_USAGE_ERRORS))
def test_help_and_usage_errors_are_pinned(line, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(line.split(), capsys)
    text = _HELP_AND_USAGE_ERRORS[line]
    expected = (0, text, "") if "--help" in line else (1, "", text)
    assert (code, _as_python_3_11(out), _as_python_3_11(err)) == expected


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "1/0"])
def test_derive_rejects_a_bad_point_as_usage(value, capsys):
    code, out, err = run_cli(["derive", "x^2", "--at", value], capsys)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == (
        f"eudoxus derive: error: argument --at: invalid Fraction value: '{value}'"
    )


def test_hyper_eval_examples(capsys):
    code, out, _ = run_cli(["hyper", "eval", "dx"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "class: PositiveInfinitesimal",
        "st: 0",
        "leading: 1*i^-1",
        "germ: 1/i",
    ]
    code, out, _ = run_cli(["hyper", "eval", "st((1+dx)^2)"], capsys)
    assert code == 0 and "st: 1" in out.splitlines()
    code, out, _ = run_cli(["hyper", "eval", "1/(dx)"], capsys)
    assert code == 0 and "class: PositiveInfinite" in out


def test_hyper_eval_domain_errors(capsys):
    assert run_cli(["hyper", "eval", "1/(2-2)"], capsys)[0] == 3
    assert run_cli(["hyper", "eval", "st(omega)"], capsys)[0] == 3
    assert run_cli(["hyper", "eval", "1+classify(dx)"], capsys)[0] == 3


def test_derive_examples(capsys):
    code, out, _ = run_cli(["derive", "x^2", "--at", "3"], capsys)
    assert code == 0 and out.splitlines()[0] == "6"
    code, out, _ = run_cli(["derive", "x^3 - 2*x", "--at", "2"], capsys)
    assert code == 0 and out.splitlines()[0] == "10"
    code, out, _ = run_cli(["derive", "5", "--at", "1"], capsys)
    assert code == 0 and out.splitlines()[0] == "0"
    code, out, _ = run_cli(["derive", "1/x", "--at", "1/2"], capsys)
    assert code == 0 and out.splitlines()[0] == "-4"
    # A negative fraction after --at is its value, not an option; -x is not.
    code, out, _ = run_cli(["derive", "x^2", "--at", "-1/2"], capsys)
    assert code == 0 and out.splitlines() == ["-1", "-1.0000000000"]
    assert run_cli(["derive", "x^2", "--at", "-x"], capsys)[0] == 1


def test_derive_pole_exits_3(capsys):
    assert run_cli(["derive", "1/x", "--at", "0"], capsys)[0] == 3


def test_germ_and_derivative_texts_past_the_int_to_str_digit_limit(capsys):
    big = "1" + "0" * 5000  # 10^5000
    code, out, err = run_cli(["hyper", "eval", "10^5000"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "class: AppreciableFinite",
        f"st: {big}",
        f"leading: {big}*i^0",
        f"germ: {big}",
    ]
    code, out, err = run_cli(["hyper", "eval", "1/10^5000"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "class: AppreciableFinite",
        f"st: 1/{big}",
        f"leading: 1/{big}*i^0",
        f"germ: 1/{big}",
    ]
    exact = "2" + "0" * 5000
    for argv in (["x^2*10^5000", "--at", "1"], ["x^2", "--at", "1e5000"]):
        code, out, err = run_cli(["derive", *argv], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [exact, exact + ".0000000000"]
    code, out, err = run_cli(["derive", "x", "--at", "1e5000", "--json"], capsys)
    assert (code, err) == (0, "") and json.loads(out)["result"]["at"] == big
    code, out, err = run_cli(["derive", "1/(x-10^5000)", "--at", "1e5000"], capsys)
    assert (code, out, err) == (3, "", f"error: pole at x = {big}\n")


def test_ultra_session(tmp_path, capsys):
    state = str(tmp_path / "ultra.trace")
    code, out, _ = run_cli(["ultra", "query", "pre:;per:10", "--state", state], capsys)
    assert code == 0 and out == "Accepted\n"
    code, out, _ = run_cli(["ultra", "query", "pre:;per:01", "--state", state], capsys)
    assert code == 0 and out == "Rejected\n"
    code, out, _ = run_cli(
        ["ultra", "contains", "pre:0;per:10", "--state", state], capsys
    )
    assert code == 0 and out == "ForcedIn\n"
    code, out, _ = run_cli(["ultra", "trace", "--state", state], capsys)
    assert code == 0
    assert out == "Accepted pre:;per:10\nRejected pre:;per:01\n"
    with open(state, encoding="utf-8") as fh:
        assert fh.read() == "Accepted pre:;per:10\nRejected pre:;per:01\n"


def test_ultra_query_idempotent_on_disk(tmp_path, capsys):
    state = str(tmp_path / "ultra.trace")
    run_cli(["ultra", "query", "pre:;per:10", "--state", state], capsys)
    first = Path(state).read_text(encoding="utf-8")
    code, out, _ = run_cli(["ultra", "query", "pre:;per:10", "--state", state], capsys)
    assert code == 0 and out == "Accepted\n"
    assert Path(state).read_text(encoding="utf-8") == first


def test_ultra_bad_spec_exits_1(capsys):
    assert run_cli(["ultra", "query", "nonsense"], capsys)[0] == 1


def test_ultra_inconsistent_state_exits_3(tmp_path, capsys):
    state = tmp_path / "ultra.trace"
    state.write_text("Accepted pre:;per:10\nAccepted pre:;per:01\n", encoding="utf-8")
    code, _, err = run_cli(
        ["ultra", "contains", "pre:;per:10", "--state", str(state)], capsys
    )
    assert code == 3 and "line 2" in err


def test_lup_check_examples(capsys):
    part = "pre:;per:10 ; pre:;per:01"
    code, out, _ = run_cli(["lup", "check", "3/1", "--partition", part], capsys)
    assert code == 0 and out == "admissible\n"
    code, out, _ = run_cli(["lup", "check", "dx", "--partition", part], capsys)
    assert code == 0 and out == "not admissible\n"


@pytest.mark.parametrize(
    "germ, partition",
    [
        ("1/(omega-1)", "pre:01;per:0 ; pre:10;per:1"),
        ("1/(omega-1)", "pre:10;per:1 ; pre:01;per:0"),
        ("dx", "pre:1;per:0 ; pre:0;per:1"),
    ],
)
def test_lup_check_germ_with_a_pole_in_a_finite_class(germ, partition, capsys):
    code, out, err = run_cli(["lup", "check", germ, "--partition", partition], capsys)
    assert (code, out, err) == (0, "not admissible\n", "")


def test_lup_malformed_partition_exits_1(capsys):
    bad = "pre:;per:10 ; pre:;per:1"  # overlaps
    assert run_cli(["lup", "check", "3/1", "--partition", bad], capsys)[0] == 1


def test_json_envelope_is_schema_stable(tmp_path, capsys):
    state = str(tmp_path / "ultra.trace")
    invocations = [
        ["digits", "sqrt(2)", "-p", "4", "--json"],
        ["hyper", "eval", "dx", "--json"],
        ["derive", "x^2", "--at", "3", "--json"],
        ["ultra", "query", "pre:;per:10", "--state", state, "--json"],
        ["ultra", "contains", "pre:;per:10", "--state", state, "--json"],
        ["ultra", "trace", "--state", state, "--json"],
        ["lup", "check", "3/1", "--partition", "pre:;per:10 ; pre:;per:01", "--json"],
    ]
    for argv in invocations:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, argv
        payload = json.loads(out)
        assert set(payload) == {"command", "result", "diagnostics", "budget_used"}
        assert isinstance(payload["diagnostics"], list)


def test_json_command_label_is_the_command_words(tmp_path, capsys):
    state = str(tmp_path / "ultra.trace")
    invocations = [
        ["digits", "1"],
        ["hyper", "eval", "dx"],
        ["derive", "x", "--at", "1"],
        ["ultra", "query", "pre:;per:10", "--state", state],
        ["ultra", "contains", "pre:;per:10", "--state", state],
        ["ultra", "trace", "--state", state],
        ["lup", "check", "1", "--partition", "pre:;per:1"],
        ["selftest"],
    ]
    labels = []
    for argv in invocations:
        code, out, _ = run_cli(argv + ["--json"], capsys)
        assert code == 0, argv
        labels.append(json.loads(out)["command"])
    assert labels == [
        "digits",
        "hyper eval",
        "derive",
        "ultra query",
        "ultra contains",
        "ultra trace",
        "lup check",
        "selftest",
    ]


def test_output_is_deterministic(tmp_path, capsys):
    argv = ["digits", "sqrt(2)*22/7 - 1/3", "-p", "12", "--json"]
    first = run_cli(argv, capsys)
    second = run_cli(argv, capsys)
    assert first == second


def test_config_file_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "eudoxus.conf"
    cfg.write_text("default_precision = 4  # file wins over default\n", encoding="utf-8")
    code, out, _ = run_cli(["digits", "22/7", "--config", str(cfg)], capsys)
    assert code == 0 and out == "3.1429\n"

    monkeypatch.setenv("EUDOXUS_DEFAULT_PRECISION", "6")
    code, out, _ = run_cli(["digits", "22/7", "--config", str(cfg)], capsys)
    assert code == 0 and out == "3.142857\n"

    code, out, _ = run_cli(
        ["digits", "22/7", "--config", str(cfg), "-p", "2"], capsys
    )
    assert code == 0 and out == "3.14\n"


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "eudoxus.conf"
    cfg.write_text("budgett = 12\n", encoding="utf-8")
    code, _, err = run_cli(["digits", "1/2", "--config", str(cfg)], capsys)
    assert code == 1 and "unknown key" in err


def test_config_state_path_used_by_ultra(tmp_path, capsys):
    cfg = tmp_path / "eudoxus.conf"
    state = tmp_path / "session.trace"
    cfg.write_text(f"state_path = {state}\n", encoding="utf-8")
    code, out, _ = run_cli(
        ["ultra", "query", "pre:;per:10", "--config", str(cfg)], capsys
    )
    assert code == 0 and out == "Accepted\n"
    assert state.exists()


_STATE_COMMANDS = {
    "query": ["ultra", "query", "pre:;per:1"],
    "contains": ["ultra", "contains", "pre:;per:1"],
    "trace": ["ultra", "trace"],
}


@pytest.mark.parametrize(
    "command, kind",
    [("query", "in-missing-directory")]
    + [(c, kind) for c in _STATE_COMMANDS for kind in ("directory", "not-utf8")],
)
def test_unusable_state_file_exits_1(command, kind, tmp_path, capsys):
    state = tmp_path / "ultra.trace"
    if kind == "in-missing-directory":
        state = tmp_path / "absent" / "ultra.trace"
    elif kind == "directory":
        state.mkdir()
    else:
        state.write_bytes(b"Accepted pre:;per:1\xff\n")
    code, out, err = run_cli(_STATE_COMMANDS[command] + ["--state", str(state)], capsys)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot ")


def test_config_file_not_utf8_exits_1(tmp_path, capsys):
    cfg = tmp_path / "eudoxus.conf"
    cfg.write_bytes(b"budget = 5 # \xff\n")
    code, out, err = run_cli(["digits", "1", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read config file: 'utf-8' codec")
    assert len(err.splitlines()) == 1


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert all("PASS" in line for line in lines[:-1])
    assert "0 failures" in lines[-1]


_SELFTEST_SUITES = [
    ("kernel-certificates", 2728),
    ("real-field", 87),
    ("index-sets", 451),
    ("ultrafilter", 302),
    ("germ-field", 123),
    ("derivatives", 14),
    ("admissibility", 3),
    ("parser", 201),
]


def test_selftest_output_is_pinned(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert out.splitlines() == [
        *(f"{name}: PASS ({checks} checks)" for name, checks in _SELFTEST_SUITES),
        "selftest: 8 suites, 3909 checks, 0 failures",
    ]
    code, out, _ = run_cli(["selftest", "--json"], capsys)
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"] == {
        "suites": [
            {"name": name, "status": "PASS", "checks": checks, "failures": []}
            for name, checks in _SELFTEST_SUITES
        ],
        "checks": 3909,
        "failures": 0,
    }


@pytest.mark.parametrize("body", ["x-x", "0*x"])
def test_derive_of_the_zero_function_is_zero(body, capsys):
    code, out, err = run_cli(["derive", body, "--at", "1"], capsys)
    assert (code, out, err) == (0, "0\n0.0000000000\n", "")


@pytest.mark.parametrize("body", ["x/0", "1/(x-x)"])
def test_derive_zero_divisor_exits_3(body, capsys):
    code, out, err = run_cli(["derive", body, "--at", "1"], capsys)
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: division by the zero function"]


@pytest.mark.parametrize(
    "command, opener, atom, first_line",
    [
        (["digits", "E"], "(", "2", "2.0000000000"),
        (["hyper", "eval", "E"], "st(", "dx", "class: Zero"),
        (["derive", "E", "--at", "1"], "(", "x", "1"),
    ],
)
def test_nesting_limit_in_each_context(command, opener, atom, first_line, capsys):
    def argv(depth):
        text = opener * depth + atom + ")" * depth
        return [text if arg == "E" else arg for arg in command]

    code, out, _ = run_cli(argv(MAX_NESTING - 1), capsys)
    assert code == 0 and out.splitlines()[0] == first_line
    code, out, err = run_cli(argv(600), capsys)
    assert code == 1 and out == ""
    offset = MAX_NESTING * len(opener)
    assert err.splitlines() == [
        f"error: nesting deeper than {MAX_NESTING} levels (offset {offset})"
    ]


def test_long_sums_evaluate_exactly(capsys):
    code, out, _ = run_cli(["hyper", "eval", "+".join(["dx"] * 3000)], capsys)
    assert code == 0
    assert out.splitlines() == [
        "class: PositiveInfinitesimal",
        "st: 0",
        "leading: 3000*i^-1",
        "germ: 3000/i",
    ]
    code, out, _ = run_cli(["derive", "+".join(["x"] * 3000), "--at", "1"], capsys)
    assert code == 0 and out.splitlines() == ["3000", "3000.0000000000"]


def _sqrt_digits(n: int, digits: int) -> str:
    """sqrt(n) rounded half-up to `digits` places (n not a perfect square)."""
    units = (bisect_isqrt(n * 10 ** (2 * digits + 2)) + 5) // 10
    ipart, frac = divmod(units, 10**digits)
    return f"{ipart}.{frac:0{digits}d}"


def test_large_powers_answer_correctly(capsys):
    # Were MemoryError (Compose.bound scanned 10^13 points) and
    # RecursionError (a 2000-deep Compose chain).
    code, out, _ = run_cli(["digits", "sqrt(5)*(sqrt(5)^20)"], capsys)
    assert code == 0 and out == _sqrt_digits(5**21, 10) + "\n"
    code, out, _ = run_cli(["digits", "sqrt(2)^2000"], capsys)
    assert code == 0 and out == f"{2**1000}.0000000000\n"
    # The same two failures with a non-monotone factor, whose outer
    # Compose.bound scanned every |e| <= C_inner.
    code, out, err = run_cli(["digits", "(sqrt(3)-sqrt(2))*(sqrt(5)^20)"], capsys)
    assert (code, out, err) == (0, "3103879.3476150610\n", "")
    code, out, err = run_cli(["digits", "(sqrt(7)-sqrt(2))^1000"], capsys)
    assert code == 0 and err == ""
    assert out == sqrt_difference_power_decimal(7, 2, 1000, 10) + "\n"


def test_power_certificates_no_looser_than_the_chain():
    sqrt = reals.from_sqrt_int
    bases = [sqrt(k) for k in (2, 3, 5, 6, 7, 10, 37)]
    bases += [sqrt(a).sub(sqrt(b)) for a, b in ((7, 2), (3, 2), (5, 3))]
    for base in bases:
        chain = reals.from_rational(1, 1)
        for e in range(41):
            power = _real_power(base, e)
            assert power.rep.bound <= chain.rep.bound, (str(base.rep), e)
            assert window_equal(power.rep, chain.rep, 64), (str(base.rep), e)
            chain = chain.mul(base)
    assert _real_power(reals.from_sqrt_int(2), 40).rep.bound < 10**7


def _memo_entries(root) -> int:
    """Memoized values over the distinct nodes of a rule tree."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            for name, _ in ahom._RULE_FIELDS[type(node)]:
                child = getattr(node, name)
                if isinstance(child, ahom.AlmostHom):
                    stack.append(child)
    return sum(len(node.__dict__.get("_memo", ())) for node in seen.values())


def test_power_of_a_non_monotone_base_keeps_the_chain():
    base = reals.from_sqrt_int(7).sub(reals.from_sqrt_int(2))
    assert base.rep.direction is None
    power = _real_power(base, 64)
    assert power.rep.bound > 0
    # Each Compose.bound reads two values of its outer map, so squaring
    # fills 618 entries. The limit separates the left-to-right chain
    # (5,138) from a scan of every |e| <= C_inner (2,986,327).
    assert _memo_entries(power.rep) < 50_000


def test_power_budget_used_follows_the_squared_certificate(capsys):
    # The chain's certificate gave 6597069766652000000000000, and the
    # squared one 18535278000000000000. A product of known slopes is now
    # carried by its slope's leaf, linear(1048576), of bound 1.
    code, out, _ = run_cli(["digits", "--json", "sqrt(2)^40"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["budget_used"] == 2000000000000
    assert doc["result"]["value"] == "1048576.0000000000"


def test_powers_of_known_slopes_answer_at_any_exponent(capsys):
    # Were still running after 60 s, and a ValueError traceback from
    # json.dumps on a certificate of about 5,000 digits.
    code, out, err = run_cli(["digits", "sqrt(2)^100000"], capsys)
    assert (code, err) == (0, "")
    assert out == polyq.int_text(2**50000) + ".0000000000\n"
    code, out, err = run_cli(["digits", "10^5000", "--json"], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["budget_used"] == 2000000000000
    assert doc["result"]["value"] == polyq.int_text(10**5000) + ".0000000000"


def test_nested_invert_evaluates_the_innermost_node_less():
    leaf = reals.from_sqrt_int(2)
    x = leaf
    for _ in range(3):  # 1/(1/(1/sqrt(2))), built as `digits` builds it
        x = reals.from_rational(1, 1).mul(x.recip(1 << 20))
    assert x.to_decimal(10) == "0.7071067812"
    # A linear scan from a bracket restarted at n = 1024 left 2,116 values.
    assert len(leaf.rep._memo) < 2116


def _ultra_outcome(state: Path, argv, capsys):
    """The exit code, stdout, stderr and trace bytes of `ultra <argv>` on `state`."""
    return run_cli(["ultra", *argv, "--state", str(state)], capsys), state.read_bytes()


def _full_replay_outcome(state: Path, argv, capsys):
    """The outcome of `ultra <argv>` on a copy of `state` without a checkpoint."""
    bare = state.parent / "bare" / state.name
    bare.parent.mkdir(exist_ok=True)
    Path(f"{bare}.meet").unlink(missing_ok=True)
    bare.write_bytes(state.read_bytes())
    return _ultra_outcome(bare, argv, capsys)


def _assert_answers_as_a_full_replay(state: Path, argv, capsys):
    """`ultra <argv>` on `state` answers as on a copy without a checkpoint;
    return the outcome."""
    want = _full_replay_outcome(state, argv, capsys)
    got = _ultra_outcome(state, argv, capsys)
    assert got == want, argv
    return got


def test_ultra_query_crash_mid_write_keeps_the_old_trace(tmp_path, capsys, monkeypatch):
    state = tmp_path / "ultra.trace"
    run_cli(["ultra", "query", "pre:;per:10", "--state", str(state)], capsys)
    before = state.read_text(encoding="utf-8")

    class PartWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:5])
            self.fh.flush()
            raise OSError("simulated crash mid-write")

        def __getattr__(self, name):
            return getattr(self.fh, name)

    def crashing_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return PartWrite(fh) if "w" in mode else fh

    monkeypatch.setattr(cli, "open", crashing_open, raising=False)
    got = run_cli(["ultra", "query", "pre:;per:001", "--state", str(state)], capsys)
    monkeypatch.undo()
    assert got == (1, "", "error: cannot write state file: simulated crash mid-write\n")
    assert state.read_text(encoding="utf-8") == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ultra.trace",
        "ultra.trace.lock",
        "ultra.trace.meet",
    ]
    code, out, _ = run_cli(["ultra", "trace", "--state", str(state)], capsys)
    assert code == 0 and out == before
    _assert_answers_as_a_full_replay(state, ["query", "pre:;per:001"], capsys)


@pytest.mark.parametrize(
    "module, name, error, what",
    [(os, "fsync", errno.ENOSPC, "write"), (fcntl, "flock", errno.ENOLCK, "lock")],
    ids=["write", "lock"],
)
def test_a_state_file_that_cannot_be_locked_or_written_is_an_error(
    module, name, error, what, tmp_path, capsys, monkeypatch
):
    state = tmp_path / "ultra.trace"
    run_cli(["ultra", "query", "pre:;per:10", "--state", str(state)], capsys)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def failing(*args):
        raise OSError(error, os.strerror(error))

    monkeypatch.setattr(module, name, failing)
    code, out, err = run_cli(["ultra", "query", "pre:;per:01", "--state", str(state)], capsys)
    monkeypatch.undo()
    assert (code, out) == (1, "")
    assert err == f"error: cannot {what} state file: [Errno {error}] {os.strerror(error)}\n"
    # The state file and its checkpoint keep their bytes, and no .tmp is left.
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_ultra_query_keeps_the_state_file_mode(tmp_path, capsys):
    state = tmp_path / "ultra.trace"
    run_cli(["ultra", "query", "pre:;per:10", "--state", str(state)], capsys)
    state.chmod(0o600)
    run_cli(["ultra", "query", "pre:;per:01", "--state", str(state)], capsys)
    assert stat.S_IMODE(state.stat().st_mode) == 0o600


def test_ultra_query_writes_through_a_symlinked_state_path(tmp_path, capsys):
    target = tmp_path / "real.trace"
    link = tmp_path / "link.trace"
    link.symlink_to(target)
    run_cli(["ultra", "query", "pre:;per:10", "--state", str(link)], capsys)
    run_cli(["ultra", "query", "pre:;per:01", "--state", str(link)], capsys)
    assert link.is_symlink() and os.readlink(link) == str(target)
    code, out, _ = run_cli(["ultra", "trace", "--state", str(target)], capsys)
    assert code == 0 and out == target.read_text(encoding="utf-8")
    assert out.splitlines() == ["Accepted pre:;per:10", "Rejected pre:;per:01"]


# A session of three sets and a repeat: the multiples of 5 meet the evens in
# 10 bits, the widest meet period charged, and the checkpoint records the
# default budget of 2^20 bits. The commands below ask for a new set, for a set
# of the session in a spec that is not canonical, and read.
_SESSION = ["pre:;per:10", "pre:;per:01", "pre:;per:10000", "pre:;per:10"]
_CHECKPOINT_COMMANDS = {
    "new query": ["query", "pre:1;per:0"],
    "repeated query": ["query", "pre:1;per:10"],
    "contains": ["contains", "pre:0;per:10"],
    "trace": ["trace"],
}


def _checkpointed_session(tmp_path, capsys) -> tuple[Path, Path]:
    state = tmp_path / "ultra.trace"
    for spec in _SESSION:
        run_cli(["ultra", "query", spec, "--state", str(state)], capsys)
    return state, Path(f"{state}.meet")


def test_the_checkpoint_copies_the_trace_and_records_the_widest_period_and_the_meet(
    tmp_path, capsys, ultra_calls
):
    state, meet = _checkpointed_session(tmp_path, capsys)
    text = "Accepted pre:;per:10\nRejected pre:;per:01\nAccepted pre:;per:10000\n"
    assert state.read_text(encoding="utf-8") == text
    assert meet.read_text(encoding="utf-8") == text + "1048576 pre:;per:1000000000\n"
    # A session that the checkpoint carries is never replayed.
    assert ultra_calls["replay"] == 0
    for argv in _CHECKPOINT_COMMANDS.values():
        _assert_answers_as_a_full_replay(state, argv, capsys)
    assert ultra_calls["replay"] == len(_CHECKPOINT_COMMANDS)  # the bare copies only


_EDITS = {
    "last line truncated": lambda text: text[:-4],
    "verdict swapped": lambda text: text.replace("Rejected", "Accepted", 1),
    "blank line added": lambda text: text.replace("\n", "\n\n", 1),
    "spec not canonical": lambda text: text.replace("per:10\n", "per:1010\n", 1),
    "line ends CRLF": lambda text: text.replace("\n", "\r\n"),
}


@pytest.mark.parametrize("command", _CHECKPOINT_COMMANDS)
@pytest.mark.parametrize("edit", _EDITS)
def test_a_trace_edited_behind_the_checkpoint_answers_as_a_full_replay(
    edit, command, tmp_path, capsys
):
    state, _ = _checkpointed_session(tmp_path, capsys)
    state.write_text(_EDITS[edit](state.read_text(encoding="utf-8")), encoding="utf-8")
    (code, _, err), _ = _assert_answers_as_a_full_replay(
        state, _CHECKPOINT_COMMANDS[command], capsys
    )
    if edit == "verdict swapped":
        assert (code, err) == (
            3,
            "error: inconsistent trace: pre:;per:01 recorded as Accepted but the"
            " policy decides Rejected (line 2)\n",
        )


@pytest.mark.parametrize("command", _CHECKPOINT_COMMANDS)
def test_a_checkpoint_cut_at_any_byte_answers_as_a_full_replay(command, tmp_path, capsys):
    state, meet = _checkpointed_session(tmp_path, capsys)
    text, saved = state.read_bytes(), meet.read_bytes()
    argv = _CHECKPOINT_COMMANDS[command]
    want = _full_replay_outcome(state, argv, capsys)
    for cut in range(len(saved) + 1):
        state.write_bytes(text)
        meet.write_bytes(saved[:cut])
        assert _ultra_outcome(state, argv, capsys) == want, cut


@pytest.mark.parametrize("command", _CHECKPOINT_COMMANDS)
def test_a_state_file_that_is_a_prefix_of_the_checkpoint_answers_as_a_full_replay(
    command, tmp_path, capsys
):
    # Older traces, traces cut mid-line, and the text followed by a part of
    # the checkpoint's last line.
    state, meet = _checkpointed_session(tmp_path, capsys)
    saved = meet.read_bytes()
    for cut in range(len(saved) + 1):
        state.write_bytes(saved[:cut])
        meet.write_bytes(saved)
        _assert_answers_as_a_full_replay(state, _CHECKPOINT_COMMANDS[command], capsys)


@pytest.mark.parametrize("command", _CHECKPOINT_COMMANDS)
def test_a_budget_below_the_checkpoint_period_replays_and_exits_2(
    command, tmp_path, capsys, ultra_calls
):
    state, meet = _checkpointed_session(tmp_path, capsys)
    argv = _CHECKPOINT_COMMANDS[command]
    got = _assert_answers_as_a_full_replay(state, [*argv, "--budget", "9"], capsys)
    assert got[0] == (2, "", "budget exhausted: meet period would be 10 bits, over budget 9\n")
    assert ultra_calls["replay"] == 2
    # 10 bits cover every meet, but not the recorded 2^20: both copies replay.
    (code, _, err), _ = _assert_answers_as_a_full_replay(state, [*argv, "--budget", "10"], capsys)
    assert (code, err) == (0, "") and ultra_calls["replay"] == 4
    # A query under 10 bits records 10, and a read under 10 bits hits.
    run_cli(["ultra", "query", "pre:01;per:0", "--budget", "10", "--state", str(state)], capsys)
    assert meet.read_text(encoding="utf-8").splitlines()[-1].startswith("10 ")
    replays = ultra_calls["replay"]
    code, out, _ = run_cli(["ultra", "trace", "--budget", "10", "--state", str(state)], capsys)
    assert (code, out) == (0, state.read_text(encoding="utf-8"))
    assert ultra_calls["replay"] == replays


def test_the_checkpoint_records_the_effective_budget(tmp_path, capsys, monkeypatch):
    state, meet = tmp_path / "ultra.trace", tmp_path / "ultra.trace.meet"
    config = tmp_path / "eudoxus.conf"
    config.write_text("budget = 30\n", encoding="utf-8")

    def recorded(*flags):
        state.unlink(missing_ok=True)
        argv = ["ultra", "query", "pre:;per:10", "--state", str(state), *flags]
        assert run_cli(argv, capsys)[0] == 0
        return meet.read_text(encoding="utf-8").splitlines()[-1]

    assert recorded() == "1048576 pre:;per:10"
    assert recorded("--config", str(config)) == "30 pre:;per:10"
    monkeypatch.setenv("EUDOXUS_BUDGET", "20")
    assert recorded("--config", str(config)) == "20 pre:;per:10"
    assert recorded("--config", str(config), "--budget", "10") == "10 pre:;per:10"


def test_a_checkpoint_that_records_the_widest_period_still_serves(
    tmp_path, capsys, ultra_calls
):
    # Until the checkpoint recorded its budget, its last line held the widest
    # meet period charged: a budget under which the whole trace was checked.
    state, meet = _checkpointed_session(tmp_path, capsys)
    text = state.read_text(encoding="utf-8")
    ultra_calls.clear()
    for argv in _CHECKPOINT_COMMANDS.values():
        for budget in ([], ["--budget", "9"]):
            state.write_text(text, encoding="utf-8")
            meet.write_text(text + "10 pre:;per:1000000000\n", encoding="utf-8")
            got = _assert_answers_as_a_full_replay(state, [*argv, *budget], capsys)
        assert got[0] == (2, "", "budget exhausted: meet period would be 10 bits, over budget 9\n")
    # The bare copies replay, and the checkpointed one under 9 bits only.
    assert ultra_calls["replay"] == 3 * len(_CHECKPOINT_COMMANDS)


@pytest.mark.parametrize("command", ["contains", "trace"])
def test_a_read_that_replays_writes_the_checkpoint_while_the_file_holds_its_trace(
    command, tmp_path, capsys, monkeypatch
):
    state, meet = _checkpointed_session(tmp_path, capsys)
    text, saved = state.read_bytes(), meet.read_bytes()
    argv = _CHECKPOINT_COMMANDS[command]
    want = _full_replay_outcome(state, argv, capsys)
    load_state = cli._load_state

    def query_after_the_replay(path, budget):
        # A query by another process lands between the replay and the lock.
        loaded = load_state(path, budget)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("Accepted pre:1;per:0\n")
        return loaded

    def failing(*args):
        raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

    # With no patch the read leaves the checkpoint the query wrote, and never
    # the state file; a file that moved on or a lock that fails leaves none.
    cases = [(None, None, saved), (cli, "_load_state", None), (fcntl, "flock", None)]
    patches = {"_load_state": query_after_the_replay, "flock": failing}
    for module, name, checkpoint in cases:
        meet.unlink(missing_ok=True)
        inode = state.stat().st_ino
        with monkeypatch.context() as m:
            if module:
                m.setattr(module, name, patches[name])
            assert run_cli(["ultra", *argv, "--state", str(state)], capsys) == want[0]
        assert (meet.read_bytes() if meet.exists() else None) == checkpoint, name
        assert state.stat().st_ino == inode
        assert state.read_bytes() == text or name == "_load_state"
        state.write_bytes(text)


def test_the_checkpoint_keeps_the_state_file_mode(tmp_path, capsys):
    state, meet = _checkpointed_session(tmp_path, capsys)
    state.chmod(0o600)
    run_cli(["ultra", "query", "pre:;per:001", "--state", str(state)], capsys)
    assert stat.S_IMODE(meet.stat().st_mode) == 0o600


def test_a_symlinked_state_path_keeps_one_checkpoint_beside_the_target(
    tmp_path, capsys, ultra_calls
):
    target = tmp_path / "real.trace"
    link = tmp_path / "link.trace"
    link.symlink_to(target)
    for spec in _SESSION:
        run_cli(["ultra", "query", spec, "--state", str(link)], capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.trace",
        "real.trace",
        "real.trace.lock",
        "real.trace.meet",
    ]
    assert run_cli(["ultra", "contains", "pre:0;per:10", "--state", str(link)], capsys) == (
        0,
        "ForcedIn\n",
        "",
    )
    code, out, _ = run_cli(["ultra", "trace", "--state", str(link)], capsys)
    assert code == 0 and out == target.read_text(encoding="utf-8")
    assert ultra_calls["replay"] == 0


def _multiples_trace(path: Path, top: int) -> bytes:
    """A state accepting the multiples of 2, 3, ..., top, in that order."""
    path.write_text(
        "".join(f"Accepted pre:;per:1{'0' * (k - 1)}\n" for k in range(2, top + 1)),
        encoding="utf-8",
    )
    return path.read_bytes()


@pytest.mark.parametrize(
    "command",
    [["trace"], ["contains", "pre:;per:10"], ["query", "pre:;per:01"]],
    ids=["trace", "contains", "query"],
)
def test_ultra_meet_over_budget_exits_2(command, tmp_path, capsys):
    # The multiples of 2..16 meet in 720,720 bits; adding 17 would take
    # 12,252,240 bits, over the default budget of 2^20.
    state = tmp_path / "ultra.trace"
    before = _multiples_trace(state, 19)
    start = time.perf_counter()
    code, out, err = run_cli(["ultra", *command, "--state", str(state)], capsys)
    assert time.perf_counter() - start < 10
    assert (code, out) == (2, "")
    assert err == "budget exhausted: meet period would be 12252240 bits, over budget 1048576\n"
    assert state.read_bytes() == before
    if command[0] == "query":  # the one command that takes the lock releases it
        with open(f"{state}.lock", encoding="utf-8") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
    # The multiples of 2..10 meet in 2,520 bits: one bit short exits 2, and
    # exactly enough answers.
    before = _multiples_trace(state, 10)
    argv = ["ultra", *command, "--state", str(state), "--budget"]
    code, out, err = run_cli([*argv, "2519"], capsys)
    assert (code, out) == (2, "")
    assert err == "budget exhausted: meet period would be 2520 bits, over budget 2519\n"
    assert state.read_bytes() == before
    code, out, err = run_cli([*argv, "2520"], capsys)
    assert (code, err) == (0, "")
    expected = {"trace": before.decode(), "contains": "ForcedIn\n", "query": "Rejected\n"}
    assert out == expected[command[0]]


# Every error class `main` maps, with its exit code; subclasses keep the code
# of the class they derive from.
_EXIT_CODES = [
    (expr.ExprSyntaxError, ("unexpected token", 3), 1),
    (indexset.IndexSetSyntaxError, ("expected 'pre:'", 0), 1),
    (ahom.RuleSyntaxError, ("expected rule name", 0), 1),
    (indexset.PartitionError, ("classes overlap",), 1),
    (cli.ConfigError, ("unknown key",), 1),
    (reals.UndecidedSign, (Fraction(1, 8), 64), 2),
    (ufsim.MeetOverBudget, (720720, 4096), 2),
    (expr.SortError, ("hyperreal in a real context",), 3),
    (expr.VarOutsideDerive, ("x outside derive",), 3),
    (ZeroDivisionError, ("division by zero",), 3),
    (polyq.DivisionByZeroGerm, ("division by the zero germ",), 3),
    (calculus.SubstitutionPole, ("pole at x = 0",), 3),
    (hyper.PoleAtIndex, (2,), 3),
    (hyper.InfiniteElement, ("infinite element",), 3),
    (ufsim.TraceError, ("bad verdict", 1), 3),
    (lup.UndecidableWithinBudget, ("undecided",), 3),
    (ahom.CertificateError, ("bound violated",), 3),
]


@pytest.mark.parametrize(
    "error, args, code", _EXIT_CODES, ids=[e.__name__ for e, _, _ in _EXIT_CODES]
)
def test_each_error_class_exits_with_its_code(error, args, code, capsys, monkeypatch):
    exc = error(*args)

    def failing(args, cfg):
        raise exc

    monkeypatch.setattr(cli, "cmd_digits", failing)
    prefix = "budget exhausted" if code == 2 else "error"
    assert run_cli(["digits", "1"], capsys) == (code, "", f"{prefix}: {exc}\n")


def test_an_unmapped_error_propagates_out_of_main(monkeypatch):
    def failing(args, cfg):
        raise RuntimeError("not a user error")

    monkeypatch.setattr(cli, "cmd_digits", failing)
    with pytest.raises(RuntimeError, match="not a user error"):
        main(["digits", "1"])
