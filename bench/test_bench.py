"""Tests of the benchmark itself: oracles on hand-computed cases, seeded
generation, outcome checking and the tracer.

Run from the root of the repository: python3 -m pytest bench/test_bench.py
"""

import contextlib
import io
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles as O  # noqa: E402
import speed  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

SQRT2 = ("sqrt", 2)
DX, OMEGA, X = ("dx",), ("omega",), ("x",)


def test_render_parenthesises_every_compound_operand():
    t = ("div", ("int", 1), ("sub", ("mul", SQRT2, SQRT2), ("int", 2)))
    assert O.render(t) == "(1/((sqrt(2)*sqrt(2))-2))"
    assert O.render(("pow", ("add", ("int", 1), DX), 3)) == "(1+dx)^3"
    assert O.render(("paren", ("rat", 3, 7), 2)) == "(((3/7)))"


def test_decimal_oracle():
    assert O.check_digits("1.4142135624", SQRT2, 10)
    assert not O.check_digits("1.4142135626", SQRT2, 10)  # off by 2e-10
    assert not O.check_digits("1.414213562", SQRT2, 10)  # wrong width
    assert O.check_digits("3.142857", ("rat", 22, 7), 6)
    assert O.check_digits("1.4142135624", ("div", ("int", 1), ("div", ("int", 1), SQRT2)), 10)
    assert O.check_digits("32.0000000000", ("pow", SQRT2, 10), 10)
    with pytest.raises(O.ZeroDivisor):
        O.real_value(("div", ("int", 1), ("sub", ("mul", SQRT2, SQRT2), ("int", 2))), 10)


def test_germ_oracle():
    assert O.hyper_lines(DX)[0] == ["class: PositiveInfinitesimal", "st: 0", "leading: 1*i^-1"]
    st = ("st", ("pow", ("add", ("int", 1), DX), 2))
    assert O.hyper_lines(st)[0] == ["class: AppreciableFinite", "st: 1", "leading: 1*i^0"]
    big = ("sub", ("pow", OMEGA, 2), ("mul", ("int", 3), OMEGA))
    assert O.hyper_lines(big)[0] == ["class: PositiveInfinite", "leading: 1*i^2"]
    out = ["class: PositiveInfinitesimal", "st: 0", "leading: 1*i^-1", "germ: 1/i"]
    assert O.check_hyper(out, DX)
    assert not O.check_hyper(out[:3] + ["germ: 2/i"], DX)
    # (i^2 + i)/(i^3) printed reduced is (i + 1)/i^2
    t = ("div", ("add", ("pow", OMEGA, 2), OMEGA), ("pow", OMEGA, 3))
    assert O.check_hyper(O.hyper_lines(t)[0] + ["germ: (i + 1)/i^2"], t)
    assert O.parse_poly_text("3*i^2 - i + 5") == (5, -1, 3)
    with pytest.raises(O.SortMismatch):
        O.germ(("add", DX, SQRT2))
    with pytest.raises(O.ZeroDivisor):
        O.germ(("div", OMEGA, ("sub", DX, DX)))


def test_derivative_oracle():
    cubic = ("sub", ("pow", X, 3), ("mul", ("int", 2), X))
    assert O.derivative(cubic, Fraction(2)) == 10
    assert O.check_derive(["10", "10.0000000000"], cubic, Fraction(2))
    assert not O.check_derive(["11", "11.0000000000"], cubic, Fraction(2))
    quotient = ("div", ("pow", X, 2), ("add", ("int", 1), X))
    assert O.derivative(quotient, Fraction(1)) == Fraction(3, 4)
    with pytest.raises(O.Pole):
        O.derivative(("div", ("int", 1), ("sub", X, ("int", 1))), Fraction(1))
    removable = ("div", ("sub", ("pow", X, 2), ("int", 1)), ("sub", X, ("int", 1)))
    assert O.derivative(removable, Fraction(1)) == 1


def test_ultra_model():
    model = O.UltraModel(3, 8)
    evens, odds = O.PSet.from_spec("pre:;per:10"), O.PSet.from_spec("pre:;per:01")
    assert model.query(evens) == "Accepted"
    assert model.query(odds) == "Rejected"
    assert model.query(O.PSet.from_spec("pre:;per:1010")) == "Accepted"  # same set
    assert len(model.log) == 2
    assert model.contains(O.PSet.from_spec("pre:0;per:10")) == "ForcedIn"
    assert model.contains(odds) == "ForcedOut"
    assert model.contains(O.PSet.from_spec("pre:;per:100")) == "Undecided"
    assert O.check_trace(["Accepted pre:;per:10", "Rejected pre:;per:01"], model.log)
    assert not O.check_trace(["Accepted pre:;per:10", "Accepted pre:;per:01"], model.log)


def test_admissibility_and_order_oracles():
    halves = ["pre:;per:10", "pre:;per:01"]
    assert O.admissible(("int", 7), halves)
    assert not O.admissible(DX, halves)
    assert O.admissible(("int", 7), ["pre:;per:100", "pre:01;per:010", "pre:001;per:001"])
    with pytest.raises(O.BadPartition):
        O.admissible(("int", 7), ["pre:;per:1", "pre:;per:01"])
    dx = ((Fraction(1),), (Fraction(0), Fraction(1)))
    assert O.eventual_order(dx, ((Fraction(1, 1000),), (Fraction(1),))) == "Less"
    assert O.eventual_order(dx, ((), (Fraction(1),))) == "Greater"
    assert O.eventual_order(dx, dx) == "Equal"


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_one_seed_gives_one_request_list(workload):
    first = W.generate(workload, 7)
    assert first == W.generate(workload, 7)
    assert first != W.generate(workload, 8)
    assert all(r.argv or r.lib for r in first)


def test_check_names_the_cause():
    req = W.Request("light", ("digits", "sqrt(2)", "-p", "10"), expect=("digits", SQRT2, 10))
    assert W.check(req, ("exit", 0, ["1.4142135624"], "")) is None
    assert W.check(req, ("exit", 0, ["1.4142135626"], "")) == "wrong_value"
    assert W.check(req, ("exit", 2, [], "budget exhausted\n")) == "unexpected_exit"
    stress = W.Request("stress", req.argv, expect=req.expect, stress=True)
    assert W.check(stress, ("exit", 1, [], "error: too deep\n")) is None
    pole = W.Request("pole", (), expect=("derive", ("div", ("int", 1), X), Fraction(0)))
    assert W.check(pole, ("exit", 3, [], "error: pole at x = 0\n")) is None
    assert W.check(pole, ("exit", 0, ["0", "0.0000000000"], "")) == "wrong_value"


def test_tracer_reports_every_layer():
    from eudoxus import cli

    t = T.Tracer()
    T.install(t)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["digits", "1/(1/sqrt(2))", "-p", "10"]) == 0
            assert cli.main(["derive", "x^3-2*x", "--at", "2"]) == 0
    finally:
        t.uninstall()
    metrics = T.per_layer(t, 2, 0.0)
    assert list(metrics) == list(T.PER_LAYER)
    assert metrics["ahom.invert_eval_ms.depth2"] > 0
    assert metrics["calculus.derivative_at_ms.deg0_4"] > 0
    assert metrics["cli.cmd_ms.digits"] > metrics["expr.parse_ms"] > 0
    assert cli.main.__name__ == "main"  # uninstall restored the original


def test_speed_scale_uses_the_samples_near_a_stretch():
    s = speed.Speed()
    s.times, s.durations = [1.0, 1.1, 5.0], [0.002, 0.002, 0.0005]
    assert s.scale(1.02, 1.08) == speed.CAL_REF_S / 0.002
    assert s.scale(4.99, 5.0) == speed.CAL_REF_S / 0.0005
    assert s.scale(3.0, 3.1) == speed.CAL_REF_S / statistics.median([0.002, 0.0005])
