import json
import os

import pytest

from eudoxus.cli import main
from eudoxus.expr import MAX_NESTING


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_digits_examples(capsys):
    code, out, _ = run_cli(["digits", "sqrt(2)", "-p", "5"], capsys)
    assert code == 0 and out == "1.41421\n"
    code, out, _ = run_cli(["digits", "22/7", "-p", "6"], capsys)
    assert code == 0 and out == "3.142857\n"


def test_digits_sort_error_exits_3(capsys):
    code, _, err = run_cli(["digits", "dx", "-p", "3"], capsys)
    assert code == 3 and "hyperreal" in err


def test_digits_budget_exhaustion_exits_2(capsys):
    code, _, err = run_cli(
        ["digits", "1/(sqrt(2)*sqrt(2)-2)", "--budget", "4096"], capsys
    )
    assert code == 2 and "budget" in err


def test_parse_error_exits_1(capsys):
    code, _, err = run_cli(["digits", "1++2"], capsys)
    assert code == 1 and "offset 2" in err


def test_usage_errors_exit_1(capsys):
    assert run_cli(["mystery"], capsys)[0] == 1
    assert run_cli(["derive", "x^2"], capsys)[0] == 1  # missing --at
    assert run_cli(["digits", "1", "-p", "x"], capsys)[0] == 1


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


def test_derive_pole_exits_3(capsys):
    assert run_cli(["derive", "1/x", "--at", "0"], capsys)[0] == 3


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
    first = open(state, encoding="utf-8").read()
    code, out, _ = run_cli(["ultra", "query", "pre:;per:10", "--state", state], capsys)
    assert code == 0 and out == "Accepted\n"
    assert open(state, encoding="utf-8").read() == first


def test_ultra_bad_spec_exits_1(capsys):
    assert run_cli(["ultra", "query", "nonsense"], capsys)[0] == 1


def test_ultra_inconsistent_state_exits_3(tmp_path, capsys):
    state = tmp_path / "ultra.trace"
    state.write_text("Accepted pre:;per:10\nAccepted pre:;per:01\n")
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


def test_output_is_deterministic(tmp_path, capsys):
    argv = ["digits", "sqrt(2)*22/7 - 1/3", "-p", "12", "--json"]
    first = run_cli(argv, capsys)
    second = run_cli(argv, capsys)
    assert first == second


def test_config_file_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "eudoxus.conf"
    cfg.write_text("default_precision = 4  # file wins over default\n")
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
    cfg.write_text("budgett = 12\n")
    code, _, err = run_cli(["digits", "1/2", "--config", str(cfg)], capsys)
    assert code == 1 and "unknown key" in err


def test_config_state_path_used_by_ultra(tmp_path, capsys):
    cfg = tmp_path / "eudoxus.conf"
    state = tmp_path / "session.trace"
    cfg.write_text(f"state_path = {state}\n")
    code, out, _ = run_cli(
        ["ultra", "query", "pre:;per:10", "--config", str(cfg)], capsys
    )
    assert code == 0 and out == "Accepted\n"
    assert state.exists()


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert all("PASS" in line for line in lines[:-1])
    assert "0 failures" in lines[-1]


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
