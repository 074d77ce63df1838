"""Start-up: the package API resolves lazily, and each command loads only the
modules it runs. Module loading is checked in fresh interpreters, because
this test process has already imported every module."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import eudoxus

SRC = Path(__file__).resolve().parent.parent / "src"

# Every name the package exports, by the module that defines it.
_EXPORTS = {
    "ahom": [
        "AlmostHom", "BoundReport", "CertificateError", "Compose", "FloorLinear",
        "FloorSqrt", "Invert", "Neg", "RuleSyntaxError", "Sum",
        "discrepancy", "format_rule", "parse_rule", "verify_bound",
    ],
    "calculus": ["RatFunction", "SubstitutionPole", "adequal", "derivative_at", "extend"],
    "hyper": [
        "DivisionByZeroGerm", "GeneralRescaling", "HyperClass", "HyperKind",
        "InfiniteElement", "Order", "PiecewiseRescaling", "PoleAtIndex",
        "RationalSlopeGerm", "classify", "constant_rescaling", "dx", "eq_mod_filter",
        "from_real", "omega", "phi_component", "realize_component", "standard_part",
    ],
    "indexset": ["IndexSet", "IndexSetSyntaxError"],
    "lup": [
        "ClosureReport", "LimitFilterSpec", "Partition", "PartitionError",
        "UndecidableWithinBudget", "is_admissible",
    ],
    "reals": [
        "EudoxusReal", "Negative", "Positive", "UndecidedSign", "ZeroWithin",
        "from_rational", "from_sqrt_int",
    ],
    "ufsim": ["Containment", "FilterState", "TraceError", "Verdict", "fresh_state", "query"],
}  # fmt: skip
_NAMES = [(module, name) for module, names in _EXPORTS.items() for name in names]
_ALL = {"expr", "ahom", "reals", "polyq", "hyper", "calculus", "lup", "indexset", "ufsim"}


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-W", "error", *argv, *(["-c", code] if code else [])],
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )


def _loaded_by(argv: list, exit_code: int = 0) -> set:
    """The eudoxus submodules a fresh interpreter holds after `main(argv)`
    returns `exit_code`."""
    code = (
        "import json, sys\n"
        "from eudoxus import cli\n"
        f"assert cli.main({argv!r}) == {exit_code}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('eudoxus.'))))"
    )
    proc = _fresh(code)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("eudoxus.") for m in json.loads(proc.stdout.splitlines()[-1])}


def test_the_package_exports_58_names():
    assert len(_NAMES) == 58
    assert sorted(eudoxus.__all__) == sorted(name for _, name in _NAMES)
    assert eudoxus.__version__ == "0.1.0"
    assert set(eudoxus.__all__) <= set(dir(eudoxus))


@pytest.mark.parametrize("module, name", _NAMES, ids=[n for _, n in _NAMES])
def test_each_export_is_its_modules_object(module, name):
    namespace = {}
    exec(f"from eudoxus import {name}", namespace)
    home = __import__(f"eudoxus.{module}", fromlist=[name])
    assert namespace[name] is getattr(home, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        eudoxus.nope  # noqa: B018
    with pytest.raises(ImportError):
        exec("from eudoxus import nope", {})


def test_import_eudoxus_loads_no_submodule():
    proc = _fresh(
        "import sys, eudoxus\n"
        "print([m for m in sys.modules if m.startswith('eudoxus.')])\n"
        "eudoxus.IndexSet\n"
        "print(sorted(m for m in sys.modules if m.startswith('eudoxus.')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['eudoxus.indexset']"]


def test_ultra_query_loads_only_the_set_layer(tmp_path):
    state = str(tmp_path / "session.trace")
    loaded = _loaded_by(["ultra", "query", "pre:;per:10", "--state", state])
    assert loaded >= {"cli", "indexset", "ufsim"}
    assert not loaded & {"expr", "ahom", "reals", "polyq", "hyper", "calculus", "lup"}


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["digits", "1/sqrt(2) + 22/7", "-p", "20"], 0),
        # A rational divisor is folded exactly, so its zero needs no germ tier.
        (["digits", "1/(sqrt(4)-2)"], 3),
        (["digits", "1/(sqrt(3)*sqrt(3)-3)", "--budget", "64"], 2),
    ],
    ids=["answer", "zero-divisor", "budget-exit"],
)
def test_digits_loads_only_the_real_layer(argv, exit_code):
    loaded = _loaded_by(argv, exit_code)
    assert loaded >= {"cli", "expr", "reals"}
    assert not loaded & {"hyper", "calculus", "lup", "indexset", "ufsim"}


@pytest.mark.parametrize(
    "argv",
    [["derive", "x^2/(1+x)", "--at", "1"], ["hyper", "eval", "st((1+dx)^2)"]],
    ids=["derive", "hyper-eval"],
)
def test_germ_commands_load_neither_the_real_tier_nor_the_set_layer(argv):
    loaded = _loaded_by(argv)
    assert loaded >= {"cli", "expr", "hyper", "polyq"}
    assert not loaded & {"reals", "ahom", "ufsim", "indexset"}


def test_lup_check_loads_no_real_tier():
    loaded = _loaded_by(["lup", "check", "dx", "--partition", "pre:;per:10 ; pre:;per:01"])
    assert loaded >= {"cli", "expr", "hyper", "polyq", "indexset", "lup"}
    assert not loaded & {"reals", "ahom", "ufsim"}


def test_selftest_loads_every_module():
    assert _loaded_by(["selftest"]) == _ALL | {"cli"}


@pytest.mark.parametrize(
    "argv",
    [
        ["digits", "1/sqrt(2) + 22/7"],
        ["hyper", "eval", "st((1+dx)^2)"],
        ["derive", "x^2/(1+x)", "--at", "1"],
        ["lup", "check", "dx", "--partition", "pre:;per:10 ; pre:;per:01"],
        ["ultra", "query", "pre:;per:10", "--state"],
        ["selftest"],
    ],
    ids=["digits", "hyper-eval", "derive", "lup-check", "ultra-query", "selftest"],
)
def test_no_command_loads_dataclasses_or_inspect(argv, tmp_path):
    """Types are declared without generated code. `-S` keeps `site` from
    importing either module before the command runs."""
    if argv[-1] == "--state":
        argv = [*argv, str(tmp_path / "session.trace")]
    code = (
        "import sys\n"
        "from eudoxus import cli\n"
        f"cli.main({argv!r})\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = _fresh(code, "-S")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "argv, state_text, code, err",
    [
        (["ultra", "query", "pre:;per:"], None, 1, "period must be nonempty (offset 9)"),
        (["ultra", "trace"], "garbage\n", 3, "expected '<verdict> <set spec>' (line 1)"),
    ],
    ids=["empty-period", "garbage-state"],
)
def test_cold_error_paths_print_one_line(argv, state_text, code, err, tmp_path):
    state = tmp_path / "session.trace"
    if state_text is not None:
        state.write_text(state_text, encoding="utf-8")
    proc = _fresh("", "-m", "eudoxus.cli", *argv, "--state", str(state))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", f"error: {err}\n")
