import random
import subprocess
import sys
from pathlib import Path

import pytest

from eudoxus import indexset, ufsim
from eudoxus.indexset import IndexSet, evens, multiples, odds, singleton, union
from eudoxus.ufsim import (
    Containment,
    FilterState,
    MeetOverBudget,
    TraceError,
    Verdict,
    contains,
    export_trace,
    fresh_state,
    import_trace,
    query,
    replay,
)


def _session():
    state = fresh_state()
    v1, state = query(state, evens())
    v2, state = query(state, odds())
    v3, state = query(state, multiples(4))
    return (v1, v2, v3), state


def test_query_examples():
    (v1, v2, v3), state = _session()
    assert v1 is Verdict.ACCEPTED
    assert v2 is Verdict.REJECTED
    assert v3 is Verdict.ACCEPTED
    assert state.meet == multiples(4)


def test_query_is_idempotent():
    _, state = _session()
    verdict, after = query(state, evens())
    assert verdict is Verdict.ACCEPTED
    assert after == state


def test_repeated_query_is_answered_from_the_log(monkeypatch):
    rng = random.Random(71)
    state = fresh_state()
    for _ in range(200):
        _, state = query(state, _sample(rng))

    def no_meet(*_):
        raise AssertionError("a logged set was met again")

    compared = []

    def counted_eq(self, other):
        compared.append(other)
        return (self.pre, self.period) == (other.pre, other.period)

    monkeypatch.setattr(indexset, "intersect", no_meet)
    monkeypatch.setattr(IndexSet, "__eq__", counted_eq)
    for s, logged in state.log:
        compared.clear()
        verdict, after = query(state, IndexSet(s.pre, s.period), budget=1)
        assert verdict is logged and after is state
        assert len(compared) <= 1  # one lookup, not a scan of the log


def test_an_older_state_keeps_its_own_answers():
    base = fresh_state()
    _, with_evens = query(base, evens())
    _, with_odds = query(base, odds())
    assert query(with_evens, odds())[0] is Verdict.REJECTED
    assert query(with_odds, evens())[0] is Verdict.REJECTED
    assert with_evens.log == ((evens(), Verdict.ACCEPTED),)
    verdict, again = query(base, odds())
    assert verdict is Verdict.ACCEPTED and again == with_odds
    # A state built from a log alone answers from that log.
    rebuilt = FilterState(with_evens.log, with_evens.meet)
    assert query(rebuilt, evens()) == (Verdict.ACCEPTED, rebuilt)


def test_meet_budget_is_charged_before_the_meet_is_built():
    _, state = _session()  # the meet is multiples(4)
    for check in (
        lambda budget: query(state, multiples(3), budget=budget),
        lambda budget: contains(state, multiples(3), budget=budget),
    ):
        with pytest.raises(MeetOverBudget) as exc:
            check(11)
        assert str(exc.value) == "meet period would be 12 bits, over budget 11"
        check(12)
    assert query(state, multiples(3), budget=12)[1].meet == multiples(12)
    entries = list(query(state, multiples(3))[1].log)
    with pytest.raises(MeetOverBudget):
        replay(entries, budget=11)
    assert replay(entries, budget=12) == replay(entries)


def test_contains_examples():
    state = fresh_state()
    _, state = query(state, evens())
    assert contains(state, union(evens(), singleton(3))) is Containment.FORCED_IN
    assert contains(state, odds()) is Containment.FORCED_OUT
    assert contains(fresh_state(), evens()) is Containment.UNDECIDED


def test_contains_does_not_mutate():
    _, state = _session()
    before = state
    contains(state, odds())
    assert state == before


def test_replay_and_trace_round_trip():
    _, state = _session()
    text = export_trace(state)
    assert import_trace(text) == state
    for s, verdict in state.log:
        assert ufsim.find_verdict(text, s) is verdict
    # A whole line matches: multiples(2) is a prefix of multiples(4)'s line.
    assert ufsim.find_verdict(export_trace(query(fresh_state(), multiples(4))[1]), evens()) is None
    assert ufsim.find_verdict("", evens()) is None
    assert replay([]) == fresh_state()
    assert replay(list(state.log)) == state


def test_tampered_trace_rejected():
    text = "Accepted pre:;per:10\nAccepted pre:;per:01\n"
    with pytest.raises(TraceError) as exc:
        import_trace(text)
    assert exc.value.line == 2


def test_malformed_trace_diagnostics():
    with pytest.raises(TraceError) as exc:
        import_trace("Accepted\n")
    assert exc.value.line == 1
    with pytest.raises(TraceError) as exc:
        import_trace("Accepted pre:;per:10\nMaybe pre:;per:01\n")
    assert exc.value.line == 2
    with pytest.raises(TraceError) as exc:
        import_trace("Accepted pre:;per:\n")
    assert exc.value.line == 1


def test_trace_errors_name_the_file_line():
    # Blank lines are skipped but counted, for an inconsistent entry as for
    # a parse error.
    with pytest.raises(TraceError) as exc:
        import_trace("Accepted pre:;per:10\n\n\nAccepted pre:;per:01\n")
    assert exc.value.line == 4 and str(exc.value).endswith("(line 4)")
    with pytest.raises(TraceError) as exc:
        import_trace("Accepted pre:;per:10\n\n\nAccepted pre:;per:\n")
    assert exc.value.line == 4


def test_replay_is_linear_in_the_trace_length():
    # 32,000 distinct cofinite sets: the meet keeps period 1, so each entry
    # is cheap and only per-entry copies of the log could make the import
    # slow; a child process lets the timeout fail the test.
    code = (
        "from eudoxus.ufsim import import_trace\n"
        "text = ''.join(f'Accepted pre:1{i:016b};per:1\\n' for i in range(32000))\n"
        "print(len(import_trace(text).log))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        encoding="utf-8",
        timeout=5,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["32000"]


def _sample(rng: random.Random) -> IndexSet:
    pre = "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
    per = "".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
    return IndexSet(pre, per)


def test_fip_and_forced_verdicts_over_random_queries():
    rng = random.Random(66)
    state = fresh_state()
    for _ in range(2000):
        s = _sample(rng)
        verdict, state = query(state, s)
        assert state.meet.is_infinite()
        if s.is_cofinite():
            assert verdict is Verdict.ACCEPTED
        if s.is_finite():
            assert verdict is Verdict.REJECTED


def test_ultra_property_on_queried_sets():
    rng = random.Random(67)
    state = fresh_state()
    queried = []
    for _ in range(200):
        s = _sample(rng)
        _, state = query(state, s)
        queried.append(s)
    for s in queried:
        inside = contains(state, s) is Containment.FORCED_IN
        outside = contains(state, indexset.complement(s)) is Containment.FORCED_IN
        assert inside != outside


def test_monotone_consistency():
    rng = random.Random(68)
    state = fresh_state()
    _, state = query(state, evens())
    assert contains(state, evens()) is Containment.FORCED_IN
    for _ in range(300):
        _, state = query(state, _sample(rng))
        assert contains(state, evens()) is Containment.FORCED_IN


def test_non_principality():
    rng = random.Random(69)
    state = fresh_state()
    for _ in range(50):
        _, state = query(state, _sample(rng))
    for n in (0, 1, 17, 100):
        verdict, state = query(state, singleton(n))
        assert verdict is Verdict.REJECTED


def test_replay_reproduces_state_deterministically():
    rng = random.Random(70)
    state = fresh_state()
    for _ in range(500):
        _, state = query(state, _sample(rng))
    assert replay([entry for entry in state.log]) == state
    assert export_trace(import_trace(export_trace(state))) == export_trace(state)
