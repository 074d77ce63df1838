"""Deterministic lazy simulator of a non-principal ultrafilter on the naturals.

Restricted to eventually periodic queries, membership can be decided greedily
while preserving the finite intersection property: the state keeps the meet
of everything committed so far, a queried set is accepted whenever its
intersection with the meet is still infinite, and rejected otherwise (in
which case the complement is committed). Soundness of the rejection branch:
if S meet the running meet is finite then, the meet being infinite, its
complement part is infinite, so the meet never collapses.

Accept-first makes the simulation deterministic and replayable; any
FIP-preserving policy realizes the restriction of some genuine non-principal
ultrafilter, and on cofinite/finite sets every such ultrafilter agrees, so
those verdicts are forced rather than chosen.

A query or containment check that must meet a set with the running meet can
be given a budget: the meet's period length, the lcm of the two periods, is
known before any bit is built, and a length over the budget raises
MeetOverBudget instead. Without a budget nothing is capped.

Replay is linear in the trace's length: one dict, in log order, collects the
decisions. A trace error names its file line; blank lines count as lines.
"""

from __future__ import annotations

import enum
from math import lcm

from . import Record, indexset
from .indexset import IndexSet


class TraceError(ValueError):
    """Malformed or inconsistent trace; carries its reason and 1-based line."""
    exit_code = 3  # the CLI's exit code: domain error

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.reason, self.line = message, line


class MeetOverBudget(Exception):
    """Meeting a set with the running meet would build a period over budget."""
    exit_code = 2  # the CLI's exit code: budget exhausted

    def __init__(self, length: int, budget: int):
        super().__init__(f"meet period would be {length} bits, over budget {budget}")


class Verdict(enum.Enum):
    ACCEPTED = "Accepted"
    REJECTED = "Rejected"


class Containment(enum.Enum):
    FORCED_IN = "ForcedIn"
    FORCED_OUT = "ForcedOut"
    UNDECIDED = "Undecided"


class FilterState(Record):
    """Decision log plus the running meet of all commitments.

    `verdicts`, not a field, is the log as a set -> verdict dict, so a
    repeated query is one lookup. `query` gives each derived state its own
    copy, so an older state keeps its own answers.
    """

    log: tuple[tuple[IndexSet, Verdict], ...]
    meet: IndexSet

    def __init__(self, log: tuple, meet: IndexSet, verdicts: dict | None = None):
        super().__init__(log, meet)
        self.__dict__["verdicts"] = dict(log) if verdicts is None else verdicts


def fresh_state() -> FilterState:
    return FilterState((), indexset.full())


def _charge(s: IndexSet, meet: IndexSet, budget: int | None) -> None:
    """Raise MeetOverBudget if meeting s with `meet` would exceed `budget` bits."""
    if budget is not None:
        length = lcm(len(s.period), len(meet.period))
        if length > budget:
            raise MeetOverBudget(length, budget)


def _decide(s: IndexSet, meet: IndexSet, budget: int | None) -> tuple[Verdict, IndexSet]:
    """Decide s accept-first against `meet`; return the verdict and the new meet."""
    _charge(s, meet, budget)
    hit = indexset.intersect(s, meet)
    if hit.is_infinite():
        return Verdict.ACCEPTED, hit
    return Verdict.REJECTED, indexset.difference(meet, s)


def query(
    state: FilterState, s: IndexSet, *, budget: int | None = None
) -> tuple[Verdict, FilterState]:
    """Decide s, committing the decision. Idempotent on repeated queries,
    which are answered from the log without meeting s again."""
    verdict = state.verdicts.get(s)
    if verdict is not None:
        return verdict, state
    verdict, meet = _decide(s, state.meet, budget)
    log = state.log + ((s, verdict),)
    return verdict, FilterState(log, meet, {**state.verdicts, s: verdict})


def contains(
    state: FilterState, s: IndexSet, *, budget: int | None = None
) -> Containment:
    """Read-only closure check against the current commitments."""
    _charge(s, state.meet, budget)
    if indexset.difference(state.meet, s).is_finite():
        return Containment.FORCED_IN
    if indexset.intersect(s, state.meet).is_finite():
        return Containment.FORCED_OUT
    return Containment.UNDECIDED


def replay(entries, *, budget: int | None = None) -> FilterState:
    """Rebuild a state from (set, verdict) pairs, checking every decision;
    `budget` caps each meet as in `query`."""
    verdicts, meet = {}, indexset.full()
    for line, (s, recorded) in enumerate(entries, start=1):
        computed = verdicts.get(s)
        if computed is None:
            computed, meet = _decide(s, meet, budget)
            verdicts[s] = computed
        if computed is not recorded:
            raise TraceError(
                f"inconsistent trace: {indexset.format_set(s)} recorded as "
                f"{recorded.value} but the policy decides {computed.value}",
                line,
            )
    return FilterState(tuple(verdicts.items()), meet, verdicts)


def _line(s: IndexSet, verdict: Verdict) -> str:
    return f"{verdict.value} {indexset.format_set(s)}\n"


def export_trace(state: FilterState) -> str:
    return "".join(_line(s, verdict) for s, verdict in state.log)


def find_verdict(text: str, s: IndexSet) -> Verdict | None:
    """The verdict that `text`, an exported trace, records for s: the one
    whose line it holds, found without a parse."""
    lines = "\n" + text
    return next((v for v in Verdict if "\n" + _line(s, v) in lines), None)


def import_trace(text: str, *, budget: int | None = None) -> FilterState:
    entries, line_nos = [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise TraceError("expected '<verdict> <set spec>'", line_no)
        word, spec = parts
        try:
            verdict = Verdict(word)
        except ValueError:
            raise TraceError(f"unknown verdict {word!r}", line_no) from None
        try:
            s = indexset.parse(spec)
        except indexset.IndexSetSyntaxError as exc:
            raise TraceError(f"bad set spec: {exc}", line_no) from None
        entries.append((s, verdict))
        line_nos.append(line_no)
    try:
        return replay(entries, budget=budget)
    except TraceError as exc:  # replay numbers the entries, not the lines
        raise TraceError(exc.reason, line_nos[exc.line - 1]) from None
