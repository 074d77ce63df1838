"""Decidable Boolean algebra of eventually periodic subsets of the naturals.

A set is stored as a finite preperiod bit string plus a repeating period bit
string; membership of n is pre[n] for n < |pre| and period[n mod |period|]
otherwise. Phase is absolute (indexed by n itself, not by n - |pre|), which
keeps alignment of binary operations trivial. Construction always
canonicalizes, so equal sets are structurally identical. The minimal period
comes by prime-factor descent: for each prime q of the length d, the period
shrinks to its first d/q bits while it is that prefix repeated q times (one
string comparison); the periods of a cyclic word are closed under gcd, so
this reaches the least one. The minimal preperiod comes in one step: XOR the
preperiod with the period tiled at absolute phase, and the lowest set bit
marks the last bit the period does not explain.

The binary operations work on integer bitmasks, a machine word at a time in
C, not on one bit at a time. Each operand's period, tiled to the common
length L = lcm of the two periods, is read as one Python integer
(`int(bits, 2)`), and so are each operand's first p bits, where p is the
longer preperiod (past its own preperiod an operand continues with its
period at absolute phase). The two integers are joined with `&` or `|` and
formatted back to L (or p) bits with leading zeros.

Infinitude and cofiniteness are decidable by inspecting the period, which is
what makes this algebra a usable query universe for the ultrafilter
simulator.
"""

from __future__ import annotations

import operator
import re
from math import lcm

from . import Record


class IndexSetSyntaxError(ValueError):
    """Malformed set spec; carries the byte offset of the failure."""
    exit_code = 1  # the CLI's exit code: usage or parse error

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


_BITS = re.compile("[01]*")


class IndexSet(Record):
    pre: str
    period: str

    def __init__(self, pre: str, period: str):
        if not period:
            raise ValueError("period must be nonempty")
        if not (_BITS.fullmatch(pre) and _BITS.fullmatch(period)):
            raise ValueError("bits must be 0 or 1")
        super().__init__(*_canonicalize(pre, period))

    def member(self, n: int) -> bool:
        if n < 0:
            raise ValueError("indices are natural numbers")
        if n < len(self.pre):
            return self.pre[n] == "1"
        return self.period[n % len(self.period)] == "1"

    def is_infinite(self) -> bool:
        return "1" in self.period

    def is_finite(self) -> bool:
        return not self.is_infinite()

    def is_cofinite(self) -> bool:
        return "0" not in self.period

    def members_if_finite(self) -> list[int]:
        if not self.is_finite():
            raise ValueError("set is infinite")
        return [n for n, c in enumerate(self.pre) if c == "1"]

    def __str__(self) -> str:
        return format_set(self)


def _canonicalize(pre: str, period: str) -> tuple[str, str]:
    d = rest = len(period)
    q = 2
    while rest > 1:
        if q * q > rest:
            q = rest  # what is left is prime
        if rest % q:
            q += 1
            continue
        rest //= q
        if period[: d // q] * q == period:
            d //= q
            period = period[:d]
    if pre:  # the lowest bit where pre and the tiled period differ ends pre
        n = len(pre)
        diff = int(pre, 2) ^ int((period * (n // d + 1))[:n], 2)
        pre = pre[: n + 1 - (diff & -diff).bit_length()] if diff else ""
    return pre, period


def _from_bits(pre: str, period: str) -> IndexSet:
    """`IndexSet(pre, period)` for bits this module formatted or matched
    itself, so known to be 0s and 1s with a nonempty period: canonicalized,
    not checked again."""
    s = IndexSet.__new__(IndexSet)
    Record.__init__(s, *_canonicalize(pre, period))
    return s


def full() -> IndexSet:
    return IndexSet("", "1")


def empty() -> IndexSet:
    return IndexSet("", "0")


def evens() -> IndexSet:
    return IndexSet("", "10")


def odds() -> IndexSet:
    return IndexSet("", "01")


def singleton(n: int) -> IndexSet:
    if n < 0:
        raise ValueError("indices are natural numbers")
    return IndexSet("0" * n + "1", "0")


def multiples(k: int) -> IndexSet:
    if k < 1:
        raise ValueError("modulus must be positive")
    return IndexSet("", "1" + "0" * (k - 1))


def _prefix(s: IndexSet, n: int) -> int:
    """Membership of 0..n-1 in s, for n >= len(s.pre), as an integer whose
    most significant bit is index 0."""
    tiled = s.period * (n // len(s.period) + 1)
    return int(s.pre + tiled[len(s.pre) : n], 2)


def _binary(s: IndexSet, t: IndexSet, op) -> IndexSet:
    p = max(len(s.pre), len(t.pre))
    ds, dt = len(s.period), len(t.period)
    length = lcm(ds, dt)
    per = op(int(s.period * (length // ds), 2), int(t.period * (length // dt), 2))
    pre = format(op(_prefix(s, p), _prefix(t, p)), f"0{p}b") if p else ""
    return _from_bits(pre, format(per, f"0{length}b"))


def union(s: IndexSet, t: IndexSet) -> IndexSet:
    return _binary(s, t, operator.or_)


def intersect(s: IndexSet, t: IndexSet) -> IndexSet:
    return _binary(s, t, operator.and_)


def complement(s: IndexSet) -> IndexSet:
    flip = str.maketrans("01", "10")
    return _from_bits(s.pre.translate(flip), s.period.translate(flip))


def difference(s: IndexSet, t: IndexSet) -> IndexSet:
    return _binary(s, t, lambda a, b: a & ~b)  # nonnegative, since a is


class PartitionError(ValueError):
    """The classes do not form a disjoint cover of the index line."""
    exit_code = 1  # the CLI's exit code: usage or parse error


def check_partition(classes) -> None:
    """Raise PartitionError unless the sets are disjoint and cover the naturals."""
    covered = empty()
    for i, s in enumerate(classes):
        if intersect(covered, s) != empty():
            raise PartitionError(f"class {i} overlaps an earlier class")
        covered = union(covered, s)
    if covered != full():
        raise PartitionError("classes do not cover the index line")


def format_set(s: IndexSet) -> str:
    return f"pre:{s.pre};per:{s.period}"


_SPEC = re.compile(r"(pre:)?([01]*)(;per:)?([01]*)")


def parse(spec: str) -> IndexSet:
    """Parse `pre:<bits>;per:<bits>` in one match. Malformed input raises
    IndexSetSyntaxError for the first part that is missing, at its offset."""
    m = _SPEC.match(spec)
    if not m[1]:
        raise IndexSetSyntaxError("expected 'pre:'", 0)
    if not m[3]:
        raise IndexSetSyntaxError("expected ';per:'", m.end(2))
    if not m[4]:
        raise IndexSetSyntaxError("period must be nonempty", m.end(4))
    if m.end() != len(spec):
        raise IndexSetSyntaxError("trailing input after set spec", m.end())
    return _from_bits(m[2], m[4])
