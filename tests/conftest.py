from collections import Counter

import pytest

from eudoxus import indexset, polyq, ufsim


@pytest.fixture
def pseudo_rem_calls(monkeypatch):
    """A list that gains one entry per `polyq.pseudo_rem` call, the inner
    step of the pseudo-remainder gcd loop."""
    calls = []
    real = polyq.pseudo_rem

    def counting(p, q):
        calls.append(len(p))
        return real(p, q)

    monkeypatch.setattr(polyq, "pseudo_rem", counting)
    return calls


@pytest.fixture
def divide_exact_calls(monkeypatch):
    """A list that gains, per `polyq.divide_exact` call, its divisor."""
    calls = []
    real = polyq.divide_exact

    def counting(p, d):
        calls.append(d)
        return real(p, d)

    monkeypatch.setattr(polyq, "divide_exact", counting)
    return calls


@pytest.fixture
def ultra_calls(monkeypatch):
    """A Counter of `ufsim.replay` calls ("replay") and of the set operations
    that meet a set with the running meet ("meet": `indexset.intersect` and
    `indexset.difference`)."""
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ufsim, "replay", counting("replay", ufsim.replay))
    for attr in ("intersect", "difference"):
        monkeypatch.setattr(indexset, attr, counting("meet", getattr(indexset, attr)))
    return calls
