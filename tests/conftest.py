import pytest

from eudoxus import polyq


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
