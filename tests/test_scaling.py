"""Scaling guards: the work a germ power does must not grow with its degree.

Each guard counts `polyq.pseudo_rem` calls through the `pseudo_rem_calls`
fixture (conftest.py, a wrapper put on in the test) while the CLI answers
the same request at n = 100, 200 and 400. Coprime normal forms are settled
by one evaluation gcd, so the count stays flat; a gcd that runs the
Euclidean loop on them takes a step per degree, and its count grows with n.
"""

import pytest

from eudoxus.cli import main


@pytest.mark.parametrize(
    "argv",
    [["derive", "x^{n}", "--at", "1"], ["hyper", "eval", "(1+dx)^{n}"]],
    ids=["derive x^n", "hyper eval (1+dx)^n"],
)
def test_germ_power_gcd_work_is_flat_in_the_degree(argv, pseudo_rem_calls, capsys):
    counts = {}
    for n in (100, 200, 400):
        del pseudo_rem_calls[:]
        assert main([word.format(n=n) for word in argv]) == 0
        counts[n] = len(pseudo_rem_calls)
    capsys.readouterr()
    assert counts[400] <= 1.25 * counts[100] + 4, counts
