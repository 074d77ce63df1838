"""Scaling guards: work that must not grow with the size of a request.

The germ guards count `polyq.pseudo_rem` calls through the `pseudo_rem_calls`
fixture (conftest.py, a wrapper put on in the test) while the CLI answers
the same request at n = 100, 200 and 400. Coprime normal forms are settled
by one evaluation gcd, so the count stays flat; a gcd that runs the
Euclidean loop on them takes a step per degree, and its count grows with n.

The small-germ guard counts `polyq.divide_exact` calls (the
`divide_exact_calls` fixture, conftest.py) while 2,000 seeded coprime pairs
of the shape hyper.compare meets most, one to five coefficients in -9..9,
are reduced. Each pair's value gcd h at GCDHEU's point xi lies in [2, xi/2),
which the root bound alone proves coprime, so no candidate is read back and
confirmed by division.

The index-power guard answers `hyper eval "(1+dx)^n/(2+dx)^n"` at n = 250,
500 and 1000, whose normal form divides out i^n: a pure power of the index
is dropped as a slice of the coefficients, so no `divide_exact` call has
such a divisor.

The window guards count leaf evaluations while `equals_within` checks the
same pair at windows 1,000 and 16,000: a pair whose exact slope decides the
check, the distributivity of sqrt(2) over -3/7 + sqrt(3) among them,
evaluates nothing at either size. A pair with no exact slope, a reciprocal
of -3/7 + sqrt(3) against its conjugate form, is read at n = 0..W for W =
1,000, 2,000 and 4,000: exactly W + 1 points per leaf, since a sound
certificate bounds the negative half already.

The product-chain guards build y = y*sqrt(3) + 1/7 from sqrt(2) + sqrt(3),
whose slope no node carries. Building it at n = 200, 400 and 800 steps
makes `eval` calls linear in n, since the known factor goes outside and its
bound reads sqrt(3) at +-C of the chain. The slope reader's `linear_form`
calls are the same at 100, 200 and 400 steps, as it stops at a Compose over
SHALLOW deep, and grow by a few per doubling of k on (sqrt(7) - sqrt(2))^k,
a DAG of shared halves whose nodes it reads once each. At 10,000 steps the
checks answer from a stack of bounded depth.

The slope guard records the size of every `ahom.isqrt` argument while
powers of sqrt(2) up to 2^524288 are built and summed: a rational slope is
its own line, so no coefficient is squared under `isqrt` at any size. All
sizes take milliseconds; one isqrt of the squared 2^524288 alone takes about
half a second, which the time bound catches wherever the root is taken.

The cancellation guard reads x - x + 1 and x + 1 - x to ten digits,
x = sqrt(2)^(2^j + 1) built twice apart, for j up to 18: the leaf of x has a
radicand of 2^j + 1 bits, yet no root of it is taken and the two terms that
cancel are never evaluated, so the same one leaf is evaluated at every size.

The DAG guard builds y = Sum(y, y) n times from one leaf, twice apart, for n
up to 400: each tree has n + 1 nodes and 2^n paths. It counts the rule-field
lookups of `==` between the two (a counting `ahom._RULE_FIELDS`) and the
nodes `linear_form` pushes on its heap, and either count must follow the
nodes, not the paths; a count that runs away stops the test instead of
walking 2^n paths.

The trace guard counts `ufsim.replay` calls and set meets (the
`ultra_calls` fixture, conftest.py) per `ultra` request on traces of 4,000,
8,000 and 16,000 entries: the first query has no checkpoint and replays the
trace once, and every later request reads the checkpoint it wrote, so it
replays nothing and meets the new set with the meet alone. With the
checkpoint deleted, a `contains` replays the trace once and writes the
checkpoint again, and the `trace` that follows replays nothing.

The power guard builds (sqrt(7) - sqrt(2))^k by `cli._real_power` at k =
128, 256 and 512, from a fresh base each time. Each squaring reuses one
half, so the result has a node per squaring step, and building it costs
work linear in k; a square of two halves built apart has about k nodes, so
its node count doubles with k where the guard allows two more nodes.
"""

import random
import time
from collections import Counter
from math import gcd
from pathlib import Path

import pytest

from eudoxus import ahom, polyq
from eudoxus.ahom import Compose, FloorLinear, FloorSqrt, Neg, Sum
from eudoxus.cli import _real_power, main
from eudoxus.reals import certified_equal, from_rational, from_sqrt_int


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


def _small_coprime_pairs(count):
    """Pairs of primitive polynomials of degree 1 to 4, coefficients in
    -9..9, whose value gcd at xi = 2*min(max norm) + 29 is in [2, xi/2)."""
    rng = random.Random(35)
    while count:
        a, b = (
            polyq.primitive(polyq.trim(rng.randint(-9, 9) for _ in range(rng.randint(2, 5))))
            for _ in range(2)
        )
        if polyq.degree(a) < 1 or polyq.degree(b) < 1:
            continue
        xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
        h = gcd(*(sum(c * xi**k for k, c in enumerate(f)) for f in (a, b)))
        if 2 <= h and 2 * h < xi:
            count -= 1
            yield a, b


def test_small_germs_with_a_small_value_gcd_need_no_division(divide_exact_calls):
    for a, b in _small_coprime_pairs(2000):
        assert polyq.gcd(a, b) == (1,), (a, b)
        num, den = polyq.normalize_ratfun(a, b)
        assert polyq.mul(num, b) == polyq.mul(den, a), (a, b)
    assert len(divide_exact_calls) == 0


def test_a_common_index_power_is_sliced_off(divide_exact_calls, capsys):
    def is_index_power(d):
        return len(d) > 1 and not any(d[:-1])

    for n in (250, 500, 1000):
        del divide_exact_calls[:]
        assert main(["hyper", "eval", f"(1+dx)^{n}/(2+dx)^{n}"]) == 0
        capsys.readouterr()
        assert [len(d) - 1 for d in divide_exact_calls if is_index_power(d)] == [], n


@pytest.fixture
def leaf_evaluations(monkeypatch):
    """A list that gains, per leaf `_raw` call, a 1, and per `ahom.eval_range`
    call, the number of arguments times the leaves of the form it evaluates."""
    counts = []
    eval_range = ahom.eval_range

    def counting_range(f, args):
        args = list(args)
        leaves = sum(type(g) in (FloorLinear, FloorSqrt) for g in ahom.linear_form(f))
        counts.append(len(args) * leaves)
        return eval_range(f, args)

    monkeypatch.setattr(ahom, "eval_range", counting_range)
    for leaf in (FloorLinear, FloorSqrt):
        raw = leaf._raw
        monkeypatch.setattr(leaf, "_raw", lambda self, a, raw=raw: counts.append(1) or raw(self, a))
    return counts


def _field_law_pairs():
    """Pairs whose difference has an exact slope, read from the terms of
    its linear form: zero where the law holds, also across unlike radicals,
    and 1 for the shift; and one pair whose slope no form reads, the
    reciprocal 1/(-3/7 + sqrt(3)) against (49/138)*(sqrt(3) + 3/7)."""
    x, y, z, w = from_sqrt_int(2), from_rational(-3, 7), from_sqrt_int(8), from_sqrt_int(3)
    decided = [
        (x.add(y).add(z), x.add(y.add(z))),
        (x.mul(z), z.mul(x)),
        (z.mul(x.add(z)), z.mul(x).add(z.mul(z))),
        (x.mul(y.add(w)), x.mul(y).add(x.mul(w))),
        (x.add(y), x.add(y).add(from_rational(1, 1))),
    ]
    return decided, (y.add(w).recip(1 << 20), w.sub(y).mul(from_rational(49, 138)))


def test_a_decided_window_check_does_not_grow_with_the_window(leaf_evaluations):
    def work(f, g, window):
        del leaf_evaluations[:]
        f.equals_within(g, window)
        return sum(leaf_evaluations)

    decided, undecided = _field_law_pairs()
    for f, g in decided:
        assert work(f, g, 1000) == work(f, g, 16000), (str(f.rep), str(g.rep))
    # The count sees a window that is evaluated.
    assert work(*undecided, 16000) >= 15 * work(*undecided, 1000) > 0


def _leaves(f):
    """The leaves `eval_range` reads per argument of f: each leaf atom of its
    linear form once, and a Compose atom through its outer and inner maps.
    Any other atom is read through its memo, which the caller fills."""
    forms = ahom.linear_form(f)
    return sum(
        _leaves(g.outer) + _leaves(g.inner) if isinstance(g, Compose) else type(g) in (FloorLinear, FloorSqrt)
        for g in forms
    )


def test_an_undecided_window_check_reads_the_nonnegative_half(leaf_evaluations):
    _, (f, g) = _field_law_pairs()
    leaves = _leaves(Sum(f.rep, Neg(g.rep)))
    # The reciprocal's search is not what is counted: its values at n >= 0
    # are memoized first, so a read of n < 0 would show as leaf evaluations.
    [f.rep.eval(n) for n in range(4001)]
    work = []
    start = time.perf_counter()
    for window in (1000, 2000, 4000):
        del leaf_evaluations[:]
        assert f.equals_within(g, window) is True
        work.append(sum(leaf_evaluations))
        assert work[-1] == (window + 1) * leaves, (window, work[-1], leaves)
    assert time.perf_counter() - start < 0.5
    for small, big in zip(work, work[1:]):
        assert 0 < big <= 2.5 * small, work


def _product_chain(n, factor=from_sqrt_int(3)):
    """y = y*factor + 1/7, n times from sqrt(2) + sqrt(3). A factor below 1,
    sqrt(3)/2, keeps every bound near 50, so a shift by 1/7 is refuted in a
    window of 1,000; sqrt(3) multiplies the bounds at each step."""
    y = from_sqrt_int(2).add(from_sqrt_int(3))
    for _ in range(n):
        y = y.mul(factor).add(from_rational(1, 7))
    return y


_SHRINKING = from_sqrt_int(3).mul(from_rational(1, 2))


def test_a_product_chain_builds_in_linear_work(monkeypatch):
    evals = []
    eval_ = ahom.AlmostHom.eval
    monkeypatch.setattr(ahom.AlmostHom, "eval", lambda self, a: evals.append(1) or eval_(self, a))
    work = []
    start = time.perf_counter()
    for n in (200, 400, 800):
        del evals[:]
        _product_chain(n)
        work.append(len(evals))
    assert time.perf_counter() - start < 0.5
    for small, big in zip(work, work[1:]):  # 716, 1,116 and 1,916 today
        assert 0 < big <= 2.5 * small, work


def _exact_power(k):
    """(sqrt(7) - sqrt(2))^k for even k as a + b*sqrt(14), from (9 - 2*sqrt(14))^(k/2)."""
    a, b = 1, 0
    for _ in range(k // 2):
        a, b = 9 * a - 28 * b, 9 * b - 2 * a
    return from_rational(a, 1).add(from_sqrt_int(14).mul(from_rational(b, 1)))


def test_the_slope_reader_reads_each_product_node_once(monkeypatch):
    calls = []
    linear_form = ahom.linear_form
    monkeypatch.setattr(ahom, "linear_form", lambda f: calls.append(1) or linear_form(f))

    def reads(check, *args):
        del calls[:]
        verdict = check(*args)
        return verdict, len(calls)

    chain = []
    for n in (100, 200, 400):
        y, twin = _product_chain(n, _SHRINKING), _product_chain(n, _SHRINKING)
        shifted, times_one = twin.add(from_rational(1, 7)), y.mul(from_sqrt_int(1))
        chain.append(
            [reads(certified_equal, y, other) for other in (twin, shifted, times_one)]
            + [reads(y.equals_within, other, 1000) for other in (twin, shifted)]
        )
    assert chain[0] == chain[1] == chain[2], chain
    assert [verdict for verdict, _ in chain[0]] == [True, False, None, True, False]
    power = []
    for k in (128, 256, 512):
        x, exact = _real_power(from_sqrt_int(7) - from_sqrt_int(2), k), _exact_power(k)
        power.append(
            [reads(certified_equal, x, exact), reads(certified_equal, x, exact.add(from_rational(1, 1)))]
        )
        assert [verdict for verdict, _ in power[-1]] == [True, False], k
    for small, big in zip(power, power[1:]):  # 15, 17 and 19 calls today
        assert all(b <= s + 4 for (_, s), (_, b) in zip(small, big)), power


def test_a_10000_step_product_chain_answers_from_a_bounded_stack():
    y, twin = _product_chain(10_000, _SHRINKING), _product_chain(10_000, _SHRINKING)
    assert y.rep.depth == 20_001
    assert certified_equal(y, twin) is True and y.equals_within(twin, 1000) is True
    shifted = twin.add(from_rational(1, 7))
    assert certified_equal(y, shifted) is False and y.equals_within(shifted, 1000) is False
    # A deep Compose that no term cancels stops the slope reader, and the
    # window is evaluated from a stack.
    other = y.mul(from_sqrt_int(1))
    assert ahom.form_terms(ahom.linear_form(Sum(y.rep, Neg(other.rep)))) is None
    assert y.equals_within(other, 2) is True


def test_a_slope_coefficient_is_never_squared_under_isqrt(monkeypatch):
    bits = []
    isqrt = ahom.isqrt
    monkeypatch.setattr(ahom, "isqrt", lambda n: bits.append(n.bit_length()) or isqrt(n))
    start = time.perf_counter()
    for j in (10, 15, 20):
        x = from_sqrt_int(2)
        for _ in range(j):
            x = x.mul(x)  # sqrt(2)^(2^j), a rational slope from j = 1 on
        x.add(from_sqrt_int(8)), x.add(x), x.sub(x)
        assert bits and max(bits) <= 64, (j, max(bits))
    assert time.perf_counter() - start < 0.1


def test_terms_that_cancel_are_neither_rooted_nor_evaluated(monkeypatch, leaf_evaluations):
    bits = []
    isqrt = ahom.isqrt
    monkeypatch.setattr(ahom, "isqrt", lambda n: bits.append(n.bit_length()) or isqrt(n))

    def odd_power(j):
        x = from_sqrt_int(2)
        for _ in range(j):
            x = x.mul(x)
        return x.mul(from_sqrt_int(2))  # sqrt(2)^(2^j + 1), an irrational slope

    orders = (
        lambda x, twin, one: x.sub(twin).add(one),
        # x + 1 meets unlike radicals: a residue that no square has rejects
        # the product of the radicands before its root is taken.
        lambda x, twin, one: x.add(one).sub(twin),
    )
    for order in orders:
        counts = []
        start = time.perf_counter()
        for j in (10, 14, 18):
            del leaf_evaluations[:]
            x, twin = odd_power(j), odd_power(j)
            assert order(x, twin, from_rational(1, 1)).to_decimal(10) == "1.0000000000"
            assert bits and max(bits) <= 64, (j, max(bits))
            counts.append(sum(leaf_evaluations))
        assert counts == [1, 1, 1]  # the line 1 alone
        assert time.perf_counter() - start < 0.5


def test_a_sum_dag_costs_its_nodes_not_its_paths(monkeypatch):
    counts, cap = Counter(), 10_000  # n + 1 at n = 400 is far below the cap

    def tick(name):
        counts[name] += 1
        if counts[name] > cap:
            raise AssertionError(f"over {cap} {name}")

    class CountingFields(dict):
        def __getitem__(self, cls):
            tick("field lookups")
            return super().__getitem__(cls)

    heappush = ahom.heappush
    monkeypatch.setattr(ahom, "_RULE_FIELDS", CountingFields(ahom._RULE_FIELDS))
    monkeypatch.setattr(ahom, "heappush", lambda heap, item: tick("pushes") or heappush(heap, item))

    def doubled(n):
        y = FloorSqrt(2)
        for _ in range(n):
            y = Sum(y, y)
        return y

    work = []
    start = time.perf_counter()
    for n in (100, 200, 400):
        x, twin = doubled(n), doubled(n)
        counts.clear()
        assert x == twin
        assert [c for _, c in ahom.linear_form(x).values()] == [2**n]
        work.append((counts["field lookups"], counts["pushes"]))
    assert time.perf_counter() - start < 0.5
    for small, big in zip(work, work[1:]):  # n + 1 lookups and n pushes today
        assert 0 < big[0] <= 2.5 * small[0] and 0 < big[1] <= 2.5 * small[1], work


def test_a_checkpointed_trace_is_not_replayed_at_any_length(tmp_path, capsys, ultra_calls):
    state = tmp_path / "ultra.trace"
    requests = {  # on the cofinite sets below, each a hit meets at most once
        "new query": ["query", "pre:00;per:1"],
        "repeated query": ["query", "pre:00;per:1"],
        "contains": ["contains", "pre:0;per:1"],
        "trace": ["trace"],
    }
    for n in (4000, 8000, 16000):
        # Distinct cofinite sets, all accepted: the meet keeps period 1.
        state.write_text("".join(f"Accepted pre:1{i:016b};per:1\n" for i in range(n)), "utf-8")
        Path(f"{state}.meet").unlink(missing_ok=True)
        ultra_calls.clear()
        assert main(["ultra", "query", "pre:0;per:1", "--state", str(state)]) == 0
        assert ultra_calls["replay"] == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ultra.trace",
            "ultra.trace.lock",
            "ultra.trace.meet",
        ]
        for name, argv in requests.items():
            inode = state.stat().st_ino
            ultra_calls.clear()
            assert main(["ultra", *argv, "--state", str(state)]) == 0
            assert ultra_calls["replay"] == 0 and ultra_calls["meet"] <= 1, (n, name)
            # Only a new set replaces the state file.
            assert (state.stat().st_ino == inode) == (name != "new query"), (n, name)
        assert len(capsys.readouterr().out.splitlines()) == 4 + n + 2
        # A read that misses the checkpoint replays once and writes it, and
        # the next read replays nothing; neither writes the state file.
        Path(f"{state}.meet").unlink()
        inode = state.stat().st_ino
        for replays, argv in ((1, requests["contains"]), (0, requests["trace"])):
            ultra_calls.clear()
            assert main(["ultra", *argv, "--state", str(state)]) == 0
            assert ultra_calls["replay"] == replays, (n, argv)
            assert state.stat().st_ino == inode and Path(f"{state}.meet").exists()
        assert len(capsys.readouterr().out.splitlines()) == 1 + n + 2


def test_a_power_shares_its_halves(monkeypatch):
    evals = []
    eval_ = ahom.AlmostHom.eval
    monkeypatch.setattr(ahom.AlmostHom, "eval", lambda self, a: evals.append(1) or eval_(self, a))

    def distinct_nodes(root):
        seen, stack = set(), [root]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                fields = ahom._RULE_FIELDS[type(node)]
                stack.extend(getattr(node, name) for name, scalar in fields if not scalar)
        return len(seen)

    work = []
    start = time.perf_counter()
    for k in (128, 256, 512):
        base = from_sqrt_int(7) - from_sqrt_int(2)
        del evals[:]
        power = _real_power(base, k)
        work.append((distinct_nodes(power.rep), len(evals)))
    assert time.perf_counter() - start < 0.5
    for small, big in zip(work, work[1:]):  # 11, 12 and 13 nodes today
        assert big[0] <= small[0] + 2 and 0 < big[1] <= 2.5 * small[1], work
