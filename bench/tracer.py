"""Span tracing around the public functions of each eudoxus module.

`install` replaces module attributes and class methods with wrappers that
record spans; nothing in `src/` changes. A wrapper belongs to a group (for
example `ahom.eval`); a call made while a span of its own group is open is
only counted, so recursive functions yield one span per outermost call and
their time is never counted twice. A span has a name (the group, or a label
such as `reals.to_decimal.p30`), start, end, parent span and request id.
Self time, a span's duration minus the time its child spans cover, is
accumulated on a stack as spans close. Spans are kept in memory (up to
`SPAN_CAP`) and written out by `write_spans` when the run ends.

Where `cli` binds a name at import (`typecheck`, `derivative_at`,
`verify_bound`), the wrapper is installed at that binding as well.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from functools import cached_property
from time import perf_counter

SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.request = 0
        self.stack: list[list] = []  # [span id, start, child time]
        self.open = defaultdict(int)  # group -> open spans of that group
        self.calls = defaultdict(int)  # group -> every call, nested ones too
        self.incl = defaultdict(float)  # name -> summed span durations
        self.self_time = defaultdict(float)  # name -> summed self times
        self.gauges = defaultdict(list)  # name -> observed values
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self._restore: list[tuple] = []

    def wrap(self, fn, group, label=None, observe=None):
        """Wrapper recording `fn` under `group`.

        `label(*args)` names the span when given; `observe(tracer, result,
        *args)` records gauges after a successful outermost call.
        """
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[group] += 1
            if tracer.open[group]:
                return fn(*args, **kwargs)
            name = label(*args) if label else group
            tracer._next_id += 1
            span_id = tracer._next_id
            parent = tracer.stack[-1][0] if tracer.stack else 0
            frame = [span_id, perf_counter(), 0.0]
            tracer.stack.append(frame)
            tracer.open[group] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.open[group] -= 1
                tracer.stack.pop()
                duration = end - frame[1]
                tracer.incl[name] += duration
                tracer.self_time[name] += duration - frame[2]
                if tracer.stack:
                    tracer.stack[-1][2] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (span_id, parent, tracer.request, name, frame[1], end)
                    )
                else:
                    tracer.dropped += 1
            if observe is not None:
                observe(tracer, result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, group, label=None, observe=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        if isinstance(original, cached_property):
            wrapped = cached_property(self.wrap(original.func, group, label, observe))
            wrapped.__set_name__(owner, attr)
        else:
            wrapped = self.wrap(original, group, label, observe)
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_spans(self, path: str, origin: float):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                row = [span_id, parent, request, name, round((start - origin) * 1e6), round((end - origin) * 1e6)]
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")


# -- what each module exposes -------------------------------------------------------

_COMMANDS = {
    "cmd_digits": "digits",
    "cmd_hyper_eval": "hyper_eval",
    "cmd_derive": "derive",
    "cmd_lup_check": "lup_check",
    "cmd_ultra_query": "ultra_query",
    "cmd_ultra_contains": "ultra_contains",
    "cmd_ultra_trace": "ultra_trace",
}

_RULE_CHILDREN = ("left", "right", "inner", "outer")


def _rule_nodes(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(c for c in (getattr(node, a, None) for a in _RULE_CHILDREN) if c is not None)


def _invert_depth(root, invert_cls) -> int:
    """Invert nodes on the longest path down from `root`."""
    best: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, kids_done = stack.pop()
        if id(node) in best:
            continue
        kids = [k for k in (getattr(node, a, None) for a in _RULE_CHILDREN) if k is not None]
        if kids_done:
            below = max((best[id(k)] for k in kids), default=0)
            best[id(node)] = below + isinstance(node, invert_cls)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids)
    return best[id(root)]


def _decimal_digits(n: int) -> int:
    """Decimal digits of n > 0, from its bit length (exact to within one)."""
    return int(n.bit_length() * 0.30102999566398) + 1


def _ast_nodes(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        count += 1
        for attr in ("left", "right", "inner", "base"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)
    return count


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of all ten modules."""
    from eudoxus import ahom, calculus, cli, expr, hyper, indexset, lup, polyq, reals, ufsim

    p = tracer.patch

    # cli: the entry point and each command handler (looked up at parse time).
    p(cli, "main", "cli.main")
    for attr, command in _COMMANDS.items():
        p(cli, attr, "cli.cmd", label=lambda *a, c=command: f"cli.cmd.{c}")

    # expr
    def parsed(t, tree, *_):
        t.gauges["expr.ast_nodes"].append(_ast_nodes(tree))

    p(expr, "parse", "expr.parse", observe=parsed)
    p(expr, "typecheck", "expr.typecheck")
    p(cli, "typecheck", "expr.typecheck")

    # ahom
    p(ahom.AlmostHom, "eval", "ahom.eval")
    p(
        ahom.Invert,
        "_raw",
        "ahom.invert",
        label=lambda node, *_: f"ahom.invert.depth{min(3, _invert_depth(node, ahom.Invert))}",
    )
    p(ahom.Compose, "bound", "ahom.compose_bound")
    p(ahom, "eval_range", "ahom.eval_range")
    p(ahom, "verify_bound", "ahom.verify_bound")
    p(cli, "verify_bound", "ahom.verify_bound")

    # reals
    def rendered(t, _result, real, digits):
        bound = real.rep.bound
        t.gauges["ahom.cert_bound_digits"].append(_decimal_digits(bound))
        t.gauges["reals.eval_index_digits"].append(_decimal_digits(2 * bound) + digits + 2)
        t.gauges["ahom.memo_entries"].append(
            sum(len(n.__dict__.get("_memo", ())) for n in _rule_nodes(real.rep))
        )

    p(reals.EudoxusReal, "to_decimal", "reals.to_decimal", label=lambda _s, d: f"reals.to_decimal.p{d}", observe=rendered)
    p(reals.EudoxusReal, "recip", "reals.recip")
    p(reals.EudoxusReal, "sign_budget", "reals.sign_budget")
    p(reals.EudoxusReal, "equals_within", "reals.equals_within")

    # polyq
    p(polyq, "normalize_ratfun", "polyq.normalize")
    p(polyq, "gcd", "polyq.gcd")
    p(polyq, "mul", "polyq.mul")

    # hyper
    for attr in ("add", "sub", "mul", "div", "pow_"):
        p(hyper, attr, "hyper.arith")
    p(hyper, "classify", "hyper.classify")
    p(hyper, "compare", "hyper.compare")

    # calculus
    def degree_bin(f, *_):
        degree = max(len(f.num), len(f.den)) - 1
        return "calculus.derivative_at.deg" + ("0_4" if degree <= 4 else "5_8" if degree <= 8 else "9_up")

    p(calculus, "derivative_at", "calculus.derivative_at", label=degree_bin)
    p(cli, "derivative_at", "calculus.derivative_at", label=degree_bin)
    p(calculus, "extend", "calculus.extend")

    # lup
    p(lup.Partition, "__post_init__", "lup.partition")
    p(lup, "is_admissible", "lup.is_admissible")

    # indexset
    def combined(t, result, *_):
        t.gauges["indexset.period_len"].append(len(result.period))

    for attr in ("union", "intersect", "complement", "difference"):
        p(indexset, attr, "indexset.op", observe=combined)
    p(indexset, "parse", "indexset.parse")

    # ufsim
    def queried(t, result, state, _s):
        # A query inside `replay` re-derives a logged decision; only the
        # others can commit a new one.
        if not t.open["ufsim.replay"]:
            t.gauges["ufsim.committed"].append(len(result[1].log) - len(state.log))
        t.gauges["ufsim.meet_period_len"].append(len(result[1].meet.period))

    def replayed(t, state, *_):
        t.gauges["ufsim.trace_entries"].append(len(state.log))

    p(ufsim, "import_trace", "ufsim.import")
    p(ufsim, "replay", "ufsim.replay", observe=replayed)
    p(ufsim, "export_trace", "ufsim.export")
    p(ufsim, "contains", "ufsim.contains")
    p(ufsim, "query", "ufsim.query", observe=queried)


# -- per-layer metrics --------------------------------------------------------------

# name -> (unit, better); the order is the report order.
PER_LAYER = {
    "cli.self_ms": ("ms/req", "lower"),
    **{f"cli.cmd_ms.{c}": ("ms/req", "lower") for c in _COMMANDS.values()},
    "cli.ultra_io_ms": ("ms/req", "lower"),
    "expr.parse_ms": ("ms/req", "lower"),
    "expr.typecheck_ms": ("ms/req", "lower"),
    "expr.ast_nodes": ("nodes", "lower"),
    "ahom.eval_calls": ("calls/req", "lower"),
    "ahom.eval_ms": ("ms/req", "lower"),
    **{f"ahom.invert_eval_ms.depth{d}": ("ms/req", "lower") for d in (1, 2, 3)},
    "ahom.compose_bound_ms": ("ms/req", "lower"),
    "ahom.memo_entries": ("entries", "lower"),
    "ahom.cert_bound_digits.median": ("digits", "lower"),
    "ahom.cert_bound_digits.max": ("digits", "lower"),
    "ahom.eval_range_ms": ("ms/req", "lower"),
    "ahom.verify_bound_ms": ("ms/req", "lower"),
    **{f"reals.to_decimal_ms.p{p}": ("ms/req", "lower") for p in (10, 30, 100, 300)},
    "reals.eval_index_digits": ("digits", "lower"),
    "reals.recip_ms": ("ms/req", "lower"),
    "reals.sign_budget_ms": ("ms/req", "lower"),
    "reals.sign_budget_calls": ("calls/req", "lower"),
    "reals.equals_within_ms": ("ms/req", "lower"),
    "polyq.normalize_calls": ("calls/req", "lower"),
    "polyq.normalize_ms": ("ms/req", "lower"),
    "polyq.gcd_ms": ("ms/req", "lower"),
    "polyq.mul_ms": ("ms/req", "lower"),
    "hyper.arith_ms": ("ms/req", "lower"),
    "hyper.classify_ms": ("ms/req", "lower"),
    "hyper.compare_calls": ("calls/req", "lower"),
    "hyper.compare_ms": ("ms/req", "lower"),
    **{f"calculus.derivative_at_ms.deg{b}": ("ms/req", "lower") for b in ("0_4", "5_8", "9_up")},
    "calculus.extend_ms": ("ms/req", "lower"),
    "lup.partition_ms": ("ms/req", "lower"),
    "lup.is_admissible_ms": ("ms/req", "lower"),
    "indexset.op_calls": ("calls/req", "lower"),
    "indexset.op_ms": ("ms/req", "lower"),
    "indexset.parse_ms": ("ms/req", "lower"),
    "indexset.max_period_len": ("bits", "lower"),
    "ufsim.import_ms": ("ms/req", "lower"),
    "ufsim.replay_ms": ("ms/req", "lower"),
    "ufsim.export_ms": ("ms/req", "lower"),
    "ufsim.contains_ms": ("ms/req", "lower"),
    "ufsim.query_calls": ("calls/req", "lower"),
    "ufsim.trace_entries": ("entries", "lower"),
    "ufsim.meet_period_len": ("bits", "lower"),
    "ufsim.useful_query_ratio": ("share", "higher"),
    "trace.overhead_share": ("share", "lower"),
}


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def per_layer(t: Tracer, requests: int, overhead: float, scale: float = 1.0) -> dict:
    """Per-layer metrics of a traced phase: times and calls per request,
    gauges as means, medians or maxima over their observations. Times are
    multiplied by `scale`, the run's speed scale (see run.Speed)."""
    per_req = scale * 1000 / requests
    ms = lambda name: t.incl.get(name, 0.0) * per_req  # noqa: E731
    calls = lambda group: t.calls.get(group, 0) / requests  # noqa: E731
    g = t.gauges
    cert = g["ahom.cert_bound_digits"]
    queries = t.calls.get("ufsim.query", 0)
    out = {
        "cli.self_ms": t.self_time.get("cli.main", 0.0) * per_req,
        **{f"cli.cmd_ms.{c}": ms(f"cli.cmd.{c}") for c in _COMMANDS.values()},
        "cli.ultra_io_ms": per_req
        * sum(t.self_time.get(f"cli.cmd.{c}", 0.0) for c in _COMMANDS.values() if c.startswith("ultra")),
        "expr.parse_ms": ms("expr.parse"),
        "expr.typecheck_ms": ms("expr.typecheck"),
        "expr.ast_nodes": _mean(g["expr.ast_nodes"]),
        "ahom.eval_calls": calls("ahom.eval"),
        "ahom.eval_ms": ms("ahom.eval"),
        **{f"ahom.invert_eval_ms.depth{d}": ms(f"ahom.invert.depth{d}") for d in (1, 2, 3)},
        "ahom.compose_bound_ms": ms("ahom.compose_bound"),
        "ahom.memo_entries": _mean(g["ahom.memo_entries"]),
        "ahom.cert_bound_digits.median": statistics.median(cert) if cert else 0,
        "ahom.cert_bound_digits.max": max(cert, default=0),
        "ahom.eval_range_ms": ms("ahom.eval_range"),
        "ahom.verify_bound_ms": ms("ahom.verify_bound"),
        **{f"reals.to_decimal_ms.p{p}": ms(f"reals.to_decimal.p{p}") for p in (10, 30, 100, 300)},
        "reals.eval_index_digits": statistics.median(g["reals.eval_index_digits"])
        if g["reals.eval_index_digits"]
        else 0,
        "reals.recip_ms": ms("reals.recip"),
        "reals.sign_budget_ms": ms("reals.sign_budget"),
        "reals.sign_budget_calls": calls("reals.sign_budget"),
        "reals.equals_within_ms": ms("reals.equals_within"),
        "polyq.normalize_calls": calls("polyq.normalize"),
        "polyq.normalize_ms": ms("polyq.normalize"),
        "polyq.gcd_ms": ms("polyq.gcd"),
        "polyq.mul_ms": ms("polyq.mul"),
        "hyper.arith_ms": ms("hyper.arith"),
        "hyper.classify_ms": ms("hyper.classify"),
        "hyper.compare_calls": calls("hyper.compare"),
        "hyper.compare_ms": ms("hyper.compare"),
        **{
            f"calculus.derivative_at_ms.deg{b}": ms(f"calculus.derivative_at.deg{b}")
            for b in ("0_4", "5_8", "9_up")
        },
        "calculus.extend_ms": ms("calculus.extend"),
        "lup.partition_ms": ms("lup.partition"),
        "lup.is_admissible_ms": ms("lup.is_admissible"),
        "indexset.op_calls": calls("indexset.op"),
        "indexset.op_ms": ms("indexset.op"),
        "indexset.parse_ms": ms("indexset.parse"),
        "indexset.max_period_len": max(g["indexset.period_len"], default=0),
        "ufsim.import_ms": ms("ufsim.import"),
        "ufsim.replay_ms": ms("ufsim.replay"),
        "ufsim.export_ms": ms("ufsim.export"),
        "ufsim.contains_ms": ms("ufsim.contains"),
        "ufsim.query_calls": calls("ufsim.query"),
        "ufsim.trace_entries": _mean(g["ufsim.trace_entries"]),
        "ufsim.meet_period_len": max(g["ufsim.meet_period_len"], default=0),
        "ufsim.useful_query_ratio": sum(g["ufsim.committed"]) / queries if queries else 0.0,
        "trace.overhead_share": overhead,
    }
    assert list(out) == list(PER_LAYER)
    return out
