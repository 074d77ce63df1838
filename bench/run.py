"""Benchmark of eudoxus: seeded request streams checked against oracles.

Usage, from the root of a checkout:

    python3 bench/run.py --workload real-digits --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a child process of its own, one closed-loop client:
the next request goes out when the previous one has returned. The child caps
its address space; the parent caps its wall time. The child replays the
workload's pass (see workloads.py) until `--seconds` have gone by, then
checks every answer against the oracles in oracles.py.

`--trace 0` reports the end-to-end metrics: median and tail latency over
the distinct requests of a pass (each request's latency is the median of its
repetitions; a failed request ranks at the request time limit), throughput,
peak resident memory of the child, the share of requests answered as the
oracle predicts, and the cold-start time of a fresh interpreter that answers
the workload's first request. `--trace 1` spends half the time untraced and
half traced (tracer.py) and reports the per-layer metrics and the tracing
overhead. Every time is scaled to a reference host speed (speed.py). The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MEMORY_CAP = 1 << 30  # address-space cap of every process the benchmark starts
REQUEST_LIMIT_S = 15  # a request running longer fails as a timeout
CHILD_LIMIT_S = 150  # wall-clock cap on a workload's child process
COLD_STARTS = 9  # measured cold starts per run, after one uncounted start

END_TO_END = {
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "setup_s": "s",
}


class RequestTimeout(BaseException):
    """Raised by SIGALRM inside a request that overran REQUEST_LIMIT_S."""


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# -- the child: one workload, one process ------------------------------------------


class Client:
    """Closed-loop client replaying one workload pass against eudoxus."""

    def __init__(self, workload: str, seed: int):
        sys.path.insert(0, str(SRC))
        import workloads
        from eudoxus import cli

        self.cli = cli
        self.workloads = workloads
        self.reqs = workloads.generate(workload, seed)
        self.workdir = WORK / f"{workload}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.state = str(self.workdir / "session.trace")
        self.argvs = [[self.state if a == workloads.STATE else a for a in r.argv] for r in self.reqs]
        self.samples: list[tuple[int, float, tuple]] = []  # (request, seconds, outcome)
        self.scales: list[float] = []  # speed scale of each sample
        self.speed = Speed()
        signal.signal(signal.SIGALRM, self._overran)

    @staticmethod
    def _overran(signum, frame):
        raise RequestTimeout()

    def reset(self):
        """Start a pass from an empty ultrafilter session."""
        for path in (self.state, self.state + ".lock"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def execute(self, idx: int):
        req = self.reqs[idx]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
            start = perf_counter()
            try:
                if req.lib:
                    outcome = ("value", self.workloads.run_library(*req.lib))
                else:
                    code = self.cli.main(self.argvs[idx])
                    outcome = ("exit", code)
            except RequestTimeout:
                outcome = ("timeout",)
            except Exception as exc:  # noqa: BLE001 - every escape is an outcome
                outcome = ("raised", type(exc).__name__)
            finally:
                end = perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
        if outcome[0] == "exit":
            outcome = ("exit", outcome[1], out.getvalue().splitlines(), err.getvalue())
        return end - start, outcome

    def measure(self, seconds: float, tracer=None):
        """Whole passes until `seconds` have gone by.

        Returns the request count and the speed-scaled time spent in
        requests (calibration samples excluded).
        """
        begin = perf_counter()
        busy, count = 0.0, 0
        while True:
            self.reset()
            gc.collect()
            starts = []
            for idx in range(len(self.reqs)):
                self.speed.sample()
                if tracer is not None:
                    tracer.request = count
                starts.append(perf_counter())
                self.samples.append((idx, *self.execute(idx)))
                count += 1
                if perf_counter() - begin > 3 * seconds:
                    break
            self.speed.sample(force=True)
            for start, (_, dt, _) in zip(starts, self.samples[len(self.scales) :]):
                scale = self.speed.scale(start, start + dt)
                self.scales.append(scale)
                busy += dt * scale
            if perf_counter() - begin >= seconds:
                return count, busy

    def warm_up(self):
        for idx in range(min(5, len(self.reqs))):
            self.execute(idx)
        warm = Speed()
        for _ in range(20):
            warm.sample(force=True)
        self.reset()

    def verdicts(self):
        """Cause of failure (or None) for every sample, checked by the oracles."""
        ultra = None
        if self.reqs[0].argv[:1] == ("ultra",):
            ultra = self.workloads.expected_ultra(self.reqs)
        first: dict[int, tuple] = {}
        causes = []
        for idx, _dt, outcome in self.samples:
            seen = first.get(idx)
            if seen is not None and seen[0] == outcome:
                causes.append(seen[1])
                continue
            if outcome[0] == "timeout":
                cause = "timeout"
            elif outcome[0] == "raised":
                cause = f"uncaught_exception:{outcome[1]}"
            else:
                expected = ultra[idx] if ultra is not None else None
                cause = self.workloads.check(self.reqs[idx], outcome, expected)
            first.setdefault(idx, (outcome, cause))
            causes.append(cause)
        return causes

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


TAIL_PERCENTILES = (99.9, 99, 95, 90, 50)


def _latency_stats(samples, scales, causes):
    """p50 and tail over distinct requests, each the median of its repeats.

    The tail is the highest of TAIL_PERCENTILES with at least ten requests
    beyond it (nearest rank).
    """
    per_req: dict[int, list[float]] = {}
    for (idx, dt, _), scale, cause in zip(samples, scales, causes):
        per_req.setdefault(idx, []).append(REQUEST_LIMIT_S if cause else dt * scale)
    values = sorted(statistics.median(v) * 1000 for v in per_req.values())
    n = len(values)
    q = next((q for q in TAIL_PERCENTILES if n * (100 - q) / 100 >= 10), 50)
    rank = max(1, math.ceil(q * n / 100))
    return {
        "p50_ms": statistics.median(values),
        "tail_ms": values[rank - 1],
        "tail_percentile": q,
        "tail_beyond": n - rank,
        "distinct_requests": n,
    }


def serve(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    _cap_memory()
    client = Client(workload, seed)
    try:
        client.warm_up()
        result = {"requests_per_pass": len(client.reqs)}
        if trace:
            import tracer as T

            count, busy = client.measure(seconds / 2)
            untraced_rps = count / busy
            t = T.Tracer()
            T.install(t)
            origin = perf_counter()
            traced_from = len(client.samples)
            count, busy = client.measure(seconds / 2, t)
            t.uninstall()
            overhead = 1 - (count / busy) / untraced_rps
            scale = statistics.median(client.scales[traced_from:])
            result["metrics"] = T.per_layer(t, count, overhead, scale)
            result["units"] = {k: u for k, (u, _) in T.PER_LAYER.items()}
            spans = WORK / f"spans-{workload}-seed{seed}.jsonl"
            t.write_spans(str(spans), origin)
            result["spans_file"] = str(spans.relative_to(ROOT))
        else:
            count, busy = client.measure(seconds)
        causes = client.verdicts()
        failed = sum(1 for c in causes if c)
        result.update(
            attempted=len(causes),
            failed=failed,
            causes=dict(Counter(c for c in causes if c)),
            correct=not any(c in ("wrong_value", "unexpected_exit") for c in causes),
            first_code=client.samples[0][2][1] if client.samples[0][2][0] == "exit" else 0,
            first_request=client.reqs[0].lib or client.argvs[0],
        )
        if not trace:
            result.update(_latency_stats(client.samples, client.scales, causes))
            result["speed_scale"] = statistics.median(client.scales)
            result["throughput_rps"] = count / busy
            result["ok_share"] = 1 - failed / len(causes)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result
    finally:
        client.close()


# -- the parent: child process, cold starts, report ---------------------------------


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def _cold_start(workload: str, first, expected_code: int) -> float:
    """Wall time of a fresh interpreter answering the first request."""
    if workload == "library-batch":
        code = f"import eudoxus, workloads; workloads.run_library(*{tuple(first)!r})"
        cmd = [sys.executable, "-c", code]
    else:
        cmd = [sys.executable, "-m", "eudoxus.cli", *first]
        state = next((a for a in first if a.endswith("session.trace")), None)
        if state:
            Path(state).parent.mkdir(parents=True, exist_ok=True)
            with contextlib.suppress(FileNotFoundError):
                os.remove(state)
    start = perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_env(), capture_output=True, timeout=30, preexec_fn=_cap_memory
    )
    elapsed = perf_counter() - start
    if proc.returncode != expected_code:
        raise RuntimeError(f"cold start exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return elapsed


def setup_seconds(workload: str, child: dict) -> float:
    first = list(child["first_request"])
    if workload == "ultra-session":
        cold = WORK / "cold-start"
        first = [str(cold / "session.trace") if a.endswith("session.trace") else a for a in first]
    speed = Speed()
    times = []
    try:
        _cold_start(workload, first, child["first_code"])  # fills bytecode caches
        for _ in range(COLD_STARTS):
            for _ in range(3):
                speed.sample(force=True)
            start = perf_counter()
            elapsed = _cold_start(workload, first, child["first_code"])
            for _ in range(3):
                speed.sample(force=True)
            times.append(elapsed * speed.scale(start, start + elapsed))
    finally:
        shutil.rmtree(WORK / "cold-start", ignore_errors=True)
    return statistics.median(times)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_LIMIT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        child["setup_s"] = setup_seconds(workload, child)
        child["metrics"] = {name: child[name] for name in END_TO_END}
        child["units"] = END_TO_END
    return child


def report(workload: str, seed: int, child: dict) -> None:
    attempted, failed = child["attempted"], child["failed"]
    print(
        f"workload {workload}: seed {seed}, {child['requests_per_pass']} requests per pass, "
        f"{attempted} requests, commit {_commit()}, python {platform.python_version()}, "
        f"nproc {os.cpu_count()}; times are scaled to the reference host"
        + (f" (median scale {child['speed_scale']:.3f})" if "speed_scale" in child else "")
    )
    for name, value in child["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {child['units'][name]}")
    if "tail_percentile" in child:
        print(
            f"  tail_ms is the p{child['tail_percentile']} latency over "
            f"{child['distinct_requests']} distinct requests ({child['tail_beyond']} beyond it)"
        )
    causes = ", ".join(f"{c} {n}" for c, n in sorted(child["causes"].items())) or "none"
    print(f"  {'failed_share':34s} {failed / attempted:14.6g} share ({failed} of {attempted}; causes: {causes})")
    if "spans_file" in child:
        print(f"  spans written to {child['spans_file']}")
    record = {
        k: child[k]
        for k in ("requests_per_pass", "attempted", "failed", "causes", "tail_percentile", "distinct_requests")
        if k in child
    }
    record.update(workload=workload, seed=seed, commit=_commit(), python=platform.python_version(), nproc=os.cpu_count())
    print("record " + json.dumps(record, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "eudoxus" / "cli.py").is_file():
        print(f"error: no eudoxus sources under {SRC}", file=sys.stderr)
        return 2
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(serve(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0

    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, args.seed, results[name])
    metrics = {}
    for name, child in results.items():
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in child["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": child["units"][key]}
    summary = {
        "correct": all(c["correct"] for c in results.values()),
        "attempted": sum(c["attempted"] for c in results.values()),
        "failed": sum(c["failed"] for c in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
