"""hlcolor benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload count --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; hlcolor is imported from ``src/``.
After set-up, the workload's seeded instance set runs as a pass, one instance
after another, and passes repeat until ``--seconds`` have elapsed (at least
one pass).  Every answer is checked.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
say which instances failed and how the tail percentile was taken.

``--trace 0`` gives the end-to-end metrics.  ``--trace 1`` traces the set-up,
then alternates untraced and traced passes, and gives the per-layer metrics
(set-up plus the mean traced pass) and ``trace.overhead_s``; it writes the
spans to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5  # set-ups per run, each in a fresh interpreter but the last
TAIL_BEYOND = 10  # samples above the reported tail percentile


class DeadlineExceeded(BaseException):
    """Raised in the running instance when its deadline passes.

    A BaseException, so that no ``except Exception`` in the program under test
    swallows it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def timed_setup(workload: str, seed: int):
    """Import hlcolor and build the workload's inputs; returns (seconds, instances)."""
    start = time.perf_counter()
    instances = workloads.WORKLOADS[workload](workloads.Context(ROOT, seed))
    return time.perf_counter() - start, instances


def child_setup_seconds(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


class Outcomes:
    """Instance failures across passes, and latencies of untraced passes."""

    def __init__(self):
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: dict[str, str] = {}  # instance -> reason, first pass it failed
        self.failed = 0
        self.wrong = 0


def run_pass(instances, outcomes: Outcomes, tracer=None) -> float:
    start = time.perf_counter()
    for inst in instances:
        if tracer is not None:
            tracer.instance = inst.key
        reason = ""
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, inst.deadline_s)
            try:
                inst.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            reason = f"deadline {inst.deadline_s:g} s exceeded"
        except workloads.WrongAnswer as exc:
            reason = f"wrong answer: {exc}"
            outcomes.wrong += 1
        except Exception as exc:  # an instance that raises is a failure, not a crash
            reason = f"{type(exc).__name__}: {exc}"
        if tracer is None:
            outcomes.latencies[inst.key].append(time.perf_counter() - t0)
        outcomes.attempted += 1
        if reason:
            outcomes.failed += 1
            outcomes.failures.setdefault(inst.key, reason)
    return time.perf_counter() - start


def measure(instances, seconds: float, tracer=None):
    """Run passes until `seconds` have elapsed.  With a tracer, passes alternate
    untraced and traced, and at least one of each runs."""
    outcomes = Outcomes()
    pass_s: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        on = tracer is not None and len(pass_s[True]) < len(pass_s[False])
        if on:
            tracer.install()
            try:
                pass_s[True].append(run_pass(instances, outcomes, tracer))
            finally:
                tracer.uninstall()
        else:
            pass_s[False].append(run_pass(instances, outcomes))
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or pass_s[True]):
            return outcomes, pass_s


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def report_failures(outcomes: Outcomes) -> None:
    rate = outcomes.failed / outcomes.attempted
    print(f"error_rate={rate:.4f} ({outcomes.failed}/{outcomes.attempted} instances)")
    for i, (key, reason) in enumerate(outcomes.failures.items()):
        label = "first_failure" if i == 0 else "failure"
        print(f"{label}: {key}: {reason}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not (os.path.isfile(os.path.join(src, "hlcolor", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "corpus"))):
        print(f"no hlcolor source tree (src/hlcolor, corpus) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(timed_setup(args.workload, args.seed)[0])
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, instances = timed_setup(args.workload, args.seed)
        finally:
            tracer.uninstall()
    else:
        setup_samples = [child_setup_seconds(args.workload, args.seed)
                         for _ in range(SETUP_REPEATS - 1)]
        setup_s, instances = timed_setup(args.workload, args.seed)
        setup_samples.append(setup_s)
    signal.signal(signal.SIGALRM, _on_alarm)
    outcomes, pass_s = measure(instances, args.seconds, tracer)
    report_failures(outcomes)

    if args.trace:
        metrics = tracer.layer_metrics(len(pass_s[True]))
        overhead = statistics.median(pass_s[True]) - statistics.median(pass_s[False])
        metrics["trace.overhead_s"] = (overhead, "s")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}; "
              f"passes: {len(pass_s[False])} untraced, {len(pass_s[True])} traced")
    else:
        # one latency per instance: its median over the passes
        latencies = [statistics.median(v) for v in outcomes.latencies.values()]
        tail_s, pct = tail(latencies)
        print(f"instance_tail_ms is p{pct:.1f} of {len(latencies)} instance latencies; "
              f"passes: {len(pass_s[False])} of {len(instances)} instances")
        metrics = {
            "solve_s": (statistics.median(pass_s[False]), "s"),
            "instance_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "instance_tail_ms": (tail_s * 1000, "ms"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
