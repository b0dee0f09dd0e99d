"""Run one workload in this process and print its measurements as one JSON line.

``run.py`` starts this file in a fresh interpreter with the BLAS thread count
pinned.  It prints ``READY`` once the inputs are made and one warm-up
operation is done, which is the end of set-up, and then, unless
``--setup-only`` is given, measures whole rounds of operations as a closed
loop with one caller.  ``--fault-server`` makes it the process that runs the
kept-fault operations on request.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, run_fault  # noqa: E402

#: samples a latency tail needs; with fewer the tail is reported as the median
TAIL_MIN_SAMPLES = 40
#: samples that must lie beyond the tail percentile
TAIL_BEYOND = 10


def timing_metrics(latencies, ops_per_round, min_rounds):
    """End-to-end timing metrics over every timed operation of the run.

    The tail percentile is fixed per workload: the one that leaves ten
    operations beyond it in ``min_rounds`` rounds, the fewest a run makes.
    Every round is the same list of operations, so this percentile reads
    the same part of a round however many rounds the run makes.  With fewer
    than 40 operations in ``min_rounds`` rounds there is no tail, and the
    median stands in for it.
    """
    samples = sorted(latencies)
    p50 = statistics.median(samples)
    n = ops_per_round * min_rounds
    if n < TAIL_MIN_SAMPLES:
        tail, p = p50, 0.5
    else:
        p = (n - TAIL_BEYOND) / n
        tail = samples[math.ceil(p * len(samples)) - 1]
    return {
        "ops_per_s": len(samples) / sum(samples),
        "latency_p50_s": p50,
        "latency_tail_s": tail,
        "tail_percentile": 100.0 * p,
    }


class FaultRunner:
    """Child process that runs the kept-fault operations, one per request."""

    def __init__(self, workload, seed):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--fault-server", "--workload", workload,
             "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, index):
        """Run operation ``index`` of the round in the fault process."""
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("fault process ended early")
        return json.loads(reply)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class Verifier:
    """Checks each operation's first output; later rounds must repeat it exactly."""

    def __init__(self, workload):
        self.workload = workload
        self.seen = {}

    def verify(self, op, out):
        signature = self.workload.signature(out)
        if op.key in self.seen:
            if self.seen[op.key] != signature:
                raise checks.CheckFailed("output differs from an earlier round")
            return
        self.seen[op.key] = signature
        self.workload.check(op, out)


def fault_server(workload):
    for line in sys.stdin:
        print(json.dumps(run_fault(workload, workload.ops[int(line)])), flush=True)


def measure(workload, seed, seconds, trace):
    """Run whole rounds for ``seconds`` (at least ``min_rounds``); return the record.

    ``ops_per_s`` is the successful operations over their summed latency,
    ``latency_p50_s`` and ``latency_tail_s`` are percentiles of all their
    latencies.  Best-of-repeats and per-operation medians were tried as
    well; over six runs each they spread two to three times wider on
    ``qgamma-catalog`` and no narrower elsewhere.

    A traced run traces every round and reports per-layer metrics only.

    Only kept faults count in ``failed``.  Any other operation that raises
    or returns a wrong answer makes the run incorrect.
    """
    faults = FaultRunner(workload.name, seed) if any(op.fault for op in workload.ops) else None
    tracer = tracing.Tracer() if trace else None
    verifier = Verifier(workload)
    errors = []
    latencies = {}
    work = []
    attempted = failed = wrong = rounds = 0
    first_pass_bytes = 0
    start = time.perf_counter()
    min_rounds = 1 if trace else workload.min_rounds
    workload.tracing = trace
    if trace and not workload.measures_children:
        tracer.install()  # a workload run in child processes traces there
    try:
        while rounds < min_rounds or time.perf_counter() - start < seconds:
            round_work = 0.0
            for index, op in enumerate(workload.ops):
                attempted += 1
                if op.fault:
                    reply = faults.run(index)
                    failed += reply["error"] is not None
                    if reply["wrong"] is not None:
                        wrong += 1
                        errors.append(f"{op.key}: kept fault: {reply['wrong']}")
                    continue
                t0 = time.perf_counter()
                try:
                    out = workload.run(op)
                except Exception as exc:
                    wrong += 1
                    errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
                    continue
                dt = time.perf_counter() - t0
                round_work += dt
                latencies.setdefault(op.key, []).append(dt)
                if rounds == 0 and workload.measures_children:
                    first_pass_bytes += len(out[1])
                try:
                    verifier.verify(op, out)
                except checks.CheckFailed as exc:
                    wrong += 1
                    errors.append(f"{op.key}: wrong output: {exc}")
            work.append(round_work)
            rounds += 1
        who = resource.RUSAGE_CHILDREN if workload.measures_children else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.tracing = False
        if faults is not None:
            faults.close()

    record = {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0,
        "errors": errors,
        "ops_per_round": sum(not op.fault for op in workload.ops),
        "round_work_s": work,
        "latencies_s": {str(key): times for key, times in latencies.items()},
    }
    if trace:
        merged = tracing.merge([tracer.export()] + getattr(workload, "exports", []))
        layers = tracing.layer_metrics(merged, rounds)
        layers["schemas.output_bytes"] = first_pass_bytes
        record["layers"] = layers
        return record

    record.update(timing_metrics([t for times in latencies.values() for t in times],
                                 record["ops_per_round"], workload.min_rounds))
    record.update(samples=sum(len(times) for times in latencies.values()),
                  peak_rss_mb=peak_rss_mb)
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--fault-server", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    try:
        if args.fault_server:
            fault_server(workload)
            return 0
        workload.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        record = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        workload.close()
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
