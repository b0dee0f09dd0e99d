"""Benchmark for confdim: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qgamma-catalog --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  Each run also writes a record with the git SHA, machine facts,
BLAS thread count and source line counts to ``perfbench/out/``.

Other modes:

    --compare N     N runs per set of two alternating sets of the same code;
                    prints each metric's median and quartiles per set
    --self-test     shows that every output check rejects a wrong answer
    --list-faults   runs every operation of the workloads with kept faults and
                    lists what stalls; exits 1 unless that is the kept faults

Only the standard library is imported here; the work runs in child
interpreters with confdim taken from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import fractions
import glob
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("qgamma-catalog", "annulus-modulus", "explicit-modulus", "cli-session")

#: BLAS threads for every child.  The dual solver's path depends on it (the
#: set of annulus grids on which it stalls differs between 1 and 2 threads),
#: so it is pinned, at or below the CPU count.
BLAS_THREADS = min(2, os.cpu_count() or 1)
#: fresh interpreters whose set-up time is measured per run; the median is reported
SETUP_SAMPLES = 3
#: a worker that has not finished by then is killed and the run fails
WORKER_TIMEOUT_S = 170.0
#: interpreter and import timings taken per traced run; the median is reported
STARTUP_SAMPLES = 3

END_TO_END = {
    "ops_per_s": "op/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def start_worker(args, extra=()):
    """Start worker.py; return the process and the seconds until it printed READY."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, ready


def finish_worker(proc):
    """Wait for a worker; return its last stdout line parsed as JSON, if any."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def src_lines():
    counts = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "confdim", "*.py"))):
        with open(path, "rb") as fh:
            counts[os.path.splitext(os.path.basename(path))[0]] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine():
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "blas_threads": BLAS_THREADS,
    }
    for package in ("numpy", "scipy"):
        try:
            facts[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            facts[package] = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            models = re.findall(r"^model name\s*:\s*(.*)$", fh.read(), re.M)
        facts["cpu"] = models[0] if models else None
    except OSError:
        facts["cpu"] = None
    return facts


def _wall(argv):
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def _import_rows(stderr):
    """(depth, module, cumulative seconds) per line of -X importtime, in printed order."""
    rows = []
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
        if match:
            rows.append((len(match.group(3)) // 2, match.group(4), int(match.group(2)) * 1e-6))
    return rows


def _in_scipy(name):
    return name is not None and (name == "scipy" or name.startswith("scipy."))


def _import_times(rows, startup):
    """Seconds importing ``confdim.cli`` and, within it, scipy.

    The import total sums the cumulative times of the outermost modules the
    statement imports, leaving out those the bare interpreter imports at
    start-up; the scipy time sums the scipy modules whose importer is not in
    scipy.  importtime prints children before their parent, so walking the
    rows backwards meets each parent first and a stack of open ancestors
    names every importer.
    """
    total = scipy = 0.0
    stack = []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else None
        stack.append((depth, name))
        if parent is None and name not in startup:
            total += cumulative
        if _in_scipy(name) and not _in_scipy(parent):
            scipy += cumulative
    return total, scipy


def _importtime(statement):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", statement], cwd=ROOT,
                          env=child_env(), check=True, capture_output=True, text=True, timeout=60)
    return _import_rows(proc.stderr)


def startup_metrics():
    interpreter = [_wall([sys.executable, "-c", "pass"]) for _ in range(STARTUP_SAMPLES)]
    startup = {name for _, name, _ in _importtime("pass")}
    imports = [_import_times(_importtime("import confdim.cli"), startup)
               for _ in range(STARTUP_SAMPLES)]
    return {
        "cli.interpreter_s": statistics.median(interpreter),
        "cli.import_s": statistics.median(t for t, _ in imports),
        "cli.import_scipy_s": statistics.median(s for _, s in imports),
    }


def bench(args):
    """One run: set-up samples, the measured worker, the record file and the result."""
    def setup_samples(count):
        for _ in range(count):
            proc, ready = start_worker(args, ["--setup-only"])
            finish_worker(proc)
            setup.append(ready)

    # Set-up samples are split around the measured worker, so that they see
    # more of the machine's slow and fast spells than back-to-back samples do.
    setup = []
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setup_samples(extra // 2)
    proc, ready = start_worker(args)
    setup.append(ready)
    record = finish_worker(proc)
    setup_samples(extra - extra // 2)
    for error in record["errors"]:
        print(f"operation error: {error}", file=sys.stderr)

    lines = src_lines()
    if args.trace:
        values = dict(record["layers"])
        values.update(startup_metrics())
        values.update({f"src_lines.{name}": count for name, count in lines.items()})
        units = per_layer_units()
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        values = {name: record[name] for name in END_TO_END if name != "setup_s"}
        values["setup_s"] = statistics.median(setup)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"latency tail: p{record['tail_percentile']:.2f} of {record['samples']} samples "
              f"over {record['rounds']} rounds; set-up samples {[round(s, 4) for s in setup]}")
    print(f"attempted {record['attempted']}, failed {record['failed']}, "
          f"BLAS threads {BLAS_THREADS}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "git_sha": git_sha(), "machine": machine(),
                   "src_lines": lines, "setup_samples": setup, "worker": record,
                   "metrics": metrics}, fh, indent=1)
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def compare(args):
    """Alternate two sets of runs of the same code and print each metric per set.

    Run i of set s uses seed ``--seed + s * N + i``, so no two runs share a
    seed; the order of the sets alternates from one pair of runs to the next.
    """
    sets = ([], [])
    for i in range(args.compare):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            seed = args.seed + s * args.compare + i
            argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S * 3)
            if proc.returncode != 0:
                raise BenchError(f"run failed: {proc.stderr.strip()[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            sets[s].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"set {'AB'[s]} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} {values}", flush=True)
    groups = [("set A", sets[0]), ("set B", sets[1]), ("both", sets[0] + sets[1])]
    print(f"{args.workload}: median [q1, q3] spread=(q3-q1)/median; "
          + ", ".join(f"{name} ({len(runs)} runs)" for name, runs in groups))
    for metric in END_TO_END:
        cells = []
        for _, runs in groups:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] spread={(q3 - q1) / med:.3f}")
        medians = [statistics.median(r["metrics"][metric]["value"] for r in runs)
                   for runs in sets]
        cells.append(f"B/A-1={medians[1] / medians[0] - 1:+.3f}")
        print(f"  {metric:15s} " + " | ".join(cells))
    for name, runs in groups[:2]:
        shares = sorted({str(fractions.Fraction(r["failed"], r["attempted"])) for r in runs})
        print(f"  {name} failed/attempted: {shares}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=int, metavar="N",
                        help="make N runs per set, seeds --seed .. --seed+N-1")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--list-faults", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "confdim", "__init__.py")):
        print(f"confdim sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_test or args.list_faults:
        mode = "--self-test" if args.self_test else "--list-faults"
        argv = [sys.executable, os.path.join(HERE, "selftest.py"), mode, "--seed", str(args.seed)]
        return subprocess.run(argv, cwd=ROOT, env=child_env()).returncode
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.compare:
            compare(args)
            return 0
        result = bench(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
