"""Self-test of the output checks, and a listing of the kept faults.

    python3 perfbench/run.py --self-test      # every check rejects a wrong answer
    python3 perfbench/run.py --list-faults    # the kept fault and the known stalls

The self-test takes correct answers from confdim on small inputs, shows that
each check accepts them, then changes each answer slightly (q moved by 1e-3,
a modulus scaled by 1 + 1e-4, an exit code flipped, one output byte changed)
and shows that the check rejects it.  It runs in a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import Verifier  # noqa: E402

class SelfTest:
    def __init__(self):
        self.cases = 0
        self.failures = []

    def accepts(self, what, check):
        self.cases += 1
        try:
            check()
        except checks.CheckFailed as exc:
            self.failures.append(f"{what}: correct answer rejected: {exc}")

    def rejects(self, what, check):
        self.cases += 1
        try:
            check()
        except checks.CheckFailed:
            return
        self.failures.append(f"{what}: wrong answer accepted")


def test_qgamma(t):
    from confdim import suites
    from confdim.multicurve import q_of_multicurve

    rng = np.random.default_rng(0)
    specs = {
        "symmetric k=8": (workloads._spec("s", workloads._cycle_components([8, 8])), 4.0),
        "non-symmetric cycle": (workloads._spec("c", workloads._nonsymmetric_cycle(rng)), None),
        "random Levy-free": (suites.random_levyfree_spec(rng), None),
        "Levy on 7 curves": (workloads._spec("l", workloads._levy(rng, 7)), None),
        "nilpotent": (workloads._spec("z", [[(2, 1)], []]), None),
    }
    for name, (spec, expected) in specs.items():
        n, edges = checks.spec_edges(spec)
        r = q_of_multicurve(spec)
        t.accepts(name, lambda: checks.check_q(n, edges, r.kind, r.q, expected))
        if r.kind == "finite":
            for dq in (1e-3, -1e-3):
                t.rejects(f"{name}, q moved by {dq}",
                          lambda: checks.check_q(n, edges, r.kind, r.q + dq, expected))
                t.rejects(f"{name}, q moved by {dq}, no closed form",
                          lambda: checks.check_q(n, edges, r.kind, r.q + dq))
            t.rejects(f"{name} reported Levy",
                      lambda: checks.check_q(n, edges, "levy_obstructed", None))
        else:
            t.rejects(f"{name} reported finite", lambda: checks.check_q(n, edges, "finite", 2.0))


def test_annulus(t):
    r = workloads.run_annulus(8, 8, 2.0)
    t.accepts("annulus 8x8", lambda: checks.check_annulus(8, 8, 2.0, r.value, r.certificate.ok))
    t.rejects("annulus value x (1+1e-4)",
              lambda: checks.check_annulus(8, 8, 2.0, r.value * (1 + 1e-4), True))
    t.rejects("annulus certificate not ok",
              lambda: checks.check_annulus(8, 8, 2.0, r.value, False))


def test_explicit(t):
    from confdim import suites
    from confdim.spectral import ConvergenceError

    rng = np.random.default_rng(1)
    for q in (1.0, 2.0, 3.0):
        while True:  # skip draws on which the solver stalls
            family = suites.random_family(rng, 30, max_curves=40, max_size=8)
            curves = tuple(c.sorted_indices() for c in family.curves)
            try:
                r = workloads.run_explicit(curves, 30, q)
                break
            except ConvergenceError:
                continue
        cert = r.certificate

        def check(value=r.value, rho=r.optimizer.rho, scale=1.0):
            checks.check_explicit(
                curves, 30, q, value, rho,
                active=None if cert is None else [c.sorted_indices() for c in cert.active_curves],
                multipliers=None if cert is None else cert.multipliers * scale,
            )

        t.accepts(f"explicit Q={q}", check)
        t.rejects(f"explicit Q={q}, value x (1+1e-4)", lambda: check(value=r.value * (1 + 1e-4)))
        t.rejects(f"explicit Q={q}, weights x (1-1e-4)",
                  lambda: check(rho=r.optimizer.rho * (1 - 1e-4), value=r.value * (1 - 1e-4) ** q))
        if q > 1.0:
            t.rejects(f"explicit Q={q}, multipliers x 0.99", lambda: check(scale=0.99))


#: (command kind, pattern whose first digit is changed) for the one-byte change
BYTE_CHANGES = {
    "q-gamma-json": r'"q": \d',
    "q-gamma-csv": r"finite,\d",
    "q-map": r'"conformal_dimension_lower_bound": \d',
    "modulus-grid": r'"value": \d',
    "modulus-annulus": r'"value": \d',
    "growth": r'"left": \d',
    "pack": r'"constant": \d',
    "scaling": r'"cover": \d',
    "props": r'"lhs": \d',
}


def change_byte(stdout, pattern):
    text = stdout.decode("utf-8")
    end = re.search(pattern, text).end() - 1
    digit = "9" if text[end] != "9" else "8"
    return (text[:end] + digit + text[end + 1:]).encode("utf-8")


def test_cli(t):
    from confdim import cli

    session = workloads.CliSession(0)
    here = os.getcwd()
    try:
        os.chdir(session.dir)
        for op in session.ops:
            kind = op.key[0]
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.run(op.payload)
            out = buffer.getvalue().encode("utf-8")
            params = op.info["params"]
            t.accepts(kind, lambda: checks.check_cli(kind, params, code, out))
            t.rejects(f"{kind}, exit code flipped",
                      lambda: checks.check_cli(kind, params, 0 if code else 3, out))
            changed = change_byte(out, BYTE_CHANGES[kind])
            t.rejects(f"{kind}, one byte changed",
                      lambda: checks.check_cli(kind, params, code, changed))
            verifier = Verifier(session)
            verifier.verify(op, (code, out))
            t.rejects(f"{kind}, output differs between passes",
                      lambda: verifier.verify(op, (code, changed)))
    finally:
        os.chdir(here)
        session.close()


def self_test():
    t = SelfTest()
    for test in (test_qgamma, test_annulus, test_explicit, test_cli):
        t0 = time.perf_counter()
        before = t.cases
        test(t)
        print(f"{test.__name__}: {t.cases - before} cases in {time.perf_counter() - t0:.2f} s")
    for failure in t.failures:
        print(f"FAIL {failure}")
    print(f"{t.cases - len(t.failures)}/{t.cases} self-test cases passed")
    return 1 if t.failures else 0


def describe(op):
    if op.key[0] == "annulus":
        return "{}x{} Q={}".format(*op.payload)
    curves, pieces, q = op.payload
    return f"{pieces} pieces, {len(curves)} curves, Q={q}"


def list_faults(seed):
    """Run every operation of the workloads that keep faults; print what stalls.

    Returns 1 when the operations that stall are not the ones the workloads
    keep as faults.
    """
    differ = False
    for cls in (workloads.AnnulusModulus, workloads.ExplicitModulus):
        workload = cls(seed)
        ops = sorted(workload.ops, key=lambda op: op.key)
        stalled = []
        for op in ops:
            reply = workloads.run_fault(workload, op)
            if reply["wrong"] is not None:
                print(f"{workload.name} {op.key}: {reply['wrong']}")
                differ = True
            if reply["error"] is not None:
                stalled.append(f"  {op.key}: {describe(op)}: {reply['error']}")
            differ |= (reply["error"] is not None) != op.fault
        print(f"{workload.name}: {len(stalled)} of {len(ops)} operations stall, "
              f"{sum(op.fault for op in ops)} kept as faults")
        print("\n".join(stalled))
    if differ:
        print("the operations that stall differ from the kept faults")
    return 1 if differ else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--list-faults", action="store_true")
    args = parser.parse_args()
    return self_test() if args.self_test else list_faults(args.seed)


if __name__ == "__main__":
    sys.exit(main())
