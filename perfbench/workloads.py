"""The four workloads: seeded inputs, one round of operations, and their checks.

A workload is built from ``--seed`` alone and holds one round of operations
(``ops``).  A run repeats whole rounds, so every run attempts the same
operations in the same proportions, whatever the seed and the run length.
Operations marked ``fault`` are kept faults: they fail every time on inputs
that do not depend on the seed, and they run in a separate process so that
their time and memory stay out of the metrics.  Which operations are kept
faults is fixed here (ANNULUS_STALLS, STALLED_DRAWS, STALL_FAMILY), never
found by running the program, so the timed inputs are the same on every
commit.

The catalog of ``qgamma-catalog`` and the families of ``explicit-modulus``
are drawn from the fixed ``CATALOG_SEED``, and ``--seed`` shuffles each
round; for the multicurves it also relabels the curves by a random
permutation, which gives new input bytes for the same problems up to
isomorphism.  So the work per round, and with it the metrics, does not
depend on the seed: drawn afresh per seed, 120 explicit families moved the
mean solve time by +-18% and the 118th-slowest by +-35% from seed to seed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))

#: smallest explicit family found on which ``modulus`` stalls at Q = 2
STALL_FAMILY = (
    (0, 1, 2, 3, 4), (2, 3, 4), (0, 2, 3, 4), (1,), (0, 1, 3), (3,), (1, 2, 3, 4), (0, 3),
    (0, 3, 4), (0, 1, 2, 4), (0, 1, 3, 4), (2,), (0, 1, 4), (0, 1, 2, 3), (1, 2, 4), (0, 2, 3),
)
STALL_PIECES, STALL_Q = 5, 2.0
#: annulus grids (circumference, height, Q) on which ``annulus_modulus`` stalls
#: with two BLAS threads
ANNULUS_STALLS = frozenset(((12, 12, 1.5), (16, 16, 3.0), (24, 6, 3.0)))

#: seed of the multicurve catalog and of the explicit families
CATALOG_SEED = 20070709
#: draws of ``explicit-modulus`` on which ``modulus`` stalls at CATALOG_SEED
#: (``run.py --list-faults`` finds them anew)
STALLED_DRAWS = frozenset(
    (2, 7, 10, 11, 25, 27, 46, 48, 51, 59, 68, 75, 83, 91, 101, 102, 105, 111, 118, 126, 129, 136)
)


@dataclass
class Op:
    key: tuple
    payload: object = None
    fault: bool = False
    info: dict = field(default_factory=dict)


class Workload:
    name = ""
    #: rounds every run makes at least; sets the latency-tail percentile
    min_rounds = 1
    #: True when the work runs in child processes (peak RSS of the children)
    measures_children = False
    #: set by the runner around traced rounds
    tracing = False

    def warm_up(self):
        """One untimed operation, the same whatever the seed, so imports are settled."""
        self.run(self.warm)

    def close(self):
        pass


# -- qgamma-catalog ----------------------------------------------------------------


def _spec(prefix, comps_of):
    """MulticurveSpec from {source index: [(degree, target index or class name)]}."""
    from confdim.multicurve import Essential, MulticurveSpec, PreimageComponent

    labels = [f"{prefix}{i}" for i in range(len(comps_of))]
    preimages = {
        labels[j]: tuple(
            PreimageComponent(d, Essential(labels[t]) if isinstance(t, int) else t)
            for d, t in comps
        )
        for j, comps in enumerate(comps_of)
    }
    return MulticurveSpec(labels, preimages)


def _components(spec):
    """The {source: [(degree, target index or class name)]} form of a MulticurveSpec."""
    index = {label: i for i, label in enumerate(spec.curves)}
    return [
        [(c.degree, index[c.classification.curve] if hasattr(c.classification, "curve")
          else c.classification) for c in comps]
        for comps in spec.preimages
    ]


def _relabel(comps_of, perm):
    """The same multicurve with curve j renamed perm[j]."""
    out = [None] * len(comps_of)
    for j, comps in enumerate(comps_of):
        out[perm[j]] = [(d, int(perm[t]) if isinstance(t, int) else t) for d, t in comps]
    return out


def _cycle_components(ks):
    """k_j degree-2 components of curve j onto curve j+1, around a cycle."""
    m = len(ks)
    return [[(2, (j + 1) % m)] * int(k) for j, k in enumerate(ks)]


def _nonsymmetric_cycle(rng):
    """Cycle of 2-4 curves with 8-120 unequal degree-2 components each, plus extras.

    The radius at Q = 1 is kept at or below 48 (Q below about 6.6): from about
    64 up, ``spectral_radius`` can stall on the absolute 1e-12 tolerance.
    """
    while True:
        m = int(rng.integers(2, 5))
        ks = rng.integers(8, 121, size=m)
        if len(set(ks.tolist())) == 1:
            continue
        comps = _cycle_components(ks)
        for _ in range(int(rng.integers(1, 4))):
            source, target = (int(j) for j in rng.integers(0, m, size=2))
            comps[source].append((int(rng.integers(3, 6)), target))
        n, edges = m, [(j, t, d) for j, cs in enumerate(comps) for d, t in cs]
        if checks.radius(checks.transition(n, edges, 1.0)) <= 48.0:
            return comps


def _sparse(rng, n):
    """n curves on one random Hamiltonian cycle of degree 2-3, with degree-4 extras."""
    order = rng.permutation(n)
    comps = [[] for _ in range(n)]
    for a, b in zip(order, np.roll(order, -1)):
        comps[int(a)].append((int(rng.integers(2, 4)), int(b)))
    for j in range(n):
        for _ in range(int(rng.integers(0, 3))):
            comps[j].append((4, int(rng.integers(0, n))))
    return comps


def _levy(rng, n):
    """Complete degree-1 digraph on n curves (a Levy obstruction) plus one degree-2 extra each."""
    return [
        [(1, i) for i in range(n) if i != j] + [(2, int(rng.integers(0, n)))] for j in range(n)
    ]


class QGammaCatalog(Workload):
    name = "qgamma-catalog"
    # Ten specs beyond the tail in five rounds: the third-slowest of a round,
    # one of the four 9-curve Levy specs.
    min_rounds = 5
    LEVYFREE, CYCLES, SYMMETRIC = 40, 16, 8
    SPARSE = 2
    LEVY_SIZES = (7, 8, 9, 9, 9, 9)

    def __init__(self, seed):
        from confdim import suites

        rng = np.random.default_rng(CATALOG_SEED)
        kinds = [("levyfree", _components(suites.random_levyfree_spec(rng)), None)
                 for _ in range(self.LEVYFREE)]
        kinds += [("cycle", _nonsymmetric_cycle(rng), None) for _ in range(self.CYCLES)]
        for _ in range(self.SYMMETRIC):
            m, k = int(rng.integers(1, 4)), int(rng.integers(2, 65))
            kinds.append(("symmetric", _cycle_components([k] * m), 1.0 + math.log2(k)))
        kinds += [("sparse", _sparse(rng, int(rng.integers(100, 301))), None)
                  for _ in range(self.SPARSE)]
        kinds += [("levy", _levy(rng, n), None) for n in self.LEVY_SIZES]

        relabel = np.random.default_rng([seed, 1])
        ops = [
            Op((kind, i), _spec("g", _relabel(comps, relabel.permutation(len(comps)))),
               info={"expected": expected})
            for i, (kind, comps, expected) in enumerate(kinds)
        ]
        self.warm = ops[0]
        self.ops = [ops[i] for i in relabel.permutation(len(ops))]

    def run(self, op):
        from confdim.multicurve import q_of_multicurve

        return q_of_multicurve(op.payload)

    def signature(self, result):
        return (result.kind, result.q, result.achieved_lambda, result.iterations)

    def check(self, op, result):
        n, edges = checks.spec_edges(op.payload)
        checks.check_q(n, edges, result.kind, result.q, op.info.get("expected"))


# -- explicit-modulus ------------------------------------------------------------------


def run_explicit(curves, pieces, q):
    from confdim.modulus import CombCurve, Cover, explicit_family, modulus

    return modulus(Cover(pieces), explicit_family(CombCurve(c) for c in curves), q)


def check_explicit_result(curves, pieces, q, result):
    cert = result.certificate
    checks.check_explicit(
        curves, pieces, q, result.value, result.optimizer.rho,
        active=None if cert is None else [c.sorted_indices() for c in cert.active_curves],
        multipliers=None if cert is None else cert.multipliers,
    )


class ExplicitModulus(Workload):
    name = "explicit-modulus"
    # Ten solves beyond the tail in two rounds: the sixth-slowest solve of a
    # round, inside the cluster of 15-20 ms solves at Q = 1.5 rather than at
    # one of the few slower ones.
    min_rounds = 2
    DRAWS = 142
    QS = (1.0, 1.5, 2.0, 3.0)

    def __init__(self, seed):
        """DRAWS families from CATALOG_SEED, all kept; STALLED_DRAWS are kept faults.

        The families are not relabeled per seed, unlike the multicurves: the
        dual solver's path depends on the order of curves and pieces, and
        relabeling moved the slowest solve of a round between 0.017 s and
        0.19 s from seed to seed.  The seed orders the round.
        """
        from confdim import suites

        rng = np.random.default_rng(CATALOG_SEED)
        ops = []
        while len(ops) < self.DRAWS:
            pieces = int(rng.integers(20, 81))
            family = suites.random_family(rng, pieces, max_curves=int(rng.integers(10, 101)),
                                          max_size=10)
            q = self.QS[int(rng.integers(0, len(self.QS)))]
            if len(family.curves) < 10:
                continue
            curves = tuple(c.sorted_indices() for c in family.curves)
            ops.append(Op(("family", len(ops)), (curves, pieces, q),
                          fault=len(ops) in STALLED_DRAWS))
        ops.append(Op(("stall",), (STALL_FAMILY, STALL_PIECES, STALL_Q), fault=True))
        self.warm = ops[0]
        self.ops = [ops[i] for i in np.random.default_rng([seed, 3]).permutation(len(ops))]

    def run(self, op):
        return run_explicit(*op.payload)

    def signature(self, result):
        return (result.value, result.optimizer.rho.tobytes())

    def check(self, op, result):
        check_explicit_result(*op.payload, result)


# -- annulus-modulus -------------------------------------------------------------------


def run_annulus(cols, rows, q):
    from confdim.covers import annulus_modulus, grid_annulus

    return annulus_modulus(grid_annulus(cols, rows), q)


class AnnulusModulus(Workload):
    """``annulus_modulus`` on fixed grids: the dual solve with constraint generation.

    Short and wide, square, and tall and long grids, so that a cut in
    constraint-generation rounds shows on the square grids and not on the
    wide one.  The inputs are fixed; the seed orders the round.
    """

    name = "annulus-modulus"
    # Ten solves beyond the tail in three rounds: the eleventh-slowest of 45,
    # the middle one of the three 12x12 solves at Q = 2 (about 0.5 s), below
    # the nine of 16x16 at Q = 1.5 and 2 and of 12x12 at Q = 3.
    min_rounds = 3
    GRIDS = ((256, 4), (8, 8), (12, 12), (16, 16), (6, 24), (24, 6))
    QS = (1.5, 2.0, 3.0)

    def __init__(self, seed):
        ops = [Op(("annulus", c, h, q), (c, h, q), fault=(c, h, q) in ANNULUS_STALLS)
               for c, h in self.GRIDS for q in self.QS]
        self.warm = ops[0]
        self.ops = [ops[i] for i in np.random.default_rng([seed, 5]).permutation(len(ops))]

    def run(self, op):
        return run_annulus(*op.payload)

    def signature(self, result):
        return (result.value, result.optimizer.rho.tobytes())

    def check(self, op, result):
        checks.check_annulus(*op.payload, result.value, result.certificate.ok)


# -- kept faults ---------------------------------------------------------------------


def run_fault(workload, op):
    """Run one kept-fault operation; return {"error": ..., "wrong": ...}.

    ``error`` is the text of the ConvergenceError while the fault stays.  An
    operation that no longer stalls is checked like any other, and ``wrong``
    says what is wrong with it, or that it failed in another way.
    """
    from confdim.spectral import ConvergenceError

    try:
        workload.check(op, workload.run(op))
    except ConvergenceError as exc:
        return {"error": f"ConvergenceError: {exc}", "wrong": None}
    except Exception as exc:  # a wrong answer, or a failure other than the kept one
        return {"error": None, "wrong": f"{type(exc).__name__}: {exc}"}
    return {"error": None, "wrong": None}


# -- cli-session -----------------------------------------------------------------------


def _multicurve_json(comps_of, prefix):
    labels = [f"{prefix}{i}" for i in range(len(comps_of))]
    return {
        "schema_version": 1,
        "curves": labels,
        "preimages": {
            labels[j]: [{"degree": d, "class": {"essential": labels[t]}} for d, t in comps]
            for j, comps in enumerate(comps_of)
            if comps
        },
    }


class CliSession(Workload):
    """Fixed ``confdim`` commands, each in a fresh interpreter, repeated over passes."""

    name = "cli-session"
    min_rounds = 2
    measures_children = True

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 4])
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=out)
        self.exports = []  # trace data of the traced passes, one per command
        lattes = _multicurve_json([[(2, 0), (2, 0)]], "g")
        lattes["map_degree"] = 4
        levy = _multicurve_json([[(1, 1)], [(1, 0), (2, 1)]], "a")
        ks = [int(k) for k in rng.integers(2, 65, size=2)]
        inline = [_multicurve_json(_cycle_components([k] * int(rng.integers(1, 4))), "s")
                  for k in ks]
        inline.append({"schema_version": 1, "curves": ["z"], "preimages": {}})
        sizes = [int(s) for s in rng.integers(1, 7, size=int(rng.integers(3, 6)))]
        starts = np.cumsum([0] + sizes)
        family = {
            "schema_version": 1,
            "pieces": int(starts[-1]) + 2,
            "curves": [list(range(int(a), int(b))) for a, b in zip(starts[:-1], starts[1:])],
            "family": "explicit",
        }
        annulus = {"cols": 8, "rows": 4}
        files = {
            "lattes.json": lattes,
            "levy.json": levy,
            "catalog.json": {"schema_version": 1,
                             "multicurves": ["lattes.json", "levy.json"] + inline},
            "family.json": family,
            "annulus.json": {"schema_version": 1, "family": {
                "oracle": "annulus", "circumference": annulus["cols"], "height": annulus["rows"]}},
        }
        for name, obj in files.items():
            with open(os.path.join(self.dir, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        catalog = {"specs": [lattes, levy] + inline,
                   "expected": [2.0, None] + [1.0 + math.log2(k) for k in ks] + [None]}
        commands = [
            ("q-gamma-json", ["q-gamma", "--input", "lattes.json"], None),
            ("q-gamma-csv", ["q-gamma", "--input", "lattes.json", "--format", "csv"], None),
            ("q-map", ["q-map", "--input", "catalog.json"], catalog),
            ("modulus-grid", ["modulus", "--input", "family.json", "--q-grid", "1:3:0.5"],
             {"sizes": sizes}),
            ("modulus-annulus", ["modulus", "--input", "annulus.json", "--q", "2"], annulus),
            ("growth", ["verify", "growth-check", "--levels", "4", "--q-grid", "1.5:3:0.5"], None),
            ("pack", ["verify", "pack-check", "--levels", "5"], None),
            ("scaling", ["verify", "scaling-check"], None),
            ("props", ["verify", "props"], None),
        ]
        self.ops = [Op((kind,), argv, info={"params": params}) for kind, argv, params in commands]
        self.warm = self.ops[0]

    def run(self, op):
        if self.tracing:
            trace_file = os.path.join(self.dir, f"trace-{len(self.exports)}.json")
            argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), trace_file] + op.payload
        else:
            argv = [sys.executable, "-m", "confdim.cli"] + op.payload
        proc = subprocess.run(argv, cwd=self.dir, capture_output=True, timeout=120)
        if self.tracing:
            with open(trace_file, "r", encoding="utf-8") as fh:
                self.exports.append(json.load(fh))
        return proc.returncode, proc.stdout

    def signature(self, result):
        return result

    def check(self, op, result):
        checks.check_cli(op.key[0], op.info["params"], *result)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (QGammaCatalog, AnnulusModulus, ExplicitModulus, CliSession)}
