"""Output checks computed apart from confdim.

Each check takes the program's answer and the benchmark's own description of
the input and raises ``CheckFailed`` when the answer is wrong.  Nothing here
calls into confdim: spectral radii come from ``numpy.linalg.eigvals`` of a
matrix built here, Levy cycles from a topological sort of the degree-1
digraph built here, moduli from closed forms, weak duality or a dual linear
program solved here.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: half-width of the window in which the spectral radius must cross 1
Q_WINDOW = 1e-6
#: relative tolerance on closed forms and duality gaps
REL_TOL = 1e-6
#: slack on curve lengths ``A rho >= 1``
LENGTH_TOL = 1e-9


class CheckFailed(AssertionError):
    """The program returned a wrong answer."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def close(value, expected, rel=REL_TOL):
    return value is not None and abs(value - expected) <= rel * max(abs(expected), 1e-300)


# -- multicurves ---------------------------------------------------------------
# A multicurve is described here by its curve count and a list of essential
# components (source j, target i, degree): curve j's preimage has a component
# of that degree homotopic to curve i.


def spec_edges(spec):
    """Essential components of a confdim ``MulticurveSpec``, read off its fields."""
    index = {label: i for i, label in enumerate(spec.curves)}
    edges = []
    for j, comps in enumerate(spec.preimages):
        for comp in comps:
            target = getattr(comp.classification, "curve", None)
            if target is not None:
                edges.append((j, index[target], comp.degree))
    return len(spec.curves), edges


def json_edges(obj):
    """Essential components of a multicurve in the CLI's JSON form."""
    index = {label: i for i, label in enumerate(obj["curves"])}
    edges = []
    for label, comps in obj.get("preimages", {}).items():
        for comp in comps:
            if isinstance(comp["class"], dict):
                edges.append((index[label], index[comp["class"]["essential"]], comp["degree"]))
    return len(obj["curves"]), edges


def transition(n, edges, q):
    a = np.zeros((n, n))
    for j, i, degree in edges:
        a[i, j] += float(degree) ** (1.0 - q)
    return a


def radius(a):
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def acyclic(n, arcs):
    """Kahn's algorithm: True iff the digraph has no cycle (its matrix is nilpotent)."""
    succ = [set() for _ in range(n)]
    for j, i in arcs:
        succ[j].add(i)
    indeg = [0] * n
    for outs in succ:
        for i in outs:
            indeg[i] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == n


def check_q(n, edges, kind, q, expected=None):
    """Kind and exponent of one multicurve against the benchmark's own matrix."""
    levy = not acyclic(n, [(j, i) for j, i, d in edges if d == 1])
    require((kind == "levy_obstructed") == levy,
            f"kind {kind!r} but the degree-1 matrix is {'not ' if levy else ''}nilpotent")
    if levy:
        require(q is None, f"Levy-obstructed spec reported q={q}")
        return
    if acyclic(n, [(j, i) for j, i, _ in edges]):
        require(kind == "zero" and q == 0, f"nilpotent spec reported {kind} q={q}")
        return
    require(kind == "finite" and q is not None, f"irreducible spec reported {kind}")
    below = radius(transition(n, edges, q - Q_WINDOW))
    above = radius(transition(n, edges, q + Q_WINDOW))
    require(below > 1.0 > above,
            f"spectral radius does not cross 1 within {Q_WINDOW} of q={q!r}: "
            f"{below!r} at q-{Q_WINDOW}, {above!r} at q+{Q_WINDOW}")
    if expected is not None:
        require(abs(q - expected) <= 1e-9, f"q={q!r}, closed form {expected!r}")


# -- moduli --------------------------------------------------------------------


def annulus_value(cols, rows, q):
    return rows * cols ** (1.0 - q)


def check_annulus(cols, rows, q, value, certificate_ok):
    expected = annulus_value(cols, rows, q)
    require(close(value, expected),
            f"{cols}x{rows} at Q={q}: value {value!r}, h*c^(1-Q) = {expected!r}")
    require(certificate_ok is True, f"{cols}x{rows} at Q={q}: certificate not ok")


def dual_value(mu, u, q):
    """Weak-duality lower bound g(mu) = sum(mu) - (Q-1) sum (u/Q)^(Q/(Q-1))."""
    return float(np.sum(mu) - (q - 1.0) * np.sum((np.maximum(u, 0.0) / q) ** (q / (q - 1.0))))


def incidence(curves, pieces):
    a = np.zeros((len(curves), pieces))
    for row, curve in enumerate(curves):
        a[row, list(curve)] = 1.0
    return a


def check_explicit(curves, pieces, q, value, rho, active=None, multipliers=None):
    """Modulus of an explicit family: feasibility, volume and a dual bound.

    ``curves`` are the benchmark's own piece lists.  At Q > 1 the certificate's
    multipliers on its active curves give g(mu) <= Mod by weak duality; it must
    close the gap to the value.  At Q = 1 the value must equal the optimum of
    the dual linear program max sum(mu), A^T mu <= 1, mu >= 0, solved here.
    """
    a = incidence(curves, pieces)
    rho = np.asarray(rho, dtype=float)
    require(rho.shape == (pieces,) and np.all(rho >= 0), "weights have the wrong shape or sign")
    require(float(np.min(a @ rho)) >= 1.0 - LENGTH_TOL,
            f"a curve has length {float(np.min(a @ rho))!r} < 1")
    require(close(value, float(np.sum(rho**q)), 1e-9), "value is not the volume of the weights")
    if q == 1.0:
        from scipy.optimize import linprog

        lp = linprog(-np.ones(len(curves)), A_ub=a.T, b_ub=np.ones(pieces),
                     bounds=[(0.0, None)] * len(curves), method="highs")
        require(lp.status == 0, f"dual LP failed: {lp.message}")
        require(close(value, -lp.fun), f"Q=1 value {value!r}, dual LP optimum {-lp.fun!r}")
        return
    require(multipliers is not None, "no certificate at Q > 1")
    rows = {frozenset(c): r for r, c in enumerate(curves)}
    require(all(frozenset(c) in rows for c in active),
            "certificate names a curve outside the family")
    mu = np.asarray(multipliers, dtype=float)
    require(np.all(mu >= 0), "negative multiplier")
    u = a[[rows[frozenset(c)] for c in active]].T @ mu if len(active) else np.zeros(pieces)
    g = dual_value(mu, u, q)
    require(g <= value * (1.0 + 1e-9), f"dual bound {g!r} above the value {value!r}")
    require(value - g <= REL_TOL * value, f"duality gap {value - g!r} at value {value!r}")


# -- CLI reports -----------------------------------------------------------------


def _json(stdout):
    try:
        return json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc


def _verify_ok(report, check):
    require(report.get("check") == check, f"report is for {report.get('check')!r}")
    require(report.get("ok") is True and all(row["pass"] is True for row in report["cases"]),
            f"{check} has failing rows")


def check_cli(kind, params, returncode, stdout):
    """One CLI command's exit code and report against closed forms."""
    expected_code = 3 if kind == "q-map" else 0
    require(returncode == expected_code, f"{kind}: exit {returncode}, expected {expected_code}")
    if kind == "q-gamma-json":
        report = _json(stdout)
        require(report["kind"] == "finite" and close(report["q"], 2.0, 1e-9),
                f"Lattes q = {report.get('q')!r}, expected 2")
    elif kind == "q-gamma-csv":
        lines = stdout.decode("utf-8").splitlines()
        require(lines[0] == "kind,q,achieved_lambda,iterations", "bad CSV header")
        fields = lines[1].split(",")
        require(len(lines) == 2 and fields[0] == "finite" and close(float(fields[1]), 2.0, 1e-9),
                f"Lattes CSV row {lines[1:]!r}")
    elif kind == "q-map":
        report = _json(stdout)
        results = report["results"]
        require(len(results) == len(params["specs"]), "wrong number of catalog results")
        finite = [0.0]
        for spec, expected, result in zip(params["specs"], params["expected"], results):
            n, edges = json_edges(spec)
            check_q(n, edges, result["kind"], result["q"], expected)
            if result["kind"] in ("finite", "zero"):
                finite.append(result["q"])
        require(report["levy_obstructed"] is True, "Levy member not flagged")
        require(close(report["conformal_dimension_lower_bound"], max(finite), 1e-9),
                "lower bound is not the largest finite exponent")
    elif kind == "modulus-grid":
        report = _json(stdout)
        qs = [1.0 + 0.5 * k for k in range(5)]
        require([row["q"] for row in report["results"]] == qs, "wrong exponent grid")
        for row in report["results"]:
            q = row["q"]
            expected = sum(size ** (1.0 - q) for size in params["sizes"])
            require(close(row["value"], expected),
                    f"disjoint family at Q={q}: {row['value']!r}, closed form {expected!r}")
            require(row["certificate_ok"] is (None if q == 1.0 else True), f"certificate at Q={q}")
    elif kind == "modulus-annulus":
        report = _json(stdout)
        cols, rows = params["cols"], params["rows"]
        check_annulus(cols, rows, 2.0, report["value"], report["certificate"]["ok"])
        require(all(close(w, 1.0 / cols) for w in report["optimizer"]), "optimizer is not 1/c")
    elif kind == "growth":
        report = _json(stdout)
        _verify_ok(report, "growth-check")
        require(len(report["cases"]) == 4 * 5, "growth-check should have 4 exponents x 5 levels")
        for row in report["cases"]:
            q, n = row["q"], row["level"]
            left = 2**n * annulus_value(16 * 2**n, 4, q)
            right = annulus_value(16, 4, q) * (2.0 ** (2.0 - q)) ** n
            require(close(row["left"], left) and close(row["right"], right),
                    f"growth level {n} at Q={q}: left {row['left']!r} vs {left!r}, "
                    f"right {row['right']!r} vs {right!r}")
    elif kind == "pack":
        report = _json(stdout)
        _verify_ok(report, "pack-check")
        require([row["cells"] for row in report["cases"]] == [8 * 4**k for k in range(6)],
                "pack-check cell counts")
        require(all(close(row["constant"], math.sqrt(2.0), 1e-11) for row in report["cases"]),
                "packing constant is not sqrt(2)")
    elif kind == "scaling":
        report = _json(stdout)
        _verify_ok(report, "scaling-check")
        require(len(report["cases"]) == 6, "scaling-check should have 3 grids x 2 degrees")
        for row in report["cases"]:
            cols, rows = (int(t) for t in row["grid"].split("x"))
            base = annulus_value(cols, rows, row["q"])
            cover = row["degree"] ** (1.0 - row["q"]) * base
            require(close(row["base"], base) and close(row["cover"], cover),
                    f"scaling row {row['grid']} d={row['degree']}")
    elif kind == "props":
        report = _json(stdout)
        _verify_ok(report, "props")
        require(len(report["cases"]) == 20, "props should have 20 cases")
        require(all(row["lhs"] <= row["rhs"] + 2e-6 for row in report["cases"]),
                "monotonicity or subadditivity violated")
    else:
        raise CheckFailed(f"unknown command kind {kind!r}")
