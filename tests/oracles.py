"""Independent oracles the tests compare the library against.

Each oracle recomputes a quantity by a route the library never takes:
characteristic-polynomial roots at high precision for spectral radii,
a generic constrained optimizer for moduli, and exhaustive enumeration
for minimal essential cycles.  Keep these slow and obvious.
"""

from __future__ import annotations

import functools
import itertools
import math

import mpmath
import numpy as np
import sympy


def charpoly_radius(entries) -> float:
    """Largest root modulus of the characteristic polynomial.

    Entries must be integer-valued so the coefficients are exact.  Roots come
    from mpmath at 50 significant digits, falling back to sympy's exact
    isolation when the iteration stalls (it does on repeated roots), so
    defective eigenvalues stay well inside 1e-9.
    """
    a = np.asarray(entries, dtype=float)
    n = a.shape[0]
    assert a.shape == (n, n), "oracle needs a square matrix"
    assert np.all(a == np.rint(a)), "oracle needs integer entries"
    m = [[int(round(a[i, j])) for j in range(n)] for i in range(n)]

    if n == 1:
        coeffs = [1, -m[0][0]]
    elif n == 2:
        trace = m[0][0] + m[1][1]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        coeffs = [1, -trace, det]
    elif n == 3:
        trace = m[0][0] + m[1][1] + m[2][2]
        minors = (
            m[0][0] * m[1][1] - m[0][1] * m[1][0]
            + m[0][0] * m[2][2] - m[0][2] * m[2][0]
            + m[1][1] * m[2][2] - m[1][2] * m[2][1]
        )
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        coeffs = [1, -trace, minors, -det]
    else:
        raise ValueError("characteristic-polynomial oracle covers dim <= 3")

    if all(c == 0 for c in coeffs[1:]):
        return 0.0
    try:
        with mpmath.workdps(50):
            roots = mpmath.polyroots(coeffs, maxsteps=100, extraprec=100)
            return float(max(abs(r) for r in roots))
    except mpmath.libmp.libhyper.NoConvergence:
        poly = sympy.Poly(coeffs, sympy.symbols("_lam"))
        return float(max(abs(complex(r.evalf(30))) for r in poly.all_roots()))


def all_2x2_small() -> list[np.ndarray]:
    """Every 2x2 matrix with entries in {0, 1, 2, 3}."""
    return [
        np.array([[a, b], [c, d]], dtype=float)
        for a, b, c, d in itertools.product(range(4), repeat=4)
    ]


def _simplex_lattice(total: int, bins: int):
    """All non-negative integer tuples of the given length summing to total."""
    if bins == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _simplex_lattice(total - head, bins - 1):
            yield (head,) + rest


def brute_modulus(piece_count: int, curves, q: float, grid: int = 8) -> float:
    """Exhaustive-then-polished search for the Q-modulus of an explicit family.

    Scans the whole simplex lattice of weight directions (scale invariance
    makes directions enough), keeps the best volume-to-length ratio, then
    polishes with a generic SLSQP solve of the constrained form.  Completely
    independent of the library's dual ascent; only usable for small covers.
    """
    from scipy.optimize import minimize

    incidences = [sorted(c.incidence) for c in curves]
    best_val = np.inf
    best_rho = None
    for comp in _simplex_lattice(grid, piece_count):
        rho = np.array(comp, dtype=float)
        lengths = [rho[idx].sum() for idx in incidences]
        shortest = min(lengths)
        if shortest <= 0.0:
            continue
        val = float(np.sum((rho / shortest) ** q))
        if val < best_val:
            best_val = val
            best_rho = rho / shortest

    assert best_rho is not None, "grid scan found no admissible direction"

    constraints = [
        {"type": "ineq", "fun": lambda r, idx=idx: float(r[idx].sum() - 1.0)}
        for idx in incidences
    ]
    res = minimize(
        lambda r: float(np.sum(np.clip(r, 0.0, None) ** q)),
        best_rho,
        bounds=[(0.0, None)] * piece_count,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-14},
    )
    if res.x is not None:
        rho = np.clip(np.asarray(res.x, dtype=float), 0.0, None)
        lengths = [rho[idx].sum() for idx in incidences]
        shortest = min(lengths)
        if shortest > 0.0:
            best_val = min(best_val, float(np.sum((rho / shortest) ** q)))
    return best_val


def _cylinder_adjacency(c: int, h: int) -> list[list[tuple[int, int]]]:
    """8-neighbor adjacency of a (c, h) cylinder grid with winding deltas.

    Each directed edge carries +1 when it crosses the column seam forward
    (column c-1 to column 0), -1 backward, 0 otherwise.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(c * h)]
    for row in range(h):
        for col in range(c):
            u = row * c + col
            for dc in (-1, 0, 1):
                for dr in (-1, 0, 1):
                    if dc == 0 and dr == 0:
                        continue
                    rr = row + dr
                    if not 0 <= rr < h:
                        continue
                    v = rr * c + (col + dc) % c
                    if col == c - 1 and dc == 1:
                        delta = 1
                    elif col == 0 and dc == -1:
                        delta = -1
                    else:
                        delta = 0
                    adj[u].append((v, delta))
    return adj


def _mask_is_essential(mask: int, adj: list[list[tuple[int, int]]], n: int) -> bool:
    """Whether a cell subset supports a cycle winding around the cylinder.

    Depth-first search assigns each reached cell a winding offset; meeting a
    visited cell at a different offset exhibits a nonzero-winding cycle.
    """
    offset: dict[int, int] = {}
    for start in range(n):
        if not mask >> start & 1 or start in offset:
            continue
        offset[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v, delta in adj[u]:
                if not mask >> v & 1:
                    continue
                reached = offset[u] + delta
                if v not in offset:
                    offset[v] = reached
                    stack.append(v)
                elif offset[v] != reached:
                    return True
    return False


@functools.lru_cache(maxsize=None)
def essential_masks(c: int, h: int) -> tuple[int, ...]:
    """Bitmasks of every essential cell subset of a small cylinder grid."""
    n = c * h
    assert n <= 16, "exhaustive enumeration is for tiny grids only"
    adj = _cylinder_adjacency(c, h)
    return tuple(m for m in range(1, 1 << n) if _mask_is_essential(m, adj, n))


def exhaustive_min_essential(c: int, h: int, weights) -> float:
    """Minimal total weight over all essential cell subsets, by enumeration."""
    w = [float(x) for x in weights]
    assert len(w) == c * h
    best = math.inf
    for mask in essential_masks(c, h):
        total = sum(w[i] for i in range(c * h) if mask >> i & 1)
        if total < best:
            best = total
    return best


def eig_transition(spec, q: float) -> np.ndarray:
    """Transition matrix at exponent Q, built from the spec's fields alone."""
    index = {label: i for i, label in enumerate(spec.curves)}
    a = np.zeros((len(spec.curves), len(spec.curves)))
    for j, comps in enumerate(spec.preimages):
        for comp in comps:
            target = getattr(comp.classification, "curve", None)
            if target is not None:
                a[index[target], j] += float(comp.degree) ** (1.0 - q)
    return a


def eig_radius(spec, q: float) -> float:
    """Spectral radius of the transition matrix from ``numpy.linalg.eigvals``."""
    return float(np.max(np.abs(np.linalg.eigvals(eig_transition(spec, q)))))


def crosses_one(spec, q: float, window: float) -> bool:
    """Whether the eigvals radius is above 1 at ``q - window`` and below at ``q + window``."""
    return eig_radius(spec, q - window) > 1.0 > eig_radius(spec, q + window)


def functional_graph_q(target, degrees) -> float:
    """Critical exponent of a functional-graph multicurve by bisection.

    Curve ``j`` has components of degrees ``degrees[j]``, all homotopic to
    curve ``target[j]`` (an empty list means no essential component).  Each
    irreducible block is then a cycle ``c_1 -> ... -> c_L``, a weighted
    cyclic permutation, whose radius is ``(prod_i s_i(Q))^(1/L)`` with
    ``s_i(Q) = sum_d d^(1-Q)`` over the degrees of ``c_i``.  So a cycle
    crosses 1 where ``sum_i log s_i(Q) = 0``, a decreasing function of ``Q``
    once every degree is at least 2, and ``Q(Gamma)`` is the largest such
    root over the cycles.  Degrees must be at least 2 and some cycle must
    exist.
    """
    n = len(target)
    state = [0] * n  # 0 unvisited, 1 on the current walk, 2 done
    cycles = []
    for root in range(n):
        walk = []
        j = root
        while j is not None and state[j] == 0:
            state[j] = 1
            walk.append(j)
            j = target[j] if degrees[j] else None
        if j is not None and state[j] == 1:
            cycles.append(walk[walk.index(j):])
        for k in walk:
            state[k] = 2
    assert cycles, "the functional graph has no cycle"
    assert all(d >= 2 for ds in degrees for d in ds), "degrees must be at least 2"

    def log_product(cycle, q):
        return math.fsum(math.log(math.fsum(d ** (1.0 - q) for d in degrees[c])) for c in cycle)

    roots = []
    for cycle in cycles:
        lo, hi = 1.0, 2.0
        while log_product(cycle, hi) > 0.0:
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-14 * hi:
            mid = 0.5 * (lo + hi)
            if log_product(cycle, mid) > 0.0:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return max(roots)
