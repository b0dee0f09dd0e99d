"""Combinatorial Q-modulus of curve families on finite covers.

A cover is just a count of pieces; a curve is the set of pieces it meets.
The modulus of a family of curves is the infimum of the Q-volume of a
weight vector over the pieces, normalized so every curve in the family has
weighted length at least 1:

    minimize sum_s rho_s^Q   subject to   sum_{s in gamma} rho_s >= 1,
                                          rho >= 0.

Scale invariance of the volume-to-length ratio makes this constrained form
equivalent to the ratio infimum.  For Q > 1 the objective is strictly
convex, so the optimizer is unique, and optimality is certified by the
Beurling criterion: Q rho_s^(Q-1) must be a non-negative combination of the
indicator vectors of minimal-length curves.

The solver works on the dual.  With multipliers lam >= 0 per curve and
u = A^T lam the per-piece totals, stationarity gives rho = (u/Q)^(1/(Q-1))
and the dual objective

    g(lam) = sum(lam) - (Q-1) * sum_s (u_s/Q)^(Q/(Q-1)),

a smooth concave function maximized over the non-negative orthant by a
projected Newton method (projection onto lam >= 0 is a clamp, which is the
reason for preferring the dual over the primal polyhedron).  Families too
large to enumerate are handled by constraint generation against a
separation oracle that returns a shortest curve for given weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
from scipy.optimize import linprog, nnls

from confdim.spectral import ConvergenceError

Weights = Union["WeightVector", np.ndarray, Sequence[float]]

_MAX_NEWTON_STEPS = 300

#: KKT violation below which line-search failures switch to raw Newton steps
_POLISH_VIOL = 1e-6

#: consecutive non-improving iterations before the best iterate is returned
_STALE_LIMIT = 15


@dataclass(frozen=True)
class Cover:
    """A finite cover, reduced to its piece count."""

    piece_count: int

    def __post_init__(self):
        if self.piece_count < 1:
            raise ValueError("a cover needs at least one piece")


@dataclass(frozen=True)
class CombCurve:
    """A curve, recorded as the set of cover pieces it intersects."""

    incidence: frozenset[int]

    def __init__(self, incidence: Iterable[int]):
        pieces = frozenset(int(i) for i in incidence)
        if not pieces:
            raise ValueError("a curve must meet at least one piece")
        if any(i < 0 for i in pieces):
            raise ValueError("piece indices must be non-negative")
        object.__setattr__(self, "incidence", pieces)

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.incidence))


@dataclass(frozen=True)
class CurveFamily:
    """Either an explicit list of curves or a separation oracle.

    The oracle form covers families too large to enumerate: given a weight
    array it must return a curve of minimal weighted length in the family,
    deterministically for fixed weights.
    """

    curves: Optional[tuple[CombCurve, ...]] = None
    oracle: Optional[Callable[[np.ndarray], CombCurve]] = None

    def __post_init__(self):
        if (self.curves is None) == (self.oracle is None):
            raise ValueError("provide exactly one of curves or oracle")
        if self.curves is not None:
            curves = tuple(self.curves)
            if not curves:
                raise ValueError("an explicit family must be non-empty")
            object.__setattr__(self, "curves", curves)

    @property
    def is_explicit(self) -> bool:
        return self.curves is not None

    def shortest(self, rho: np.ndarray) -> tuple[float, CombCurve]:
        """A minimal-length curve of the family under the given weights."""
        if self.curves is not None:
            best = min(self.curves, key=lambda c: (rho_length(rho, c), c.sorted_indices()))
            return rho_length(rho, best), best
        curve = self.oracle(np.asarray(rho, dtype=float))
        return rho_length(rho, curve), curve


def explicit_family(curves: Iterable[CombCurve]) -> CurveFamily:
    return CurveFamily(curves=tuple(curves))


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Non-negative weight per cover piece; the candidate metric rho."""

    rho: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rho, dtype=float, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("weight vector must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite")
        if np.any(arr < 0):
            raise ValueError("weights must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "rho", arr)


@dataclass(frozen=True, eq=False)
class BeurlingCertificate:
    """Outcome of the optimality check for a weight vector.

    ``ok`` means: the minimal-length curves admit non-negative multipliers
    whose indicator combination reproduces Q rho^(Q-1) on every piece with
    sup-norm residual at most the tolerance used.
    """

    ok: bool
    active_curves: tuple[CombCurve, ...]
    multipliers: np.ndarray
    kkt_residual: float
    min_length: float


@dataclass(frozen=True, eq=False)
class ModulusResult:
    value: float
    optimizer: WeightVector
    min_length: float
    certificate: Optional[BeurlingCertificate]


@dataclass(frozen=True)
class SubadditivityReport:
    subadditive: bool
    additive_when_disjoint: Optional[bool]
    union_value: float
    sum_of_values: float
    disjoint_supports: bool


def _rho_array(rho: Weights, expected_size: Optional[int] = None) -> np.ndarray:
    if isinstance(rho, WeightVector):
        arr = rho.rho
    else:
        arr = np.asarray(rho, dtype=float)
    if expected_size is not None and arr.size != expected_size:
        raise ValueError(f"weight vector has {arr.size} entries, cover has {expected_size}")
    return arr


def rho_length(rho: Weights, curve: CombCurve) -> float:
    """Weighted length of a curve: the sum of rho over the pieces it meets."""
    arr = _rho_array(rho)
    return float(sum(arr[i] for i in curve.incidence))


def rho_volume(rho: Weights, q: float, piece_set: Optional[Iterable[int]] = None) -> float:
    """Q-volume: the sum of rho^Q over a piece set (whole cover by default)."""
    if q < 1.0:
        raise ValueError(f"volume exponent must satisfy Q >= 1, got {q}")
    arr = _rho_array(rho)
    if piece_set is None:
        return float(np.sum(arr**q))
    return float(sum(arr[i] ** q for i in piece_set))


def incidence_matrix(curves: Sequence[CombCurve], piece_count: int) -> np.ndarray:
    """0/1 matrix with one row per curve, one column per piece."""
    inc = np.zeros((len(curves), piece_count))
    for row, curve in enumerate(curves):
        for i in curve.incidence:
            if i >= piece_count:
                raise ValueError(f"curve meets piece {i}, cover has {piece_count}")
            inc[row, i] = 1.0
    return inc


def _dual_value(lam: np.ndarray, u: np.ndarray, q: float) -> float:
    return float(lam.sum() - (q - 1.0) * np.sum((u / q) ** (q / (q - 1.0))))


def _kkt_violation(lam: np.ndarray, grad: np.ndarray) -> float:
    viol = float(np.max(grad))
    pos = lam > 0.0
    if pos.any():
        viol = max(viol, float(np.max(-grad[pos])))
    return max(viol, 0.0)


def _armijo(inc, q, lam, grad, step, g0, tries=60):
    """Backtracking line search on the projected ray max(lam + t*step, 0)."""
    t = 1.0
    for _ in range(tries):
        cand = np.maximum(lam + t * step, 0.0)
        moved = cand - lam
        dd = float(grad @ moved)
        if dd > 0.0:
            g1 = _dual_value(cand, inc.T @ cand, q)
            if g1 >= g0 + 1e-4 * dd:
                return cand, True
        t *= 0.5
    return lam, False


def _solve_dual(
    inc: np.ndarray, q: float, kkt_tol: float, lam0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize the concave dual over lam >= 0 by projected Newton steps.

    Returns the primal weights rho(lam) and the multipliers.  Convergence is
    declared on the KKT residual: no curve length below 1 (dual gradient
    positive) and stationarity on the support of lam.

    Near the optimum the per-step value gains drop below the rounding noise
    of the dual value, so the line search goes blind while the gradient is
    still accurate; once the violation is small, steps are taken without it
    and the best iterate seen wins.
    """
    exp_rho = 1.0 / (q - 1.0)
    lam = np.maximum(np.asarray(lam0, dtype=float), 0.0)
    best_viol, best = np.inf, None
    stale = 0
    for _ in range(_MAX_NEWTON_STEPS):
        u = inc.T @ lam
        rho = (u / q) ** exp_rho
        grad = 1.0 - inc @ rho
        viol = _kkt_violation(lam, grad)
        if viol < best_viol:
            best_viol, best, stale = viol, (rho, lam.copy()), 0
        else:
            stale += 1
        if viol <= kkt_tol:
            return rho, lam
        if stale >= _STALE_LIMIT:
            break
        g0 = _dual_value(lam, u, q)
        free = (lam > 0.0) | (grad > 0.0)

        # Curvature of the dual: d rho / d u, clamped near u = 0 where the
        # second derivative blows up for Q > 2.  The clamp only shapes the
        # Newton direction; gradients stay exact.
        u_floor = 1e-12 * max(float(u.max()), 1.0)
        slope = (exp_rho / q) * (np.maximum(u, u_floor) / q) ** (exp_rho - 1.0)
        sub = inc[free]
        hess = (sub * slope) @ sub.T
        ridge = 1e-12 * max(float(np.trace(hess)) / hess.shape[0], 1e-30)
        hess[np.diag_indices_from(hess)] += ridge
        try:
            newton = np.linalg.solve(hess, grad[free])
        except np.linalg.LinAlgError:
            newton = grad[free]
        step = np.zeros(lam.size)
        step[free] = newton

        lam_next, ok = _armijo(inc, q, lam, grad, step, g0)
        if not ok:
            # fall back to the projected gradient ray before declaring a stall
            lam_next, ok = _armijo(inc, q, lam, grad, grad.copy(), g0)
        if not ok:
            if viol > _POLISH_VIOL:
                break
            # value comparisons are noise-limited here; trust the direction
            lam_next = np.maximum(lam + step, 0.0)
        lam = lam_next

    if best is not None and best_viol <= 50.0 * kkt_tol:
        return best
    raise ConvergenceError(
        f"dual solver stalled with KKT violation {best_viol:.3e} (target {kkt_tol:.1e})"
    )


def _solve_lp(inc: np.ndarray) -> np.ndarray:
    """Exponent-1 case: a plain linear program, no uniqueness guarantees."""
    m, n = inc.shape
    res = linprog(
        c=np.ones(n),
        A_ub=-inc,
        b_ub=-np.ones(m),
        bounds=[(0.0, None)] * n,
        method="highs",
    )
    if not res.success:
        raise ConvergenceError(f"length-constrained linear program failed: {res.message}")
    return np.asarray(res.x, dtype=float)


def _initial_multipliers(init: str, count: int) -> np.ndarray:
    if init == "uniform":
        return np.ones(count)
    if init == "staggered":
        return 1.0 + np.arange(1, count + 1) / (count + 1.0)
    raise ValueError(f"unknown initialization {init!r}; use 'uniform' or 'staggered'")


def modulus(
    cover: Cover,
    family: CurveFamily,
    q: float,
    tol: float = 1e-8,
    init: str = "uniform",
    max_rounds: Optional[int] = None,
) -> ModulusResult:
    """Combinatorial Q-modulus of a curve family on a finite cover.

    The returned optimizer is normalized so the family's minimal length is 1,
    making the value equal to the optimizer's Q-volume.  For Q > 1 a
    Beurling certificate is attached (recomputed from the weights alone, not
    copied out of the solver); Q = 1 returns the value with no certificate.

    Oracle families are solved by constraint generation: solve with the
    curves collected so far, ask the oracle for a shortest curve, and stop
    once nothing shorter than 1 - tol/(2Q) exists.
    """
    if q < 1.0:
        raise ValueError(f"modulus exponent must satisfy Q >= 1, got {q}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = cover.piece_count
    if max_rounds is None:
        max_rounds = n + 100

    kkt_tol = max(min(tol * 1e-2, 1e-10), 1e-12)
    sep_tol = tol / (2.0 * q)

    if family.is_explicit:
        working = list(family.curves)
    else:
        working = [family.shortest(np.ones(n))[1]]
    seen = {c.incidence for c in working}

    rounds = 0
    while True:
        inc = incidence_matrix(working, n)
        if q == 1.0:
            rho = _solve_lp(inc)
        else:
            rho, _ = _solve_dual(inc, q, kkt_tol, _initial_multipliers(init, len(working)))
        if family.is_explicit:
            break
        length, candidate = family.shortest(rho)
        if length >= 1.0 - sep_tol:
            break
        rounds += 1
        if rounds >= max_rounds:
            raise ConvergenceError(
                f"constraint generation did not close after {rounds} rounds "
                f"(shortest length {length:.6g})"
            )
        if candidate.incidence in seen:
            raise ConvergenceError(
                "separation oracle returned an already-enforced curve of length "
                f"{length:.6g}; the inner solve is inconsistent with the oracle"
            )
        seen.add(candidate.incidence)
        working.append(candidate)

    # Normalize by the true minimal length over the whole family, so the
    # reported weights are exactly feasible and the value is their volume.
    min_length, _ = family.shortest(rho)
    if min_length <= 0.0:
        raise ConvergenceError("solver returned weights with a zero-length curve")
    rho = rho / min_length
    value = rho_volume(rho, q)

    certificate = None
    if q > 1.0:
        certificate = beurling_check(cover, working, rho, q, tol=max(tol, 1e-8))
    return ModulusResult(
        value=value,
        optimizer=WeightVector(rho),
        min_length=family.shortest(rho)[0],
        certificate=certificate,
    )


def beurling_check(
    cover: Cover,
    curves: Sequence[CombCurve],
    rho: Weights,
    q: float,
    tol: float = 1e-8,
) -> BeurlingCertificate:
    """Optimality certificate for a weight vector against an explicit family.

    Identifies the active curves (length within ``tol`` of minimal), fits
    non-negative multipliers by least squares on the cone, and succeeds when
    Q rho^(Q-1) is reproduced with sup-norm residual at most ``tol``.
    Failure is a result, not an error: non-optimal weights are expected to
    land here with a large residual.
    """
    if q <= 1.0:
        raise ValueError("the optimality criterion requires Q > 1")
    if not curves:
        raise ValueError("need at least one curve to certify against")
    arr = _rho_array(rho, cover.piece_count)
    if rho_volume(arr, q) <= 0.0:
        raise ValueError("weights are not admissible: zero volume")

    inc = incidence_matrix(curves, cover.piece_count)
    lengths = inc @ arr
    min_length = float(lengths.min())
    active_mask = lengths <= min_length + tol
    active = [c for c, keep in zip(curves, active_mask) if keep]

    target = q * arr ** (q - 1.0)
    design = inc[active_mask].T
    multipliers, _ = nnls(design, target)
    residual = float(np.max(np.abs(design @ multipliers - target)))
    return BeurlingCertificate(
        ok=residual <= tol,
        active_curves=tuple(active),
        multipliers=multipliers,
        kkt_residual=residual,
        min_length=min_length,
    )


def verify_monotonicity(
    cover: Cover,
    family1: CurveFamily,
    family2: CurveFamily,
    q: float,
    tol: float = 1e-8,
) -> bool:
    """Check mod(family1) <= mod(family2) + 2*tol for nested explicit families."""
    if not (family1.is_explicit and family2.is_explicit):
        raise ValueError("containment checking needs explicit families")
    sets2 = {c.incidence for c in family2.curves}
    missing = [c for c in family1.curves if c.incidence not in sets2]
    if missing:
        raise ValueError(f"family1 has {len(missing)} curve(s) not present in family2")
    v1 = modulus(cover, family1, q, tol).value
    v2 = modulus(cover, family2, q, tol).value
    return v1 <= v2 + 2.0 * tol


def verify_subadditivity(
    cover: Cover,
    families: Sequence[CurveFamily],
    q: float,
    tol: float = 1e-8,
) -> SubadditivityReport:
    """Check mod(union) <= sum of moduli, with equality on disjoint supports.

    The additivity clause is only asserted when the families' piece supports
    are pairwise disjoint; otherwise the flag is None.
    """
    if not families:
        raise ValueError("need at least one family")
    if not all(f.is_explicit for f in families):
        raise ValueError("subadditivity checking needs explicit families")

    union_curves: dict[frozenset[int], CombCurve] = {}
    for fam in families:
        for curve in fam.curves:
            union_curves[curve.incidence] = curve
    union = explicit_family(union_curves.values())

    values = [modulus(cover, fam, q, tol).value for fam in families]
    union_value = modulus(cover, union, q, tol).value
    total = float(sum(values))

    supports = [frozenset().union(*(c.incidence for c in fam.curves)) for fam in families]
    disjoint = all(
        not (supports[i] & supports[j])
        for i in range(len(supports))
        for j in range(i + 1, len(supports))
    )
    slack = tol * (1.0 + len(families)) * max(1.0, total)
    return SubadditivityReport(
        subadditive=union_value <= total + 2.0 * tol,
        additive_when_disjoint=(abs(union_value - total) <= slack) if disjoint else None,
        union_value=union_value,
        sum_of_values=total,
        disjoint_supports=disjoint,
    )
