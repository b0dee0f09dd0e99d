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
u = A^T lam the per-piece totals, stationarity gives rho = (u/Q)^(1/(Q-1)),
and the optimum is the lam >= 0 at which every curve with lam > 0 has
length exactly 1 and no curve is shorter.  One active-set loop finds it
(Lawson and Hanson, *Solving Least Squares Problems*, ch. 23): Newton's
method on the lengths of a working set of curves, a curve dropped when its
multiplier reaches 0.  Its rounds are the constraint generation of Albin,
Brunner, Perez, Poggi-Corradini and Wiens (Conform. Geom. Dyn. 2015): after
each solve the family offers curves shortest first, and the loop stops when
the first is not shorter than 1.  An explicit family offers its whole pool
sorted by length, less every curve that contains another (whose constraint
is then implied); a family too large to enumerate offers what its
separation oracle returns.  The shortest offered curve joins, and so does
every later one shorter than 1 that is not working yet, warm from the
previous multipliers; an oracle's curves must also miss those taken before
them.  Each kind keeps the rule that is faster on it: disjoint-only batches
made explicit families about 2.3 times slower, and dense oracle batches
took about 18 Newton steps a round.  No rank test guards a batch: the ridge
and the ratio test of the Newton step drop dependent rows.  Q = 1 is a
linear program over the same rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
from scipy.optimize import linprog, nnls

from confdim.spectral import ConvergenceError

Weights = Union["WeightVector", np.ndarray, Sequence[float]]

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
        pieces = frozenset(map(int, incidence))
        if not pieces:
            raise ValueError("a curve must meet at least one piece")
        if min(pieces) < 0:
            raise ValueError("piece indices must be non-negative")
        object.__setattr__(self, "incidence", pieces)

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.incidence))


@dataclass(frozen=True)
class CurveFamily:
    """Either an explicit list of curves or a separation oracle.

    The oracle form covers families too large to enumerate: given a weight
    array it must return a curve of minimal weighted length in the family,
    or a sequence of curves, shortest first, that starts with such a curve;
    deterministically for fixed weights.
    """

    curves: Optional[tuple[CombCurve, ...]] = None
    oracle: Optional[Callable[[np.ndarray], Union[CombCurve, Sequence[CombCurve]]]] = None

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
        """A minimal-length curve of the family under the given weights.

        Ties in an explicit family go to the lowest sorted piece indices.
        """
        if self.curves is not None:
            lengths = [rho_length(rho, c) for c in self.curves]
            least = min(lengths)
            tied = (c for c, length in zip(self.curves, lengths) if length == least)
            return least, min(tied, key=CombCurve.sorted_indices)
        curve = self._offers(rho)[0]
        return rho_length(rho, curve), curve

    def _offers(self, rho: np.ndarray) -> tuple[CombCurve, ...]:
        """The oracle's curves for the given weights, shortest first."""
        got = self.oracle(np.asarray(rho, dtype=float))
        return (got,) if isinstance(got, CombCurve) else tuple(got)


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
    sup-norm residual at most the tolerance used times the largest entry of
    Q rho^(Q-1).
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


def rho_volume(rho: Weights, q: float) -> float:
    """Q-volume: the sum of rho^Q over the whole cover."""
    if q < 1.0:
        raise ValueError(f"volume exponent must satisfy Q >= 1, got {q}")
    return float(np.sum(_rho_array(rho) ** q))


def incidence_matrix(curves: Sequence[CombCurve], piece_count: int) -> np.ndarray:
    """0/1 matrix with one row per curve, one column per piece."""
    inc = np.zeros((len(curves), piece_count))
    for row, curve in enumerate(curves):
        for i in curve.incidence:
            if i >= piece_count:
                raise ValueError(f"curve meets piece {i}, cover has {piece_count}")
            inc[row, i] = 1.0
    return inc


def _start_scale(u: np.ndarray, rows: np.ndarray, w: np.ndarray, q: float) -> float:
    """The scale s at which the longest row under the totals u + s rows^T w is 1.

    Every log length is convex in log s (linear from u = 0): Newton on those.
    """
    e = 1.0 / (q - 1.0)
    push = rows.T @ w
    s = 1.0
    for _ in range(100):
        cur = (u + s * push) / q
        lengths = rows @ cur**e
        i = int(np.argmax(lengths))
        if not 0.0 < lengths[i] < math.inf:
            raise ConvergenceError(f"row length {lengths[i]:.3e} at scale {s:.3e} is out of range")
        if abs(math.log(lengths[i])) <= 1e-12:
            break
        on = (rows[i] > 0.0) & (push > 0.0)
        slope = s * e * float(np.sum(cur[on] ** (e - 1.0) * push[on])) / (q * lengths[i])
        s *= math.exp(-math.log(lengths[i]) / slope)
    return s


def _newton(rows: np.ndarray, lam: np.ndarray, q: float, kkt_tol: float):
    """Solve rows rho(rows^T lam) = 1 for lam on a working set of curves.

    Newton's method on F(lam) = 1 - A rho(A^T lam), whose Jacobian is minus
    A diag(rho') A^T, with backtracking on |F|^2.  A step that would send a
    multiplier to 0 or below stops at 0 and removes that curve (Lawson and
    Hanson).  Returns the kept rows and multipliers.
    """
    e = 1.0 / (q - 1.0)
    for _ in range(300):
        u = rows.T @ lam
        resid = 1.0 - rows @ (u / q) ** e
        if np.all(np.abs(resid) <= kkt_tol):
            return rows, lam
        with np.errstate(divide="ignore"):
            slope = np.where(u > 0.0, (e / q) * (u / q) ** (e - 1.0), 0.0)
        # The Jacobian scaled by sqrt(lam) on both sides has entries below e
        # times a length, however small a multiplier or steep rho' gets.
        # Dependent rows, or multipliers too small to tell apart, make it
        # singular; the ridge turns that into a long step along the null
        # direction, which the ratio test below cuts at a zero.
        root = np.sqrt(lam)
        half = rows * np.sqrt(slope) * root[:, None]
        scaled = half @ half.T
        scaled.flat[:: lam.size + 1] += 1e-14 * float(scaled.max())
        step = root * np.linalg.solve(scaled, root * resid)
        # Backtracking starts at the first zero of a multiplier, if the step
        # reaches one; that trial drops the curve and its own residual.
        neg = np.flatnonzero(step < 0.0)
        ratios = -lam[neg] / step[neg]
        t, keep = 1.0, np.ones(lam.size, dtype=bool)
        if ratios.size and ratios.min() < 1.0:
            t = float(ratios.min())
            keep[neg[np.argmin(ratios)]] = False
        with np.errstate(over="ignore"):
            while True:
                trial = np.where(keep, np.maximum(lam + t * step, 0.0), 0.0)
                r = (1.0 - rows @ (rows.T @ trial / q) ** e)[keep]
                if t <= 1e-12 or r @ r <= (1.0 - 1e-4 * t) * (resid[keep] @ resid[keep]):
                    break
                t, keep[:] = 0.5 * t, True
        keep &= trial > 0.0
        rows, lam = rows[keep], trial[keep]
    worst = np.max(np.abs(resid))
    raise ConvergenceError(f"Newton stalled at length residual {worst:.3e} (target {kkt_tol:.1e})")


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
    return np.maximum(np.asarray(res.x, dtype=float), 0.0)


def _initial_multipliers(init: str, count: int) -> np.ndarray:
    if init == "uniform":
        return np.ones(count)
    if init == "staggered":
        return 1.0 + np.arange(1, count + 1) / (count + 1.0)
    raise ValueError(f"unknown initialization {init!r}; use 'uniform' or 'staggered'")


def _minimal_rows(inc: np.ndarray) -> np.ndarray:
    """Rows of the curves that contain no other curve (one copy of each).

    With rho >= 0 a curve is no shorter than any curve it contains, so its
    constraint is implied and the optimum stays the same.
    """
    sizes = inc.sum(axis=1)
    contains = (inc @ inc.T == sizes) & ~np.eye(len(inc), dtype=bool)
    contains &= (sizes[:, None] > sizes) | np.tri(len(inc), k=-1, dtype=bool)
    return inc[~contains.any(axis=1)]


def _cuts(
    offered: np.ndarray, lengths: np.ndarray, rows: np.ndarray, short: float, disjoint: bool
) -> np.ndarray:
    """Rows of the offered curves that join the working set this round.

    The first offered curve, the shortest, always joins.  After it, in the
    offered order, a curve joins when it is shorter than 1 - short and not a
    working curve already; with ``disjoint`` it must also miss every curve
    taken before it, so the rows taken are independent.
    """
    sizes = offered.sum(axis=1)
    working = ((rows @ offered.T == sizes) & (rows.sum(axis=1)[:, None] == sizes)).any(axis=0)
    if working[0]:
        raise ConvergenceError(f"the shortest offered curve (length {lengths[0]:.6g}) is working")
    taken = (lengths < 1.0 - short) & ~working
    taken[0] = True
    if disjoint:
        used = np.zeros(offered.shape[1])
        for i in np.flatnonzero(taken):
            taken[i] = not used @ offered[i]
            used += taken[i] * offered[i]
    return offered[taken]


def modulus(
    cover: Cover,
    family: CurveFamily,
    q: float,
    tol: float = 1e-8,
    init: str = "uniform",
) -> ModulusResult:
    """Combinatorial Q-modulus of a curve family on a finite cover.

    The returned optimizer is normalized so the family's minimal length is 1,
    making the value equal to the optimizer's Q-volume.  For Q > 1 a
    Beurling certificate is attached (recomputed from the weights alone, not
    copied out of the solver); Q = 1 returns the value with no certificate.

    Each round solves on the working set and takes the family's offered
    curves as the module docstring says, where shorter than 1 means shorter
    than 1 - 2e-2 tol, clipped to [2e-12, 2e-10] (tol/2 at Q = 1).  The first
    round takes every offered curve, so an explicit family at Q = 1 is one
    linear program.  An oracle family's certificate is checked against the
    final working set and the oracle's last answer.  ``init`` sets the
    weights of the first oracle query and the starting multipliers of
    curves added together.
    """
    if q < 1.0:
        raise ValueError(f"modulus exponent must satisfy Q >= 1, got {q}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = cover.piece_count
    kkt_tol = max(min(tol * 1e-2, 1e-10), 1e-12)
    # Twice the Newton target, so rounding cannot bring back a working
    # curve; the LP at Q = 1 is only as accurate as its feasibility tolerance.
    short = tol / 2.0 if q == 1.0 else 2.0 * kkt_tol

    # An offer is the rows shortest first and a function naming the first
    # curve, asked once at the end.  The first offer is made at the weights
    # of the empty working set, 0, or for an oracle, under which every curve
    # would tie, at the weights ``init`` gives.
    if family.is_explicit:
        pool = incidence_matrix(family.curves, n)
        if q > 1.0:
            pool = _minimal_rows(pool)
        start, disjoint = np.zeros(n), False

        def offer(rho):
            return pool[np.argsort(pool @ rho, kind="stable")], lambda: family.shortest(rho)[1]
    else:
        start, disjoint = _initial_multipliers(init, n), True

        def offer(rho):
            curves = family._offers(rho)
            return incidence_matrix(curves, n), lambda: curves[0]

    rows, lam = np.zeros((0, n)), np.zeros(0)
    # With no working curve every curve is too short.
    offered, _ = offer(start)
    new = _cuts(offered, np.zeros(len(offered)), rows, short, disjoint)
    for _ in range(n + 100):
        if q == 1.0:
            rows = np.vstack([rows, new])
            rho = _solve_lp(rows)
        else:
            # The new curves start at the scale where the longest is 1.
            w = _initial_multipliers(init, len(new))
            lam = np.concatenate([lam, _start_scale(rows.T @ lam, new, w, q) * w])
            rows, lam = _newton(np.vstack([rows, new]), lam, q, kkt_tol)
            rho = (rows.T @ lam / q) ** (1.0 / (q - 1.0))
        offered, first = offer(rho)
        lengths = offered @ rho
        if lengths[0] >= 1.0 - short:
            break
        new = _cuts(offered, lengths, rows, short, disjoint)
    else:
        raise ConvergenceError(
            f"constraint generation did not close after {n + 100} rounds "
            f"(shortest length {lengths[0]:.6g})"
        )

    # Normalize by the family's minimal length, so the reported weights are
    # exactly feasible and the value is their volume.
    curve = first()
    min_length = rho_length(rho, curve)
    if min_length <= 0.0:
        raise ConvergenceError("solver returned weights with a zero-length curve")
    rho = rho / min_length

    certificate = None
    if q > 1.0:
        if family.is_explicit:
            curves = family.curves
        else:
            # The working set and the oracle's last, shortest answer: fewer
            # curves than the family, at the same minimal length.
            working = (CombCurve(np.flatnonzero(row)) for row in rows)
            curves = list({c.incidence: c for c in (*working, curve)}.values())
        certificate = beurling_check(cover, curves, rho, q, tol=max(tol, 1e-8))
    return ModulusResult(
        value=rho_volume(rho, q),
        optimizer=WeightVector(rho),
        min_length=rho_length(rho, curve),
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
    Q rho^(Q-1) is reproduced with sup-norm residual (``kkt_residual``) at
    most ``tol`` times its largest entry, a test that reads the same at every
    scale of the weights.
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
        ok=residual <= tol * float(target.max()),
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
