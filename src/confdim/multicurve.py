"""Multicurve transition matrices, Levy cycles, and the critical exponent.

A multicurve is a labeled set of curves together with, for each curve, the
classified preimage components of that curve under the map: each component
carries a covering degree and is either homotopic to one of the listed curves
(essential), peripheral, or inessential.  The classification is input data;
computing it from a map description is a different problem entirely.

From this data the exponent-weighted transition matrix is assembled: entry
(i, j) sums degree^(1-Q) over the components of the j-th curve's preimage
that are homotopic to curve i.  Peripheral and inessential components
contribute nothing.  The critical exponent Q(Gamma) is the unique Q >= 1
where the leading eigenvalue crosses 1, when the spec contains an irreducible
piece and no Levy cycle blocks the decay.

A Levy cycle is a cycle of degree-1 components; one decomposition of the
degree-1 digraph finds whether one exists.  For the exponent, the support
of the transition matrix, which does not depend on Q, is decomposed once
per spec; each evaluation then fills only the irreducible blocks and their
Q-derivatives, and Newton's method on log lambda(Q) reaches the root in a
handful of evaluations.  Both decompositions read their adjacency lists
straight from one table of the essential components, and blocks above
``DENSE_EIG_MAX`` curves stay sparse from that table to their eigenvalue,
so memory grows with the number of components, not with the square of the
number of curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from confdim.spectral import (
    DENSE_EIG_MAX,
    IRREDUCIBLE,
    ConvergenceError,
    NonNegMatrix,
    decompose,
    perron,
    spectral_radius,
)

PERIPHERAL = "peripheral"
INESSENTIAL = "inessential"

FINITE = "finite"
ZERO = "zero"
LEVY_OBSTRUCTED = "levy_obstructed"

#: largest critical exponent the solve looks for
_Q_CAP = 2.0**20
_MAX_SOLVE_STEPS = 100


@dataclass(frozen=True)
class Essential:
    """Homotopy class of an essential preimage component: the curve it matches."""

    curve: str


@dataclass(frozen=True)
class PreimageComponent:
    """One connected component of a curve's preimage.

    ``classification`` is an :class:`Essential` wrapper naming the homotopic
    curve, or one of the strings ``"peripheral"`` / ``"inessential"``.
    """

    degree: int
    classification: Union[Essential, str]

    def __post_init__(self):
        if not isinstance(self.degree, int) or isinstance(self.degree, bool):
            raise ValueError(f"component degree must be an integer, got {self.degree!r}")
        if self.degree < 1:
            raise ValueError(f"component degree must be >= 1, got {self.degree}")
        c = self.classification
        if not isinstance(c, Essential) and c not in (PERIPHERAL, INESSENTIAL):
            raise ValueError(f"unknown component classification: {c!r}")


@dataclass(frozen=True)
class MulticurveSpec:
    """Curves plus classified preimage components, keyed by target curve.

    ``preimages`` maps each curve label to the components of that curve's
    preimage.  Labels absent from the mapping get no components, which is
    only consistent with ``map_degree`` left unset (fiber degrees over every
    curve must sum to the map degree when it is declared).
    """

    curves: tuple[str, ...]
    preimages: tuple[tuple[PreimageComponent, ...], ...]
    map_degree: int | None = None

    def __init__(
        self,
        curves: Sequence[str],
        preimages: Mapping[str, Sequence[PreimageComponent]],
        map_degree: int | None = None,
    ):
        curves = tuple(curves)
        if len(curves) == 0:
            raise ValueError("a multicurve needs at least one curve")
        if len(set(curves)) != len(curves):
            raise ValueError("curve labels must be distinct")
        unknown = set(preimages) - set(curves)
        if unknown:
            raise ValueError(f"preimages listed for unknown curves: {sorted(unknown)}")

        table = tuple(tuple(preimages.get(label, ())) for label in curves)
        labels = set(curves)
        for label, comps in zip(curves, table):
            for comp in comps:
                if not isinstance(comp, PreimageComponent):
                    raise ValueError(f"bad component under {label!r}: {comp!r}")
                c = comp.classification
                if isinstance(c, Essential) and c.curve not in labels:
                    raise ValueError(
                        f"component of {label!r} is homotopic to unknown curve {c.curve!r}"
                    )
        if map_degree is not None:
            if not isinstance(map_degree, int) or map_degree < 1:
                raise ValueError(f"map_degree must be a positive integer, got {map_degree!r}")
            for label, comps in zip(curves, table):
                total = sum(comp.degree for comp in comps)
                if total != map_degree:
                    raise ValueError(
                        f"fiber degrees over {label!r} sum to {total}, "
                        f"expected map_degree={map_degree}"
                    )

        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "preimages", table)
        object.__setattr__(self, "map_degree", map_degree)

    @property
    def size(self) -> int:
        return len(self.curves)

    def index_of(self, label: str) -> int:
        return self.curves.index(label)

    def components_of(self, label: str) -> tuple[PreimageComponent, ...]:
        return self.preimages[self.index_of(label)]


@dataclass(frozen=True)
class QResult:
    """Outcome of the critical-exponent solve.

    ``kind`` is one of ``"finite"`` (with ``q`` set), ``"zero"`` (no
    irreducible sub-multicurve; ``q`` is 0), or ``"levy_obstructed"``
    (``q`` is None: the eigenvalue stays >= 1 for every exponent).
    """

    kind: str
    q: float | None
    achieved_lambda: float
    iterations: int


@dataclass(frozen=True)
class CatalogReport:
    results: tuple[QResult, ...]
    overall: float
    levy_flag: bool


def lattes_spec() -> MulticurveSpec:
    """The degree-4 torus-quotient model: one curve, two degree-2 components.

    Its transition entry is 2 * 2^(1-Q) = 2^(2-Q), so the critical exponent
    is exactly 2.
    """
    comp = PreimageComponent(degree=2, classification=Essential("g1"))
    return MulticurveSpec(curves=("g1",), preimages={"g1": (comp, comp)}, map_degree=4)


def _component_table(spec: MulticurveSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Essential components as arrays ``(target, source, degree)``, one row each.

    A row (i, j, d) is a component of curve j's preimage homotopic to curve
    i with degree d.  Peripheral and inessential components are dropped.
    """
    index = {label: i for i, label in enumerate(spec.curves)}
    target, source, degree = [], [], []
    for j, comps in enumerate(spec.preimages):
        for comp in comps:
            if isinstance(comp.classification, Essential):
                target.append(index[comp.classification.curve])
                source.append(j)
                degree.append(comp.degree)
    return np.array(target, dtype=int), np.array(source, dtype=int), np.array(degree, dtype=float)


def _matrix(size: int, target, source, weights) -> np.ndarray:
    a = np.zeros((size, size))
    np.add.at(a, (target, source), weights)
    return a


def transition_matrix(spec: MulticurveSpec, q: float) -> NonNegMatrix:
    """Assemble the exponent-Q transition matrix of the spec.

    Entry (i, j) is the sum of degree^(1-Q) over components of curve j's
    preimage homotopic to curve i; exponents below 1 are rejected.
    """
    if q < 1.0:
        raise ValueError(f"exponent must satisfy Q >= 1, got {q}")
    target, source, degree = _component_table(spec)
    return NonNegMatrix(_matrix(spec.size, target, source, degree ** (1.0 - q)))


def leading_eigenvalue(spec: MulticurveSpec, q: float, tol: float = 1e-10) -> float:
    """Spectral radius of the transition matrix at exponent Q, to relative ``tol``."""
    return spectral_radius(transition_matrix(spec, q), tol)


def _adjacency(size: int, target: np.ndarray, source: np.ndarray) -> list[list[int]]:
    """Edges j -> i, one per curve i that some component of curve j's preimage
    is homotopic to: per source, the distinct targets in ascending order.

    These are the adjacency lists ``decompose`` reads off the dense matrix
    (the reversed support digraph in ``spectral``'s terms), built without it.
    """
    keys = np.unique(source * size + target)
    bounds = np.searchsorted(keys, np.arange(size + 1) * size).tolist()
    targets = (keys % size).tolist()
    return [targets[bounds[j] : bounds[j + 1]] for j in range(size)]


def _witness_cycle(adj: list[list[int]], block: tuple[int, ...]) -> tuple[int, ...]:
    """A shortest degree-1 cycle through the smallest curve of an irreducible block.

    Breadth-first search from that curve along edges j -> i (curve j has a
    degree-1 component homotopic to curve i) inside the block, stopped at
    the first edge back to the start.
    """
    start = block[0]
    members = set(block)
    parent = {start: start}
    frontier = [start]
    while frontier:
        following = []
        for j in frontier:
            for i in adj[j]:
                if i == start:
                    path = [j]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                if i in members and i not in parent:
                    parent[i] = j
                    following.append(i)
        frontier = following
    raise AssertionError(f"block {block} of the degree-1 digraph has no cycle")


def detect_levy_cycles(
    spec: MulticurveSpec, table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
) -> list[tuple[int, ...]]:
    """One witness Levy cycle per irreducible block of the degree-1 digraph.

    The degree-1 digraph has an edge j -> i when curve j has a degree-1
    preimage component homotopic to curve i.  A Levy cycle exists exactly
    when this digraph has a cycle, that is when its 0/1 matrix has an
    irreducible block, so one decomposition answers the question in time
    linear in the number of edges.  Each witness is a simple cycle (j, j',
    ...) where each curve has a degree-1 component homotopic to the next,
    wrapping around; it starts at the smallest curve of its block.  The
    list is sorted, and empty exactly when the spec has no Levy cycle.
    ``table`` is the spec's ``_component_table``, if the caller holds it.
    """
    target, source, degree = _component_table(spec) if table is None else table
    ones = degree == 1.0
    adj = _adjacency(spec.size, target[ones], source[ones])
    dec = decompose(adjacency=adj)
    return sorted(
        _witness_cycle(adj, blk)
        for blk, kind in zip(dec.blocks, dec.kinds)
        if kind == IRREDUCIBLE
    )


class _Block:
    """One irreducible block of the support, laid out once per spec.

    ``slot`` places each essential component in the block's dense n x n
    array, or, above ``DENSE_EIG_MAX`` rows, among the stored entries of a
    sparse CSC matrix (``indices``, ``indptr``), so a large block is never
    dense.  ``start`` holds the Perron vectors of the last evaluation, from
    which the next one starts on blocks too large for a dense ``eig``.
    """

    def __init__(self, size, row, col, degree):
        self.size = size
        self.degree = degree
        self.log_degree = np.log(degree)
        self.start = None
        if size <= DENSE_EIG_MAX:
            self.slot = row * size + col
        else:
            keys, self.slot = np.unique(col * size + row, return_inverse=True)
            self.indices = keys % size
            self.indptr = np.searchsorted(keys, np.arange(size + 1) * size)

    def fill(self, weights):
        n = self.size
        if n <= DENSE_EIG_MAX:
            return np.bincount(self.slot, weights, n * n).reshape(n, n)
        from scipy.sparse import csc_matrix

        data = np.bincount(self.slot, weights, len(self.indices))
        return csc_matrix((data, self.indices, self.indptr), shape=(n, n))


def _irreducible_blocks(size: int, target, source, degree) -> list[_Block]:
    """The irreducible blocks of the support of the components ``(target, source)``.

    The spectrum of a block upper-triangular matrix is the union of its
    diagonal blocks' spectra, so the components between blocks are dropped.
    """
    dec = decompose(adjacency=_adjacency(size, target, source))
    block_of = np.empty(size, dtype=int)
    position = np.empty(size, dtype=int)
    for b, blk in enumerate(dec.blocks):
        block_of[list(blk)] = b
        position[list(blk)] = np.arange(len(blk))
    blocks = []
    for b, (blk, kind) in enumerate(zip(dec.blocks, dec.kinds)):
        if kind != IRREDUCIBLE:
            continue
        inside = (block_of[target] == b) & (block_of[source] == b)
        blocks.append(
            _Block(len(blk), position[target[inside]], position[source[inside]], degree[inside])
        )
    return blocks


def _evaluate(blocks: list[_Block], q: float, tol: float) -> tuple[float, float]:
    """lambda(Q) and its derivative, from the block with the largest radius.

    ``lambda' = u^T A' v / u^T v`` with the left and right Perron vectors of
    that block, and ``A'_ij = -sum ln(d) d^(1-Q)``.
    """
    best = None
    for blk in blocks:
        terms = blk.degree ** (1.0 - q)
        p = perron(blk.fill(terms), tol, start=blk.start)
        blk.start = (p.v, p.u)
        if best is None or p.lam > best[0].lam:
            best = (p, blk, terms)
    p, blk, terms = best
    slope = p.u @ blk.fill(-blk.log_degree * terms) @ p.v / (p.u @ p.v)
    return p.lam, float(slope)


def q_of_multicurve(spec: MulticurveSpec, tol: float = 1e-10) -> QResult:
    """Solve lambda(Q) = 1 for the critical exponent of the spec.

    Returns LevyObstructed when a degree-1 cycle pins the eigenvalue at or
    above 1 for every exponent (``achieved_lambda`` is the radius of the
    degree-1 count matrix, the limit of lambda(Q) as Q grows); Zero when no
    irreducible sub-multicurve exists (the exponent is 0 by convention); and
    Finite(Q) otherwise.  The root comes from Newton's method on
    log lambda(Q) from Q = 1: lambda is log-convex in Q (Kingman, Quart. J.
    Math. 1961), so each step lands at or before the root, and a bracket of
    the evaluated exponents bisects if roundoff carries an iterate past it.
    The solve stops when lambda is within ``tol`` of 1 and the next step (or
    the bracket) is at most ``tol``.  ``iterations`` counts evaluations.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    table = _component_table(spec)
    target, source, degree = table
    if detect_levy_cycles(spec, table):
        ones = degree == 1.0
        levy = _irreducible_blocks(spec.size, target[ones], source[ones], degree[ones])
        lam = max(perron(blk.fill(blk.degree)).lam for blk in levy)
        return QResult(kind=LEVY_OBSTRUCTED, q=None, achieved_lambda=lam, iterations=1)
    blocks = _irreducible_blocks(spec.size, target, source, degree)
    if not blocks:
        return QResult(kind=ZERO, q=0.0, achieved_lambda=0.0, iterations=0)

    eigen_tol = max(tol / 100.0, 1e-13)
    q, q_lo, q_hi = 1.0, 1.0, np.inf
    for evals in range(1, _MAX_SOLVE_STEPS + 1):
        lam, slope = _evaluate(blocks, q, eigen_tol)
        step = -np.log(lam) * lam / slope
        if abs(lam - 1.0) <= tol and (abs(step) <= tol or q_hi - q_lo <= tol):
            return QResult(kind=FINITE, q=q, achieved_lambda=lam, iterations=evals)
        if lam > 1.0:
            q_lo = q
        else:
            q_hi = q
        following = q + step
        if not q_lo < following < q_hi:
            following = 0.5 * (q_lo + q_hi)
        if not following <= _Q_CAP:
            raise ConvergenceError(
                f"no exponent with lambda < 1 found up to Q={_Q_CAP}; "
                f"bracket [{q_lo}, {q_hi}], lambda={lam} at Q={q}"
            )
        q = float(following)
    raise ConvergenceError(
        f"critical-exponent Newton solve stalled on bracket [{q_lo}, {q_hi}] at tol={tol}"
    )


def q_of_map(catalog: Sequence[MulticurveSpec], tol: float = 1e-10) -> CatalogReport:
    """Aggregate critical exponents over a catalog of multicurve specs.

    The overall value is the largest finite exponent (0 when there is none);
    Levy-obstructed entries are flagged rather than folded into the maximum,
    since they rule out the expanding-map hypotheses altogether.
    """
    if len(catalog) == 0:
        raise ValueError("catalog must contain at least one multicurve spec")
    results = tuple(q_of_multicurve(spec, tol) for spec in catalog)
    finite = [r.q for r in results if r.kind == FINITE]
    zero = [0.0 for r in results if r.kind == ZERO]
    overall = max(finite + zero + [0.0])
    levy_flag = any(r.kind == LEVY_OBSTRUCTED for r in results)
    return CatalogReport(results=results, overall=overall, levy_flag=levy_flag)
