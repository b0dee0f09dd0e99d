"""Model covers on flat cylinders and the dynamics-driven checks built on them.

The geometric side of the package lives here.  The base object is a grid of
unit-square cells on a flat cylinder (columns are cyclic, rows are not), the
combinatorial stand-in for an annulus neighborhood of a curve.  The nerve
records closed-cell intersections, so corner contacts count as adjacency.

On top of the grids:

* a separation oracle offering the minimal-weight essential cycle through
  each seam row, by cutting the cylinder along a seam and running shortest
  paths between seam copies;
* cyclic covers, with the degree-scaling check for moduli;
* the degree-4 torus-quotient model (pillowcase dynamics), whose level-n
  curve preimages carry marked annulus neighborhoods, feeding the growth
  bound that compares summed preimage-annuli moduli against transition
  matrix powers;
* the quasipacking check of a grid or of explicit square cells.

The constructors refuse grids over a cell cap: 100000 cells unless
``CONFDIM_MAX_CELLS`` says otherwise.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree

from confdim.modulus import CombCurve, Cover, CurveFamily, ModulusResult, modulus
from confdim.multicurve import MulticurveSpec, lattes_spec, transition_matrix

DEFAULT_MAX_CELLS = 100_000

#: added to every edge weight so zero-weight cells stay visible to the sparse
#: shortest-path machinery; far below any representable length difference.
_EDGE_FLOOR = 1e-300


def _cell_cap(cells: int, what: str) -> None:
    """Refuse to build ``what`` when its ``cells`` exceed the cell cap."""
    cap = int(os.environ.get("CONFDIM_MAX_CELLS", "").strip() or DEFAULT_MAX_CELLS)
    if cells > cap:
        raise ValueError(
            f"{what} needs {cells} cells, over the cap of {cap} "
            "(raise CONFDIM_MAX_CELLS to allow it)"
        )


@dataclass(frozen=True)
class EmbeddedCover:
    """Grid of square cells tiling a flat cylinder.

    Columns are indexed mod ``cols``; rows run bottom to top, 0-based,
    without wrapping.  Piece indices are row-major: ``row * cols + col``.
    """

    cols: int
    rows: int
    cell_side: float = 1.0

    def __post_init__(self):
        if self.cols < 3:
            raise ValueError("cylinder grids need circumference >= 3 cells")
        if self.rows < 1:
            raise ValueError("cylinder grids need at least one row")
        if not (self.cell_side > 0.0 and math.isfinite(self.cell_side)):
            raise ValueError("cell side must be positive and finite")

    @property
    def piece_count(self) -> int:
        return self.cols * self.rows

    def cell_index(self, col: int, row: int) -> int:
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} outside [0, {self.rows})")
        return row * self.cols + (col % self.cols)

    def cell_at(self, piece: int) -> tuple[int, int]:
        if not 0 <= piece < self.piece_count:
            raise ValueError(f"piece {piece} outside cover")
        return piece % self.cols, piece // self.cols

    def as_cover(self) -> Cover:
        return Cover(piece_count=self.piece_count)


def grid_annulus(circumference: int, height: int) -> EmbeddedCover:
    """Cylinder grid with the given cell counts; unit cells."""
    if circumference < 3:
        raise ValueError(f"circumference must be >= 3 cells, got {circumference}")
    if height < 1:
        raise ValueError(f"height must be >= 1 cell, got {height}")
    _cell_cap(circumference * height, f"a {circumference}x{height} annulus")
    return EmbeddedCover(cols=circumference, rows=height, cell_side=1.0)


def refine(cover: EmbeddedCover, k: int) -> EmbeddedCover:
    """Split every cell k-by-k; counts multiply by k^2 and the mesh shrinks by k."""
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"refinement factor must be an integer >= 2, got {k!r}")
    _cell_cap(cover.piece_count * k * k, f"refinement by {k}")
    return EmbeddedCover(cols=cover.cols * k, rows=cover.rows * k, cell_side=cover.cell_side / k)


@dataclass(frozen=True)
class CoveringMapData:
    """A covering map between cylinder grids, stored piece by piece."""

    source: EmbeddedCover
    target: EmbeddedCover
    piece_map: tuple[int, ...]
    degree: int


def cyclic_cover(annulus: EmbeddedCover, d: int) -> CoveringMapData:
    """Degree-d cyclic cover: circumference multiplies by d, height unchanged.

    The projection reduces the column index mod the base circumference.
    Degree 1 is allowed and gives the identity map.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"covering degree must be a positive integer, got {d!r}")
    _cell_cap(annulus.piece_count * d, f"a degree-{d} cover")
    source = EmbeddedCover(cols=annulus.cols * d, rows=annulus.rows, cell_side=annulus.cell_side)
    piece_map = tuple(
        annulus.cell_index(col % annulus.cols, row)
        for row in range(source.rows)
        for col in range(source.cols)
    )
    return CoveringMapData(source=source, target=annulus, piece_map=piece_map, degree=d)


class _SeamStrip:
    """Cut-open cylinder used by the essential-cycle search.

    Nodes are the cells of the strip with columns 0..c-1 plus a sink column c
    of seam twins; a shortest path from a seam cell to its twin is a cycle
    winding once around the cylinder.  Edge weights are the weight of the
    entered cell, so a path's distance is the cycle's weight with the start
    cell counted at departure and the twin arrival free.
    """

    def __init__(self, annulus: EmbeddedCover):
        c, h = annulus.cols, annulus.rows
        self.c, self.h = c, h
        width = c + 1
        self.node_count = width * h
        self.sources = [r * width + 0 for r in range(h)]
        self.sinks = [r * width + c for r in range(h)]

        heads: list[int] = []
        tails: list[int] = []
        for r in range(h):
            for x in range(c):
                u = r * width + x
                for dx in (-1, 0, 1):
                    for dr in (-1, 0, 1):
                        if dx == 0 and dr == 0:
                            continue
                        rr = r + dr
                        xx = x + dx
                        if not 0 <= rr < h:
                            continue
                        if xx < 0:
                            continue  # the cut: no crossing back over the seam
                        if xx > c:
                            continue
                        tails.append(u)
                        heads.append(rr * width + xx)
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        # The CSR structure is fixed; each query refills only its data, in
        # the order scipy gives the edges (recorded by numbering them 1..m).
        self._graph = csr_matrix(
            (np.arange(1.0, len(tails) + 1.0), (tails, heads)),
            shape=(self.node_count, self.node_count),
        )
        order = self._graph.data.astype(np.int64) - 1
        # cylinder cell paying for arrival at each strip node
        cells = np.empty(self.node_count, dtype=np.int64)
        for r in range(h):
            for x in range(width):
                cells[r * width + x] = r * c + (x % c)
        self._cell_of_node = cells.tolist()
        self._arrival_cell = cells[heads[order]]
        self._into_sink = (heads[order] % width) == c

    def essential_cycles(self, rho: np.ndarray) -> tuple[CombCurve, ...]:
        """The shortest cycle through each seam row, shortest first.

        Ordered by (length, seam row) with repeats dropped, so the first is
        a minimal-weight essential cycle at its lowest seam row.
        """
        weights = rho[self._arrival_cell] + _EDGE_FLOOR
        weights[self._into_sink] = _EDGE_FLOOR
        self._graph.data[:] = weights
        dist, pred = dijkstra(
            self._graph, directed=True, indices=self.sources, return_predecessors=True
        )
        totals = dist[np.arange(self.h), self.sinks] + rho[:: self.c]
        if not np.isfinite(totals).all():
            raise RuntimeError("cylinder strip became disconnected; construction bug")

        pred = pred.tolist()
        cycles: dict[frozenset[int], CombCurve] = {}
        for r in np.argsort(totals, kind="stable"):
            cells, back, node = [], pred[r], self.sinks[r]
            while node >= 0:
                cells.append(self._cell_of_node[node])
                node = back[node]
            curve = CombCurve(cells)
            cycles.setdefault(curve.incidence, curve)
        return tuple(cycles.values())


def essential_cycle_family(annulus: EmbeddedCover) -> CurveFamily:
    """The family of essential cycles of the cylinder, as a separation oracle.

    The oracle offers, for each seam row, a minimal-weight cycle winding
    once around through that row, each piece counted once however often a
    geometric representative revisits it; repeats are dropped and the rest
    come shortest first.  Ties break deterministically (lowest seam row,
    then the shortest-path tree's choice), so the first is a minimal-weight
    essential cycle at the lowest seam row that has one.
    """
    return CurveFamily(oracle=_SeamStrip(annulus).essential_cycles)


def annulus_modulus(
    annulus: EmbeddedCover,
    q: float,
    tol: float = 1e-8,
    init: str = "uniform",
) -> ModulusResult:
    """Q-modulus of the essential-cycle family of a cylinder grid.

    For a grid of circumference c and height h cells the value is
    h * c^(1-Q), attained by the constant weight 1/c.
    """
    if q <= 1.0:
        raise ValueError("annulus modulus is certificate-backed and needs Q > 1")
    return modulus(annulus.as_cover(), essential_cycle_family(annulus), q, tol=tol, init=init)


@dataclass(frozen=True)
class ScalingReport:
    ok: bool
    degree: int
    q: float
    base_value: float
    cover_value: float
    expected_cover_value: float
    rel_error: float


def verify_covering_scaling(
    annulus: EmbeddedCover,
    d: int,
    q: float,
    tol: float = 1e-6,
) -> ScalingReport:
    """Check that a degree-d cyclic cover scales the modulus by d^(1-Q)."""
    covmap = cyclic_cover(annulus, d)
    base = annulus_modulus(annulus, q).value
    lifted = annulus_modulus(covmap.source, q).value
    expected = d ** (1.0 - q) * base
    rel = abs(lifted - expected) / abs(expected)
    return ScalingReport(
        ok=rel <= tol,
        degree=d,
        q=q,
        base_value=base,
        cover_value=lifted,
        expected_cover_value=expected,
        rel_error=rel,
    )


@dataclass(frozen=True)
class AnnulusMark:
    """A marked annulus neighborhood of one level-n preimage curve.

    Rows are in the coordinates of the level-n cover.  The enlarged band
    (one extra row on each side) witnesses the containment condition: every
    cell meeting the annulus lies inside the band.  ``degree_over_base`` is
    the covering degree of the n-fold composition onto the base annulus;
    ``step_degree`` is the degree onto the parent annulus one level down.
    """

    level: int
    index: int
    row_start: int
    rows: int
    band_row_start: int
    band_rows: int
    degree_over_base: int
    parent_index: Optional[int]
    step_degree: Optional[int]


@dataclass(frozen=True)
class CoverDynamics:
    """Cover sequence of the model dynamics with per-level marked annuli.

    ``levels[n]`` covers the whole pillowcase cylinder at mesh 2^-n times
    the base mesh; refinement maps halve coordinates; the dynamics maps a
    level-n cell onto a level-(n-1) cell by doubling the circle coordinate
    and folding the height.
    """

    levels: tuple[EmbeddedCover, ...]
    annuli: tuple[tuple[AnnulusMark, ...], ...]

    def refinement_parent(self, level: int, piece: int) -> int:
        """Containing cell of ``levels[level - 1]`` for a cell of ``levels[level]``."""
        if level < 1:
            raise ValueError("refinement maps start at level 1")
        col, row = self.levels[level].cell_at(piece)
        return self.levels[level - 1].cell_index(col // 2, row // 2)

    def dynamics_image(self, level: int, piece: int) -> int:
        """Image cell one level down under the model map."""
        if level < 1:
            raise ValueError("dynamics maps start at level 1")
        col, row = self.levels[level].cell_at(piece)
        coarse = self.levels[level - 1]
        if row < coarse.rows:
            return coarse.cell_index(col % coarse.cols, row)
        return coarse.cell_index(
            coarse.cols - 1 - (col % coarse.cols), 2 * coarse.rows - 1 - row
        )

    def annulus_subcover(self, mark: AnnulusMark) -> EmbeddedCover:
        level_cover = self.levels[mark.level]
        return EmbeddedCover(
            cols=level_cover.cols, rows=mark.rows, cell_side=level_cover.cell_side
        )

    def annulus_pieces(self, mark: AnnulusMark) -> range:
        """Global piece indices of the annulus in its level cover.

        The annulus fills whole rows, so the block is contiguous and the
        k-th local piece of the subcover is the k-th entry of this range.
        """
        cols = self.levels[mark.level].cols
        return range(mark.row_start * cols, (mark.row_start + mark.rows) * cols)


def lattes_model(levels: int) -> tuple[CoverDynamics, MulticurveSpec]:
    """Pillowcase model of the degree-4 torus-quotient map, up to a level cap.

    The pillowcase is modeled as the flat cylinder of circumference 1 and
    height 1/2 (the fold circles are the top and bottom rows' outer edges).
    Level n covers it with cells of side 2^-(n+4): 16 * 2^n columns by
    8 * 2^n rows.  The core curve sits at height 1/4; its level-n preimages
    are the horizontal circles at heights (2t+1)/2^(n+2), each marked with
    the annulus of 4 cell rows centered on it.  Every annulus maps onto its
    parent with degree 2, hence onto the base annulus with degree 2^n.
    """
    if levels < 0:
        raise ValueError("levels must be non-negative")
    _cell_cap(128 * 4**levels, f"level {levels}")

    covers = tuple(
        EmbeddedCover(cols=16 * 2**n, rows=8 * 2**n, cell_side=1.0 / (16 * 2**n))
        for n in range(levels + 1)
    )
    annuli = []
    for n in range(levels + 1):
        half = 2 ** (n - 1)
        marks = []
        for t in range(2**n):
            if n == 0:
                parent, step = None, None
            else:
                parent = t if t < half else 2**n - 1 - t
                step = 2
            marks.append(
                AnnulusMark(
                    level=n,
                    index=t,
                    row_start=8 * t + 2,
                    rows=4,
                    band_row_start=8 * t + 1,
                    band_rows=6,
                    degree_over_base=2**n,
                    parent_index=parent,
                    step_degree=step,
                )
            )
        annuli.append(tuple(marks))
    return CoverDynamics(levels=covers, annuli=tuple(annuli)), lattes_spec()


@dataclass(frozen=True)
class GrowthLevelRow:
    level: int
    annuli_count: int
    left_sum: float
    right_bound: float
    bound_ok: bool
    max_scaling_rel_error: float
    scaling_ok: bool
    containment_ok: bool
    disjoint_ok: bool

    @property
    def ok(self) -> bool:
        return self.bound_ok and self.scaling_ok and self.containment_ok and self.disjoint_ok


@dataclass(frozen=True)
class GrowthBoundReport:
    q: float
    rows: tuple[GrowthLevelRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def _cells_meeting_rows(cover: EmbeddedCover, row_start: int, rows: int) -> range:
    """Rows of closed cells intersecting the closed band of the given rows.

    Closed unit cells touch the band along its boundary edges, so one extra
    row on each side counts as meeting it.
    """
    lo = max(row_start - 1, 0)
    hi = min(row_start + rows, cover.rows - 1)
    return range(lo, hi + 1)


def verify_growth_bound(
    dynamics: CoverDynamics,
    spec: MulticurveSpec,
    q: float,
    n_max: int,
    tol: float = 1e-6,
) -> GrowthBoundReport:
    """Per-level comparison of summed preimage-annuli moduli with matrix powers.

    The left side at level n sums the moduli of the marked annuli of
    ``dynamics.levels[n]`` (pairwise disjoint, so the sum is the modulus of
    the union family); the right side applies the n-th transition-matrix
    power to the vector of base-annulus moduli and takes the entry sum.
    Each level also re-checks the per-annulus covering scaling against its
    parent and the containment of meeting cells in the marked bands.
    """
    if q <= 1.0:
        raise ValueError("the growth bound is computed for Q > 1")
    if n_max < 0 or n_max >= len(dynamics.levels):
        raise ValueError(f"n_max must lie in [0, {len(dynamics.levels) - 1}]")

    matrix = transition_matrix(spec, q).entries
    # Annuli of one shape have one modulus, so each shape is solved once.
    by_shape: dict[tuple[int, int], float] = {}
    values: dict[tuple[int, int], float] = {}
    for n in range(n_max + 1):
        for mark in dynamics.annuli[n]:
            sub = dynamics.annulus_subcover(mark)
            shape = (sub.cols, sub.rows)
            if shape not in by_shape:
                by_shape[shape] = annulus_modulus(sub, q).value
            values[(n, mark.index)] = by_shape[shape]

    base_vector = np.array([values[(0, mark.index)] for mark in dynamics.annuli[0]])

    rows = []
    for n in range(n_max + 1):
        marks = dynamics.annuli[n]
        left = float(sum(values[(n, m.index)] for m in marks))
        right = float(np.sum(np.linalg.matrix_power(matrix, n) @ base_vector))

        max_rel = 0.0
        if n >= 1:
            for m in marks:
                parent_value = values[(n - 1, m.parent_index)]
                expected = m.step_degree ** (1.0 - q) * parent_value
                max_rel = max(max_rel, abs(values[(n, m.index)] - expected) / expected)

        cover = dynamics.levels[n]
        containment_ok = all(
            set(_cells_meeting_rows(cover, m.row_start, m.rows))
            <= set(range(m.band_row_start, m.band_row_start + m.band_rows))
            for m in marks
        )
        supports = [frozenset(dynamics.annulus_pieces(m)) for m in marks]
        disjoint_ok = all(
            not (supports[i] & supports[j])
            for i in range(len(supports))
            for j in range(i + 1, len(supports))
        )
        rows.append(
            GrowthLevelRow(
                level=n,
                annuli_count=len(marks),
                left_sum=left,
                right_bound=right,
                bound_ok=left >= right - tol,
                max_scaling_rel_error=max_rel,
                scaling_ok=max_rel <= tol,
                containment_ok=containment_ok,
                disjoint_ok=disjoint_ok,
            )
        )
    return GrowthBoundReport(q=q, rows=tuple(rows))


@dataclass(frozen=True)
class PackingResult:
    ok: bool
    constant: Optional[float]


def _packing_cells(
    cover: Union[EmbeddedCover, Iterable[tuple[float, float, float]]],
) -> tuple[np.ndarray, np.ndarray, Optional[float]]:
    """Centers and radii of the inner balls; cylinder circumference if any."""
    if isinstance(cover, EmbeddedCover):
        s = cover.cell_side
        rows, cols = np.indices((cover.rows, cover.cols)).reshape(2, -1)
        centers = np.column_stack(((cols + 0.5) * s, (rows + 0.5) * s))
        return centers, np.full(len(centers), s / 2.0), cover.cols * s
    cells = np.array([(x, y, side) for x, y, side in cover], dtype=float).reshape(-1, 3)
    if len(cells) == 0:
        raise ValueError("need at least one cell")
    if np.any(cells[:, 2] <= 0):
        raise ValueError("cell sides must be positive")
    return cells[:, :2], cells[:, 2] / 2.0, None


def quasipacking_check(
    cover: Union[EmbeddedCover, Iterable[tuple[float, float, float]]],
) -> PackingResult:
    """Inner-ball disjointness and the outer-inclusion constant of a cover.

    Each square cell gets the inscribed ball about its center; the check
    fails when any two inner balls overlap as open balls.  Only pairs of
    centers within twice the largest radius can overlap, so a k-d tree
    (periodic around a cylinder) lists those and the exact test runs on
    them alone.  On success the constant is the worst circumradius-to-
    inradius ratio, sqrt(2) for any grid of squares regardless of
    refinement level.
    """
    centers, radii, circumference = _packing_cells(cover)
    boxsize = None if circumference is None else [circumference, 0.0]
    tree = cKDTree(centers, boxsize=boxsize)
    i, j = tree.query_pairs(2.0 * radii.max(), output_type="ndarray").T
    dx = np.abs(centers[i, 0] - centers[j, 0])
    if circumference is not None:
        dx = np.minimum(dx, circumference - dx)
    dist = np.hypot(dx, centers[i, 1] - centers[j, 1])
    if np.any(dist + 1e-12 < radii[i] + radii[j]):
        return PackingResult(ok=False, constant=None)
    constant = float(np.max(np.hypot(radii, radii) / radii))
    return PackingResult(ok=True, constant=constant)
