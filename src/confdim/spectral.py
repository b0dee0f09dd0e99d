"""Perron-Frobenius machinery for non-negative square matrices.

Everything downstream (critical exponents, growth bounds) reduces to spectral
data of non-negative matrices: the spectral radius, the Perron vectors of an
irreducible block, and the block upper-triangular structure coming from the
strongly connected components of the support digraph.

The algorithmic choices are elementary and every number is certified:

* ``decompose`` finds the strongly connected components of the support
  digraph in one pass of Tarjan's algorithm over the reversed digraph, whose
  emission order puts the permuted matrix in block upper-triangular form.
  Each diagonal block is either irreducible or a 1x1 zero block.  Given
  the reversed digraph's adjacency lists instead of the matrix, it does the
  same without a dense array, so a caller holding a sparse support never
  forms one.
* ``perron`` is the one routine for the spectrum of an irreducible block.
  It starts from the Perron vectors of a dense ``eig`` on small blocks, or
  from vectors the caller supplies on large ones, and iterates with plain
  matrix-vector steps and, every few steps, an inverse-iteration step whose
  shift sits just above the current upper bound, until the Collatz-Wielandt
  bracket of the right and left vectors is narrower than a relative
  tolerance.  It returns the radius, its bracket and both vectors.
* Blocks of more than ``DENSE_EIG_MAX`` rows take the large-block path:
  the block is held as a scipy sparse matrix, dense or sparse on input,
  and each inverse step factors the shifted block once with
  ``scipy.sparse.linalg.splu``, then solves for the right vector and, with
  the transposed factor, for the left one (Noda, Numer. Math. 1971).  The
  cost of a step is set by the fill of the factor, not by the cube of the
  block size.  scipy is imported only on this path.
* ``spectral_radius`` applies ``perron`` to every diagonal block of the
  decomposition and takes the largest block radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IRREDUCIBLE = "irreducible"
ZERO = "zero"

#: iteration cap for power iterations; hitting it raises ConvergenceError.
MAX_POWER_ITERATIONS = 10**6

DEFAULT_TOL = 1e-12

#: largest block whose iteration starts from the Perron vectors of a dense
#: ``eig``; larger blocks start from the caller's vectors.  Chosen by
#: measurement: on 32-row blocks ``eig`` and a cold start cost the same.
DENSE_EIG_MAX = 32
#: every this many steps the Perron iteration takes an inverse-iteration step
#: instead of a plain one; 8 measured fastest on 100-300-row sparse blocks.
INVERSE_EVERY = 8


class ConvergenceError(RuntimeError):
    """An iterative solve exhausted its iteration budget."""


@dataclass(frozen=True, eq=False)
class NonNegMatrix:
    """A square matrix with finite, non-negative entries.

    The entry array is copied and frozen so instances are safe to share.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("matrix must have dimension >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        if np.any(arr < 0):
            raise ValueError("matrix entries must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Decomposition:
    """Irreducible decomposition of a non-negative matrix.

    ``blocks`` partitions the index set; permuting rows and columns by the
    concatenation of the blocks puts the matrix in block upper-triangular
    form.  ``kinds[b]`` is ``"irreducible"`` or ``"zero"`` (the latter only
    for 1x1 blocks with a zero diagonal entry).
    """

    blocks: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]


def _as_matrix(a) -> NonNegMatrix:
    if isinstance(a, NonNegMatrix):
        return a
    return NonNegMatrix(np.asarray(a, dtype=float))


def _support_adjacency(entries: np.ndarray) -> list[list[int]]:
    """Adjacency lists of the reversed support digraph: edge j -> i iff A[i, j] > 0."""
    n = entries.shape[0]
    return [np.nonzero(entries[:, j] > 0)[0].tolist() for j in range(n)]


def _tarjan_sccs(adj: list[list[int]]) -> list[list[int]]:
    """Strongly connected components, iteratively (no recursion limit issues)."""
    n = len(adj)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for next_pi in range(pi, len(adj[v])):
                w = adj[v][next_pi]
                if index[w] == -1:
                    work[-1] = (v, next_pi + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                sccs.append(comp)
    return sccs


def decompose(a=None, *, adjacency: list[list[int]] | None = None) -> Decomposition:
    """Condense the support digraph into ordered diagonal blocks.

    Pass the matrix ``a``, or instead ``adjacency``, the reversed support
    digraph of a matrix ``A`` too large to hold dense: ``adjacency[j]``
    lists, in ascending order and without repeats, the rows ``i`` with
    ``A[i, j] > 0``.  Both give the same blocks.

    Blocks are listed in the order Tarjan's algorithm emits the strongly
    connected components of the reversed support digraph, from roots taken
    in ascending index.  Tarjan emits a component only after every component
    it reaches, which in the reversed digraph are those that reach it in the
    original; so edges go from earlier blocks to later ones, and the permuted
    matrix is block upper-triangular.
    """
    if (a is None) == (adjacency is None):
        raise TypeError("pass exactly one of a matrix and adjacency")
    if adjacency is None:
        adjacency = _support_adjacency(_as_matrix(a).entries)
    blocks = tuple(tuple(comp) for comp in _tarjan_sccs(adjacency))
    kinds = tuple(
        ZERO if len(blk) == 1 and blk[0] not in adjacency[blk[0]] else IRREDUCIBLE
        for blk in blocks
    )
    return Decomposition(blocks=blocks, kinds=kinds)


@dataclass(frozen=True, eq=False)
class Perron:
    """Certified Perron data of one irreducible block.

    ``min (A v)_i / v_i <= rho <= max (A v)_i / v_i`` for every positive
    ``v``, and likewise for ``A^T`` and ``u``; ``[lo, hi]`` intersects the
    two brackets of the returned vectors (on a nearly reducible block one
    of them can be loose), and ``lam`` is its midpoint.  ``v`` and ``u`` are
    the positive right and left Perron vectors, each with unit sum.
    """

    lam: float
    lo: float
    hi: float
    v: np.ndarray
    u: np.ndarray


def _positive(v: np.ndarray) -> np.ndarray:
    """``|v|`` with unit sum, entries that roundoff leaves at zero raised to
    the smallest normal float so every Collatz-Wielandt ratio is finite."""
    v = np.maximum(np.abs(v), np.finfo(float).tiny)
    return v / v.sum()


def _eig_vector(block: np.ndarray) -> np.ndarray:
    """Perron vector of an irreducible block from dense ``eig``: the Perron
    root has the largest real part of the spectrum."""
    w, vecs = np.linalg.eig(block)
    return _positive(vecs[:, int(np.argmax(w.real))].real)


def perron(
    block,
    tol: float = DEFAULT_TOL,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> Perron:
    """Spectral radius and Perron vectors of an irreducible block, to relative ``tol``.

    The block ``B``, dense or, above ``DENSE_EIG_MAX`` rows, also a scipy
    sparse matrix, is scaled to unit maximum entry, so ``tol`` means the
    same at every magnitude.  The vectors start from a dense ``eig`` on
    blocks of at most ``DENSE_EIG_MAX`` rows, else from ``start`` (say the
    vectors of the same block at a nearby exponent) or the uniform vector.
    Each step returns once the Collatz-Wielandt bracket of ``B v`` and
    ``B^T u`` is narrower than ``tol`` times its upper end.  Otherwise the
    next vectors are ``B v`` and ``B^T u``, except every
    ``INVERSE_EVERY``-th step, an inverse-iteration step with a shift above
    the upper bound.  The inverse steps converge however close another
    eigenvalue comes to the radius (periodic blocks, weakly coupled
    sub-blocks of equal radius); the plain steps, non-negative sums without
    cancellation, restore the relative accuracy of tiny components that a
    linear solve loses.  Larger blocks run the same steps on a sparse copy,
    with one sparse LU per inverse step.
    """
    if not hasattr(block, "tocsc"):
        block = np.asarray(block, dtype=float)
    n = block.shape[0]
    if n == 1:
        lam = float(block[0, 0])
        return Perron(lam, lam, lam, np.ones(1), np.ones(1))
    scale = float(block.max())
    if scale == 0.0:  # every entry underflowed: the zero matrix, radius exactly 0
        flat = np.full(n, 1.0 / n)
        return Perron(0.0, 0.0, 0.0, flat, flat)
    if n <= DENSE_EIG_MAX:
        b = block / scale
        v, u = _eig_vector(b), _eig_vector(b.T)

        def inverse(lo, hi, v, u):
            shifted = (2.0 * hi - lo) * np.eye(n) - b
            return np.linalg.solve(shifted, v), np.linalg.solve(shifted.T, u)

    else:
        from scipy.sparse import csc_matrix, identity
        from scipy.sparse.linalg import splu

        b = csc_matrix(block, dtype=float) / scale
        v, u = start if start is not None else (np.full(n, 1.0 / n),) * 2

        def inverse(lo, hi, v, u):
            # Noda's shift is the upper bound itself; a thousandth of the
            # bracket above it keeps the shifted block nonsingular.  On a
            # long cycle the shift 2 hi - lo took ten times the steps.
            lu = splu(((hi + (hi - lo) / 1024.0) * identity(n) - b).tocsc())
            return lu.solve(v), lu.solve(u, trans="T")

    bt = b.T
    # The all-ones vector bounds the radius by the largest row and column sums.
    bound = min(float(b.sum(axis=1).max()), float(b.sum(axis=0).max()))
    for step in range(MAX_POWER_ITERATIONS):
        y, z = b @ v, bt @ u
        rv, ru = y / v, z / u
        lo, hi = float(max(rv.min(), ru.min())), float(min(rv.max(), ru.max(), bound))
        if hi - lo <= tol * hi:
            # Roundoff can cross the bracket (hi < lo) once converged; the
            # midpoint stays within tol of the radius either way.
            return Perron(scale * 0.5 * (lo + hi), scale * lo, scale * hi, v, u)
        bound = hi
        if step % INVERSE_EVERY == 0:
            # (s I - B)^-1 is positive for s > rho, and its leading eigenvalue
            # 1 / (s - rho) dominates by a ratio that shrinks with the bracket.
            v, u = (_positive(w) for w in inverse(lo, hi, v, u))
        else:
            v, u = _positive(y), _positive(z)
    raise ConvergenceError(
        f"Perron iteration did not reach relative tol={tol} within {MAX_POWER_ITERATIONS} steps "
        f"(bracket [{scale * lo}, {scale * hi}])"
    )


def spectral_radius(a, tol: float = DEFAULT_TOL) -> float:
    """Spectral radius of a non-negative matrix, to relative tolerance ``tol``.

    The matrix is decomposed into irreducible blocks; the radius is the
    maximum of the block radii. 1x1 blocks are read off exactly, so reducible
    integer matrices like strictly triangular ones come out exact.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = _as_matrix(a)
    blocks = decompose(m).blocks
    return max(perron(m.entries[np.ix_(b, b)], tol).lam for b in blocks)
