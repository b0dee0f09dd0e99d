import numpy as np
import pytest

from confdim.spectral import (
    DENSE_EIG_MAX,
    NonNegMatrix,
    decompose,
    perron,
    spectral_radius,
)
from oracles import all_2x2_small, charpoly_radius


def random_nonneg(rng, dim, density=1.0):
    """Random non-negative matrix with roughly the given support density."""
    a = rng.random((dim, dim))
    if density < 1.0:
        a *= rng.random((dim, dim)) < density
    return a


class TestNonNegMatrix:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            NonNegMatrix(np.array([[1.0, -0.5], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            NonNegMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            NonNegMatrix(np.array([[np.inf]]))
        with pytest.raises(ValueError):
            NonNegMatrix(np.array([[np.nan]]))

    def test_entries_are_frozen(self):
        m = NonNegMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_copies_input(self):
        src = np.eye(2)
        m = NonNegMatrix(src)
        src[0, 0] = 7.0
        assert m.entries[0, 0] == 1.0


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_antidiagonal_two(self):
        """Periodic support: characteristic polynomial x^2 - 4."""
        assert spectral_radius([[0.0, 2.0], [2.0, 0.0]]) == pytest.approx(2.0, abs=1e-12)

    def test_strictly_upper_triangular_is_zero(self):
        a = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
        assert spectral_radius(a) == 0.0

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_one_by_one_exact(self):
        assert spectral_radius([[3.5]]) == 3.5

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            spectral_radius(np.eye(2), tol=0.0)

    def test_matches_charpoly_oracle_on_all_small_2x2(self):
        for a in all_2x2_small():
            assert spectral_radius(a) == pytest.approx(charpoly_radius(a), abs=1e-9)

    def test_matches_charpoly_oracle_on_random_3x3(self):
        rng = np.random.default_rng(20260819)
        for _ in range(200):
            a = rng.integers(0, 4, size=(3, 3)).astype(float)
            assert spectral_radius(a) == pytest.approx(charpoly_radius(a), abs=1e-9)

    def test_monotone_in_entries(self):
        """A >= B >= 0 entrywise forces lam(A) >= lam(B)."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            b = random_nonneg(rng, dim, density=0.7)
            a = b + random_nonneg(rng, dim, density=0.5)
            assert spectral_radius(a) >= spectral_radius(b) - 2e-12

    def test_power_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            a = random_nonneg(rng, dim, density=0.8)
            lam = spectral_radius(a)
            assert spectral_radius(a @ a) == pytest.approx(lam**2, rel=1e-6, abs=1e-10)

    def test_block_maximality(self):
        """The radius of a block-diagonal matrix is the max of the block radii."""
        rng = np.random.default_rng(13)
        for _ in range(20):
            sizes = rng.integers(1, 4, size=3)
            blocks = [random_nonneg(rng, int(s)) for s in sizes]
            total = sum(int(s) for s in sizes)
            a = np.zeros((total, total))
            pos = 0
            for blk in blocks:
                k = blk.shape[0]
                a[pos : pos + k, pos : pos + k] = blk
                pos += k
            expected = max(spectral_radius(blk) for blk in blocks)
            assert spectral_radius(a) == pytest.approx(expected, abs=2e-12)


def eigvals_radius(a):
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def sparse_irreducible(rng, dim):
    """A random Hamiltonian cycle with weights in [0.5, 1.5] plus sparse extras."""
    a = np.zeros((dim, dim))
    order = rng.permutation(dim)
    a[np.roll(order, -1), order] = 0.5 + rng.random(dim)
    return a + random_nonneg(rng, dim, density=3.0 / dim)


class TestPerron:
    def assert_certified(self, a, p):
        rho = eigvals_radius(a)
        assert p.lo <= rho * (1 + 1e-13) and rho <= p.hi * (1 + 1e-13)
        assert p.hi - p.lo <= 1e-12 * p.hi
        for vec in (p.v, p.u):
            assert np.all(vec > 0.0)
            assert vec.sum() == pytest.approx(1.0, abs=1e-12)

    def test_small_blocks_bracket_the_radius(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            a = sparse_irreducible(rng, int(rng.integers(2, DENSE_EIG_MAX + 1)))
            self.assert_certified(a, perron(a))

    def test_large_blocks_from_cold_and_warm_starts(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            a = sparse_irreducible(rng, int(rng.integers(DENSE_EIG_MAX + 1, 200)))
            cold = perron(a)
            self.assert_certified(a, cold)
            nearby = a * (1.0 + 1e-3 * rng.random(a.shape))
            self.assert_certified(nearby, perron(nearby, start=(cold.v, cold.u)))

    def test_left_and_right_vectors(self):
        a = np.array([[1.0, 2.0], [3.0, 0.0]])
        p = perron(a)
        np.testing.assert_allclose(a @ p.v, p.lam * p.v, rtol=1e-12)
        np.testing.assert_allclose(a.T @ p.u, p.lam * p.u, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    def test_tolerance_is_relative(self, scale):
        """A 2-cycle with entries 100 and 120 stalled an absolute 1e-12 tolerance."""
        a = scale * np.array([[0.0, 100.0], [120.0, 0.0]])
        assert spectral_radius(a) == pytest.approx(scale * np.sqrt(12000.0), rel=1e-12)

    def test_nearly_defective_block(self):
        """Eigenvalues 1 +- 1e-15: the unit shift would need about 1e12 steps."""
        assert spectral_radius([[1.0, 1.0], [1e-30, 1.0]]) == pytest.approx(1.0, rel=1e-12)

    def test_weakly_coupled_cycles_of_equal_radius(self):
        """Two 3-cycles of unit weights, one edge each way between them, the
        return edge 1e-20: (lam^3 - 1)^2 = 1e-20.  ``eigvals`` is off by 1e-8."""
        a = np.zeros((6, 6))
        for source, target in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]:
            a[target, source] = 1.0
        a[0, 5] = 1e-20
        assert spectral_radius(a) == pytest.approx((1.0 + 1e-10) ** (1.0 / 3.0), rel=1e-14)


def is_irreducible(a):
    """Irreducibility read off the decomposition: one block, not a zero one."""
    return decompose(a).kinds == ("irreducible",)


class TestIsIrreducible:
    """Irreducibility as ``decompose`` reports it in ``kinds``."""

    def test_two_cycle(self):
        assert is_irreducible([[0.0, 1.0], [1.0, 0.0]])

    def test_no_return_path(self):
        assert not is_irreducible([[0.0, 1.0], [0.0, 0.0]])
        assert decompose([[0.0, 1.0], [0.0, 0.0]]).kinds == ("zero", "zero")

    def test_positive_scalar(self):
        assert is_irreducible([[1.0]])

    def test_zero_scalar(self):
        assert decompose([[0.0]]).kinds == ("zero",)

    def test_permutation_cycles(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            dim = int(rng.integers(2, 8))
            perm = rng.permutation(dim)
            a = np.zeros((dim, dim))
            for i in range(dim):
                a[i, (i + 1) % dim] = 1.0  # single long cycle
            assert is_irreducible(a[np.ix_(perm, perm)])


def assert_valid_decomposition(a, dec):
    a = np.asarray(a, dtype=float)
    dim = a.shape[0]
    flat = [i for blk in dec.blocks for i in blk]
    assert sorted(flat) == list(range(dim))

    p = a[np.ix_(flat, flat)]
    pos = 0
    for blk in dec.blocks:
        k = len(blk)
        # everything below the diagonal band of this block must vanish
        assert np.all(p[pos + k :, pos : pos + k] == 0.0)
        pos += k

    for blk, kind in zip(dec.blocks, dec.kinds):
        sub = a[np.ix_(blk, blk)]
        if kind == "zero":
            assert len(blk) == 1 and sub[0, 0] == 0.0
        else:
            # (I + support)^(k-1) is positive exactly when the support is strongly connected
            reach = np.linalg.matrix_power(np.eye(len(blk)) + (sub > 0), len(blk) - 1)
            assert np.all(reach > 0) and np.any(sub > 0)


class TestDecompose:
    def test_irreducible_single_block(self):
        dec = decompose([[0.0, 1.0], [1.0, 0.0]])
        assert dec.blocks == ((0, 1),)
        assert dec.kinds == ("irreducible",)

    def test_zero_matrix_splits_fully(self):
        dec = decompose(np.zeros((3, 3)))
        assert dec.blocks == ((0,), (1,), (2,))
        assert dec.kinds == ("zero", "zero", "zero")

    def test_self_loop_feeding_two_cycle(self):
        a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        dec = decompose(a)
        assert dec.blocks == ((0,), (1, 2))
        assert dec.kinds == ("irreducible", "irreducible")
        assert_valid_decomposition(a, dec)

    def test_random_matrices_decompose_validly(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            dim = int(rng.integers(1, 10))
            a = random_nonneg(rng, dim, density=0.3)
            assert_valid_decomposition(a, decompose(a))

    def test_adjacency_lists_give_the_matrix_blocks(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = random_nonneg(rng, int(rng.integers(1, 10)), density=0.3)
            adjacency = [np.nonzero(a[:, j])[0].tolist() for j in range(len(a))]
            assert decompose(adjacency=adjacency) == decompose(a)

    def test_needs_exactly_one_form(self):
        with pytest.raises(TypeError):
            decompose()
        with pytest.raises(TypeError):
            decompose([[1.0]], adjacency=[[0]])


class TestPFEigenvector:
    """The Perron vectors of an irreducible block are its PF eigenvectors."""

    def test_all_ones(self):
        np.testing.assert_allclose(perron([[1.0, 1.0], [1.0, 1.0]]).v, [0.5, 0.5], atol=1e-12)

    def test_antidiagonal(self):
        np.testing.assert_allclose(perron([[0.0, 2.0], [2.0, 0.0]]).v, [0.5, 0.5], atol=1e-12)

    def test_irreducible_gives_positive_vector(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            dim = int(rng.integers(1, 8))
            a = np.zeros((dim, dim))
            for i in range(dim):
                a[i, (i + 1) % dim] = 0.5 + rng.random()
            extra = random_nonneg(rng, dim, density=0.3)
            a = a + extra  # cycle keeps it irreducible
            lam = spectral_radius(a)
            v = perron(a).v
            assert np.all(v > 0.0)
            assert v.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(a @ v - lam * v)) <= 1e-12
