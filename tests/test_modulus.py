import os
import subprocess
import sys

import numpy as np
import pytest

import confdim
from confdim.covers import annulus_modulus, grid_annulus
from confdim.modulus import (
    BeurlingCertificate,
    CombCurve,
    Cover,
    CurveFamily,
    WeightVector,
    beurling_check,
    explicit_family,
    incidence_matrix,
    modulus,
    rho_length,
    rho_volume,
    verify_monotonicity,
    verify_subadditivity,
)
from confdim.suites import random_family, random_nested_pair
from oracles import brute_modulus


def curve(*indices):
    return CombCurve(indices)


def normalized_volume(rho, family, q):
    """Q-volume of rho scaled so the family's shortest curve has length 1."""
    return rho_volume(rho / family.shortest(rho)[0], q)


def single_curve_instance(k=4, n=10):
    """One curve through the first k of n pieces."""
    cover = Cover(piece_count=n)
    family = explicit_family([curve(*range(k))])
    return cover, family


def grid_rows_instance(m=4, rows=2):
    """m*rows pieces; one curve per row of m pieces."""
    cover = Cover(piece_count=m * rows)
    curves = [curve(*range(r * m, (r + 1) * m)) for r in range(rows)]
    return cover, explicit_family(curves)


class TestConstruction:
    def test_cover_needs_pieces(self):
        with pytest.raises(ValueError):
            Cover(piece_count=0)

    def test_curve_rejects_empty_incidence(self):
        with pytest.raises(ValueError):
            CombCurve([])

    def test_curve_rejects_negative_index(self):
        with pytest.raises(ValueError):
            CombCurve([-1, 2])

    def test_family_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            CurveFamily()
        with pytest.raises(ValueError):
            CurveFamily(curves=(curve(0),), oracle=lambda rho: curve(0))

    def test_explicit_family_must_be_nonempty(self):
        with pytest.raises(ValueError):
            explicit_family([])

    def test_weight_vector_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([0.5, -0.1]))


class TestLengthAndVolume:
    def test_unit_weights_count_pieces(self):
        assert rho_length(np.ones(8), curve(0, 2, 4, 6, 7)) == 5.0

    def test_zero_weights(self):
        assert rho_length(np.zeros(4), curve(1, 2)) == 0.0

    def test_mixed_weights(self):
        assert rho_length(np.array([0.5, 2.0, 1.0]), curve(0, 2)) == pytest.approx(1.5)

    def test_volume_unit_weights(self):
        assert rho_volume(np.ones(6), 2.0) == pytest.approx(6.0)

    def test_volume_single_power(self):
        assert rho_volume(np.array([2.0]), 3.0) == pytest.approx(8.0)

    def test_volume_fractional_exponent(self):
        assert rho_volume(np.array([1.0, 1.0, 0.0, 0.0]), 1.5) == pytest.approx(2.0)

    def test_volume_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            rho_volume(np.ones(3), 0.5)


class TestShortest:
    def test_tie_goes_to_lowest_sorted_indices(self):
        family = explicit_family([curve(3, 1), curve(4), curve(0, 5), curve(2, 1)])
        rho = np.array([0.5, 1.0, 1.5, 1.5, 2.5, 9.0])
        length, best = family.shortest(rho)
        assert length == 2.5
        assert best.sorted_indices() == (1, 2)

    def test_matches_a_sort_on_length_then_indices(self):
        """Same curve and same length bits as ``min`` keyed on both, ties included."""
        rng = np.random.default_rng(41)
        for _ in range(200):
            pieces = int(rng.integers(3, 30))
            family = random_family(rng, pieces, max_curves=40, max_size=6)
            rho = rng.integers(0, 3, size=pieces) * rng.choice([0.1, 1.0 / 3.0])
            expected = min(family.curves, key=lambda c: (rho_length(rho, c), c.sorted_indices()))
            length, best = family.shortest(rho)
            assert best == expected
            assert length == rho_length(rho, expected)


class TestModulusClosedForms:
    def test_single_curve(self):
        cover, family = single_curve_instance(k=4, n=10)
        res = modulus(cover, family, 2.0)
        assert res.value == pytest.approx(0.25, rel=1e-8)
        expected = np.array([0.25] * 4 + [0.0] * 6)
        np.testing.assert_allclose(res.optimizer.rho, expected, atol=1e-9)
        assert res.min_length == pytest.approx(1.0, abs=1e-12)

    def test_single_curve_general_exponent(self):
        """One curve through k pieces has modulus k^(1-Q)."""
        for k in (2, 3, 5):
            for q in (1.5, 2.0, 3.0):
                cover, family = single_curve_instance(k=k, n=k + 2)
                res = modulus(cover, family, q)
                assert res.value == pytest.approx(k ** (1.0 - q), rel=1e-8)

    def test_curve_through_one_piece(self):
        cover = Cover(piece_count=5)
        family = explicit_family([curve(3)])
        res = modulus(cover, family, 2.0)
        assert res.value == pytest.approx(1.0, rel=1e-10)

    def test_grid_rows(self):
        cover, family = grid_rows_instance(m=4, rows=2)
        res = modulus(cover, family, 2.0)
        assert res.value == pytest.approx(0.5, rel=1e-8)
        np.testing.assert_allclose(res.optimizer.rho, np.full(8, 0.25), atol=1e-8)

    def test_exponent_one_is_shortest_length_program(self):
        cover, family = single_curve_instance(k=4, n=6)
        res = modulus(cover, family, 1.0)
        assert res.value == pytest.approx(1.0, rel=1e-9)
        assert res.certificate is None

    def test_rejects_bad_exponent_and_tol(self):
        cover, family = single_curve_instance()
        with pytest.raises(ValueError):
            modulus(cover, family, 0.5)
        with pytest.raises(ValueError):
            modulus(cover, family, 2.0, tol=0.0)

    def test_rejects_curve_outside_cover(self):
        cover = Cover(piece_count=3)
        family = explicit_family([curve(0, 7)])
        with pytest.raises(ValueError):
            modulus(cover, family, 2.0)


class TestModulusProperties:
    def test_matches_brute_force(self):
        """Dual ascent against grid-scan + SLSQP on small random instances."""
        rng = np.random.default_rng(53)
        for _ in range(15):
            n = int(rng.integers(3, 7))
            cover = Cover(piece_count=n)
            family = random_family(rng, n, max_curves=4, max_size=4)
            q = float(rng.choice([1.5, 2.0, 3.0]))
            got = modulus(cover, family, q).value
            want = brute_modulus(n, family.curves, q)
            assert got == pytest.approx(want, rel=1e-4)

    def test_scale_invariance(self):
        rng = np.random.default_rng(59)
        cover, family = grid_rows_instance(m=3, rows=3)
        for _ in range(10):
            rho = rng.random(9) + 0.1
            base = normalized_volume(rho, family, 2.5)
            for t in (0.01, 3.0, 250.0):
                assert normalized_volume(t * rho, family, 2.5) == pytest.approx(base, rel=1e-12)

    def test_any_admissible_weight_upper_bounds_the_value(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            cover = Cover(piece_count=n)
            family = random_family(rng, n)
            q = float(rng.uniform(1.2, 3.5))
            value = modulus(cover, family, q).value
            for _ in range(5):
                rho = rng.random(n) + 1e-3
                assert normalized_volume(rho, family, q) >= value - 1e-8

    def test_unique_up_to_scale(self):
        """Distinct initializations land on the same normalized optimizer."""
        rng = np.random.default_rng(67)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            cover = Cover(piece_count=n)
            family = random_family(rng, n)
            q = float(rng.choice([1.5, 2.0, 3.0]))
            a = modulus(cover, family, q, init="uniform").optimizer.rho
            b = modulus(cover, family, q, init="staggered").optimizer.rho
            np.testing.assert_allclose(a, b, atol=1e-6)


class TestBeurling:
    def test_single_curve_certificate(self):
        cover, family = single_curve_instance(k=4, n=10)
        res = modulus(cover, family, 2.0)
        cert = res.certificate
        assert cert is not None and cert.ok
        assert len(cert.active_curves) == 1
        assert cert.multipliers[0] == pytest.approx(0.5, abs=1e-8)
        assert cert.kkt_residual <= 1e-8

    def test_grid_rows_equal_multipliers(self):
        cover, family = grid_rows_instance(m=4, rows=2)
        res = modulus(cover, family, 2.0)
        cert = res.certificate
        assert cert.ok and len(cert.active_curves) == 2
        assert cert.multipliers[0] == pytest.approx(cert.multipliers[1], abs=1e-8)

    def test_perturbation_breaks_the_certificate(self):
        cover, family = single_curve_instance(k=4, n=10)
        res = modulus(cover, family, 2.0)
        rho = res.optimizer.rho.copy()
        rho[0] *= 1.1
        cert = beurling_check(cover, family.curves, rho, 2.0)
        assert not cert.ok
        assert cert.kkt_residual > 1e-8

    def test_certificate_is_scale_free_at_large_q(self):
        """Wrong weights whose target Q rho^(Q-1) is tiny: the residual (7e-21)
        is far below the default 1e-8, but the volume is 6e7 times optimal."""
        cover = Cover(piece_count=3)
        family = explicit_family([CombCurve([0, 1]), CombCurve([1, 2])])
        rho = np.array([0.6, 0.4, 0.6])
        assert rho_volume(rho, 100.0) > 1e7 * modulus(cover, family, 100.0).value
        assert not beurling_check(cover, family.curves, rho, 100.0).ok

    def test_solver_optimizers_always_certify(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            cover = Cover(piece_count=n)
            family = random_family(rng, n)
            q = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
            res = modulus(cover, family, q)
            assert res.certificate.ok
            assert res.certificate.kkt_residual <= 1e-8

    def test_rejects_exponent_one(self):
        cover, family = single_curve_instance()
        with pytest.raises(ValueError):
            beurling_check(cover, family.curves, np.ones(10), 1.0)


class TestMonotonicity:
    def test_equal_families(self):
        cover, family = grid_rows_instance()
        assert verify_monotonicity(cover, family, family, 2.0)

    def test_singleton_inside_disjoint_pair(self):
        cover = Cover(piece_count=8)
        c1, c2 = curve(0, 1, 2), curve(4, 5, 6)
        assert verify_monotonicity(
            cover, explicit_family([c1]), explicit_family([c1, c2]), 2.0
        )

    def test_random_nested_families(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            n = int(rng.integers(4, 13))
            cover = Cover(piece_count=n)
            inner, outer = random_nested_pair(rng, n)
            q = float(rng.uniform(1.2, 3.0))
            assert verify_monotonicity(cover, inner, outer, q)

    def test_rejects_non_nested_input(self):
        cover = Cover(piece_count=4)
        with pytest.raises(ValueError):
            verify_monotonicity(
                cover, explicit_family([curve(0)]), explicit_family([curve(1)]), 2.0
            )


class TestSubadditivity:
    def test_disjoint_supports_are_additive(self):
        cover = Cover(piece_count=9)
        fam_a = explicit_family([curve(0, 1, 2)])
        fam_b = explicit_family([curve(4, 5, 6)])
        report = verify_subadditivity(cover, [fam_a, fam_b], 2.0)
        assert report.disjoint_supports
        assert report.subadditive
        assert report.additive_when_disjoint
        assert report.union_value == pytest.approx(2.0 * 3.0 ** (1.0 - 2.0), rel=1e-7)

    def test_identical_families(self):
        cover, family = grid_rows_instance()
        report = verify_subadditivity(cover, [family, family], 2.0)
        assert report.subadditive
        assert report.union_value <= 2.0 * modulus(cover, family, 2.0).value + 1e-9

    def test_random_overlapping_families(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            n = int(rng.integers(4, 13))
            cover = Cover(piece_count=n)
            fams = [random_family(rng, n) for _ in range(int(rng.integers(2, 4)))]
            q = float(rng.uniform(1.2, 3.0))
            report = verify_subadditivity(cover, fams, q)
            assert report.subadditive
            if not report.disjoint_supports:
                assert report.additive_when_disjoint is None

    def test_rejects_empty_family_list(self):
        cover = Cover(piece_count=4)
        with pytest.raises(ValueError):
            verify_subadditivity(cover, [], 2.0)


def duality_gap(result, piece_count, q):
    """Relative gap between the value and the weak-duality bound of the certificate.

    The certificate's multipliers mu on its active curves give the dual value
    g(mu) = sum(mu) - (Q-1) sum_s (u_s/Q)^(Q/(Q-1)), u = A^T mu, which is at
    most the modulus whatever mu >= 0 is.
    """
    cert = result.certificate
    u = incidence_matrix(cert.active_curves, piece_count).T @ cert.multipliers
    dual = cert.multipliers.sum() - (q - 1.0) * np.sum((u / q) ** (q / (q - 1.0)))
    return (result.value - dual) / result.value


#: 5 pieces, 16 curves; pieces 1, 2 and 3 are curves by themselves, so the
#: optimum is 3 at rho = (0, 1, 1, 1, 0) for every Q > 1
FIVE_PIECE_FAMILY = (
    (0, 1, 2, 3, 4), (2, 3, 4), (0, 2, 3, 4), (1,), (0, 1, 3), (3,), (1, 2, 3, 4), (0, 3),
    (0, 3, 4), (0, 1, 2, 4), (0, 1, 3, 4), (2,), (0, 1, 4), (0, 1, 2, 3), (1, 2, 4), (0, 2, 3),
)

#: seeded explicit families: draws 2, 7, ..., 136 of this loop stalled the
#: projected-Newton dual solver that the active-set loop replaced
CATALOG_SEED = 20070709
STALLED_DRAWS = (
    2, 7, 10, 11, 25, 27, 46, 48, 51, 59, 68, 75, 83, 91, 101, 102, 105, 111, 118, 126, 129, 136
)


def catalog_draws(count=142):
    rng = np.random.default_rng(CATALOG_SEED)
    draws = []
    while len(draws) < count:
        pieces = int(rng.integers(20, 81))
        family = random_family(rng, pieces, max_curves=int(rng.integers(10, 101)), max_size=10)
        q = (1.0, 1.5, 2.0, 3.0)[int(rng.integers(0, 4))]
        if len(family.curves) >= 10:
            draws.append((family, pieces, q))
    return draws


class TestFormerStalls:
    def test_five_piece_family(self):
        curves = [CombCurve(c) for c in FIVE_PIECE_FAMILY]
        for q in (1.5, 2.0, 3.0):
            res = modulus(Cover(5), explicit_family(curves), q)
            assert res.value == pytest.approx(3.0, rel=1e-9)
            np.testing.assert_allclose(res.optimizer.rho, [0, 1, 1, 1, 0], atol=1e-9)
            assert res.certificate.ok
            assert res.value == pytest.approx(brute_modulus(5, curves, q), rel=1e-4)

    def test_stalled_catalog_draws(self):
        draws = catalog_draws()
        for index in STALLED_DRAWS:
            family, pieces, q = draws[index]
            res = modulus(Cover(pieces), family, q)
            assert res.certificate.ok, index
            assert duality_gap(res, pieces, q) <= 1e-6, index

    @pytest.mark.parametrize("cols,rows,q", [(12, 12, 1.5), (16, 16, 3.0), (24, 6, 3.0)])
    def test_stalled_annuli(self, cols, rows, q):
        res = annulus_modulus(grid_annulus(cols, rows), q)
        assert res.value == pytest.approx(rows * cols ** (1.0 - q), rel=1e-6)
        assert res.certificate.ok

    def test_one_blas_thread(self):
        """12x12 at Q=3 and 16x16 at Q=1.5 stalled the old solver with one BLAS thread."""
        script = (
            "from confdim.covers import annulus_modulus, grid_annulus\n"
            "for c, h, q in ((12, 12, 3.0), (16, 16, 1.5)):\n"
            "    res = annulus_modulus(grid_annulus(c, h), q)\n"
            "    assert res.certificate.ok, (c, h, q)\n"
            "    assert abs(res.value / (h * c ** (1.0 - q)) - 1.0) <= 1e-6, (c, h, q)\n"
        )
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(confdim.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src_dir)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr


class TestWorkingSet:
    def test_curve_in_the_span_of_the_working_set(self):
        """An oracle offers {1, 4} = {1, 3, 4} - {3} while those are working.

        The Newton matrix of the grown set is singular; its first step must
        swap a curve out, not stall.
        """
        family = explicit_family(
            curve(*c) for c in [(0,), (1, 4), (0, 4), (3,), (0, 2, 3), (0, 2), (1, 3, 4)]
        )
        oracle = CurveFamily(oracle=lambda rho: family.shortest(rho)[1])
        res = modulus(Cover(5), oracle, 1.5)
        assert res.value == pytest.approx(2.0 + 2.0**-0.5, rel=1e-9)
        np.testing.assert_allclose(res.optimizer.rho, [1, 0.5, 0, 1, 0.5], atol=1e-9)
        assert beurling_check(Cover(5), family.curves, res.optimizer, 1.5).ok

    def test_dependent_rows_in_one_batch(self):
        """{0, 1} + {2, 3} = {0, 2} + {1, 3}: the first batch has dependent rows.

        The optimum is 1/2 on every piece, with zero weight on {0, 4} in the
        Beurling fit, so the value is 6 * 2^-Q.
        """
        family = explicit_family(
            curve(*c) for c in [(0, 1), (2, 3), (0, 2), (1, 3), (4, 5), (0, 4), (1, 3, 5)]
        )
        for q in (1.5, 2.0, 3.0):
            res = modulus(Cover(6), family, q)
            assert res.value == pytest.approx(6.0 * 2.0**-q, rel=1e-9), q
            assert res.certificate.ok, q


def assert_closed_form_bracket(value, family, pieces, q):
    """L^(1-Q) <= value <= n L^(-Q), L the fewest pieces on a curve, n the piece count.

    The constant weight 1/L is admissible, and the family is at least as
    large as one curve of L pieces, whose modulus is L^(1-Q).
    """
    fewest = min(len(c.incidence) for c in family.curves)
    assert fewest ** (1.0 - q) * (1.0 - 1e-9) <= value <= pieces * fewest**-q * (1.0 + 1e-9)


class TestRandomFamilies:
    QS = (1.05, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0)

    def test_seeded_draws_solve_with_a_closed_gap(self):
        """400 draws of 3-80 pieces, 1-120 curves of 1-10 pieces, at Q from 1.05 to 6."""
        rng = np.random.default_rng(7)
        for draw in range(400):
            pieces = int(rng.integers(3, 81))
            family = random_family(
                rng, pieces, max_curves=int(rng.integers(1, 121)),
                max_size=int(rng.integers(1, 11)),
            )
            q = self.QS[int(rng.integers(len(self.QS)))]
            res = modulus(Cover(pieces), family, q)
            assert res.certificate.ok, (draw, q)
            assert duality_gap(res, pieces, q) <= 1e-6, (draw, q)
            assert_closed_form_bracket(res.value, family, pieces, q)

    def test_seeded_draws_at_the_ends_of_the_range_fall_in_the_bracket(self):
        """400 draws as above at Q = 1 and Q = 12, where no duality gap is checked."""
        rng = np.random.default_rng(17)
        for draw in range(400):
            pieces = int(rng.integers(3, 81))
            family = random_family(
                rng, pieces, max_curves=int(rng.integers(1, 121)),
                max_size=int(rng.integers(1, 11)),
            )
            q = (1.0, 12.0)[draw % 2]
            res = modulus(Cover(pieces), family, q)
            assert_closed_form_bracket(res.value, family, pieces, q)
