"""Cylinder grids, cyclic covers, the model dynamics, and their diagnostics."""

from __future__ import annotations

import hashlib
import math
import time
from collections import Counter

import numpy as np
import pytest

import oracles
from confdim import covers
from confdim.covers import (
    CoverDynamics,
    EmbeddedCover,
    annulus_modulus,
    cyclic_cover,
    essential_cycle_family,
    grid_annulus,
    lattes_model,
    quasipacking_check,
    refine,
    verify_covering_scaling,
    verify_growth_bound,
)
from confdim.modulus import modulus, rho_length
from confdim.multicurve import lattes_spec


def ring(annulus: EmbeddedCover, row: int) -> set[int]:
    return {row * annulus.cols + col for col in range(annulus.cols)}


@pytest.fixture(scope="module")
def model() -> tuple[CoverDynamics, object]:
    return lattes_model(2)


class TestEmbeddedCover:
    def test_grid_annulus_counts(self):
        cover = grid_annulus(4, 2)
        assert cover.piece_count == 8

    def test_cell_index_roundtrip(self):
        cover = grid_annulus(5, 3)
        for piece in range(cover.piece_count):
            col, row = cover.cell_at(piece)
            assert cover.cell_index(col, row) == piece
        assert cover.cell_index(-1, 0) == cover.cell_index(4, 0)

    def test_cell_cap(self, monkeypatch):
        monkeypatch.delenv("CONFDIM_MAX_CELLS", raising=False)
        with pytest.raises(ValueError, match="CONFDIM_MAX_CELLS"):
            grid_annulus(400, 400)
        with pytest.raises(ValueError, match="CONFDIM_MAX_CELLS"):
            refine(grid_annulus(4, 2), 128)
        with pytest.raises(ValueError, match="CONFDIM_MAX_CELLS"):
            cyclic_cover(grid_annulus(100, 100), 11)
        monkeypatch.setenv("CONFDIM_MAX_CELLS", "200000")
        assert grid_annulus(400, 400).piece_count == 160000
        assert refine(grid_annulus(4, 2), 128).piece_count == 131072

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_annulus(2, 1)
        with pytest.raises(ValueError):
            grid_annulus(4, 0)
        with pytest.raises(ValueError):
            EmbeddedCover(cols=4, rows=1, cell_side=0.0)
        cover = grid_annulus(4, 2)
        with pytest.raises(ValueError):
            cover.cell_at(8)
        with pytest.raises(ValueError):
            cover.cell_index(0, 2)


class TestRefine:
    def test_counts_and_mesh(self):
        fine = refine(grid_annulus(4, 2), 2)
        assert (fine.cols, fine.rows) == (8, 4)
        assert fine.piece_count == 32
        assert fine.cell_side == pytest.approx(0.5, rel=0, abs=0)

    def test_twice_by_two_is_once_by_four(self):
        base = grid_annulus(3, 2)
        assert refine(refine(base, 2), 2) == refine(base, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            refine(grid_annulus(4, 2), 1)
        with pytest.raises(ValueError):
            refine(grid_annulus(4, 2), 2.0)


class TestCyclicCover:
    def test_degree_two_projection(self):
        covmap = cyclic_cover(grid_annulus(4, 2), 2)
        assert (covmap.source.cols, covmap.source.rows) == (8, 2)
        assert covmap.degree == 2
        for src, tgt in enumerate(covmap.piece_map):
            col, row = covmap.source.cell_at(src)
            assert tgt == covmap.target.cell_index(col % 4, row)
        fibers = Counter(covmap.piece_map)
        assert set(fibers.values()) == {2}

    def test_degree_one_is_identity(self):
        covmap = cyclic_cover(grid_annulus(5, 3), 1)
        assert covmap.source == covmap.target
        assert covmap.piece_map == tuple(range(15))

    def test_validation(self):
        with pytest.raises(ValueError):
            cyclic_cover(grid_annulus(4, 2), 0)

def shortest_cycle(annulus: EmbeddedCover, rho):
    return essential_cycle_family(annulus).shortest(rho)[1]


class TestEssentialCycleOracle:
    def test_unit_weights_need_one_cell_per_column(self):
        annulus = grid_annulus(5, 3)
        curve = shortest_cycle(annulus, np.ones(15))
        cells = sorted(curve.incidence)
        assert len(cells) == 5
        assert {cell % 5 for cell in cells} == set(range(5))
        assert rho_length(np.ones(15), curve) == pytest.approx(5.0)

    def test_row_gradient_prefers_bottom_ring(self):
        annulus = grid_annulus(4, 3)
        rho = np.array([1.0 + (p // 4) for p in range(12)])
        curve = shortest_cycle(annulus, rho)
        assert set(curve.incidence) == ring(annulus, 0)

    def test_zeroed_ring_is_free(self):
        annulus = grid_annulus(6, 2)
        rho = np.ones(12)
        rho[list(ring(annulus, 1))] = 0.0
        curve = shortest_cycle(annulus, rho)
        assert set(curve.incidence) == ring(annulus, 1)
        assert rho_length(rho, curve) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_staircase(self):
        annulus = grid_annulus(4, 2)
        cheap = {
            annulus.cell_index(0, 0),
            annulus.cell_index(1, 1),
            annulus.cell_index(2, 0),
            annulus.cell_index(3, 1),
        }
        rho = np.full(8, 10.0)
        rho[list(cheap)] = 0.1
        curve = shortest_cycle(annulus, rho)
        assert set(curve.incidence) == cheap
        # a staircase whose last cell meets the first only at a corner across the seam
        annulus = grid_annulus(6, 3)
        cheap = {annulus.cell_index(col, row) for col, row in enumerate((1, 2, 2, 1, 0, 0))}
        rho = np.full(18, 10.0)
        rho[list(cheap)] = 0.1
        curve = shortest_cycle(annulus, rho)
        assert set(curve.incidence) == cheap

    def test_deterministic(self):
        annulus = grid_annulus(6, 2)
        rng = np.random.default_rng(89)
        rho = rng.uniform(0.0, 1.0, size=12)
        first = shortest_cycle(annulus, rho)
        second = shortest_cycle(annulus, rho)
        assert set(first.incidence) == set(second.incidence)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(83)
        pairs = [
            (c, h)
            for c in range(3, 13)
            for h in range(1, 12 // c + 1)
            if c * h <= 12
        ]
        assert len(pairs) >= 15
        for c, h in pairs:
            annulus = grid_annulus(c, h)
            for _ in range(50):
                rho = rng.uniform(0.0, 1.0, size=c * h)
                rho[rng.uniform(size=c * h) < 0.2] = 0.0
                curve = shortest_cycle(annulus, rho)
                mask = sum(1 << i for i in curve.incidence)
                assert mask in oracles.essential_masks(c, h)
                found = rho_length(rho, curve)
                best = oracles.exhaustive_min_essential(c, h, rho)
                assert found == pytest.approx(best, rel=1e-12, abs=1e-12)


def exhaustive_grids_with_weights(seed, draws):
    """Every grid the exhaustive oracle covers, with seeded weights.

    Odd draws are uniform with a fifth of the cells zero; even draws take
    the values 0, 1 and 2, so that many cycles tie.
    """
    rng = np.random.default_rng(seed)
    for c in range(3, 13):
        for h in range(1, 12 // c + 1):
            for draw in range(draws):
                if draw % 2:
                    rho = rng.uniform(0.0, 1.0, size=c * h)
                    rho[rng.uniform(size=c * h) < 0.2] = 0.0
                else:
                    rho = rng.integers(0, 3, size=c * h).astype(float)
                yield grid_annulus(c, h), rho


#: sha256 of the first offered curves on exhaustive_grids_with_weights(97, 20),
#: as the one-curve oracle returned them before it offered one per seam row
SINGLE_ANSWER_DIGEST = "1a28a877e253fcd015d1dd13df93b1321533953a95142018897203029d10aed1"


class TestOracleContract:
    """The oracle offers one shortest cycle per seam row, shortest first."""

    def test_offers_on_every_exhaustive_grid(self):
        firsts = []
        for annulus, rho in exhaustive_grids_with_weights(97, 20):
            c, h = annulus.cols, annulus.rows
            oracle = essential_cycle_family(annulus).oracle
            offered = oracle(rho)
            assert 1 <= len(offered) <= h
            assert len({curve.incidence for curve in offered}) == len(offered)
            for curve in offered:
                assert sum(1 << i for i in curve.incidence) in oracles.essential_masks(c, h)
            best = oracles.exhaustive_min_essential(c, h, rho)
            assert rho_length(rho, offered[0]) == pytest.approx(best, rel=1e-12, abs=1e-12)
            assert oracle(rho) == offered
            firsts.append(offered[0].sorted_indices())
        digest = hashlib.sha256(repr(firsts).encode()).hexdigest()
        assert digest == SINGLE_ANSWER_DIGEST


def counted(family):
    """The family with its oracle wrapped to count calls; returns both."""
    calls = [0]
    oracle = family.oracle

    def wrapped(rho):
        calls[0] += 1
        return oracle(rho)

    object.__setattr__(family, "oracle", wrapped)
    return family, calls


class TestModulusLoop:
    @pytest.mark.parametrize("init", ["uniform", "staggered"])
    def test_16x16_closes_in_few_oracle_calls(self, init):
        annulus = grid_annulus(16, 16)
        family, calls = counted(essential_cycle_family(annulus))
        result = modulus(annulus.as_cover(), family, 2.0, init=init)
        assert result.certificate.ok
        assert result.value == pytest.approx(1.0, rel=1e-9)
        assert calls[0] <= 120

    def test_no_query_at_the_returned_weights(self):
        """The loop's last answer gives the normalization and ``min_length``."""
        annulus = grid_annulus(256, 4)
        family = essential_cycle_family(annulus)
        asked, oracle = [], family.oracle

        def recording(rho):
            asked.append(np.array(rho, copy=True))
            return oracle(rho)

        object.__setattr__(family, "oracle", recording)
        result = modulus(annulus.as_cover(), family, 2.0)
        assert result.value == pytest.approx(4.0 * 256.0**-1.0, rel=1e-9)
        assert result.min_length == pytest.approx(1.0, rel=1e-12)
        assert not any(np.array_equal(rho, result.optimizer.rho) for rho in asked)
        assert len(asked) == 6

    def test_benchmark_grids(self):
        for c, h in ((256, 4), (8, 8), (12, 12), (16, 16), (6, 24), (24, 6)):
            for q in (1.5, 2.0, 3.0):
                result = annulus_modulus(grid_annulus(c, h), q)
                assert result.certificate.ok, (c, h, q)
                assert result.value == pytest.approx(h * c ** (1.0 - q), rel=1e-9), (c, h, q)

    def test_seeded_grids_and_exponents(self):
        """Grids up to 24x24 at Q from 1.05 to 12, log-uniform."""
        rng = np.random.default_rng(131)
        for _ in range(16):
            c, h = int(rng.integers(3, 25)), int(rng.integers(1, 25))
            q = float(np.exp(rng.uniform(np.log(1.05), np.log(12.0))))
            result = annulus_modulus(grid_annulus(c, h), q)
            assert result.certificate.ok, (c, h, q)
            assert result.value == pytest.approx(h * c ** (1.0 - q), rel=1e-8), (c, h, q)


class TestAnnulusModulus:
    def test_square_cylinder_is_one(self):
        result = annulus_modulus(grid_annulus(4, 4), 2.0)
        assert result.value == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("c,h", [(3, 2), (4, 2), (6, 3)])
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_closed_form(self, c, h, q):
        result = annulus_modulus(grid_annulus(c, h), q)
        assert result.value == pytest.approx(h * c ** (1.0 - q), rel=1e-6)
        assert result.min_length == pytest.approx(1.0, rel=1e-9)
        assert result.certificate is not None and result.certificate.ok

    def test_uniform_optimizer(self):
        result = annulus_modulus(grid_annulus(5, 2), 2.0)
        np.testing.assert_allclose(result.optimizer.rho, np.full(10, 0.2), atol=1e-5)

    def test_family_shortest_uses_oracle(self):
        annulus = grid_annulus(6, 3)
        family = essential_cycle_family(annulus)
        length, curve = family.shortest(np.ones(18))
        assert length == pytest.approx(6.0)
        assert len(curve.incidence) == 6

    def test_needs_q_above_one(self):
        with pytest.raises(ValueError):
            annulus_modulus(grid_annulus(4, 2), 1.0)

    def test_exponent_one_through_the_oracle(self):
        """The linear program's weights reach the oracle clipped at 0.

        Its solver returns entries like -1e-12, and a negative edge weight
        made the seam-strip shortest-path search abort the interpreter.
        """
        annulus = grid_annulus(8, 8)
        result = modulus(annulus.as_cover(), essential_cycle_family(annulus), 1.0)
        assert result.value == pytest.approx(8.0, rel=1e-9)
        assert np.all(result.optimizer.rho >= 0.0)

    def test_exponent_one_on_12x12(self):
        """One cut a round did not close in 244 rounds; disjoint batches do."""
        annulus = grid_annulus(12, 12)
        result = modulus(annulus.as_cover(), essential_cycle_family(annulus), 1.0)
        assert abs(result.value - 12.0) <= 1e-9


class TestCoveringScaling:
    def test_doubling_halves_at_q_two(self):
        report = verify_covering_scaling(grid_annulus(4, 2), 2, 2.0)
        assert report.ok
        assert report.base_value == pytest.approx(0.5, rel=1e-6)
        assert report.cover_value == pytest.approx(0.25, rel=1e-6)
        assert report.rel_error <= 1e-6

    def test_degree_three_cubic_exponent(self):
        report = verify_covering_scaling(grid_annulus(3, 2), 3, 3.0)
        assert report.ok
        assert report.cover_value / report.base_value == pytest.approx(
            3.0 ** (-2.0), rel=1e-5
        )

    def test_degree_one_changes_nothing(self):
        report = verify_covering_scaling(grid_annulus(4, 2), 1, 1.5)
        assert report.ok
        assert report.cover_value == pytest.approx(report.base_value, rel=1e-9)
        assert report.expected_cover_value == pytest.approx(report.base_value)


class TestLattesModel:
    def test_cover_sizes(self, model):
        dynamics, _ = model
        sizes = [(cov.cols, cov.rows, cov.cell_side) for cov in dynamics.levels]
        assert sizes == [
            (16, 8, 1.0 / 16),
            (32, 16, 1.0 / 32),
            (64, 32, 1.0 / 64),
        ]

    def test_spec_matches_model_map(self, model):
        _, spec = model
        assert spec == lattes_spec()
        assert spec.map_degree == 4

    def test_annuli_marks(self, model):
        dynamics, _ = model
        assert [len(level) for level in dynamics.annuli] == [1, 2, 4]
        base = dynamics.annuli[0][0]
        assert (base.row_start, base.rows) == (2, 4)
        assert base.parent_index is None
        level1 = dynamics.annuli[1]
        assert [m.row_start for m in level1] == [2, 10]
        assert [m.parent_index for m in level1] == [0, 0]
        level2 = dynamics.annuli[2]
        assert [m.parent_index for m in level2] == [0, 1, 1, 0]
        assert all(m.degree_over_base == 4 for m in level2)
        assert all(m.step_degree == 2 for m in level1 + level2)

    def test_refinement_parent(self, model):
        dynamics, _ = model
        fine = dynamics.levels[1]
        coarse = dynamics.levels[0]
        piece = fine.cell_index(5, 7)
        assert dynamics.refinement_parent(1, piece) == coarse.cell_index(2, 3)
        fibers = Counter(
            dynamics.refinement_parent(1, p) for p in range(fine.piece_count)
        )
        assert set(fibers.values()) == {4}

    def test_dynamics_is_four_to_one(self, model):
        dynamics, _ = model
        fine = dynamics.levels[1]
        images = Counter(dynamics.dynamics_image(1, p) for p in range(fine.piece_count))
        assert set(images.values()) == {4}
        assert len(images) == dynamics.levels[0].piece_count

    def test_dynamics_fold_formula(self, model):
        dynamics, _ = model
        fine, coarse = dynamics.levels[1], dynamics.levels[0]
        assert dynamics.dynamics_image(1, fine.cell_index(3, 5)) == coarse.cell_index(3, 5)
        assert dynamics.dynamics_image(1, fine.cell_index(19, 5)) == coarse.cell_index(3, 5)
        assert dynamics.dynamics_image(1, fine.cell_index(0, 15)) == coarse.cell_index(15, 0)
        assert dynamics.dynamics_image(1, fine.cell_index(16, 15)) == coarse.cell_index(15, 0)

    def test_annuli_map_onto_parents_two_to_one(self, model):
        dynamics, _ = model
        for level in (1, 2):
            for mark in dynamics.annuli[level]:
                parent = dynamics.annuli[level - 1][mark.parent_index]
                parent_pieces = set(dynamics.annulus_pieces(parent))
                images = Counter(
                    dynamics.dynamics_image(level, p)
                    for p in dynamics.annulus_pieces(mark)
                )
                assert set(images) == parent_pieces
                assert set(images.values()) == {mark.step_degree}

    def test_annuli_disjoint_per_level(self, model):
        dynamics, _ = model
        for level_marks in dynamics.annuli:
            seen: set[int] = set()
            for mark in level_marks:
                pieces = set(dynamics.annulus_pieces(mark))
                assert not (seen & pieces)
                seen |= pieces

    def test_subcover_geometry(self, model):
        dynamics, _ = model
        mark = dynamics.annuli[1][1]
        sub = dynamics.annulus_subcover(mark)
        assert (sub.cols, sub.rows) == (32, 4)
        assert sub.cell_side == dynamics.levels[1].cell_side

    def test_cell_cap(self, monkeypatch):
        with pytest.raises(ValueError, match="cap"):
            lattes_model(5)
        monkeypatch.setenv("CONFDIM_MAX_CELLS", "200000")
        dynamics, _ = lattes_model(5)
        assert len(dynamics.levels) == 6
        monkeypatch.setenv("CONFDIM_MAX_CELLS", "300")
        with pytest.raises(ValueError, match="cap"):
            lattes_model(1)

    def test_levels_validation(self):
        with pytest.raises(ValueError):
            lattes_model(-1)


class TestGrowthBound:
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_bound_holds_with_equality(self, model, q):
        dynamics, spec = model
        report = verify_growth_bound(dynamics, spec, q, n_max=2)
        assert report.ok
        v0 = 4.0 * 16.0 ** (1.0 - q)
        for row in report.rows:
            expected = v0 * 2.0 ** (row.level * (2.0 - q))
            assert row.left_sum == pytest.approx(expected, rel=1e-4)
            assert row.right_bound == pytest.approx(expected, rel=1e-4)
            assert row.bound_ok and row.scaling_ok
            assert row.containment_ok and row.disjoint_ok
            assert row.annuli_count == 2**row.level

    def test_row_scaling_errors_are_small(self, model):
        dynamics, spec = model
        report = verify_growth_bound(dynamics, spec, 2.0, n_max=1)
        assert report.rows[0].max_scaling_rel_error == 0.0
        assert report.rows[1].max_scaling_rel_error <= 1e-6

    def test_one_solve_per_annulus_shape(self, model, monkeypatch):
        dynamics, spec = model
        solved = Counter()
        real = covers.annulus_modulus

        def counting(annulus, q, **kwargs):
            solved[(annulus.cols, annulus.rows)] += 1
            return real(annulus, q, **kwargs)

        monkeypatch.setattr(covers, "annulus_modulus", counting)
        report = verify_growth_bound(dynamics, spec, 2.0, n_max=2)
        assert report.ok
        assert sum(row.annuli_count for row in report.rows) == 7
        assert solved == {(16, 4): 1, (32, 4): 1, (64, 4): 1}

    def test_validation(self, model):
        dynamics, spec = model
        with pytest.raises(ValueError):
            verify_growth_bound(dynamics, spec, 1.0, n_max=1)
        with pytest.raises(ValueError):
            verify_growth_bound(dynamics, spec, 2.0, n_max=3)


class TestQuasipacking:
    def test_unit_grid(self):
        result = quasipacking_check(grid_annulus(4, 2))
        assert result.ok
        assert result.constant == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_constant_stable_under_refinement(self):
        base = grid_annulus(4, 2)
        constants = []
        for level in range(4):
            cover = base if level == 0 else refine(base, 2**level)
            result = quasipacking_check(cover)
            assert result.ok
            constants.append(result.constant)
        for value in constants[1:]:
            assert value == pytest.approx(constants[0], abs=1e-12)

    def test_explicit_cells(self):
        result = quasipacking_check([(0.5, 0.5, 1.0), (1.5, 0.5, 1.0)])
        assert result.ok
        assert result.constant == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_coincident_centers_fail(self):
        result = quasipacking_check([(0.5, 0.5, 1.0), (0.5, 0.5, 1.0)])
        assert not result.ok
        assert result.constant is None

    def test_overlapping_cells_fail(self):
        result = quasipacking_check([(0.5, 0.5, 1.0), (0.9, 0.5, 1.0)])
        assert not result.ok

    def test_validation(self):
        with pytest.raises(ValueError):
            quasipacking_check([])
        with pytest.raises(ValueError):
            quasipacking_check([(0.0, 0.0, -1.0)])

    def test_refined_grid_at_scale(self):
        cover = refine(grid_annulus(4, 2), 64)
        assert cover.piece_count == 32768
        started = time.perf_counter()
        result = quasipacking_check(cover)
        assert time.perf_counter() - started < 1.0
        assert result.ok
        assert result.constant == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_one_far_overlap_among_many(self):
        cells = [(x + 0.5, y + 0.5, 1.0) for y in range(100) for x in range(100)]
        assert quasipacking_check(cells).ok
        cells[0] = (-5.0, -5.0, 1.0)
        cells[-1] = (-5.0, -4.5, 1.0)
        assert not quasipacking_check(cells).ok
