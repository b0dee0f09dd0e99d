import math
import time
import tracemalloc

import networkx as nx
import numpy as np
import pytest

import oracles

from confdim.multicurve import (
    CatalogReport,
    Essential,
    MulticurveSpec,
    PreimageComponent,
    detect_levy_cycles,
    lattes_spec,
    leading_eigenvalue,
    q_of_map,
    q_of_multicurve,
    transition_matrix,
)
from confdim.suites import random_levyfree_spec


def essential(degree, curve):
    return PreimageComponent(degree=degree, classification=Essential(curve))


def single_curve(*components):
    return MulticurveSpec(curves=("g1",), preimages={"g1": tuple(components)})


DEG3_PAIR = single_curve(essential(3, "g1"), essential(3, "g1"))

ALL_PERIPHERAL = MulticurveSpec(
    curves=("g1", "g2"),
    preimages={
        "g1": (PreimageComponent(2, "peripheral"),),
        "g2": (PreimageComponent(3, "inessential"), PreimageComponent(1, "peripheral")),
    },
)

SWAP_DEG2 = MulticurveSpec(
    curves=("g1", "g2"),
    preimages={"g1": (essential(2, "g2"),), "g2": (essential(2, "g1"),)},
)


class TestMulticurveSpec:
    def test_rejects_empty_curve_list(self):
        with pytest.raises(ValueError):
            MulticurveSpec(curves=(), preimages={})

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            MulticurveSpec(curves=("a", "a"), preimages={})

    def test_rejects_unknown_essential_target(self):
        with pytest.raises(ValueError):
            single_curve(essential(2, "nope"))

    def test_rejects_preimages_for_unknown_curve(self):
        with pytest.raises(ValueError):
            MulticurveSpec(curves=("a",), preimages={"b": ()})

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            PreimageComponent(degree=0, classification="peripheral")

    def test_rejects_non_integer_degree(self):
        with pytest.raises(ValueError):
            PreimageComponent(degree=2.0, classification="peripheral")

    def test_rejects_unknown_classification(self):
        with pytest.raises(ValueError):
            PreimageComponent(degree=2, classification="essential")

    def test_map_degree_must_match_fiber_sums(self):
        with pytest.raises(ValueError):
            MulticurveSpec(
                curves=("g1",),
                preimages={"g1": (essential(2, "g1"),)},
                map_degree=4,
            )

    def test_map_degree_accepts_matching_sums(self):
        spec = lattes_spec()
        assert spec.map_degree == 4
        assert sum(c.degree for c in spec.components_of("g1")) == 4

    def test_missing_preimage_key_means_no_components(self):
        spec = MulticurveSpec(curves=("a", "b"), preimages={"a": (essential(2, "b"),)})
        assert spec.components_of("b") == ()


class TestTransitionMatrix:
    def test_lattes_at_two_is_identity(self):
        m = transition_matrix(lattes_spec(), 2.0)
        np.testing.assert_allclose(m.entries, [[1.0]])

    def test_all_peripheral_gives_zero_matrix(self):
        m = transition_matrix(ALL_PERIPHERAL, 2.0)
        assert np.all(m.entries == 0.0)

    def test_swap_pair_at_two(self):
        m = transition_matrix(SWAP_DEG2, 2.0)
        np.testing.assert_allclose(m.entries, [[0.0, 0.5], [0.5, 0.0]])

    def test_rejects_exponent_below_one(self):
        with pytest.raises(ValueError):
            transition_matrix(lattes_spec(), 0.99)

    def test_entrywise_monotone_in_exponent(self):
        """Raising the exponent never raises any entry (degrees are >= 1)."""
        rng = np.random.default_rng(31)
        for _ in range(20):
            spec = random_levyfree_spec(rng)
            q1, q2 = sorted(rng.uniform(1.0, 6.0, size=2))
            a_low = transition_matrix(spec, q1).entries
            a_high = transition_matrix(spec, q2).entries
            assert np.all(a_high <= a_low + 1e-15)


class TestLeadingEigenvalue:
    def test_lattes_at_two(self):
        assert leading_eigenvalue(lattes_spec(), 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_lattes_at_one(self):
        assert leading_eigenvalue(lattes_spec(), 1.0) == pytest.approx(2.0, abs=1e-10)

    def test_all_peripheral_is_zero(self):
        for q in (1.0, 2.0, 5.5):
            assert leading_eigenvalue(ALL_PERIPHERAL, q) == 0.0


class TestDetectLevyCycles:
    def test_degree_one_self_loop(self):
        spec = single_curve(essential(1, "g1"))
        assert detect_levy_cycles(spec) == [(0,)]

    def test_lattes_has_none(self):
        assert detect_levy_cycles(lattes_spec()) == []

    def test_degree_one_swap(self):
        spec = MulticurveSpec(
            curves=("g1", "g2"),
            preimages={"g1": (essential(1, "g2"),), "g2": (essential(1, "g1"),)},
        )
        assert detect_levy_cycles(spec) == [(0, 1)]

    def test_acyclic_degree_one_chain_is_clear(self):
        spec = MulticurveSpec(
            curves=("a", "b", "c"),
            preimages={
                "a": (essential(1, "b"),),
                "b": (essential(1, "c"),),
                "c": (essential(2, "a"),),
            },
        )
        assert detect_levy_cycles(spec) == []

    @staticmethod
    def degree_one_matrix(spec):
        m = spec.size
        c = np.zeros((m, m), dtype=int)
        for j in range(m):
            for comp in spec.preimages[j]:
                if comp.degree == 1 and isinstance(comp.classification, Essential):
                    c[spec.index_of(comp.classification.curve), j] += 1
        return c

    @pytest.mark.parametrize(
        "preimages, has_levy",
        [
            ({"a": (essential(1, "b"),), "b": (essential(1, "a"),)}, True),
            ({"a": (essential(1, "b"),), "b": (essential(2, "a"),)}, False),
            ({"a": (essential(1, "a"),), "b": ()}, True),
            ({"a": (essential(1, "b"),), "b": ()}, False),
        ],
    )
    def test_levy_matches_nilpotency_of_degree_one_part(self, preimages, has_levy):
        """A Levy cycle exists exactly when the degree-1 part is not nilpotent."""
        spec = MulticurveSpec(curves=("a", "b"), preimages=preimages)
        c = self.degree_one_matrix(spec)
        power = np.linalg.matrix_power(c, spec.size)
        assert (detect_levy_cycles(spec) != []) == has_levy
        assert (np.any(power != 0)) == has_levy


class TestContainsIrreducible:
    """A spec without an irreducible sub-multicurve solves to the zero kind."""

    def test_lattes(self):
        assert q_of_multicurve(lattes_spec()).kind == "finite"

    def test_all_peripheral(self):
        assert q_of_multicurve(ALL_PERIPHERAL).kind == "zero"

    def test_one_way_chain(self):
        spec = MulticurveSpec(
            curves=("g1", "g2"),
            preimages={"g1": (essential(2, "g2"),), "g2": ()},
        )
        assert q_of_multicurve(spec).kind == "zero"


class TestQOfMulticurve:
    def test_lattes_hits_two(self):
        res = q_of_multicurve(lattes_spec())
        assert res.kind == "finite"
        assert res.q == pytest.approx(2.0, abs=1e-9)
        assert res.achieved_lambda == pytest.approx(1.0, abs=1e-10)

    def test_degree_three_pair_closed_form(self):
        res = q_of_multicurve(DEG3_PAIR)
        assert res.kind == "finite"
        assert res.q == pytest.approx(1.0 + math.log(2) / math.log(3), abs=1e-9)

    def test_all_peripheral_is_zero(self):
        res = q_of_multicurve(ALL_PERIPHERAL)
        assert res.kind == "zero"
        assert res.q == 0.0
        assert res.achieved_lambda == 0.0

    def test_levy_obstruction(self):
        spec = single_curve(essential(1, "g1"), essential(2, "g1"))
        res = q_of_multicurve(spec)
        assert res.kind == "levy_obstructed"
        assert res.q is None
        assert res.achieved_lambda >= 1.0

    def test_exponent_one(self):
        spec = single_curve(essential(2, "g1"))
        res = q_of_multicurve(spec)
        assert res.kind == "finite"
        assert res.q == 1.0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            q_of_multicurve(lattes_spec(), tol=0.0)

    def test_finite_results_solve_the_equation(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            spec = random_levyfree_spec(rng)
            res = q_of_multicurve(spec, tol=1e-10)
            assert res.kind == "finite"
            assert abs(res.achieved_lambda - 1.0) <= 1e-10
            assert abs(leading_eigenvalue(spec, res.q) - 1.0) <= 1e-9

    def test_lambda_at_one_at_least_one_when_irreducible(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            spec = random_levyfree_spec(rng)
            assert leading_eigenvalue(spec, 1.0) >= 1.0 - 1e-10

    def test_strict_decrease_and_vanishing(self):
        """Eigenvalue decreasing on the exponent grid and tiny past the
        threshold exponent for the smallest possible degree."""
        rng = np.random.default_rng(43)
        grid = [1.0 + 0.25 * k for k in range(21)]
        q_threshold = 1.0 + math.log2(200.0)
        for _ in range(20):
            spec = random_levyfree_spec(rng)
            values = [leading_eigenvalue(spec, q) for q in grid]
            for a, b in zip(values, values[1:]):
                assert b < a - 2e-10
            assert values[-1] < values[0]
            assert leading_eigenvalue(spec, q_threshold) < 0.01


class TestQOfMap:
    def test_max_over_catalog(self):
        report = q_of_map([lattes_spec(), DEG3_PAIR])
        assert isinstance(report, CatalogReport)
        assert report.overall == pytest.approx(2.0, abs=1e-9)
        assert not report.levy_flag

    def test_all_peripheral_catalog(self):
        report = q_of_map([ALL_PERIPHERAL])
        assert report.overall == 0.0
        assert not report.levy_flag

    def test_levy_entry_sets_flag_but_not_overall(self):
        levy = single_curve(essential(1, "g1"), essential(2, "g1"))
        report = q_of_map([levy, DEG3_PAIR])
        assert report.levy_flag
        assert report.overall == pytest.approx(1.0 + math.log(2) / math.log(3), abs=1e-9)

    def test_rejects_empty_catalog(self):
        with pytest.raises(ValueError):
            q_of_map([])


class TestIrreducibleCore:
    """The irreducible block of largest radius sets lambda and the exponent."""

    def test_irreducible_spec_keeps_everything(self):
        assert leading_eigenvalue(SWAP_DEG2, 2.0) == pytest.approx(0.5, abs=1e-10)
        assert q_of_multicurve(SWAP_DEG2).q == 1.0

    def test_union_with_one_way_chain(self):
        comp = essential(2, "core")
        spec = MulticurveSpec(
            curves=("core", "tail"),
            preimages={"core": (comp, comp), "tail": (essential(2, "core"),)},
        )
        assert leading_eigenvalue(spec, 2.0) == pytest.approx(1.0, abs=1e-10)
        assert q_of_multicurve(spec).q == pytest.approx(2.0, abs=1e-9)

    def test_picks_block_with_larger_eigenvalue(self):
        spec = MulticurveSpec(
            curves=("a", "b"),
            preimages={
                "a": (essential(2, "a"), essential(2, "a")),
                "b": (essential(3, "b"), essential(3, "b")),
            },
        )
        assert leading_eigenvalue(spec, 1.5) == pytest.approx(2.0 ** 0.5, abs=1e-10)
        assert q_of_multicurve(spec).q == pytest.approx(2.0, abs=1e-9)


def cycle_spec(ks, extras=()):
    """k_j degree-2 components of curve j onto curve j+1, around a cycle,
    plus ``extras`` given as (source, target, degree)."""
    labels = [f"g{j}" for j in range(len(ks))]
    comps = {label: [] for label in labels}
    for j, k in enumerate(ks):
        comps[labels[j]] += [essential(2, labels[(j + 1) % len(ks)])] * int(k)
    for source, target, degree in extras:
        comps[labels[source]].append(essential(degree, labels[target]))
    return MulticurveSpec(curves=labels, preimages=comps)


def random_nonsymmetric_cycle(rng):
    """2-4 curves with 8-120 unequal degree-2 components each onto the next,
    plus 1-3 extra components of degree 3-5."""
    m = int(rng.integers(2, 5))
    ks = rng.choice(np.arange(8, 121), size=m, replace=False)
    extras = [
        (int(rng.integers(0, m)), int(rng.integers(0, m)), int(rng.integers(3, 6)))
        for _ in range(int(rng.integers(1, 4)))
    ]
    return cycle_spec(ks, extras)


class TestPowerIterationStalls:
    """Specs on which the absolute-tolerance power iteration with a fixed
    unit shift stalled into ConvergenceError."""

    def test_cycle_with_100_and_120_components(self):
        spec = cycle_spec([100, 120])
        res = q_of_multicurve(spec)
        assert res.kind == "finite"
        assert oracles.crosses_one(spec, res.q, 1e-6)
        assert res.q == pytest.approx(1.0 + 0.5 * math.log2(100 * 120), abs=1e-9)

    def test_cycle_with_128_components_and_a_self_component(self):
        spec = cycle_spec([128, 128], extras=[(0, 0, 2)])
        res = q_of_multicurve(spec)
        assert res.kind == "finite"
        assert oracles.crosses_one(spec, res.q, 1e-6)
        # lambda = 2^(1-Q) (1 + sqrt(1 + 4 * 128^2)) / 2
        expected = 1.0 + math.log2((1.0 + math.sqrt(1.0 + 4.0 * 128**2)) / 2.0)
        assert res.q == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("size", [3, 4])
    def test_levyfree_specs_at_q_16(self, size):
        rng = np.random.default_rng(20260819 + size)
        seen = 0
        while seen < 10:
            spec = random_levyfree_spec(rng)
            if spec.size != size:
                continue
            seen += 1
            expected = oracles.eig_radius(spec, 16.0)
            assert leading_eigenvalue(spec, 16.0) == pytest.approx(expected, rel=1e-9)
            res = q_of_multicurve(spec)
            assert oracles.crosses_one(spec, res.q, 1e-6)

    @pytest.mark.parametrize("q", [8.6, 12.0, 16.0, 2.0**20])
    def test_leading_eigenvalue_at_large_exponents(self, q):
        rng = np.random.default_rng(53)
        seen = 0
        while seen < 10:
            spec = random_levyfree_spec(rng)
            if spec.size != 4:
                continue
            seen += 1
            expected = oracles.eig_radius(spec, q)
            assert leading_eigenvalue(spec, q) == pytest.approx(expected, rel=1e-9, abs=1e-300)


class TestNewtonSolve:
    def assert_solved(self, spec):
        res = q_of_multicurve(spec)
        assert res.kind == "finite"
        assert res.iterations <= 10
        assert oracles.crosses_one(spec, res.q, 1e-9)
        return res

    def test_random_levyfree_specs(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            self.assert_solved(random_levyfree_spec(rng))

    def test_nonsymmetric_cycles(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            self.assert_solved(random_nonsymmetric_cycle(rng))

    @pytest.mark.parametrize("k", [2, 3, 5, 17, 64, 1000])
    @pytest.mark.parametrize("curves", [1, 2, 3])
    def test_symmetric_cycles_closed_form(self, k, curves):
        res = self.assert_solved(cycle_spec([k] * curves))
        assert res.q == pytest.approx(1.0 + math.log2(k), abs=1e-9)

    def test_degree_three_pair_closed_form(self):
        res = self.assert_solved(DEG3_PAIR)
        assert res.q == pytest.approx(1.0 + math.log(2) / math.log(3), abs=1e-9)

    def test_lattes_takes_two_evaluations(self):
        """log lambda is linear in Q here, so one Newton step lands on Q = 2."""
        res = q_of_multicurve(lattes_spec())
        assert (res.q, res.achieved_lambda, res.iterations) == (2.0, 1.0, 2)

    def test_levy_reports_degree_one_radius(self):
        """Two degree-1 components of a onto b and one of b onto a: the degree-1
        count matrix [[0, 1], [2, 0]] has radius sqrt(2)."""
        spec = MulticurveSpec(
            curves=("a", "b"),
            preimages={
                "a": (essential(1, "b"), essential(1, "b"), essential(3, "a")),
                "b": (essential(1, "a"),),
            },
        )
        res = q_of_multicurve(spec)
        assert (res.kind, res.q, res.iterations) == ("levy_obstructed", None, 1)
        assert res.achieved_lambda == pytest.approx(math.sqrt(2.0), rel=1e-12)


def random_degree_one_spec(rng, n):
    """Curves with random degree-1 components (the digraph under test) and
    degree-2 components, which the Levy test must ignore."""
    labels = [f"c{i}" for i in range(n)]
    density = rng.uniform(0.05, 0.4)
    preimages = {}
    for j in range(n):
        comps = [essential(1, labels[i]) for i in range(n) if rng.random() < density]
        comps += [essential(2, labels[int(i)]) for i in rng.integers(0, n, size=2)]
        preimages[labels[j]] = tuple(comps)
    return MulticurveSpec(curves=labels, preimages=preimages)


class TestLevyAgainstCycleEnumeration:
    @staticmethod
    def degree_one_digraph(spec):
        graph = nx.DiGraph()
        graph.add_nodes_from(range(spec.size))
        for j, comps in enumerate(spec.preimages):
            for comp in comps:
                if comp.degree == 1:
                    graph.add_edge(j, spec.index_of(comp.classification.curve))
        return graph

    def test_witnesses_match_simple_cycles(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            spec = random_degree_one_spec(rng, int(rng.integers(1, 9)))
            graph = self.degree_one_digraph(spec)
            witnesses = detect_levy_cycles(spec)

            assert (witnesses == []) == (next(nx.simple_cycles(graph), None) is None)
            for cycle in witnesses:
                assert len(set(cycle)) == len(cycle)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert graph.has_edge(a, b)
            nontrivial = [
                frozenset(scc)
                for scc in nx.strongly_connected_components(graph)
                if len(scc) > 1 or graph.has_edge(next(iter(scc)), next(iter(scc)))
            ]
            component_of = {v: scc for scc in nontrivial for v in scc}
            assert len(witnesses) == len(nontrivial)
            assert {component_of[cycle[0]] for cycle in witnesses} == set(nontrivial)

    def test_complete_digraph_on_200_curves_is_fast(self):
        labels = [f"c{i}" for i in range(200)]
        spec = MulticurveSpec(
            curves=labels,
            preimages={
                label: tuple(essential(1, other) for other in labels if other != label)
                for label in labels
            },
        )
        started = time.perf_counter()
        witnesses = detect_levy_cycles(spec)
        assert time.perf_counter() - started < 0.1
        assert witnesses == [(0, 1)]


def functional_graph_spec(target, degrees):
    """Curve j's components, of degrees ``degrees[j]``, all go to curve ``target[j]``."""
    labels = [f"c{i}" for i in range(len(target))]
    return MulticurveSpec(
        curves=labels,
        preimages={
            labels[j]: tuple(essential(int(d), labels[int(t)]) for d in ds)
            for j, (t, ds) in enumerate(zip(target, degrees))
        },
    )


def random_degrees(rng, n):
    return [rng.integers(2, 6, size=int(rng.integers(1, 4))).tolist() for _ in range(n)]


class TestSparseBlocks:
    """Blocks above ``DENSE_EIG_MAX`` curves, which stay sparse from the
    component table to the eigenvalue."""

    @pytest.mark.parametrize("n", [1000, 3000, 10000])
    def test_one_cycle_through_every_curve(self, n):
        """A single periodic block of n curves."""
        rng = np.random.default_rng(n)
        order = rng.permutation(n)
        target = np.empty(n, dtype=int)
        target[order] = np.roll(order, -1)
        degrees = random_degrees(rng, n)
        res = q_of_multicurve(functional_graph_spec(target, degrees))
        assert res.kind == "finite"
        assert res.q == pytest.approx(oracles.functional_graph_q(target, degrees), abs=1e-10)

    @pytest.mark.parametrize("n", [1000, 10000])
    def test_random_functional_graph(self, n):
        """A random map of the curves: cycles of many lengths, trees into them."""
        rng = np.random.default_rng(n + 1)
        target = rng.integers(0, n, size=n)
        degrees = random_degrees(rng, n)
        res = q_of_multicurve(functional_graph_spec(target, degrees))
        assert res.kind == "finite"
        assert res.q == pytest.approx(oracles.functional_graph_q(target, degrees), abs=1e-10)

    def test_two_components_per_curve_around_a_cycle(self):
        """Equal structure at every curve: each curve has two components of
        degree 2 or 3 onto the next."""
        rng = np.random.default_rng(5)
        n = 3000
        target = (np.arange(n) + 1) % n
        degrees = rng.integers(2, 4, size=(n, 2)).tolist()
        res = q_of_multicurve(functional_graph_spec(target, degrees))
        assert res.q == pytest.approx(oracles.functional_graph_q(target, degrees), abs=1e-10)

    def test_20000_curve_cycle_stays_sparse(self):
        """A dense 20000 x 20000 array alone would take 3.2 GB."""
        rng = np.random.default_rng(20000)
        n = 20000
        target = (np.arange(n) + 1) % n
        degrees = rng.integers(2, 4, size=(n, 2)).tolist()
        spec = functional_graph_spec(target, degrees)
        tracemalloc.start()
        try:
            res = q_of_multicurve(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.kind == "finite"
        assert peak < 100e6
        assert res.q == pytest.approx(oracles.functional_graph_q(target, degrees), abs=1e-10)

    def test_solve_calls_the_module_level_helpers(self, monkeypatch):
        """perfbench's tracer counts these calls by wrapping the names
        ``detect_levy_cycles`` and ``decompose`` in this module."""
        import confdim.multicurve as multicurve

        calls = []
        for name in ("detect_levy_cycles", "decompose"):
            original = getattr(multicurve, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(multicurve, name, counted)
        q_of_multicurve(lattes_spec())
        assert calls == ["detect_levy_cycles", "decompose", "decompose"]
        calls.clear()
        q_of_multicurve(single_curve(essential(1, "g1")))
        assert calls == ["detect_levy_cycles", "decompose", "decompose"]

    def test_large_levy_block_reports_degree_one_radius(self):
        """The degree-1 counts of a 60-curve Levy block, read sparse, against
        the dense radius of the same count matrix."""
        rng = np.random.default_rng(83)
        n = 60
        labels = [f"c{i}" for i in range(n)]
        preimages = {}
        for j in range(n):
            comps = [essential(1, labels[(j + 1) % n])]
            comps += [essential(1, labels[int(i)]) for i in rng.integers(0, n, size=2)]
            comps += [essential(3, labels[int(rng.integers(0, n))])]
            preimages[labels[j]] = tuple(comps)
        spec = MulticurveSpec(curves=labels, preimages=preimages)
        counts = np.zeros((n, n))
        for j, comps in enumerate(spec.preimages):
            for comp in comps:
                if comp.degree == 1:
                    counts[spec.index_of(comp.classification.curve), j] += 1.0
        res = q_of_multicurve(spec)
        assert res.kind == "levy_obstructed"
        assert res.achieved_lambda == pytest.approx(
            float(np.max(np.abs(np.linalg.eigvals(counts)))), rel=1e-12
        )
