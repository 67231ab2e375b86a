"""Energy arithmetic, spin configurations, and tunnel contributions."""

import re
import tracemalloc

import numpy as np
import pytest

from isingpp import (
    ENERGY_ATOL,
    IsingProblem,
    SpinConfiguration,
    tunnel_contribution,
)
from isingpp.core import SIZE_LIMIT
from isingpp.errors import DimensionError, InputError, ParameterError, SizeError
from isingpp.harness import ExperimentConfig, problem_for
from isingpp.mqc import disagreement_tunnels

from conftest import make_chimera_problem, oracle_energy, oracle_neighbours


class TestIsingProblem:
    def test_energy_hand_example(self):
        # h: 1*(-1) + (-1)*(+1) = -2; J: 0.5*(-1)*(+1) = -0.5
        problem = IsingProblem(2, h={0: 1.0, 1: -1.0}, J={(0, 1): 0.5})
        assert problem.evaluate([-1, 1]) == pytest.approx(-2.5)

    def test_energy_deterministic(self):
        problem = make_chimera_problem(seed=7)
        spins = np.ones(problem.vertex_count, dtype=np.int8)
        assert problem.evaluate(spins) == problem.evaluate(spins)

    def test_all_plus_one_sums_coefficients(self):
        problem = make_chimera_problem(seed=12)
        expected = sum(problem.h.values()) + sum(problem.J.values())
        assert problem.evaluate(np.ones(problem.vertex_count)) == pytest.approx(expected)

    def test_energy_matches_termwise_oracle(self):
        rng = np.random.default_rng(41)
        for seed in range(30):
            problem = make_chimera_problem(seed=seed, rows=1, cols=2)
            spins = rng.choice([-1, 1], size=problem.vertex_count)
            assert problem.evaluate(spins) == pytest.approx(
                oracle_energy(problem, spins), abs=ENERGY_ATOL)

    def test_energy_order_invariant(self):
        """Evaluating terms in shuffled order lands within tolerance."""
        rng = np.random.default_rng(90)
        problem = make_chimera_problem(seed=5)
        spins = rng.choice([-1, 1], size=problem.vertex_count)
        terms = [v * float(spins[a]) for a, v in problem.h.items()]
        terms += [w * float(spins[a]) * float(spins[b]) for (a, b), w in problem.J.items()]
        for _ in range(20):
            rng.shuffle(terms)
            assert sum(terms) == pytest.approx(problem.evaluate(spins), abs=ENERGY_ATOL)

    def test_global_flip_symmetry_without_fields(self):
        problem = IsingProblem(6, J={(a, a + 1): 0.7 - 0.3 * a for a in range(5)})
        rng = np.random.default_rng(3)
        for _ in range(25):
            spins = rng.choice([-1, 1], size=6)
            assert problem.evaluate(spins) == problem.evaluate(-spins)

    def test_evaluate_many_matches_scalar(self):
        problem = make_chimera_problem(seed=8, rows=1, cols=1)
        rng = np.random.default_rng(17)
        matrix = rng.choice([-1, 1], size=(40, problem.vertex_count))
        batch = problem.evaluate_many(matrix)
        for row, e in zip(matrix, batch):
            assert e == problem.evaluate(row)

    def test_evaluate_many_memory_is_bounded_and_bits_are_whole_matrix_sums(self):
        """8,192 rows of default problem 0 are summed in blocks: the peak
        stays far below the 23 MB (rows, edges) float64 temporary of one
        whole-matrix sum, and every energy has that sum's bits."""
        problem = problem_for(ExperimentConfig(), 0)
        rng = np.random.default_rng(29)
        s = rng.choice(np.array([-1, 1], dtype=np.int8), size=(8192, problem.vertex_count))
        tracemalloc.start()
        try:
            energies = problem.evaluate_many(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        whole = np.sum(problem._h_vec * s, axis=1)
        whole += np.sum(problem._edge_w * (s.take(problem._edge_a, axis=1)
                                           * s.take(problem._edge_b, axis=1)), axis=1)
        assert energies.tobytes() == whole.tobytes()
        # A float matrix, and so every dtype, goes the same way.
        assert problem.evaluate_many(s.astype(np.float64)).tobytes() == whole.tobytes()

    def test_length_mismatch_rejected(self):
        problem = IsingProblem(3, h={0: 1.0})
        with pytest.raises(DimensionError):
            problem.evaluate([1, -1])
        with pytest.raises(DimensionError):
            problem.evaluate_many(np.ones((4, 5)))

    def test_empty_problem(self):
        problem = IsingProblem(0)
        assert problem.evaluate([]) == 0.0
        assert problem.edge_list == []

    def test_vertices_without_coefficients_contribute_nothing(self):
        problem = IsingProblem(5, h={1: 2.0})
        assert problem.evaluate([1, -1, 1, 1, 1]) == pytest.approx(-2.0)

    def test_invalid_construction(self):
        with pytest.raises(DimensionError):
            IsingProblem(-1)
        for count in (True, False, np.True_, 2.5, float("inf"), float("-inf"), float("nan"),
                      None, "3"):
            with pytest.raises(DimensionError, match="vertex_count"):
                IsingProblem(count)
        with pytest.raises(IndexError):
            IsingProblem(2, h={3: 1.0})
        with pytest.raises(IndexError):
            IsingProblem(2, J={(0, 0): 1.0})
        with pytest.raises(IndexError):
            IsingProblem(2, J={(0, 5): 1.0})

    @pytest.mark.parametrize("h,J", [
        ({0.5: 1.0}, {}),
        ({1.5: 1.0}, {}),
        ({True: 1.0}, {}),
        ({}, {(0.5, 2): 1.0}),
        ({}, {(0, 1.5): 1.0}),
        ({}, {(True, 2): 1.0}),
        ({}, {(0, 2.0): 1.0}),
    ])
    def test_non_integer_vertex_ids_rejected(self, h, J):
        with pytest.raises(IndexError):
            IsingProblem(3, h=h, J=J)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(IndexError, match="'J' entry 1 repeats pair"):
            IsingProblem(2, J={(0, 1): 1.0, (1, 0): 2.0})

    def test_repeated_h_vertex_rejected(self):
        with pytest.raises(IndexError, match="'h' entry 2 repeats vertex 0"):
            IsingProblem.from_entries(3, [0, 1, 0], [1.0, 2.0, 3.0], [], [])
        with pytest.raises(IndexError, match="'h' entry 1 repeats vertex 2"):
            IsingProblem.from_entries(3, np.array([2, 2]), np.array([1.0, 1.0]),
                                      np.empty((0, 2), dtype=np.intp), np.empty(0))

    @pytest.mark.parametrize("h,J,error,match", [
        ({0: "1.5"}, {}, ParameterError, "'h' entry 0: value '1.5' is not a real number"),
        ({0: 1.0, 1: b"2"}, {}, ParameterError, "'h' entry 1: value b'2' is not"),
        ({0: True}, {}, ParameterError, "'h' entry 0: value True is not"),
        ({0: np.True_}, {}, ParameterError, r"'h' entry 0: value np\.True_ is not"),
        ({0: [1.0]}, {}, ParameterError, r"'h' entry 0: value \[1.0\] is not"),
        ({0: 1j}, {}, ParameterError, "'h' entry 0: value 1j is not"),
        ({0: None}, {}, ParameterError, "'h' entry 0: value None is not"),
        ({}, {(0, 1): "0.5"}, ParameterError, "'J' entry 0: value '0.5' is not"),
        ({}, {(0, 1): 1.0, (1, 2): False}, ParameterError, "'J' entry 1: value False is not"),
        ({}, {(0, 1): {}}, ParameterError, "'J' entry 0: value {} is not"),
        ({}, {(0, 1): np.array([0.5])}, ParameterError, "'J' entry 0: value"),
        ({}, {5: 1.0}, IndexError, "'J' entry 0: 5 is not a vertex pair"),
        ({}, {(0, 1): 1.0, (0, 1, 2): 1.0}, IndexError, "'J' entry 1: .* is not a vertex pair"),
        ({}, {"ab": 1.0}, IndexError, "'J' entry 0: 'ab' is not a vertex pair"),
        ({"0": 1.0}, {}, IndexError, "'h' entry 0: vertex '0' is not an integer"),
    ])
    def test_malformed_coefficients_rejected(self, h, J, error, match):
        with pytest.raises(error, match=match):
            IsingProblem(3, h=h, J=J)

    def test_real_number_values_accepted(self):
        """Python and numpy ints and floats are values; each reads as a float."""
        problem = IsingProblem(3, {0: 2, 1: np.float32(0.5), 2: np.int8(-3)},
                               {(0, 1): np.int64(4), (1, 2): 10**20})
        assert problem.h == {0: 2.0, 1: 0.5, 2: -3.0}
        assert problem.J == {(0, 1): 4.0, (1, 2): 1e20}
        assert all(type(v) is float for v in [*problem.h.values(), *problem.J.values()])

    @pytest.mark.parametrize("h,J", [
        ({0: float("nan")}, {}),
        ({1: float("inf")}, {}),
        ({}, {(0, 1): float("-inf")}),
        ({}, {(0, 1): float("nan")}),
        ({0: 10**400}, {}),
        ({}, {(1, 0): -10**400}),
        # Each value is finite, but not the sum of their absolute values.
        ({0: 1e308, 1: 1e308}, {}),
        ({0: 1.7e308}, {(0, 1): -1.7e308}),
    ])
    def test_non_finite_coefficients_rejected(self, h, J):
        with pytest.raises(ParameterError, match="finite"):
            IsingProblem(2, h=h, J=J)

    @pytest.mark.parametrize("n", [SIZE_LIMIT + 1, 10**12])
    def test_vertex_count_above_limit_rejected(self, n):
        with pytest.raises(SizeError, match="limit"):
            IsingProblem(n)

    def test_pair_normalization(self):
        problem = IsingProblem(3, J={(2, 0): 0.25})
        assert problem.J == {(0, 2): 0.25}
        assert problem.edge_list == [(0, 2)]

    def test_h_and_J_are_sorted_views_of_the_arrays(self):
        problem = IsingProblem(6, {np.int64(4): -0.0, 1: 2, 3: 0.5},
                               {(5, 2): 1.0, (0, 1): -3, (np.int32(4), 0): 0.125})
        assert list(problem.J) == problem.edge_list == [(0, 1), (0, 4), (2, 5)]
        assert problem.J == {(0, 1): -3.0, (0, 4): 0.125, (2, 5): 1.0}
        assert list(problem.h) == [1, 3, 4]
        assert [v.hex() for v in problem.h.values()] == [(2.0).hex(), (0.5).hex(), (-0.0).hex()]
        problem.h[0], problem.J[(1, 2)] = 1.0, 1.0
        assert 0 not in problem.h and (1, 2) not in problem.J
        assert repr(problem) == "IsingProblem(vertex_count=6, |h|=3, |J|=3)"

    def test_adjacency_symmetric(self):
        """J holds the input pairs, normalized and sorted, with their bits;
        each vertex's slice of the adjacency holds its neighbours,
        ascending, and their couplings; and the edge arrays are the sorted
        pairs of J, whatever the order and orientation of the input pairs."""
        default = problem_for(ExperimentConfig(), 0)
        shuffled = list(default.J.items())
        np.random.default_rng(5).shuffle(shuffled)
        inputs = [
            (3, {}, {(0, 1): 1.0, (1, 2): -1.0}),
            (4, {}, {(1, 0): 0.5, (3, 1): -0.25, (2, 0): 1e-300, (3, 2): 0.1}),
            (default.vertex_count, default.h, dict(shuffled)),
            (7, {5: 1.0}, {(4, 1): 0.3, (1, 2): -0.7, (6, 2): 0.2}),
            (0, {}, {}),
        ]
        problems = []
        for n, h, J in inputs:
            problem = IsingProblem(n, h, J)
            problems.append(problem)
            assert ([(e, w.hex()) for e, w in problem.J.items()]
                    == sorted(((min(e), max(e)), w.hex()) for e, w in J.items()))
            nbr, nbr_w = oracle_neighbours(problem)
            start = problem._adj_start
            assert start.tolist() == np.cumsum([0] + [len(b) for b in nbr]).tolist()
            for v in range(problem.vertex_count):
                assert problem._adj[start[v]:start[v + 1]].tolist() == nbr[v].tolist()
                assert ([w.hex() for w in problem._adj_w[start[v]:start[v + 1]].tolist()]
                        == [w.hex() for w in nbr_w[v].tolist()])
            edges = list(problem.J.items())
            assert problem._edge_a.tolist() == [a for (a, _), _ in edges]
            assert problem._edge_b.tolist() == [b for (_, b), _ in edges]
            assert [w.hex() for w in problem._edge_w.tolist()] == [w.hex() for _, w in edges]
        nbr, nbr_w = oracle_neighbours(problems[0])
        assert [list(zip(b.tolist(), w.tolist())) for b, w in zip(nbr, nbr_w)] == [
            [(1, 1.0)], [(0, 1.0), (2, -1.0)], [(1, -1.0)]]

    def test_content_hash_stable_and_sensitive(self):
        a = IsingProblem(2, h={0: 1.0}, J={(0, 1): 0.5})
        b = IsingProblem(2, h={0: 1.0}, J={(0, 1): 0.5})
        c = IsingProblem(2, h={0: 1.0}, J={(0, 1): 0.5 + 1e-12})
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()


class TestSpinConfiguration:
    def test_rejects_non_spin_values(self):
        with pytest.raises(ValueError):
            SpinConfiguration(np.array([1, 0, -1]), 0.0)

    def test_rejection_lists_sorted_bad_values(self):
        with pytest.raises(ValueError) as info:
            SpinConfiguration(np.array([1, 3, 0, -1, 0]), 0.0)
        assert str(info.value) == "spins must be -1 or +1, found [0, 3]"

    @pytest.mark.parametrize("spins, bad", [
        ([1.7, -1.2], "[-1.2, 1.7]"), ([1, 257], "[257]"),
        (np.array([1, 255], dtype=np.uint8), "[255]"), (["1", "-1"], "['-1', '1']"),
        ([float("nan"), 1.0], "[nan]")])
    def test_checks_spins_before_casting(self, spins, bad):
        """An int8 cast would read each of these as +-1."""
        with pytest.raises(ValueError) as info:
            SpinConfiguration(spins, 0.0)
        assert str(info.value) == f"spins must be -1 or +1, found {bad}"

    @pytest.mark.parametrize("spins", [
        np.array([1, -1], dtype=np.int8), np.array([1, -1], dtype=np.int64), [1.0, -1.0],
        [True, -1]])
    def test_accepts_spins_of_any_type_that_are_plus_minus_one(self, spins):
        config = SpinConfiguration(spins, 0.0)
        assert config.spins.dtype == np.int8 and config.spins.tolist() == [1, -1]

    def test_spins_read_only(self):
        config = SpinConfiguration(np.array([1, -1]), 0.0)
        with pytest.raises(ValueError):
            config.spins[0] = -1

    def test_same_spins(self):
        a = SpinConfiguration(np.array([1, -1]), 0.0)
        b = SpinConfiguration(np.array([1, -1]), 5.0)
        c = SpinConfiguration(np.array([-1, -1]), 0.0)
        assert a.same_spins(b)
        assert not a.same_spins(c)
        assert len(a) == 2


class TestTunnel:
    """The input rules for a tunnel, any sequence of vertex ids."""

    def test_sorted_and_deduplicated(self):
        """A vertex listed twice counts once, in any order."""
        problem = make_chimera_problem(seed=4, rows=1, cols=1)
        config = problem.configuration(
            np.random.default_rng(4).choice([-1, 1], size=problem.vertex_count))
        once = tunnel_contribution(problem, config, (1, 2, 3))
        assert tunnel_contribution(problem, config, (3, 1, 1, 2)) == once
        assert tunnel_contribution(problem, config, [2, 3, 2, 1, 3]) == once
        assert tunnel_contribution(problem, config, np.array([3, 2, 1])) == once

    def test_empty_rejected(self):
        problem = IsingProblem(2, J={(0, 1): 1.0})
        config = problem.configuration([1, 1])
        for empty in [(), [], np.array([], dtype=int)]:
            with pytest.raises(InputError, match="at least one vertex"):
                tunnel_contribution(problem, config, empty)

    @pytest.mark.parametrize("vertices, entry", [
        (("1",), "entry 0: vertex '1'"), ((0, 1.5), "entry 1: vertex 1.5"),
        ((True,), "entry 0: vertex True"), ((1, 0, None), "entry 2: vertex None"),
        (np.array([0.0, 1.0]), "entry 0: vertex np.float64(0.0)"), ((0, 2), "entry 1: vertex 2")])
    def test_entries_that_are_not_vertex_ids_rejected(self, vertices, entry):
        """The vertex-id rule of IsingProblem: integers in range, never
        bools, floats, strings or None; the error names the first entry
        that breaks it."""
        problem = IsingProblem(2, J={(0, 1): 1.0})
        config = problem.configuration([1, 1])
        with pytest.raises(IndexError, match=rf"^tunnel {re.escape(entry)} is not an integer"):
            tunnel_contribution(problem, config, vertices)


class TestTunnelContribution:
    def test_single_boundary_edge(self):
        # tunnel {0}: no field, one edge to the exterior: J01 * s0 * s1 = (-1)(-1)(+1)
        problem = IsingProblem(3, J={(0, 1): -1.0, (1, 2): -1.0})
        config = problem.configuration([-1, 1, 1])
        assert tunnel_contribution(problem, config, (0,)) == pytest.approx(1.0)

    def test_whole_graph_tunnel_has_no_boundary(self):
        problem = make_chimera_problem(seed=3, rows=1, cols=1)
        rng = np.random.default_rng(3)
        spins = rng.choice([-1, 1], size=problem.vertex_count)
        config = problem.configuration(spins)
        t = tuple(range(problem.vertex_count))
        expected = sum(v * float(spins[a]) for a, v in problem.h.items())
        assert tunnel_contribution(problem, config, t) == pytest.approx(expected, abs=ENERGY_ATOL)

    def test_out_of_range_vertex(self):
        problem = IsingProblem(2, J={(0, 1): 1.0})
        config = problem.configuration([1, 1])
        for vertices in [(5,), (0, 2), (-1,), (1, -1)]:
            with pytest.raises(IndexError):
                tunnel_contribution(problem, config, vertices)

    def test_negates_exactly_under_tunnel_flip(self):
        """Internal edges are excluded, so the flipped value is the exact negation."""
        rng = np.random.default_rng(22)
        problem = make_chimera_problem(seed=9, rows=1, cols=2)
        for _ in range(50):
            spins = rng.choice([-1, 1], size=problem.vertex_count)
            verts = rng.choice(problem.vertex_count,
                               size=rng.integers(1, 6), replace=False)
            tunnel = tuple(int(v) for v in verts)
            flipped = spins.copy()
            flipped[list(tunnel)] *= -1
            before = tunnel_contribution(problem, problem.configuration(spins), tunnel)
            after = tunnel_contribution(problem, problem.configuration(flipped), tunnel)
            assert after == -before

    def test_flip_identity_against_double_evaluation(self):
        """Swapping a disagreement tunnel's spins changes the total energy by
        exactly the contribution difference (checked by two full evaluations)."""
        rng = np.random.default_rng(100)
        checked = 0
        pair_index = 0
        while checked < 200:
            problem = make_chimera_problem(seed=1000 + pair_index, rows=1, cols=2)
            pair_index += 1
            s1 = rng.choice([-1, 1], size=problem.vertex_count)
            s2 = rng.choice([-1, 1], size=problem.vertex_count)
            r1 = problem.configuration(s1)
            r2 = problem.configuration(s2)
            for tunnel in disagreement_tunnels(problem, r1, r2):
                swapped = s1.copy()
                swapped[list(tunnel)] = s2[list(tunnel)]
                delta_total = problem.evaluate(swapped) - problem.evaluate(s1)
                delta_contrib = (
                    tunnel_contribution(problem, problem.configuration(swapped), tunnel)
                    - tunnel_contribution(problem, r1, tunnel)
                )
                assert abs(delta_total - delta_contrib) <= 1e-9
                checked += 1

