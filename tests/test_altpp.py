"""Low-treewidth exact cleanup and sample persistence."""

import itertools

import numpy as np
import pytest

from isingpp import (
    ChimeraSpec,
    IsingProblem,
    ProblemGenSpec,
    SamplerParams,
    Subgraph,
    builtin_opt_pp,
    chimera_graph,
    complete_graph,
    decompose_low_treewidth,
    exact_ground_state,
    gibbs_sample,
    grid_graph,
    min_degree_elimination,
    optimize_subgraph,
    path_graph,
    persistence_fix,
    random_problem,
    random_runs,
    sample_persistence,
)
from isingpp import altpp
from isingpp.altpp import FixedAssignment
from isingpp.errors import InputError, ParameterError, WidthError

from conftest import (
    conditional_min_enum,
    make_chimera_problem,
    make_tree_problem,
    oracle_neighbours,
    subset_states,
)


class TestMinDegreeElimination:
    def test_path_has_width_one(self):
        order, width = min_degree_elimination(range(6), path_graph(6))
        assert width == 1
        assert sorted(order) == list(range(6))

    def test_complete_graph_width(self):
        _, width = min_degree_elimination(range(8), complete_graph(8))
        assert width == 7

    def test_tree_has_width_one(self):
        problem = make_tree_problem(seed=4, n=15)
        _, width = min_degree_elimination(range(15), problem.edge_list)
        assert width == 1

    def test_bipartite_cell_width(self):
        # one K_{4,4} cell: width 4, so a whole cell fits under cap 4
        cell = [(a, 4 + b) for a in range(4) for b in range(4)]
        _, width = min_degree_elimination(range(8), cell)
        assert width == 4

    def test_subset_ignores_outside_edges(self):
        order, width = min_degree_elimination([0, 1], complete_graph(8))
        assert width == 1
        assert sorted(order) == [0, 1]


class TestSubgraph:
    def test_order_must_permute_vertices(self):
        with pytest.raises(InputError):
            Subgraph((0, 1, 2), (0, 1), 1)
        with pytest.raises(InputError):
            Subgraph((0, 1), (0, 2), 1)


class TestDecomposeLowTreewidth:
    def test_tree_is_a_single_subgraph(self):
        problem = make_tree_problem(seed=7, n=18)
        subs = decompose_low_treewidth(problem, width_cap=1)
        assert len(subs) == 1
        assert subs[0].vertices == tuple(range(18))
        assert subs[0].width == 1

    def test_complete_graph_small_pieces(self):
        problem = random_problem(
            complete_graph(8), ProblemGenSpec((-1, 1), (-1, 1), seed=2))
        subs = decompose_low_treewidth(problem, width_cap=2)
        assert all(len(s) <= 3 for s in subs)

    def test_single_cell_fits_one_subgraph(self):
        problem = make_chimera_problem(seed=5, rows=1, cols=1)
        subs = decompose_low_treewidth(problem, width_cap=4)
        assert len(subs) == 1
        assert subs[0].width == 4

    def test_chimera_coverage_and_widths(self):
        problem = make_chimera_problem(seed=5, rows=2, cols=2)
        subs = decompose_low_treewidth(problem, width_cap=4)
        covered = sorted(v for s in subs for v in s.vertices)
        assert covered == list(range(problem.vertex_count))
        assert all(s.width <= 4 for s in subs)

    def test_deterministic(self):
        problem = make_chimera_problem(seed=5, rows=2, cols=2)
        a = decompose_low_treewidth(problem, width_cap=3)
        b = decompose_low_treewidth(problem, width_cap=3)
        assert [s.vertices for s in a] == [s.vertices for s in b]

    def test_cap_validation(self):
        problem = make_chimera_problem(seed=5, rows=1, cols=1)
        with pytest.raises(ParameterError):
            decompose_low_treewidth(problem, width_cap=0)

    def test_chimera_decomposition_pinned(self):
        problem = make_chimera_problem(seed=5, rows=4, cols=4)
        subs = decompose_low_treewidth(problem, width_cap=4)
        orders = [list(s.elimination_order) for s in subs]
        assert [s.width for s in subs] == [4] + [1] * 12
        assert orders[0] == [
            96, 64, 32, 97, 65, 33, 98, 66, 34, 99, 67, 35, 104, 72, 40, 105,
            73, 41, 106, 74, 42, 107, 75, 43, 112, 80, 48, 113, 81, 49, 114, 82,
            50, 115, 83, 51, 120, 88, 56, 121, 89, 57, 122, 90, 58, 123, 91, 59,
        ] + list(range(32))
        assert orders[1:] == [[start + 8 * k for k in range(4)] for start in
                              (36, 37, 38, 39, 68, 69, 70, 71, 100, 101, 102, 103)]
        assert [s.vertices for s in subs] == [tuple(sorted(o)) for o in orders]

    def test_grid_decomposition_pinned(self):
        problem = random_problem(grid_graph(9, 9), ProblemGenSpec((-1, 1), (-1, 1), seed=5),
                                 vertex_count=81)
        subs = decompose_low_treewidth(problem, width_cap=2)
        assert [s.width for s in subs] == [2] + [0] * 17
        assert list(subs[0].elimination_order) == [
            44, 35, 34, 71, 62, 61, 52, 51, 42, 41, 32, 31, 76, 75, 66, 79,
            78, 69, 68, 59, 58, 49, 48, 39, 0, 8, 17, 7, 21, 22, 24, 25,
            16, 6, 15, 5, 14, 4, 13, 3, 12, 2, 11, 1, 9, 10, 18, 19,
            27, 29, 38, 28, 36, 37, 45, 46, 54, 56, 65, 55, 63, 64, 72, 73,
        ]
        assert [s.vertices for s in subs[1:]] == [
            (v,) for v in (20, 23, 26, 30, 33, 40, 43, 47, 50, 53, 57, 60, 67, 70, 74, 77, 80)]

    def test_isolated_vertices_covered(self):
        problem = IsingProblem(4, h={0: 1.0, 3: -1.0})
        subs = decompose_low_treewidth(problem, width_cap=2)
        covered = sorted(v for s in subs for v in s.vertices)
        assert covered == [0, 1, 2, 3]


class TestDecompositionCache:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Clear the cache and count min-degree kernel calls."""
        calls = []
        kernel = altpp._min_degree

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        altpp._decompose.cache_clear()
        monkeypatch.setattr(altpp, "_min_degree", counting)
        yield calls
        altpp._decompose.cache_clear()

    def test_one_decomposition_per_graph(self, kernel_calls):
        first = make_chimera_problem(seed=40, rows=2, cols=2)
        second = make_chimera_problem(seed=41, rows=2, cols=2, h_range=(-1, 1))
        assert first.edge_list == second.edge_list
        assert (first.h, first.J) != (second.h, second.J)
        runs = random_runs(first, count=12, seed=9)
        outputs = [builtin_opt_pp(first, runs, width_cap=4)]
        cold = len(kernel_calls)
        assert cold > 0
        outputs.append(builtin_opt_pp(second, runs, width_cap=4))
        assert len(kernel_calls) == cold
        for problem, out in zip((first, second), outputs):
            want = TestBuiltinOptPp.per_run_reference(problem, runs, 4)
            for got, ref in zip(out, want):
                assert np.array_equal(got.spins, ref.spins)
                assert got.energy == ref.energy
        assert len(kernel_calls) == cold

    def test_graph_vertex_count_and_cap_are_keys(self, kernel_calls):
        problem = make_chimera_problem(seed=42, rows=1, cols=2)
        base = decompose_low_treewidth(problem, width_cap=4)
        fewer_edges = IsingProblem(problem.vertex_count, problem.h,
                                   dict(list(problem.J.items())[1:]))
        more_vertices = IsingProblem(problem.vertex_count + 1, problem.h, problem.J)
        for other, cap in ((fewer_edges, 4), (more_vertices, 4), (problem, 3)):
            before = len(kernel_calls)
            subs = decompose_low_treewidth(other, width_cap=cap)
            assert len(kernel_calls) > before
            covered = sorted(v for s in subs for v in s.vertices)
            assert covered == list(range(other.vertex_count))
            assert all(s.width <= cap for s in subs)
        before = len(kernel_calls)
        assert decompose_low_treewidth(problem, width_cap=4) == base
        assert len(kernel_calls) == before

    def test_returned_list_is_fresh(self):
        problem = make_chimera_problem(seed=43, rows=2, cols=2)
        first = decompose_low_treewidth(problem, width_cap=2)
        expected = list(first)
        first.clear()
        second = decompose_low_treewidth(problem, width_cap=2)
        assert second == expected
        second[0] = None
        second.append(None)
        assert decompose_low_treewidth(problem, width_cap=2) == expected

    def test_cap_checked_before_cache(self, monkeypatch):
        problem = make_chimera_problem(seed=44, rows=1, cols=1)
        decompose_low_treewidth(problem, width_cap=1)

        def unreachable(*args):
            raise AssertionError("cache consulted for an invalid cap")

        monkeypatch.setattr(altpp, "_decompose", unreachable)
        for bad in (0, -1):
            with pytest.raises(ParameterError):
                decompose_low_treewidth(problem, width_cap=bad)


@pytest.mark.parametrize("k", range(1, 9))
def test_subset_states_match_product_loop(k):
    """The enumeration helper's bit-shift states equal the row-by-row
    itertools.product fill they replaced: same rows, same order."""
    rng = np.random.default_rng(k)
    base = rng.choice(np.array([-1, 1], dtype=np.int8), size=11)
    subset = sorted(rng.choice(11, size=k, replace=False).tolist())
    expected = np.tile(base, (1 << k, 1))
    for j, assignment in enumerate(itertools.product((-1, 1), repeat=k)):
        expected[j, subset] = assignment
    states = subset_states(base, subset)
    assert states.dtype == np.int8
    assert np.array_equal(states, expected)


def whole_graph_subgraph(problem):
    order, width = min_degree_elimination(
        range(problem.vertex_count), problem.edge_list)
    return Subgraph(tuple(range(problem.vertex_count)), tuple(order), width)


class TestOptimizeSubgraph:
    def test_single_vertex_follows_effective_field(self):
        # field at 0: h + J01*s1 + J02*s2 = 0.5 - 1 - 1 = -1.5, so s0 = +1
        problem = IsingProblem(3, h={0: 0.5}, J={(0, 1): 1.0, (0, 2): -1.0})
        config = problem.configuration([-1, -1, 1])
        sub = Subgraph((0,), (0,), 0)
        out = optimize_subgraph(problem, config, sub)
        assert out.spins[0] == 1
        assert list(out.spins[1:]) == [-1, 1]

    def test_single_vertex_zero_field_picks_plus(self):
        problem = IsingProblem(2, h={1: 1.0})
        config = problem.configuration([-1, -1])
        out = optimize_subgraph(problem, config, Subgraph((0,), (0,), 0))
        assert out.spins[0] == 1

    def test_whole_tree_reaches_ground_state(self):
        for seed in range(10):
            problem = make_tree_problem(seed=100 + seed, n=20)
            gs = exact_ground_state(problem)
            config = random_runs(problem, count=1, seed=seed)[0]
            out = optimize_subgraph(problem, config, whole_graph_subgraph(problem))
            assert out.energy == pytest.approx(gs.energy, abs=1e-9)

    def test_matches_conditional_enumeration(self):
        """Exact conditional minimum, checked against enumeration of all
        subgraph states with the exterior held fixed."""
        rng = np.random.default_rng(9)
        trials = 0
        seed = 0
        while trials < 100:
            problem = make_chimera_problem(seed=300 + seed, rows=1, cols=2)
            seed += 1
            subs = decompose_low_treewidth(problem, width_cap=rng.integers(1, 5))
            base = rng.choice([-1, 1], size=problem.vertex_count)
            config = problem.configuration(base)
            for sub in subs:
                if len(sub) > 15:
                    continue
                out = optimize_subgraph(problem, config, sub)
                _, best_energy = conditional_min_enum(problem, base, sub.vertices)
                assert out.energy == pytest.approx(best_energy, abs=1e-9)
                trials += 1

    def test_idempotent(self):
        rng = np.random.default_rng(14)
        problem = make_chimera_problem(seed=77, rows=1, cols=2)
        subs = decompose_low_treewidth(problem, width_cap=4)
        for _ in range(20):
            config = problem.configuration(rng.choice([-1, 1], size=16))
            for sub in subs:
                once = optimize_subgraph(problem, config, sub)
                twice = optimize_subgraph(problem, once, sub)
                assert twice.same_spins(once)

    def test_never_increases_energy_and_keeps_exterior(self):
        rng = np.random.default_rng(15)
        problem = make_chimera_problem(seed=78, rows=1, cols=2)
        subs = decompose_low_treewidth(problem, width_cap=3)
        for _ in range(30):
            config = problem.configuration(rng.choice([-1, 1], size=16))
            sub = subs[int(rng.integers(len(subs)))]
            out = optimize_subgraph(problem, config, sub)
            assert out.energy <= config.energy + 1e-9
            outside = np.setdiff1d(np.arange(16), np.array(sub.vertices))
            assert np.array_equal(out.spins[outside], config.spins[outside])

    def test_width_cap_enforced(self):
        problem = random_problem(
            complete_graph(6), ProblemGenSpec((-1, 1), (-1, 1), seed=1))
        sub = whole_graph_subgraph(problem)
        config = problem.configuration(np.ones(6, dtype=np.int8))
        with pytest.raises(WidthError):
            optimize_subgraph(problem, config, sub, width_cap=2)

    def test_no_table_above_the_largest_width(self, monkeypatch):
        """A step wider than MAX_WIDTH raises WidthError before its table is
        built, whatever width the subgraph declares; one at it runs."""
        problem = random_problem(
            complete_graph(24), ProblemGenSpec((-1, 1), (-1, 1), seed=1))
        config = problem.configuration(np.ones(24, dtype=np.int8))
        with pytest.raises(WidthError, match="width 23"):
            optimize_subgraph(problem, config, Subgraph(tuple(range(24)), tuple(range(24)), 3))
        monkeypatch.setattr(altpp, "MAX_WIDTH", 3)
        for n in (4, 5):
            problem = random_problem(complete_graph(n), ProblemGenSpec((-1, 1), (-1, 1), seed=n))
            config = problem.configuration(np.ones(n, dtype=np.int8))
            sub = Subgraph(tuple(range(n)), tuple(range(n)), 1)
            if n == 4:
                assert optimize_subgraph(problem, config, sub).energy <= config.energy
            else:
                with pytest.raises(WidthError, match="width 4"):
                    optimize_subgraph(problem, config, sub)

    def test_config_length_checked(self):
        problem = IsingProblem(3, h={0: 1.0})
        config = IsingProblem(2).configuration([1, 1])
        with pytest.raises(InputError):
            optimize_subgraph(problem, config, Subgraph((0,), (0,), 0))


class TestBuiltinOptPp:
    def test_ground_states_unchanged_in_energy(self):
        problem = make_chimera_problem(seed=31, rows=1, cols=1)
        gs = exact_ground_state(problem)
        from isingpp.samplers import Provenance, RunSet
        rs = RunSet(runs=(gs, gs), problem_id="g",
                    provenance=Provenance("manual", {}, 0))
        out = builtin_opt_pp(problem, rs, width_cap=4)
        assert np.allclose(out.energies(), gs.energy, atol=1e-9)

    def test_tree_runs_all_reach_global_minimum(self):
        for seed in range(8):
            problem = make_tree_problem(seed=200 + seed, n=16)
            gs = exact_ground_state(problem)
            rs = random_runs(problem, count=6, seed=seed)
            out = builtin_opt_pp(problem, rs, width_cap=1)
            assert np.allclose(out.energies(), gs.energy, atol=1e-9)

    def test_never_increases_any_run(self):
        problem = make_chimera_problem(seed=32, rows=2, cols=2)
        rs = random_runs(problem, count=25, seed=4)
        out = builtin_opt_pp(problem, rs, width_cap=4)
        assert len(out) == len(rs)
        assert np.all(out.energies() <= rs.energies() + 1e-9)

    @staticmethod
    def per_run_reference(problem, runset, width_cap):
        """Every subgraph in turn on one run at a time."""
        out = []
        for run in runset:
            for sub in decompose_low_treewidth(problem, width_cap):
                run = optimize_subgraph(problem, run, sub, width_cap)
            out.append(run)
        return out

    def assert_matches_per_run_reference(self, problem, runset, width_cap):
        out = builtin_opt_pp(problem, runset, width_cap)
        reference = self.per_run_reference(problem, runset, width_cap)
        assert len(out) == len(reference)
        for got, want in zip(out, reference):
            assert np.array_equal(got.spins, want.spins)
            assert got.energy == want.energy

    @pytest.mark.parametrize("width_cap", [1, 2, 4])
    def test_matches_per_run_reference(self, width_cap):
        problem = make_chimera_problem(seed=33, rows=2, cols=2)
        self.assert_matches_per_run_reference(
            problem, random_runs(problem, count=40, seed=5), width_cap)

    @pytest.mark.parametrize("width_cap", [1, 2, 4])
    def test_matches_per_run_reference_with_zero_fields(self, width_cap):
        # No h and couplings of +-1: a vertex's effective field is an even
        # integer sum, zero in some runs and not in others.
        base = make_chimera_problem(seed=34, rows=2, cols=2)
        problem = IsingProblem(base.vertex_count, {},
                               {e: 1.0 if w > 0 else -1.0 for e, w in base.J.items()})
        runset = random_runs(problem, count=40, seed=6)
        spins = runset.spins_matrix()
        nbr, nbr_w = oracle_neighbours(problem)
        fields = [sum(w * spins[:, b] for b, w in zip(nbr[v].tolist(), nbr_w[v].tolist())
                      if b not in sub.vertices)
                  for sub in decompose_low_treewidth(problem, width_cap)
                  for v in sub.vertices]
        assert any(np.any(f == 0) and np.any(f != 0) for f in fields)
        self.assert_matches_per_run_reference(problem, runset, width_cap)

    def test_blocks_smaller_than_run_count_match_reference(self):
        problem = random_problem(
            complete_graph(14), ProblemGenSpec((-1, 1), (-1, 1), seed=3))
        runset = random_runs(problem, count=100, seed=7)
        (sub,) = decompose_low_treewidth(problem, width_cap=13)
        assert altpp._TABLE_BUDGET >> (sub.width + 1) < len(runset)
        self.assert_matches_per_run_reference(problem, runset, 13)

    def test_provenance_nests_source(self):
        problem = make_chimera_problem(seed=31, rows=1, cols=1)
        rs = random_runs(problem, count=3, seed=8)
        out = builtin_opt_pp(problem, rs, width_cap=2)
        assert out.provenance.sampler == "builtin_opt_pp"
        assert out.provenance.params["source"]["sampler"] == "random_runs"
        assert out.problem_id == rs.problem_id


# Mixed magnitudes, so a pair factor added in another order shows in the bits.
MIXED_H = {0: 2e7, 1: -0.7000000000000001, 2: -0.006, 3: -4e12, 4: 60.0}
MIXED_J = {(0, 1): -0.03, (0, 2): 1e9, (0, 3): -0.4, (1, 2): -2.0, (2, 3): 700.0,
           (3, 4): 4e16, (1, 4): -0.005}


class TestEqualContentEqualBits:
    """A problem and its twin, the same content with J given in reverse
    order, are post-processed to the same spins."""

    def twins(self):
        problem = IsingProblem(5, MIXED_H, MIXED_J)
        twin = IsingProblem(5, MIXED_H, dict(reversed(MIXED_J.items())))
        assert problem.content_hash() == twin.content_hash() == "30c745d20c86"
        return problem, twin

    def test_builtin_opt_pp(self):
        problem, twin = self.twins()
        runs, twin_runs = (builtin_opt_pp(p, random_runs(p, 32, 1)) for p in (problem, twin))
        assert np.array_equal(runs.spins, twin_runs.spins)

    def test_optimize_subgraph(self):
        problem, twin = self.twins()
        sub = Subgraph(tuple(range(5)), *min_degree_elimination(range(5), problem.edge_list))
        configs = [optimize_subgraph(p, p.configuration(np.ones(5)), sub) for p in (problem, twin)]
        assert np.array_equal(configs[0].spins, configs[1].spins)


class TestPersistenceFix:
    def test_threshold_validation(self):
        problem = make_chimera_problem(seed=1, rows=1, cols=1)
        rs = random_runs(problem, count=4, seed=1)
        for bad in (0.5, 0.0, 1.5, -0.2):
            with pytest.raises(ParameterError):
                persistence_fix(problem, rs, threshold=bad)

    def test_needs_two_runs(self):
        problem = make_chimera_problem(seed=1, rows=1, cols=1)
        rs = random_runs(problem, count=1, seed=1)
        with pytest.raises(InputError):
            persistence_fix(problem, rs, threshold=0.9)

    def test_identical_runs_fix_everything(self):
        problem = make_chimera_problem(seed=6, rows=1, cols=1)
        one = random_runs(problem, count=1, seed=2)[0]
        from isingpp.samplers import Provenance, RunSet
        rs = RunSet(runs=(one,) * 5, problem_id="x",
                    provenance=Provenance("manual", {}, 0))
        fa = persistence_fix(problem, rs, threshold=1.0)
        assert fa.free_vertices == ()
        assert fa.reduced_problem.vertex_count == 0
        assert len(fa.assignments) == problem.vertex_count
        assembled = fa.assemble(np.empty(0, dtype=np.int8))
        assert np.array_equal(assembled, one.spins)
        assert fa.offset == pytest.approx(one.energy, abs=1e-9)

    def test_coupling_folds_into_field(self):
        # fixing s0 = -1 over J01 = 0.5 shifts h1 from 0.7 to 0.2
        problem = IsingProblem(2, h={1: 0.7}, J={(0, 1): 0.5})
        spins = np.array([[-1, 1], [-1, -1]] * 5, dtype=np.int8)
        from isingpp.samplers import Provenance, RunSet
        rs = RunSet(
            runs=tuple(problem.configuration(s) for s in spins),
            problem_id="x", provenance=Provenance("manual", {}, 0))
        fa = persistence_fix(problem, rs, threshold=0.9)
        assert fa.assignments == {0: -1}
        assert fa.free_vertices == (1,)
        assert fa.reduced_problem.h == {0: pytest.approx(0.2)}
        assert fa.reduced_problem.J == {}

    def test_reduced_problem_from_folded_fields_and_inner_edges(self):
        """Freezing vertex 1 at -1 folds its couplings into the fields of
        0 and 2 and 3, renumbered 0, 1 and 2; a field that folds to 0.0
        takes no h entry, and only the couplings among free vertices stay."""
        problem = IsingProblem(4, h={3: 1.0, 0: 0.5},
                               J={(1, 0): 0.5, (1, 2): -1.0, (3, 2): 0.25, (0, 3): 0.75,
                                  (1, 3): 0.5})
        spins = np.array([[1, -1, 1, -1], [-1, -1, -1, 1]] * 5, dtype=np.int8)
        from isingpp.samplers import Provenance, RunSet
        rs = RunSet.from_matrix(spins, problem.evaluate_many(spins), "x",
                                Provenance("manual", {}, 0))
        fa = persistence_fix(problem, rs, threshold=0.9)
        assert fa.assignments == {1: -1} and fa.free_vertices == (0, 2, 3)
        fields = {0: 0.5 + 0.5 * -1, 1: 0.0 + -1.0 * -1, 2: 1.0 + 0.5 * -1}
        assert fa.reduced_problem.h == {i: x for i, x in fields.items() if x != 0.0}
        # The inner edges (0, 3) and (2, 3), renumbered.
        assert fa.reduced_problem.J == {(0, 2): 0.75, (1, 2): 0.25}

    def test_threshold_is_inclusive(self):
        problem = IsingProblem(1, h={0: 1.0})
        plus = problem.configuration([1])
        minus = problem.configuration([-1])
        from isingpp.samplers import Provenance, RunSet
        prov = Provenance("manual", {}, 0)
        nine_of_ten = RunSet(runs=(plus,) * 9 + (minus,),
                             problem_id="x", provenance=prov)
        fa = persistence_fix(problem, nine_of_ten, threshold=0.9)
        assert fa.assignments == {0: 1}
        # 17/20 = 0.85 falls short of 0.9
        seventeen = RunSet(runs=(plus,) * 17 + (minus,) * 3,
                           problem_id="x", provenance=prov)
        fa = persistence_fix(problem, seventeen, threshold=0.9)
        assert fa.assignments == {}
        assert fa.free_vertices == (0,)

    def test_both_spins_freeze_at_the_same_fraction(self):
        """93 of 100 runs at +1 on vertex 0 and at -1 on vertex 1: both
        reach threshold 0.93, though 1 - 7/100 rounds below 0.93."""
        problem = IsingProblem(2)
        spins = np.array([[1, -1]] * 93 + [[-1, 1]] * 7, dtype=np.int8)
        from isingpp.samplers import Provenance, RunSet
        rs = RunSet.from_matrix(spins, problem.evaluate_many(spins), "x",
                                Provenance("manual", {}, 0))
        fa = persistence_fix(problem, rs, threshold=0.93)
        assert fa.assignments == {0: 1, 1: -1} and fa.free_vertices == ()

    def test_fold_in_energy_identity(self):
        """reduced energy + offset reproduces the full energy for every
        extension of the fixed part."""
        rng = np.random.default_rng(23)
        for seed in range(10):
            problem = make_chimera_problem(seed=400 + seed, rows=1, cols=2)
            rs = gibbs_sample(problem, SamplerParams(
                num_runs=12, seed=seed, fixed_beta=2.0, burn_in=60, thinning=1))
            fa = persistence_fix(problem, rs, threshold=0.75)
            assert sorted(list(fa.assignments) + list(fa.free_vertices)) \
                == list(range(problem.vertex_count))
            for _ in range(5):
                free_spins = rng.choice([-1, 1], size=len(fa.free_vertices))
                full = fa.assemble(free_spins)
                direct = problem.evaluate(full)
                via_reduction = fa.reduced_problem.evaluate(free_spins) + fa.offset
                assert via_reduction == pytest.approx(direct, abs=1e-9)


class StubSampler:
    """Raises if invoked; proves a code path never resamples."""

    def __call__(self, problem, params):
        raise AssertionError("sampler must not be called")


class TestSamplePersistence:
    def test_rounds_validation(self):
        problem = make_chimera_problem(seed=1, rows=1, cols=1)
        params = SamplerParams(num_runs=4, seed=1, fixed_beta=1.0)
        with pytest.raises(ParameterError):
            sample_persistence(problem, gibbs_sample, params, rounds=0)

    def test_single_round_returns_best_initial_run(self):
        problem = make_chimera_problem(seed=9, rows=1, cols=1)
        initial = random_runs(problem, count=10, seed=3)
        params = SamplerParams(num_runs=10, seed=3, fixed_beta=1.0)
        out = sample_persistence(problem, StubSampler(), params,
                                 threshold=1.0, rounds=1, initial_runs=initial)
        assert out.same_spins(initial.best())

    def test_everything_fixed_makes_later_rounds_noops(self):
        problem = make_chimera_problem(seed=9, rows=1, cols=1)
        one = random_runs(problem, count=1, seed=4)[0]
        from isingpp.samplers import Provenance, RunSet
        initial = RunSet(runs=(one,) * 6, problem_id="x",
                         provenance=Provenance("manual", {}, 0))
        params = SamplerParams(num_runs=6, seed=4, fixed_beta=1.0)
        outs = [
            sample_persistence(problem, StubSampler(), params, threshold=0.8,
                               rounds=r, initial_runs=initial)
            for r in (2, 3, 5)
        ]
        assert all(o.same_spins(one) for o in outs)

    def test_initial_runs_must_fit(self):
        problem = make_chimera_problem(seed=9, rows=1, cols=1)
        wrong = random_runs(IsingProblem(3, h={0: 1.0}), count=4, seed=1)
        params = SamplerParams(num_runs=4, seed=1, fixed_beta=1.0)
        with pytest.raises(InputError):
            sample_persistence(problem, gibbs_sample, params,
                               rounds=2, initial_runs=wrong)

    def test_deterministic(self):
        problem = make_chimera_problem(seed=9, rows=1, cols=1)
        params = SamplerParams(num_runs=8, seed=21, fixed_beta=2.0,
                               burn_in=40, thinning=1)
        a = sample_persistence(problem, gibbs_sample, params, threshold=0.8, rounds=3)
        b = sample_persistence(problem, gibbs_sample, params, threshold=0.8, rounds=3)
        assert a.same_spins(b)

    def test_usually_no_worse_than_best_initial_sample(self):
        """The input's best is round 0's candidate, so every seed ends at
        or below it."""
        ok = 0
        for seed in range(50):
            problem = make_chimera_problem(seed=7000 + seed, rows=2, cols=1)
            params = SamplerParams(num_runs=32, seed=seed, fixed_beta=3.0,
                                   burn_in=200, thinning=2)
            initial = gibbs_sample(problem, params)
            final = sample_persistence(problem, gibbs_sample, params,
                                       threshold=0.9, rounds=3,
                                       initial_runs=initial)
            if final.energy <= initial.best().energy:
                ok += 1
        assert ok == 50
