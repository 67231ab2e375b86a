"""Sampler determinism, chain correctness, and the enumeration oracle."""

import hashlib
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from isingpp import (
    BetaSchedule,
    ChimeraSpec,
    IsingProblem,
    ProblemGenSpec,
    RunSet,
    SamplerParams,
    SpinConfiguration,
    chimera_graph,
    complete_graph,
    exact_ground_state,
    gibbs_sample,
    gibbs_sample_many,
    grid_graph,
    path_graph,
    random_problem,
    random_runs,
    simulated_anneal,
)
from isingpp import rng, samplers
from isingpp.errors import InputError, ParameterError, SizeError
from isingpp.harness import ExperimentConfig, problem_for
from isingpp.rng import child_sequences, make_generator
from isingpp.samplers import Provenance, _level_tables

from conftest import make_chimera_problem, oracle_ground, oracle_neighbours


class TrackedGenerator(np.random.Generator):
    """A Generator that can be weakly referenced."""


@pytest.fixture
def generator_count(monkeypatch):
    """Counts of the generators rng.make_generator has made: those alive
    now, and the most alive at once."""
    count = {"alive": 0, "peak": 0}

    def release():
        count["alive"] -= 1

    def tracked(seed):
        g = TrackedGenerator(make_generator(seed).bit_generator)
        count["alive"] += 1
        count["peak"] = max(count["peak"], count["alive"])
        weakref.finalize(g, release)
        return g

    for module in (rng, samplers):
        monkeypatch.setattr(module, "make_generator", tracked)
    return count


def oracle_words(seed, count):
    """numpy's own children of the seed, as ``child_generators`` masks it."""
    master = np.random.SeedSequence(seed & (2**64 - 1))
    return np.array([c.generate_state(4, np.uint64) for c in master.spawn(count)])


class TestChildStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, 10**23])
    def test_bulk_words_are_numpys_children(self, seed):
        """Indices 0, 255, 256, 257 and 2,047 span the word blocks."""
        oracle = oracle_words(seed, 2048)
        assert np.array_equal(rng.child_words(seed, 0, 2048), oracle)
        for i in (0, 255, 256, 257, 2047):
            assert np.array_equal(rng.child_words(seed, i, i + 1)[0], oracle[i])

    @pytest.mark.parametrize("seed", [0, 2**32, 10**23])
    def test_generators_draw_the_children_streams(self, seed):
        gens = list(rng.child_generators(seed, 600))
        assert len(gens) == 600
        for i, child in enumerate(child_sequences(seed, 600)):
            assert np.array_equal(gens[i].random(5), make_generator(child).random(5))

    def test_child_count_is_bounded_before_any_stream_is_made(self):
        with pytest.raises(ParameterError, match="2\\*\\*32"):
            rng.child_generators(0, 2**32 + 1)

    @pytest.mark.parametrize("n", [1, 2, 7, 127, 128, 129])
    def test_initial_bits_are_the_integers_draws(self, n):
        """Raw bits 31 and 63 give ``integers(0, 2, n)``, and the double
        drawn next is the one drawn after it."""
        for seed in range(10):
            gens = [make_generator(c) for c in child_sequences(seed, 3)]
            oracles = [make_generator(c) for c in child_sequences(seed, 3)]
            order = np.random.default_rng(seed).permutation(n)
            state = samplers._initial_state(gens, order)
            assert state.shape == (n + 1, 3) and (state[n] == 1).all()
            for column, g, oracle in zip(state.T, gens, oracles):
                assert np.array_equal(column[:n], oracle.integers(0, 2, n)[order])
                assert g.random() == oracle.random()


class TestBetaSchedule:
    def test_geometric_endpoints(self):
        betas = BetaSchedule(0.1, 5.0, "geometric").betas(10)
        assert betas[0] == pytest.approx(0.1)
        assert betas[-1] == pytest.approx(5.0)
        ratios = betas[1:] / betas[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_linear_spacing(self):
        betas = BetaSchedule(1.0, 3.0, "linear").betas(5)
        assert np.allclose(betas, [1.0, 1.5, 2.0, 2.5, 3.0])

    def test_validation(self):
        with pytest.raises(ParameterError):
            BetaSchedule(5.0, 0.1)
        with pytest.raises(ParameterError):
            BetaSchedule(0.0, 1.0)
        with pytest.raises(ParameterError):
            BetaSchedule(0.1, 1.0, "cubic")

    @pytest.mark.parametrize("start, end", [(1.0, math.inf), (math.nan, 1.0),
                                            (1.0, math.nan),
                                            pytest.param(1.0, 10**400, id="1.0-10**400")])
    def test_refuses_non_finite_betas(self, start, end):
        # At beta = inf a flip of dE = 0 gets 0 * -inf = nan odds, and is never taken.
        with pytest.raises(ParameterError, match="both finite"):
            BetaSchedule(start, end)


class TestSamplerParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SamplerParams(num_runs=0, seed=1)
        with pytest.raises(ParameterError):
            SamplerParams(num_runs=1, seed=1, sweeps=0)
        with pytest.raises(ParameterError):
            SamplerParams(num_runs=1, seed=1, fixed_beta=-1.0)
        with pytest.raises(ParameterError):
            SamplerParams(num_runs=1, seed=1, thinning=0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, 1e308,
                                      pytest.param(10**400, id="10**400")])
    def test_refuses_a_fixed_beta_whose_double_is_not_finite(self, beta):
        with pytest.raises(ParameterError, match="fixed_beta"):
            SamplerParams(num_runs=1, seed=1, fixed_beta=beta)

    def test_run_count_is_bounded_by_the_child_streams(self):
        assert SamplerParams(num_runs=2**32, seed=1).num_runs == 2**32
        with pytest.raises(ParameterError, match="2\\*\\*32"):
            SamplerParams(num_runs=2**32 + 1, seed=1)

    def test_to_dict_round_trips_schedule(self):
        params = SamplerParams(num_runs=4, seed=9, beta_schedule=BetaSchedule(0.2, 2.0))
        d = params.to_dict()
        assert d["beta_schedule"] == {"start": 0.2, "end": 2.0, "interpolation": "geometric"}


class TestRunSet:
    def test_rejects_empty_and_ragged(self):
        with pytest.raises(InputError):
            RunSet(runs=(), problem_id="x", provenance=Provenance("s", {}, 0))
        a = SpinConfiguration(np.array([1, -1]), 0.0)
        b = SpinConfiguration(np.array([1, -1, 1]), 0.0)
        with pytest.raises(InputError):
            RunSet(runs=(a, b), problem_id="x", provenance=Provenance("s", {}, 0))

    @pytest.mark.parametrize("spins, bad", [
        ([[1.7, -1.2]], "[-1.2, 1.7]"), ([[1, 257]], "[257]"),
        (np.array([[1, 255]], dtype=np.uint8), "[255]"), ([["1", "-1"]], "['-1', '1']"),
        ([[float("nan"), 1.0]], "[nan]")])
    def test_checks_spins_before_casting(self, spins, bad):
        """An int8 cast would read each of these as +-1."""
        with pytest.raises(ValueError) as info:
            RunSet.from_matrix(spins, [0.0], "x", Provenance("s", {}, 0))
        assert str(info.value) == f"spins must be -1 or +1, found {bad}"

    def test_from_matrix_checks_a_read_only_matrix_near_its_own_size(self):
        """A read-only int8 matrix is kept as it is, and its spin check holds
        one bool mask of the matrix's size at a time."""
        spins = np.random.default_rng(5).choice(np.array([-1, 1], dtype=np.int8),
                                                size=(8192, 128))
        spins.setflags(write=False)
        energies = np.zeros(len(spins))
        tracemalloc.start()
        try:
            RunSet.from_matrix(spins, energies, "x", Provenance("s", {}, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * spins.nbytes

    @pytest.mark.parametrize("spins", [
        np.array([[1, -1]], dtype=np.int8), np.array([[1, -1]], dtype=np.int64),
        [[1.0, -1.0]], [[True, -1]]])
    def test_accepts_spins_of_any_type_that_are_plus_minus_one(self, spins):
        runset = RunSet.from_matrix(spins, [0.0], "x", Provenance("s", {}, 0))
        assert runset.spins.dtype == np.int8 and runset.spins.tolist() == [[1, -1]]

    def test_keeps_a_read_only_int8_matrix_and_copies_any_other(self):
        frozen = np.array([[1, -1], [-1, -1]], dtype=np.int8)
        frozen.setflags(write=False)
        runset = RunSet.from_matrix(frozen, [0.0, 0.0], "x", Provenance("s", {}, 0))
        assert np.shares_memory(runset.spins, frozen)
        writable = frozen.copy()
        runset = RunSet.from_matrix(writable, [0.0, 0.0], "x", Provenance("s", {}, 0))
        assert not np.shares_memory(runset.spins, writable)
        writable[0, 0] = -1
        assert runset.spins.tolist() == [[1, -1], [-1, -1]]
        assert not runset.spins.flags.writeable

    def test_accessors(self):
        problem = IsingProblem(2, h={0: 1.0})
        rs = random_runs(problem, count=5, seed=3)
        assert len(rs) == 5
        assert rs.spins_matrix().shape == (5, 2)
        energies = rs.energies()
        assert rs.best().energy == energies.min()
        assert rs[0].same_spins(list(rs)[0])

    def test_cached_energies_validate(self):
        problem = make_chimera_problem(seed=2, rows=2, cols=2)
        for rs in (
            simulated_anneal(problem, SamplerParams(num_runs=6, seed=4, sweeps=20)),
            gibbs_sample(problem, SamplerParams(num_runs=6, seed=4, fixed_beta=1.0,
                                                burn_in=10, thinning=2)),
            random_runs(problem, 6, 4),
        ):
            assert rs.energies().tolist() == [problem.evaluate(row) for row in rs.spins]


class TestSimulatedAnneal:
    def test_single_vertex_finds_minimum(self):
        problem = IsingProblem(1, h={0: 2.0})
        rs = simulated_anneal(problem, SamplerParams(num_runs=8, seed=1, sweeps=50))
        assert all(r.spins[0] == -1 for r in rs)

    def test_deterministic(self):
        problem = make_chimera_problem(seed=6, rows=1, cols=1)
        params = SamplerParams(num_runs=10, seed=42, sweeps=30)
        a = simulated_anneal(problem, params)
        b = simulated_anneal(problem, params)
        assert np.array_equal(a.spins_matrix(), b.spins_matrix())
        assert np.array_equal(a.energies(), b.energies())

    def test_seed_changes_output(self):
        problem = make_chimera_problem(seed=6, rows=1, cols=1)
        a = simulated_anneal(problem, SamplerParams(num_runs=10, seed=1, sweeps=30))
        b = simulated_anneal(problem, SamplerParams(num_runs=10, seed=2, sweeps=30))
        assert not np.array_equal(a.spins_matrix(), b.spins_matrix())

    def test_metropolis_delta_matches_full_evaluations(self):
        """The O(degree) acceptance quantity equals the energy difference
        of the two full evaluations it stands in for."""
        rng = np.random.default_rng(31)
        problem = make_chimera_problem(seed=14, rows=2, cols=1)
        nbr, nbr_w = oracle_neighbours(problem)
        for _ in range(100):
            spins = rng.choice([-1, 1], size=problem.vertex_count)
            a = int(rng.integers(problem.vertex_count))
            flipped = spins.copy()
            flipped[a] *= -1
            direct = problem.evaluate(flipped) - problem.evaluate(spins)
            field = problem._h_vec[a] + np.sum(nbr_w[a] * spins[nbr[a]])
            assert -2.0 * spins[a] * field == pytest.approx(direct, abs=1e-9)

    def test_reaches_ground_state_on_small_problems(self):
        """Calibrated: 50/50 seeds hit the exact optimum with this budget;
        the frozen bar is 80%."""
        hits = 0
        for seed in range(50):
            problem = make_chimera_problem(seed=5000 + seed, rows=2, cols=1)
            gs = exact_ground_state(problem)
            rs = simulated_anneal(
                problem, SamplerParams(num_runs=64, seed=seed, sweeps=500))
            if abs(rs.best().energy - gs.energy) <= 1e-9:
                hits += 1
        assert hits >= 40

    def test_provenance_recorded(self):
        problem = make_chimera_problem(seed=6, rows=1, cols=1)
        rs = simulated_anneal(problem, SamplerParams(num_runs=2, seed=77, sweeps=10))
        assert rs.provenance.sampler == "simulated_anneal"
        assert rs.provenance.seed == 77
        assert rs.provenance.params["sweeps"] == 10
        assert rs.problem_id == problem.content_hash()

    def test_pinned_output(self):
        """Spins and energies of default problem 0 at 200 runs, pinned
        before annealing went level by level; any change to the chain
        changes the hash."""
        problem = problem_for(ExperimentConfig(), 0)
        rs = simulated_anneal(problem, SamplerParams(num_runs=200, seed=2024))
        digest = hashlib.sha256(rs.spins_matrix().tobytes() + rs.energies().tobytes())
        assert digest.hexdigest() == \
            "8f35ca3515c77309648fefff3564fe380ba85ba8a2a71ebb5c6b189ecf1801f3"


class TestSweepLevels:
    @pytest.mark.parametrize("n, edges, count", [
        (128, chimera_graph(ChimeraSpec(4, 4, 4)), 8),
        (32, chimera_graph(ChimeraSpec(2, 2, 4)), 4),
        (81, grid_graph(9, 9), 17),
        (12, path_graph(12), 12),
        (9, complete_graph(9), 9),
        (10, [], 1),
        (1, [], 1),
    ])
    def test_levels_order_the_sweep(self, n, edges, count):
        """Each level is 1 + the largest among lower-indexed neighbours, so
        every edge climbs from its lower to its higher end and none stays
        inside a level; the level count is as stated. The levels' rows
        follow one another and hold their vertices in ascending order.
        Without columns to lag, these levels are the steps, every lag 0."""
        problem = IsingProblem(n, {}, {e: 1.0 for e in edges})
        order, levels, lag = _level_tables([problem])
        assert len(levels) == count and not lag.any()
        assert sorted(order.tolist()) == list(range(n))
        level = np.full(n, -1)
        for k, (rows, _, _) in enumerate(levels):
            assert rows.start == (levels[k - 1][0].stop if k else 0)
            V = order[rows]
            assert V.tolist() == sorted(V.tolist())
            level[V] = k
        assert (level >= 0).all() and levels[-1][0].stop == n
        nbr, _ = oracle_neighbours(problem)
        for a in range(n):
            lower = [level[b] for b in nbr[a].tolist() if b < a]
            assert level[a] == 1 + max(lower, default=-1)
        for a, b in edges:
            assert level[min(a, b)] < level[max(a, b)]

    def test_tables_hold_neighbours_in_order(self):
        """Each column holds the field row first, h against the constant
        spin of row n, then the neighbours' rows in order, padded with row n
        and coefficient 0.0; ``W[..., k]`` holds problem k's coefficients."""
        problems = [make_chimera_problem(seed=seed, rows=2, cols=2) for seed in (3, 4, 5)]
        n = problems[0].vertex_count
        order, levels, _ = _level_tables(problems, len(problems))
        vertex_of_row = np.append(order, n)
        nbr = oracle_neighbours(problems[0])[0]
        nbr_w = [oracle_neighbours(problem)[1] for problem in problems]
        for rows, P, W in levels:
            assert W.shape == (*P.shape, len(problems))
            for j, v in enumerate(order[rows].tolist()):
                deg = len(nbr[v])
                assert P[0, j] == n
                assert vertex_of_row[P[1:1 + deg, j]].tolist() == nbr[v].tolist()
                assert (P[1 + deg:, j] == n).all()
                for k, problem in enumerate(problems):
                    assert W[0, j, k] == problem._h_vec[v]
                    assert W[1:1 + deg, j, k].tolist() == nbr_w[k][v].tolist()
                    assert (W[1 + deg:, j, k] == 0.0).all()

    @pytest.mark.parametrize("n, edges, columns, steps, top", [
        (128, chimera_graph(ChimeraSpec(4, 4, 4)), 10, 2, 3),
        (16, complete_graph(16), 2, 16, 0),
        (16, complete_graph(16), 10, 16, 0),
        (4096, path_graph(4096), 2, 256, 15),
    ])
    def test_lagged_steps(self, n, edges, columns, steps, top):
        """The default Chimera graph runs in 2 steps a sweep, not 8
        levels; K16 has no lagged schedule, so its lags are 0; a 4,096-
        vertex path of 2 chains has its lags capped where the ring of
        max lag + 1 sweeps fills the buffer, in 256 steps of 4,096."""
        problem = IsingProblem(n, {}, {e: 1.0 for e in edges})
        _, levels, lag = _level_tables([problem] * columns, columns)
        assert (len(levels), lag.max()) == (steps, top)
        assert (top + 1) * n * columns <= samplers._UNIFORM_BUFFER

    def test_uniforms_of_each_row_are_its_lagged_sweeps(self, monkeypatch):
        """In super-sweep T, row r holds column c's uniform of sweep
        T - lag[r] of vertex order[r], for every sweep the chain draws;
        the chains draw in chunks that wrap round a ring of max lag +
        chunk sweeps (7 + 5 here), which never holds more than the
        buffer."""
        n, sweeps = 16, [5, 23, 40]
        monkeypatch.setattr(samplers, "_UNIFORM_BUFFER", 12 * n * len(sweeps))
        problem = IsingProblem(n, {}, {e: 1.0 for e in path_graph(n)})
        order, _, lag = _level_tables([problem] * 3, 3)
        drawn = []

        class Recorder:
            def __init__(self, seed):
                self.real = np.random.default_rng(seed)

            def random(self, out):
                drawn.append(len(out))
                return self.real.random(out=out)

        expected = [np.random.default_rng(c).random((count, n)) for c, count in enumerate(sweeps)]
        yielded = samplers._sweep_uniforms([Recorder(c) for c in range(3)], sweeps, order, lag)
        T = -1
        for T, u in enumerate(yielded):
            for c, count in enumerate(sweeps):
                t = T - lag
                mine = (t >= 0) & (t < count)
                assert (u[mine, c] == expected[c][t[mine], order[mine]]).all()
        assert T + 1 == max(sweeps) + lag.max() == 47
        assert (lag.max() + max(drawn)) * n * 3 <= samplers._UNIFORM_BUFFER
        assert max(drawn) == 5 and 12 % 5


class TestBatchedSampling:
    @pytest.mark.parametrize("batched", [samplers.simulated_anneal_many,
                                         samplers.gibbs_sample_many])
    def test_jobs_on_different_graphs_fail(self, batched):
        params = SamplerParams(num_runs=2, seed=0, fixed_beta=1.0)
        path = IsingProblem(3, {}, {(0, 1): 1.0, (1, 2): 1.0})
        for other in (IsingProblem(3, {}, {(0, 1): 1.0, (0, 2): 1.0}),
                      IsingProblem(4, {}, {(0, 1): 1.0, (1, 2): 1.0}),
                      IsingProblem(3, {}, {(0, 1): 1.0})):
            with pytest.raises(InputError, match="one graph"):
                batched([(path, params, None), (other, params, None)])

    def test_annealer_makes_one_block_of_generators_at_a_time(self, generator_count):
        """Two jobs' 550 runs pool into three blocks of 184: no more
        generators than one block's are alive at once, and each job gets
        the runs of its own call."""
        problem = make_chimera_problem(seed=3, rows=1, cols=1)
        jobs = [(problem, SamplerParams(num_runs=300, seed=5, sweeps=2), None),
                (problem, SamplerParams(num_runs=250, seed=6, sweeps=2), None)]
        pooled = samplers.simulated_anneal_many(jobs)
        assert 0 < generator_count["peak"] <= 184
        assert generator_count["alive"] == 0
        for rs, (_, params, _) in zip(pooled, jobs):
            assert np.array_equal(rs.spins, simulated_anneal(problem, params).spins)

    def test_zero_coupling_keeps_the_graph(self):
        params = SamplerParams(num_runs=2, seed=0, fixed_beta=1.0)
        one = IsingProblem(3, {}, {(0, 1): 1.0, (1, 2): -1.0})
        zero = IsingProblem(3, {}, {(0, 1): 0.0, (1, 2): 0.5})
        assert len(samplers.gibbs_sample_many([(one, params, None), (zero, params, None)])) == 2

    def test_other_samplers_are_called_per_job(self):
        calls = []

        def sampler(problem, params, problem_id=None):
            calls.append(problem_id)
            return random_runs(problem, params.num_runs, params.seed, problem_id=problem_id)

        problem = IsingProblem(2, {0: 1.0})
        params = SamplerParams(num_runs=2, seed=0)
        out = samplers.sample_many(sampler, [(problem, params, "a"), (problem, params, "b")])
        assert calls == ["a", "b"] and [rs.problem_id for rs in out] == ["a", "b"]

    def test_gibbs_columns_keep_the_700_guards(self, monkeypatch):
        """Above x = 700 p_up is 0, so even a uniform of exactly 0.0 leaves
        a spin at -1, where 1 / (1 + exp(705)) would still be above 0.
        Below x = -700 p_up is 1."""
        monkeypatch.setattr(samplers, "_sweep_uniforms", lambda gens, sweeps, order, lag: (
            np.zeros((len(order), len(gens))) for _ in range(max(sweeps) + lag.max())))
        problem = IsingProblem(2, {0: 1.0, 1: -1.0})
        params = SamplerParams(num_runs=2, seed=0, fixed_beta=352.5, burn_in=0, thinning=1)
        for runset in samplers.gibbs_sample_many([(problem, params, None)] * 2):
            assert runset.spins.tolist() == [[-1, 1], [-1, 1]]

    def test_lone_gibbs_chain_keeps_the_700_guards(self, monkeypatch):
        """The case above in the lone chain, at sites read from a table
        (8 and 9, uncoupled) and at sites that sum their field (K8 of 0.0
        couplings): every x is 705 or -705. The initial state is read
        from the real stream's raw bits."""
        real = samplers.make_generator

        class ZeroUniforms:
            def __init__(self, seed):
                self.bit_generator = real(seed).bit_generator

            def random(self, out):
                out[...] = 0.0
                return out

        monkeypatch.setattr(samplers, "make_generator", ZeroUniforms)
        h = {v: (-1.0) ** v for v in range(10)}
        problem = IsingProblem(10, h, {e: 0.0 for e in complete_graph(8)})
        params = SamplerParams(num_runs=2, seed=0, fixed_beta=352.5, burn_in=0, thinning=1)
        assert gibbs_sample(problem, params).spins.tolist() == [[-1, 1] * 5] * 2

    @pytest.mark.parametrize("leaves", [0, 7])
    def test_lone_and_batched_chains_read_one_p_up(self, monkeypatch, leaves):
        """A chain whose vertex 0 has x = 2 beta h, with p_up of np.exp and
        of math.exp a few ulps apart, and whose every uniform is the
        smaller of the two: run alone, it reads the columns' p_up, so it
        gives the spins of the same job run as a column of a 2-job call.
        Given 7 leaves coupled by 0.0, vertex 0 has more neighbours than a
        table holds and sums its field, which the leaves leave at h."""
        x = -0.1546382707428613
        p_up = samplers._heat_bath(np.array([x]))[0]
        u = min(p_up, 1.0 / (1.0 + math.exp(x)))
        real = samplers.make_generator

        class FixedUniforms:
            def __init__(self, seed):
                self.bit_generator = real(seed).bit_generator

            def random(self, out):
                out[...] = u
                return out

        monkeypatch.setattr(samplers, "make_generator", FixedUniforms)
        problem = IsingProblem(1 + leaves, {0: x}, {(0, v): 0.0 for v in range(1, 1 + leaves)})
        assert (problem._adj_start[1] > samplers._TABLE_DEGREE) == bool(leaves)
        params = SamplerParams(num_runs=4, seed=0, fixed_beta=0.5, burn_in=0, thinning=1)
        alone = gibbs_sample(problem, params).spins
        batched = gibbs_sample_many([(problem, params, None)] * 2)
        assert alone.tolist() == batched[0].spins.tolist() == batched[1].spins.tolist()
        assert alone[:, 0].tolist() == [1 if u < p_up else -1] * 4


class TestGibbsSample:
    def test_lone_column_memory_does_not_grow_with_the_runs(self):
        """A lone thinning-1 chain on the default graph runs as one column,
        whose states wait in a ring of a bounded number of super-sweeps
        and are written a window at a time: beyond the samples matrix, it
        holds no more at 8,192 runs than at 2,048."""
        problem = problem_for(ExperimentConfig(), 0)
        beyond = []
        for runs in (2048, 8192):
            params = SamplerParams(num_runs=runs, seed=1, fixed_beta=1.0, burn_in=0, thinning=1)
            tracemalloc.start()
            try:
                samplers._gibbs_columns([params], samplers._level_tables([problem], 1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            beyond.append(peak - runs * problem.vertex_count)
        assert beyond[1] <= beyond[0] + 4096

    def test_requires_fixed_beta(self):
        problem = IsingProblem(2, h={0: 1.0})
        with pytest.raises(ParameterError):
            gibbs_sample(problem, SamplerParams(num_runs=3, seed=1))

    def test_deterministic(self):
        problem = make_chimera_problem(seed=21, rows=1, cols=1)
        params = SamplerParams(num_runs=8, seed=5, fixed_beta=1.0,
                               burn_in=30, thinning=2)
        a = gibbs_sample(problem, params)
        b = gibbs_sample(problem, params)
        assert np.array_equal(a.spins_matrix(), b.spins_matrix())

    def test_high_beta_concentrates_on_ground_state(self):
        """Fields dominate the couplings here, so every site's conditional
        pins it regardless of the start; at beta=20 the chain sits in the
        ground state (all ten chain seeds gave 100% when calibrated)."""
        problem = random_problem(
            path_graph(6), ProblemGenSpec((0.8, 2.0), (-0.2, 0.2), seed=11))
        gs = exact_ground_state(problem)
        rs = gibbs_sample(problem, SamplerParams(
            num_runs=100, seed=0, fixed_beta=20.0, burn_in=50, thinning=1))
        frac = np.mean([r.same_spins(gs) for r in rs])
        assert frac >= 0.9

    def test_low_beta_is_near_uniform(self):
        problem = random_problem(path_graph(4), ProblemGenSpec((0, 0), (-1, 1), seed=9))
        rs = gibbs_sample(problem, SamplerParams(
            num_runs=10000, seed=3, fixed_beta=0.01, burn_in=50, thinning=1))
        means = rs.spins_matrix().astype(np.float64).mean(axis=0)
        assert np.all(np.abs(means) < 0.1)

    @pytest.mark.parametrize("beta", [1e300, samplers.MAX_FIXED_BETA])
    def test_zero_field_site_is_a_fair_coin_at_the_largest_betas(self, beta):
        """2 beta f is finite or +-inf, never nan, so vertex 0, with no
        field, takes each spin half the time, alone and in columns."""
        problem = IsingProblem(3, {0: 0.0, 1: 0.5}, {(1, 2): 1.0})
        params = [SamplerParams(num_runs=2000, seed=seed, fixed_beta=beta, burn_in=0,
                                thinning=1) for seed in (0, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runsets = [gibbs_sample(problem, params[0]),
                       *gibbs_sample_many([(problem, q, None) for q in params])]
        for rs in runsets:
            assert abs(rs.spins[:, 0].mean()) < 0.1

    def test_sample_count_and_provenance(self):
        problem = make_chimera_problem(seed=21, rows=1, cols=1)
        rs = gibbs_sample(problem, SamplerParams(
            num_runs=7, seed=2, fixed_beta=0.5, burn_in=10, thinning=3))
        assert len(rs) == 7
        assert rs.provenance.sampler == "gibbs_sample"
        assert rs.provenance.params["fixed_beta"] == 0.5


class TestRandomRuns:
    def test_count_validation(self):
        problem = IsingProblem(2, h={0: 1.0})
        with pytest.raises(ParameterError):
            random_runs(problem, count=0, seed=1)

    def test_count_is_bounded_by_the_child_streams(self):
        problem = IsingProblem(2, h={0: 1.0})
        with pytest.raises(ParameterError, match="2\\*\\*32"):
            random_runs(problem, count=2**32 + 1, seed=1)

    def test_deterministic(self):
        problem = make_chimera_problem(seed=2, rows=1, cols=1)
        a = random_runs(problem, count=20, seed=8)
        b = random_runs(problem, count=20, seed=8)
        assert np.array_equal(a.spins_matrix(), b.spins_matrix())

    def test_runs_are_the_annealers_initial_states(self):
        problem = make_chimera_problem(seed=2, rows=2, cols=2)
        rs = random_runs(problem, count=7, seed=8)
        gens = [make_generator(s) for s in child_sequences(8, 7)]
        state = samplers._initial_state(gens, np.arange(problem.vertex_count))
        assert np.array_equal(rs.spins, np.where(state[:-1].T, 1, -1))

    def test_one_block_of_generators_at_a_time(self, generator_count):
        """The child streams are made block by block and give the runs
        every stream made up front gives."""
        problem = make_chimera_problem(seed=2, rows=1, cols=1)
        rs = random_runs(problem, count=600, seed=8)
        assert 0 < generator_count["peak"] <= samplers._RUN_BLOCK
        assert generator_count["alive"] == 0
        gens = [make_generator(s) for s in child_sequences(8, 600)]
        state = samplers._initial_state(gens, np.arange(problem.vertex_count))
        assert np.array_equal(rs.spins, np.where(state[:-1].T, 1, -1))

    def test_runs_differ_from_each_other(self):
        problem = make_chimera_problem(seed=2, rows=2, cols=2)
        rs = random_runs(problem, count=10, seed=8)
        matrix = rs.spins_matrix()
        assert not all(np.array_equal(matrix[0], matrix[i]) for i in range(1, 10))

    def test_spin_mean_near_zero(self):
        """10^5 total spins: the grand mean stays within +-0.02 of 0."""
        spec = ChimeraSpec(4, 4, 4)
        problem = random_problem(
            chimera_graph(spec), ProblemGenSpec((-1, 1), (-1, 1), seed=0),
            vertex_count=spec.vertex_count)
        rs = random_runs(problem, count=800, seed=12)
        # 800 runs x 128 vertices = 102400 draws
        assert abs(rs.spins_matrix().astype(np.float64).mean()) < 0.02


class TestExactGroundState:
    def test_hand_example(self):
        problem = IsingProblem(2, h={0: 1.0, 1: -1.0}, J={(0, 1): 0.5})
        gs = exact_ground_state(problem)
        assert list(gs.spins) == [-1, 1]
        assert gs.energy == pytest.approx(-2.5)

    def test_tie_breaks_lexicographically(self):
        # ferromagnetic chain, no fields: all -1 and all +1 are degenerate
        problem = IsingProblem(5, J={(a, a + 1): -1.0 for a in range(4)})
        gs = exact_ground_state(problem)
        assert list(gs.spins) == [-1] * 5
        assert gs.energy == pytest.approx(-4.0)

    def test_matches_enumeration_oracle(self):
        for seed in range(10):
            problem = random_problem(
                complete_graph(8), ProblemGenSpec((-2, 2), (-1, 1), seed=seed))
            gs = exact_ground_state(problem)
            oracle_spins, oracle_energy = oracle_ground(problem)
            assert gs.energy == pytest.approx(oracle_energy, abs=1e-9)
            assert np.array_equal(gs.spins, oracle_spins)

    def test_tie_rule_matches_oracle_on_degenerate_problems(self):
        # small integer coefficients make exact ties common
        rng = np.random.default_rng(50)
        for _ in range(10):
            J = {(a, b): float(rng.integers(-1, 2))
                 for a in range(6) for b in range(a + 1, 6)}
            problem = IsingProblem(6, J={k: v for k, v in J.items() if v != 0.0})
            gs = exact_ground_state(problem)
            oracle_spins, oracle_energy = oracle_ground(problem)
            assert gs.energy == pytest.approx(oracle_energy, abs=1e-9)
            assert np.array_equal(gs.spins, oracle_spins)

    def test_flip_degenerate_energy(self):
        problem = make_chimera_problem(seed=33, rows=1, cols=1, h_range=(0, 0))
        gs = exact_ground_state(problem)
        assert problem.evaluate(-gs.spins) == pytest.approx(gs.energy, abs=1e-9)

    def test_beats_random_sampling(self):
        problem = make_chimera_problem(seed=40, rows=2, cols=1)
        gs = exact_ground_state(problem)
        rs = random_runs(problem, count=10000, seed=1)
        assert gs.energy <= rs.energies().min() + 1e-9

    def test_no_vertices(self):
        gs = exact_ground_state(IsingProblem(0))
        assert gs.spins.dtype == np.int8 and gs.spins.shape == (0,)
        assert gs.energy == 0.0

    def test_size_cap(self):
        problem = IsingProblem(26)
        with pytest.raises(SizeError):
            exact_ground_state(problem)

    def test_chunking_consistent(self, monkeypatch):
        problem = make_chimera_problem(seed=3, rows=2, cols=1)
        energies = []
        for bits in (6, 20):
            monkeypatch.setattr(samplers, "_EXACT_CHUNK_BITS", bits)
            energies.append(exact_ground_state(problem).energy)
        assert energies[0] == energies[1]
