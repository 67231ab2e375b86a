"""Pairwise run merging, pairing strategies, and the log-depth reduction."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from isingpp import (
    ChimeraSpec,
    ExperimentConfig,
    IsingProblem,
    PairingStrategy,
    ProblemGenSpec,
    SamplerParams,
    chimera_graph,
    complete_graph,
    disagreement_tunnels,
    gibbs_sample,
    mqc_pair,
    mqc_reduce,
    pair_runs,
    random_problem,
    random_runs,
    simulated_anneal,
    tunnel_contribution,
)
import isingpp
from isingpp import mqc
from isingpp.cli import main
from isingpp.errors import DimensionError, InputError, SizeError
from isingpp.harness import problem_for
from isingpp.mqc import reduce_configs

from conftest import make_chimera_problem

# Exact ground energies of the 20-vertex fragment problems used in
# TestMqcReduce.test_hit_rate_dominates_single_best (generation seeds
# 9000..9049), computed once by full enumeration.
FRAGMENT_GROUND_ENERGIES = [
    -20.40391978282458, -22.02611900195094, -24.018550614245672, -25.793368422653714, -24.48423982801763,
    -20.644542908692557, -28.38782427556052, -27.02693504925933, -22.37953563984511, -28.951548408586874,
    -24.57403711316008, -25.310632248456898, -30.536886820185327, -22.719013715449734, -28.061206607896153,
    -24.480830413925865, -24.56899077837135, -31.124850326016386, -29.750453744348082, -21.715485533702584,
    -31.01433959432915, -26.851868905803315, -22.721308142121607, -25.080677342400815, -24.20125400367568,
    -25.95868297015288, -24.852626170821416, -24.724107787643064, -29.30894066002573, -18.936921617699298,
    -25.547822283156126, -27.781279528998674, -22.90921689263672, -28.648405782283767, -21.360800434938675,
    -28.76214700838232, -23.376395647048398, -24.362625831496263, -25.549961018985684, -28.24866207170934,
    -22.446741423839, -27.226954980211435, -28.554210534878813, -26.82193336539066, -22.354113940843597,
    -31.302798505695677, -22.07677118269836, -22.44761164676374, -25.734973138222706, -26.691368740606805,
]


def fragment_graph():
    return [(a, b) for a, b in chimera_graph(ChimeraSpec(2, 2, 4))
            if a < 20 and b < 20]


class TestHammingDistance:
    """``mqc._distance_table``, the Hamming distances of max-difference
    pairing: entry (i, j) = (j, i) is the distance plus one for i != j,
    0 on the diagonal."""

    def test_examples(self):
        a, b, c = [1, -1, 1], [1, 1, 1], [-1, 1, -1]
        table = mqc._distance_table(np.array([a, a, b, c], dtype=np.int8))
        assert table.dtype == np.uint8
        assert table.tolist() == [[0, 1, 2, 4],
                                  [1, 0, 2, 4],
                                  [2, 2, 0, 3],
                                  [4, 4, 3, 0]]

    def test_symmetric(self):
        """Each unordered pair is held at (i, j) and (j, i), and equals the
        disagreement count from either run's side, plus one."""
        p = make_chimera_problem(seed=1, rows=1, cols=1)
        rs = random_runs(p, count=6, seed=2)
        table = mqc._distance_table(rs.spins_matrix())
        assert np.array_equal(table, table.T)
        for i in range(6):
            assert table[i, i] == 0
            for j in range(6):
                if i != j:
                    count = int(np.count_nonzero(rs[j].spins != rs[i].spins))
                    assert table[i, j] == count + 1

    @pytest.mark.parametrize("n, dtype", [(0, np.uint8), (254, np.uint8), (255, np.uint16),
                                          (65534, np.uint16), (65535, np.uint32)])
    def test_dtype_holds_the_largest_distance_plus_one(self, n, dtype):
        spins = np.array([[1] * n, [-1] * n], dtype=np.int8)
        table = mqc._distance_table(spins)
        assert table.dtype == dtype
        assert table.tolist() == [[0, n + 1], [n + 1, 0]]

    @pytest.mark.parametrize("n, runs", [(2, 10), (255, 7)])
    def test_table_limit_is_the_largest_size_allowed(self, monkeypatch, n, runs):
        """A table of exactly the limit is built; one run more is refused,
        at one byte a pair below 255 vertices and two from 255."""
        monkeypatch.setattr(mqc, "_TABLE_LIMIT", 100)
        spins = np.ones((runs + 1, n), dtype=np.int8)
        assert mqc._distance_table(spins[:runs]).shape == (runs, runs)
        with pytest.raises(SizeError, match=f"pairing of {runs + 1} runs .* limit of 100 bytes"):
            mqc._distance_table(spins)


class TestDisagreementTunnels:
    def test_tunnels_are_never_adjacent(self):
        rng = np.random.default_rng(64)
        problem = make_chimera_problem(seed=10)
        for _ in range(50):
            s1 = rng.choice([-1, 1], size=problem.vertex_count)
            s2 = rng.choice([-1, 1], size=problem.vertex_count)
            tunnels = disagreement_tunnels(
                problem, problem.configuration(s1), problem.configuration(s2))
            owner = {}
            for k, t in enumerate(tunnels):
                for v in t:
                    owner[v] = k
            assert sorted(owner) == np.nonzero(s1 != s2)[0].tolist()
            for a, b in problem.edge_list:
                if a in owner and b in owner:
                    assert owner[a] == owner[b]

    def test_identical_runs_give_no_tunnels(self):
        problem = make_chimera_problem(seed=10)
        c = problem.configuration(np.ones(problem.vertex_count, dtype=np.int8))
        assert disagreement_tunnels(problem, c, c) == []

    def test_length_mismatch(self):
        problem = IsingProblem(3, J={(0, 1): 1.0, (1, 2): 1.0})
        one = IsingProblem(1).configuration([1])
        five = IsingProblem(5).configuration([1, 1, 1, 1, -1])
        fits = problem.configuration([1, 1, 1])
        for run1, run2 in ((one, fits), (fits, one), (five, five)):
            with pytest.raises(DimensionError):
                disagreement_tunnels(problem, run1, run2)


class TestMqcPair:
    def test_identical_runs_pass_through(self):
        problem = make_chimera_problem(seed=4, rows=1, cols=1)
        c = problem.configuration(np.ones(problem.vertex_count, dtype=np.int8))
        merged = mqc_pair(problem, c, c)
        assert merged.same_spins(c)

    def test_path_hand_example(self):
        """Two tunnels, each decided independently, beat both inputs."""
        problem = IsingProblem(3, J={(0, 1): -1.0, (1, 2): -1.0})
        run1 = problem.configuration([-1, 1, 1])   # E = 0
        run2 = problem.configuration([1, 1, -1])   # E = 0
        merged = mqc_pair(problem, run1, run2)
        assert list(merged.spins) == [1, 1, 1]
        assert merged.energy == pytest.approx(-2.0)

    def test_complete_graph_selects_lower_energy_input(self):
        """A fully connected disagreement region is a single tunnel, so the
        merge can only pick a side."""
        rng = np.random.default_rng(8)
        for seed in range(10):
            problem = random_problem(
                complete_graph(8), ProblemGenSpec((-2, 2), (-1, 1), seed=seed))
            for _ in range(10):
                r1 = problem.configuration(rng.choice([-1, 1], size=8))
                r2 = problem.configuration(rng.choice([-1, 1], size=8))
                merged = mqc_pair(problem, r1, r2)
                if r1.energy <= r2.energy:
                    assert merged.same_spins(r1)
                else:
                    assert merged.same_spins(r2)

    def test_tie_adopts_run1(self):
        # no fields, full flip: both sides contribute 0, so run1 must win
        problem = random_problem(
            complete_graph(6), ProblemGenSpec((0, 0), (-1, 1), seed=3))
        rng = np.random.default_rng(5)
        s = rng.choice([-1, 1], size=6)
        r1 = problem.configuration(s)
        r2 = problem.configuration(-s)
        assert r1.energy == r2.energy
        assert mqc_pair(problem, r1, r2).same_spins(r1)

    def test_monotone_and_agreement_preserving(self):
        """Merged energy never exceeds either input; agreed spins survive;
        each tunnel comes wholesale from one side."""
        rng = np.random.default_rng(12)
        problem = make_chimera_problem(seed=2)
        sa = simulated_anneal(problem, SamplerParams(num_runs=20, seed=1, sweeps=15))
        rr = random_runs(problem, count=20, seed=2)
        pool = list(sa) + list(rr)
        for _ in range(300):
            r1, r2 = (pool[int(k)] for k in rng.choice(len(pool), 2, replace=False))
            merged = mqc_pair(problem, r1, r2)
            assert merged.energy <= min(r1.energy, r2.energy) + 1e-9
            agree = r1.spins == r2.spins
            assert np.array_equal(merged.spins[agree], r1.spins[agree])
            for t in disagreement_tunnels(problem, r1, r2):
                verts = list(t)
                from_r1 = np.array_equal(merged.spins[verts], r1.spins[verts])
                from_r2 = np.array_equal(merged.spins[verts], r2.spins[verts])
                assert from_r1 or from_r2

    def test_adopted_side_has_lower_contribution(self):
        rng = np.random.default_rng(18)
        problem = make_chimera_problem(seed=25, rows=1, cols=2)
        for _ in range(40):
            r1 = problem.configuration(rng.choice([-1, 1], size=16))
            r2 = problem.configuration(rng.choice([-1, 1], size=16))
            merged = mqc_pair(problem, r1, r2)
            for t in disagreement_tunnels(problem, r1, r2):
                c1 = tunnel_contribution(problem, r1, t)
                c2 = tunnel_contribution(problem, r2, t)
                assert c2 == pytest.approx(-c1, abs=1e-9)
                verts = list(t)
                took_r2 = np.array_equal(merged.spins[verts], r2.spins[verts]) \
                    and not np.array_equal(r1.spins[verts], r2.spins[verts])
                assert took_r2 == (c1 > c2 + 1e-12)

    def test_energy_cache_is_fresh(self):
        problem = make_chimera_problem(seed=2, rows=1, cols=1)
        rs = random_runs(problem, count=2, seed=9)
        merged = mqc_pair(problem, rs[0], rs[1])
        assert merged.energy == problem.evaluate(merged.spins)

    def test_length_mismatch(self):
        problem = make_chimera_problem(seed=2, rows=1, cols=1)
        short = IsingProblem(2).configuration([1, -1])
        with pytest.raises(DimensionError):
            mqc_pair(problem, short, short)


class TestPairRuns:
    def test_sequential_odd(self):
        problem = make_chimera_problem(seed=1, rows=1, cols=1)
        rs = random_runs(problem, count=5, seed=1)
        pairs, leftover = pair_runs(rs, PairingStrategy.SEQUENTIAL)
        assert pairs == [(0, 1), (2, 3)]
        assert leftover == 4

    def test_rank_order_sorts_by_energy(self):
        problem = IsingProblem(4, h={a: 1.0 for a in range(4)})
        # energies 5,1,3,2 via crafted spin patterns is awkward; build
        # configurations directly with the energies we need
        configs = [
            problem.configuration([1, 1, 1, 1]),     # 4
            problem.configuration([-1, -1, -1, -1]),  # -4
            problem.configuration([1, -1, 1, -1]),    # 0
            problem.configuration([-1, -1, -1, 1]),   # -2
        ]
        pairs, leftover = reduce_pairs_for(configs, PairingStrategy.RANK_ORDER)
        # ascending energy: index 1 (-4), 3 (-2), 2 (0), 0 (4)
        assert pairs == [(1, 3), (2, 0)]
        assert leftover is None

    def test_rank_order_ties_stable_by_index(self):
        problem = IsingProblem(2, h={0: 1.0})
        configs = [
            problem.configuration([1, 1]),    # 1
            problem.configuration([1, -1]),   # 1
            problem.configuration([-1, 1]),   # -1
        ]
        pairs, leftover = reduce_pairs_for(configs, PairingStrategy.RANK_ORDER)
        assert pairs == [(2, 0)]
        assert leftover == 1

    def test_max_difference_hand_example(self):
        problem = IsingProblem(3)
        configs = [
            problem.configuration([1, 1, 1]),
            problem.configuration([-1, -1, -1]),
            problem.configuration([1, 1, -1]),
            problem.configuration([-1, 1, 1]),
        ]
        pairs, leftover = reduce_pairs_for(configs, PairingStrategy.MAX_DIFFERENCE)
        # d(0,1)=3 dominates, then d(2,3)=2
        assert pairs == [(0, 1), (2, 3)]
        assert leftover is None

    def test_max_difference_tie_takes_smallest_pair(self):
        problem = IsingProblem(2)
        configs = [
            problem.configuration([1, 1]),
            problem.configuration([-1, -1]),
            problem.configuration([-1, -1]),
            problem.configuration([1, 1]),
        ]
        # distances: (0,1)=(0,2)=(1,3)=(2,3)=2, (0,3)=(1,2)=0
        pairs, _ = reduce_pairs_for(configs, PairingStrategy.MAX_DIFFERENCE)
        assert pairs == [(0, 1), (2, 3)]

    def test_single_run(self):
        problem = make_chimera_problem(seed=1, rows=1, cols=1)
        rs = random_runs(problem, count=1, seed=1)
        for strategy in PairingStrategy:
            pairs, leftover = pair_runs(rs, strategy)
            assert pairs == []
            assert leftover == 0

    @pytest.mark.parametrize("strategy", list(PairingStrategy))
    @pytest.mark.parametrize("count", [2, 5, 8, 13])
    def test_partition_property(self, strategy, count):
        problem = make_chimera_problem(seed=3, rows=1, cols=1)
        rs = random_runs(problem, count=count, seed=count)
        pairs, leftover = pair_runs(rs, strategy)
        seen = [i for pair in pairs for i in pair]
        if leftover is not None:
            seen.append(leftover)
        assert sorted(seen) == list(range(count))
        assert (leftover is None) == (count % 2 == 0)

    @pytest.mark.parametrize("strategy", ["bogus", "MAX_DIFFERENCE", None])
    def test_unknown_strategy_names_the_three(self, strategy):
        problem = make_chimera_problem(seed=3, rows=1, cols=1)
        rs = random_runs(problem, count=4, seed=4)
        for call in (lambda: pair_runs(rs, strategy),
                     lambda: mqc_reduce(problem, rs, strategy),
                     lambda: reduce_configs(problem, list(rs), strategy)):
            with pytest.raises(InputError, match=f"unknown pairing strategy {strategy!r}; "
                               "expected one of sequential, rank_order, max_difference"):
                call()

    def test_max_difference_memory_is_one_small_table(self):
        """2,048 runs of 128 vertices: the uint8 distance table is 4 MiB;
        the int16 table peaked at 13 MiB, the pair-list version at 153 MiB."""
        problem = make_chimera_problem(seed=5, rows=4, cols=4)
        rs = random_runs(problem, count=2048, seed=5)
        tracemalloc.start()
        try:
            pairs, leftover = pair_runs(rs, PairingStrategy.MAX_DIFFERENCE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) == 1024 and leftover is None
        assert peak < 8 * 2**20

    def test_max_difference_refuses_a_table_above_the_limit(self):
        """32,768 runs of 2 vertices would take a 1 GiB table, the limit;
        32,769 are refused before any table is built."""
        problem = IsingProblem(2)
        spins = np.tile(np.array([[1, -1], [-1, 1]], dtype=np.int8), (16385, 1))[:32769]
        rs = isingpp.RunSet.from_matrix(spins, problem.evaluate_many(spins), None, None)
        tracemalloc.start()
        try:
            for call in (lambda: pair_runs(rs, PairingStrategy.MAX_DIFFERENCE),
                         lambda: mqc_reduce(problem, rs, PairingStrategy.MAX_DIFFERENCE)):
                with pytest.raises(SizeError, match="pairing of 32769 runs .* limit of "
                                   "1073741824 bytes"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_cli_pp_refuses_a_table_above_the_limit(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"vertex_count": 2, "h": [[0, 0.5]], "J": [[0, 1, -1.0]]}),
                           encoding="utf-8")
        runs = tmp_path / "runs.json"
        assert main(["sample", "--problem", str(problem), "--mode", "random",
                     "--runs", "32769", "--out", str(runs)]) == 0
        capsys.readouterr()
        out = tmp_path / "pp.json"
        assert main(["pp", "--problem", str(problem), "--runs-file", str(runs),
                     "--method", "mqc_maxdiff", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "32769 runs" in err and "limit" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_kept_trace_memory_is_columns(self):
        """2,048 Gibbs runs of a default problem: the trace of a sequential
        reduction is kept as a few arrays per level. One PairMerge of
        tuples per pair held 2.4-2.5 MB; the columns hold about 0.37 MB."""
        problem = problem_for(ExperimentConfig(problem_count=1), 0)
        rs = gibbs_sample(problem, SamplerParams(num_runs=2048, seed=5, fixed_beta=1.0,
                                                 burn_in=1000, thinning=1))
        tracemalloc.start()
        try:
            kept = mqc_reduce(problem, rs, PairingStrategy.SEQUENTIAL)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert sum(len(level.pairs) for level in kept[1].levels) == 2047
        assert held < 0.75e6


def reduce_pairs_for(configs, strategy):
    """pair_runs of hand-built config lists, their energies as given."""
    return pair_runs(isingpp.RunSet(list(configs), None, None), strategy)


class TestMqcReduce:
    def test_single_run_unchanged(self):
        problem = make_chimera_problem(seed=1, rows=1, cols=1)
        rs = random_runs(problem, count=1, seed=5)
        final, trace = mqc_reduce(problem, rs, PairingStrategy.SEQUENTIAL)
        assert final.same_spins(rs[0])
        assert trace.levels == ()

    @pytest.mark.parametrize("strategy", list(PairingStrategy))
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_no_vertices(self, strategy, count):
        """Runs of a problem with no vertices reduce to the empty run of
        energy 0.0, level by level, as any other runs do."""
        problem = IsingProblem(0)
        runs = [problem.configuration([])] * count
        final, trace = mqc_reduce(problem, isingpp.RunSet(runs, None, None), strategy)
        assert final.spins.shape == (0,) and final.energy == 0.0
        assert [level.size for level in trace.levels] == {1: [], 2: [2], 5: [5, 3, 2]}[count]
        assert all(not level.tunnel_counts.any() for level in trace.levels)
        final, other = reduce_configs(problem, runs, strategy)
        assert final.spins.shape == (0,) and final.energy == 0.0 and other == trace

    def test_keeps_ground_state_when_present(self):
        from isingpp import exact_ground_state
        problem = make_chimera_problem(seed=44, rows=2, cols=1)
        gs = exact_ground_state(problem)
        rs = random_runs(problem, count=15, seed=3)
        configs = list(rs) + [gs]
        final, _ = reduce_configs(problem, configs, PairingStrategy.RANK_ORDER)
        assert final.energy == pytest.approx(gs.energy, abs=1e-9)

    @pytest.mark.parametrize("strategy", list(PairingStrategy))
    def test_monotone_under_all_strategies(self, strategy):
        problem = make_chimera_problem(seed=19)
        for seed in range(10):
            rs = random_runs(problem, count=17, seed=seed)
            final, _ = mqc_reduce(problem, rs, strategy)
            assert final.energy <= rs.energies().min() + 1e-9

    def test_trace_level_sizes_power_of_two(self):
        problem = make_chimera_problem(seed=3, rows=1, cols=1)
        rs = random_runs(problem, count=8, seed=2)
        final, trace = mqc_reduce(problem, rs, PairingStrategy.SEQUENTIAL)
        assert [lv.size for lv in trace.levels] == [8, 4, 2]
        assert all(lv.leftover is None for lv in trace.levels)
        assert [len(lv.pairs) for lv in trace.levels] == [4, 2, 1]

    def test_trace_level_sizes_odd(self):
        problem = make_chimera_problem(seed=3, rows=1, cols=1)
        rs = random_runs(problem, count=7, seed=2)
        final, trace = mqc_reduce(problem, rs, PairingStrategy.SEQUENTIAL)
        assert [lv.size for lv in trace.levels] == [7, 4, 2]
        assert trace.levels[0].leftover == 6
        assert len(trace.levels[0].pairs) == 3

    def test_trace_serializes(self):
        problem = make_chimera_problem(seed=3, rows=1, cols=1)
        rs = random_runs(problem, count=5, seed=2)
        _, trace = mqc_reduce(problem, rs, PairingStrategy.MAX_DIFFERENCE)
        d = trace.to_dict()
        assert d["strategy"] == "max_difference"
        json.dumps(d)

    def test_deterministic(self):
        problem = make_chimera_problem(seed=3)
        rs = random_runs(problem, count=21, seed=6)
        a, trace_a = mqc_reduce(problem, rs, PairingStrategy.MAX_DIFFERENCE)
        b, trace_b = mqc_reduce(problem, rs, PairingStrategy.MAX_DIFFERENCE)
        assert a.same_spins(b)
        assert trace_a.to_dict() == trace_b.to_dict()

    def test_hit_rate_dominates_single_best(self):
        """Reduction can only match or beat the best run of the set, so its
        ground-state hit rate is at least the single-best-run rate."""
        graph = fragment_graph()
        reduce_hits = best_hits = 0
        for seed in range(50):
            problem = random_problem(
                graph, ProblemGenSpec((-2, 2), (-1, 1), seed=9000 + seed),
                vertex_count=20)
            ground = FRAGMENT_GROUND_ENERGIES[seed]
            rs = simulated_anneal(
                problem, SamplerParams(num_runs=64, seed=seed, sweeps=25))
            final, _ = mqc_reduce(problem, rs, PairingStrategy.SEQUENTIAL)
            assert final.energy >= ground - 1e-9
            if abs(final.energy - ground) <= 1e-9:
                reduce_hits += 1
            if abs(rs.best().energy - ground) <= 1e-9:
                best_hits += 1
        assert reduce_hits >= best_hits

    def test_empty_rejected(self):
        problem = make_chimera_problem(seed=3, rows=1, cols=1)
        with pytest.raises(InputError):
            reduce_configs(problem, [], PairingStrategy.SEQUENTIAL)

    def test_wrong_length_rejected(self):
        problem = make_chimera_problem(seed=3, rows=1, cols=1)
        other = IsingProblem(2).configuration([1, 1])
        with pytest.raises(DimensionError):
            reduce_configs(problem, [other, other], PairingStrategy.SEQUENTIAL)

    @pytest.mark.parametrize("strategy", list(PairingStrategy))
    def test_every_run_length_checked_before_pairing(self, strategy):
        problem = make_chimera_problem(seed=3, rows=1, cols=1)
        configs = list(random_runs(problem, count=9, seed=4))
        configs[5] = IsingProblem(2).configuration([1, 1])
        configs[7] = IsingProblem(9).configuration([1] * 9)
        with pytest.raises(DimensionError, match="run 5 "):
            reduce_configs(problem, configs, strategy)

    @pytest.mark.parametrize("strategy", list(PairingStrategy))
    def test_row_blocks_do_not_change_reduction(self, strategy, monkeypatch):
        """Levels merged in blocks of 1, 3 or 7 pairs give the trace and
        final spins of the default blocks."""
        problem = make_chimera_problem(seed=6, rows=4, cols=4)
        rs = simulated_anneal(problem, SamplerParams(num_runs=2047, seed=6, sweeps=2))
        final, trace = mqc_reduce(problem, rs, strategy)
        for block in (1, 3, 7):
            monkeypatch.setattr(mqc, "_ROW_BLOCK", block)
            again, trace_again = mqc_reduce(problem, rs, strategy)
            assert again.same_spins(final) and again.energy == final.energy
            assert trace_again.to_dict() == trace.to_dict()

    def test_sequential_memory_is_bounded(self):
        """2,048 random runs of 128 vertices: pairs are merged 256 at a
        time; merging a whole level at once peaked at 13-15 MiB."""
        problem = make_chimera_problem(seed=5, rows=4, cols=4)
        rs = random_runs(problem, count=2048, seed=5)
        tracemalloc.start()
        try:
            mqc_reduce(problem, rs, PairingStrategy.SEQUENTIAL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def test_merging_imports_no_scipy():
    """Every merge and pairing path runs on numpy alone."""
    script = (
        "import sys\n"
        "import isingpp as ip\n"
        "from isingpp.mqc import disagreement_tunnels\n"
        "p = ip.random_problem(ip.chimera_graph(ip.ChimeraSpec(2, 2, 4)),\n"
        "                      ip.ProblemGenSpec((-2, 2), (-1, 1), seed=1))\n"
        "rs = ip.random_runs(p, count=33, seed=2)\n"
        "for strategy in ip.PairingStrategy:\n"
        "    ip.mqc_reduce(p, rs, strategy)\n"
        "disagreement_tunnels(p, rs[0], rs[1])\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    src = os.path.dirname(os.path.dirname(isingpp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
