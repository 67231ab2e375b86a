"""Scaling, quantization, and merge-across-scales behavior."""

import numpy as np
import pytest

from isingpp import (
    IsingProblem,
    PairingStrategy,
    PrecisionModel,
    ProblemGenSpec,
    RunSet,
    SamplerParams,
    ScaleSet,
    exact_ground_state,
    gibbs_sample,
    hpe,
    hpe_from_runsets,
    quantize_problem,
    random_runs,
    scale_problem,
    simulated_anneal,
)
from isingpp.errors import InputError, ParameterError
from isingpp.hpe import DEFAULT_SCALES, emulate, hpe_jobs
from isingpp.mqc import reduce_configs
from isingpp.rng import derive_seed

from conftest import make_chimera_problem


class TestPrecisionModel:
    def test_defaults(self):
        model = PrecisionModel()
        assert model.h_clip == (-2.0, 2.0)
        assert model.j_clip == (-1.0, 1.0)
        assert model.levels == 17

    def test_validation(self):
        with pytest.raises(ParameterError):
            PrecisionModel(h_clip=(2.0, -2.0))
        with pytest.raises(ParameterError):
            PrecisionModel(levels=1)


class TestScaleSet:
    def test_single_scale_allowed(self):
        s = ScaleSet((1.0,), runs_per_scale=4)
        assert s.scales == (1.0,)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ScaleSet((), runs_per_scale=4)
        with pytest.raises(ParameterError):
            ScaleSet((2.0, 1.0), runs_per_scale=4)
        with pytest.raises(ParameterError):
            ScaleSet((1.0, 1.0), runs_per_scale=4)
        with pytest.raises(ParameterError):
            ScaleSet((-1.0, 2.0), runs_per_scale=4)
        with pytest.raises(ParameterError):
            ScaleSet((1.0, 2.0), runs_per_scale=0)


class TestScaleProblem:
    def test_identity(self):
        problem = make_chimera_problem(seed=3, rows=1, cols=1)
        scaled = scale_problem(problem, 1.0)
        assert scaled.h == problem.h
        assert scaled.J == problem.J

    def test_doubling(self):
        problem = IsingProblem(1, h={0: 0.3})
        assert scale_problem(problem, 2.0).h == {0: pytest.approx(0.6)}

    def test_nonpositive_rejected(self):
        problem = IsingProblem(1, h={0: 0.3})
        with pytest.raises(ParameterError):
            scale_problem(problem, 0.0)
        with pytest.raises(ParameterError):
            scale_problem(problem, -1.0)

    def test_energy_linearity(self):
        rng = np.random.default_rng(2)
        problem = make_chimera_problem(seed=16, rows=1, cols=2)
        for _ in range(50):
            factor = float(rng.uniform(0.1, 10.0))
            scaled = scale_problem(problem, factor)
            spins = rng.choice([-1, 1], size=(20, 16))
            direct = scaled.evaluate_many(spins)
            expected = factor * problem.evaluate_many(spins)
            assert np.all(np.abs(direct - expected) <= 1e-9 * factor)

    def test_argmin_invariant(self):
        for seed in range(5):
            problem = make_chimera_problem(seed=600 + seed, rows=1, cols=1)
            base = exact_ground_state(problem)
            for factor in (0.5, 2.0, 7.3):
                scaled_gs = exact_ground_state(scale_problem(problem, factor))
                assert scaled_gs.same_spins(base)
                assert scaled_gs.energy == pytest.approx(
                    factor * base.energy, abs=1e-9 * factor)


class TestQuantizeProblem:
    def test_rounding_to_grid(self):
        # 17 levels on [-2, 2]: step 0.25
        model = PrecisionModel()
        p = quantize_problem(IsingProblem(1, h={0: 0.3}), model)
        assert p.h == {0: pytest.approx(0.25)}

    def test_scaled_value_rounds_differently(self):
        """Scaling before quantization moves values across grid cells; the
        two quantized problems are not scalar multiples of each other."""
        model = PrecisionModel()
        base = IsingProblem(2, h={0: 0.3, 1: 0.1})
        q1 = quantize_problem(base, model)
        q2 = quantize_problem(scale_problem(base, 2.0), model)
        assert q1.h == {0: pytest.approx(0.25), 1: pytest.approx(0.0)}
        assert q2.h == {0: pytest.approx(0.5), 1: pytest.approx(0.25)}
        # h1 vanished at scale 1 but survived at scale 2
        assert q2.h[1] != 2.0 * q1.h[1]

    def test_clipping(self):
        model = PrecisionModel()
        p = quantize_problem(IsingProblem(1, h={0: 5.0}), model)
        assert p.h == {0: pytest.approx(2.0)}
        p = quantize_problem(IsingProblem(2, J={(0, 1): -3.5}), model)
        assert p.J == {(0, 1): pytest.approx(-1.0)}

    def test_grid_points_unchanged(self):
        model = PrecisionModel()
        p = IsingProblem(3, h={0: -2.0, 1: 0.0, 2: 1.75}, J={(0, 1): -1.0, (1, 2): 0.125})
        q = quantize_problem(p, model)
        assert q.h == p.h
        assert q.J == p.J

    def test_idempotent(self):
        model = PrecisionModel(levels=9)
        for seed in range(10):
            problem = make_chimera_problem(seed=700 + seed, rows=1, cols=1)
            once = quantize_problem(problem, model)
            twice = quantize_problem(once, model)
            assert twice.h == once.h
            assert twice.J == once.J


def per_group_hpe_from_runsets(problem, runsets, strategy):
    """hpe_from_runsets as first written, kept as its specification: one
    reduce_configs call per group, then one over the group winners.
    Returns (final, per-scale bests, group winners)."""
    per_scale = [[problem.configuration(r.spins) for r in rs] for rs in runsets]
    group_winners = []
    for i in range(len(runsets[0])):
        winner, _ = reduce_configs(problem, [cfgs[i] for cfgs in per_scale], strategy)
        group_winners.append(winner)
    final, _ = reduce_configs(problem, group_winners, strategy)
    return final, [min(c.energy for c in cfgs) for cfgs in per_scale], group_winners


def energy_bits(values):
    return np.array(values, dtype=np.float64).tobytes()


class TestHpeFromRunsets:
    @pytest.mark.parametrize("strategy", list(PairingStrategy))
    @pytest.mark.parametrize("scale_count", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("unit_couplings", [False, True])
    def test_matches_per_group_reduction(self, strategy, scale_count, unit_couplings):
        problem = make_chimera_problem(seed=45, rows=2, cols=2)
        if unit_couplings:
            # Integer energies: many ties for rank order and inside tunnels.
            problem = IsingProblem(problem.vertex_count, {},
                                   {e: 1.0 if w > 0 else -1.0 for e, w in problem.J.items()})
        runsets = [random_runs(problem, count=27, seed=10 + k) for k in range(scale_count)]
        final, report = hpe_from_runsets(problem, runsets, strategy=strategy)
        want, per_scale_best, winners = per_group_hpe_from_runsets(problem, runsets, strategy)
        assert np.array_equal(final.spins, want.spins)
        assert energy_bits([final.energy, report.final_energy]) == \
            energy_bits([want.energy, want.energy])
        assert energy_bits(report.per_scale_best) == energy_bits(per_scale_best)
        assert energy_bits(report.group_energies) == energy_bits([w.energy for w in winners])

    @pytest.mark.parametrize("strategy", list(PairingStrategy))
    @pytest.mark.parametrize("runs", [1, 2, 3])
    def test_no_vertices(self, strategy, runs):
        problem = IsingProblem(0)
        runsets = [RunSet([problem.configuration([])] * runs, None, None)] * 3
        final, report = hpe_from_runsets(problem, runsets, strategy=strategy)
        assert final.spins.shape == (0,) and final.energy == report.final_energy == 0.0
        assert report.group_energies == (0.0,) * runs

    def test_single_scale_equals_plain_reduction(self):
        problem = make_chimera_problem(seed=36, rows=1, cols=2)
        rs = random_runs(problem, count=12, seed=5)
        final, report = hpe_from_runsets(problem, [rs])
        plain, _ = reduce_configs(
            problem, [problem.configuration(r.spins) for r in rs],
            PairingStrategy.SEQUENTIAL)
        assert final.same_spins(plain)
        assert report.final_energy == pytest.approx(plain.energy, abs=1e-9)

    def test_identical_runsets_change_nothing(self):
        problem = make_chimera_problem(seed=36, rows=1, cols=2)
        rs = random_runs(problem, count=8, seed=6)
        final, _ = hpe_from_runsets(problem, [rs, rs, rs])
        plain, _ = reduce_configs(
            problem, [problem.configuration(r.spins) for r in rs],
            PairingStrategy.SEQUENTIAL)
        assert final.same_spins(plain)

    def test_count_mismatch_rejected(self):
        problem = make_chimera_problem(seed=36, rows=1, cols=2)
        a = random_runs(problem, count=8, seed=1)
        b = random_runs(problem, count=6, seed=2)
        with pytest.raises(InputError):
            hpe_from_runsets(problem, [a, b])

    def test_empty_rejected(self):
        problem = make_chimera_problem(seed=36, rows=1, cols=2)
        with pytest.raises(InputError):
            hpe_from_runsets(problem, [])

    def test_scale_count_mismatch_rejected(self):
        problem = make_chimera_problem(seed=36, rows=1, cols=2)
        runsets = [random_runs(problem, count=4, seed=s) for s in range(3)]
        with pytest.raises(InputError, match="2 scales given for 3 run sets"):
            hpe_from_runsets(problem, runsets, scales=(1.0, 2.0))

    def test_unknown_strategy_rejected(self):
        problem = make_chimera_problem(seed=36, rows=1, cols=2)
        runsets = [random_runs(problem, count=4, seed=s) for s in range(2)]
        with pytest.raises(InputError, match="unknown pairing strategy 'bogus'"):
            hpe_from_runsets(problem, runsets, strategy="bogus")

    def test_report_energies_are_consistent(self):
        problem = make_chimera_problem(seed=37, rows=1, cols=2)
        runsets = [random_runs(problem, count=10, seed=s) for s in range(4)]
        final, report = hpe_from_runsets(problem, runsets, scales=(1, 2, 4, 8))
        assert report.scales == (1, 2, 4, 8)
        assert len(report.group_energies) == 10
        assert len(report.per_scale_best) == 4
        assert report.final_energy == final.energy
        assert final.energy <= min(report.group_energies) + 1e-9
        assert final.energy <= min(report.per_scale_best) + 1e-9


class TestHpe:
    def test_deterministic(self):
        problem = make_chimera_problem(seed=38, rows=1, cols=2)
        scaleset = ScaleSet((1.0, 2.0), runs_per_scale=6)
        params = SamplerParams(num_runs=6, seed=13, sweeps=25)
        a, _ = hpe(problem, scaleset, PrecisionModel(), params)
        b, _ = hpe(problem, scaleset, PrecisionModel(), params)
        assert a.same_spins(b)

    def test_unknown_strategy_rejected_before_sampling(self):
        calls = []

        def sampler(problem, params, problem_id=None):
            calls.append(problem_id)
            return random_runs(problem, params.num_runs, params.seed, problem_id=problem_id)

        problem = make_chimera_problem(seed=38, rows=1, cols=2)
        with pytest.raises(InputError, match="unknown pairing strategy 'bogus'"):
            hpe(problem, ScaleSet((1.0, 2.0), runs_per_scale=3), PrecisionModel(),
                SamplerParams(num_runs=3, seed=13), sampler=sampler, strategy="bogus")
        assert calls == []

    @pytest.mark.parametrize("fixed_beta", [None, 1.0])
    def test_no_vertices(self, fixed_beta):
        """A problem with no vertices gives the empty run at energy 0.0,
        with no sampler call, for the annealer and Gibbs alike."""
        calls = []

        def sampler(problem, params, problem_id=None):
            calls.append(problem_id)
            return random_runs(problem, params.num_runs, params.seed, problem_id=problem_id)

        problem = IsingProblem(0)
        params = SamplerParams(num_runs=5, seed=13, fixed_beta=fixed_beta)
        scaleset = ScaleSet((1.0, 2.0, 4.0), runs_per_scale=5)
        for fn in (sampler, simulated_anneal if fixed_beta is None else gibbs_sample):
            final, report = hpe(problem, scaleset, PrecisionModel(), params, sampler=fn)
            assert final.spins.shape == (0,) and final.energy == report.final_energy == 0.0
            assert report.per_scale_best == (0.0,) * 3
            assert report.group_energies == (0.0,) * 5
        assert calls == []

    def test_monotone_vs_all_inputs(self):
        """Final full-precision energy never exceeds the best input run,
        re-evaluated at full precision."""
        for seed in range(10):
            problem = make_chimera_problem(seed=800 + seed, rows=1, cols=2)
            scaleset = ScaleSet((1.0, 2.0, 4.0), runs_per_scale=5)
            params = SamplerParams(num_runs=5, seed=seed, sweeps=30)
            final, report = hpe(problem, scaleset, PrecisionModel(levels=9), params)
            assert final.energy <= min(report.per_scale_best) + 1e-9

    def test_per_scale_seeds_reproduce_runsets(self):
        """Scale k's runs come from the documented sub-seed, so the whole
        procedure is reconstructible from the master seed."""
        problem = make_chimera_problem(seed=39, rows=1, cols=1)
        model = PrecisionModel(levels=9)
        scaleset = ScaleSet((1.0, 4.0), runs_per_scale=4)
        params = SamplerParams(num_runs=4, seed=55, sweeps=20)
        final, report = hpe(problem, scaleset, model, params)

        from dataclasses import replace
        runsets = []
        for k, factor in enumerate(scaleset.scales):
            emulated = quantize_problem(scale_problem(problem, factor), model)
            sub = replace(params, seed=derive_seed(params.seed, "hpe_scale", k))
            runsets.append(simulated_anneal(emulated, sub))
        replayed, _ = hpe_from_runsets(problem, runsets, scales=scaleset.scales)
        assert replayed.same_spins(final)

    def test_jobs_share_the_emulated_copies(self):
        """``hpe_jobs`` of one set of ``emulate`` copies at two run counts:
        each job holds its copy itself, on the problem's graph, with the
        per-scale run count and scale k's documented sub-seed."""
        from dataclasses import replace
        problem = make_chimera_problem(seed=40, rows=1, cols=1)
        model = PrecisionModel(levels=9)
        copies = emulate(problem, (1.0, 4.0), model)
        params = SamplerParams(num_runs=1, seed=55, sweeps=20)
        for runs in (1, 6):
            jobs = hpe_jobs(copies, runs, params)
            assert all(job[0] is copy for job, copy in zip(jobs, copies, strict=True))
            assert [job[1] for job in jobs] == [
                replace(params, num_runs=runs, seed=derive_seed(55, "hpe_scale", k))
                for k in range(2)]
            assert all(job[2] is None for job in jobs)
        for copy in copies:
            assert np.array_equal(copy._edge_a, problem._edge_a)
            assert np.array_equal(copy._edge_b, problem._edge_b)

    @pytest.mark.parametrize("model", [PrecisionModel(), PrecisionModel(levels=9)])
    def test_emulate_copies_equal_quantized_scaled_problems(self, model):
        """At every default scale, the copy is the problem scaled, then
        quantized, in every array and in its content hash."""
        problem = make_chimera_problem(seed=41, rows=1, cols=2)
        for factor, copy in zip(DEFAULT_SCALES, emulate(problem, DEFAULT_SCALES, model),
                                strict=True):
            expected = quantize_problem(scale_problem(problem, factor), model)
            assert copy.content_hash() == expected.content_hash()
            for name in IsingProblem.__slots__[1:]:
                assert np.array_equal(getattr(copy, name), getattr(expected, name))

    def test_emulate_clips_scaled_coefficients_beyond_the_float_range(self):
        """At scale 8, h[0] overflows and the fields have no finite sum, so
        no scaled problem exists; the clipped copy does."""
        problem = IsingProblem(3, {0: 1e308, 1: 1e307, 2: -1e307}, {(0, 1): 0.5})
        with pytest.raises(ParameterError):
            scale_problem(problem, 8.0)
        model = PrecisionModel(levels=9)
        copies = emulate(problem, (1.0, 8.0), model)
        assert copies[0].h == copies[1].h == {0: 2.0, 1: 2.0, 2: -2.0}
        assert copies[1].J == {(0, 1): 1.0}
        with pytest.raises(ParameterError, match="positive"):
            emulate(problem, (0.0,), model)

    def test_beats_single_scale_on_fine_fields(self):
        """Fields of magnitude below half a 9-level grid step vanish at
        scale 1, so merging scaled copies usually wins. Calibrated: 49/50
        seeds at or below the single-scale result; frozen bar 60%."""
        model = PrecisionModel(levels=9)
        scaleset = ScaleSet((1.0, 2.0, 4.0, 8.0), runs_per_scale=16)
        wins = 0
        for seed in range(50):
            problem = make_chimera_problem(
                seed=8000 + seed, rows=2, cols=1, h_range=(-0.3, 0.3))
            params = SamplerParams(num_runs=16, seed=seed, sweeps=60)
            final, _ = hpe(problem, scaleset, model, params)

            emulated = quantize_problem(problem, model)
            from dataclasses import replace
            base_params = replace(params, seed=derive_seed(params.seed, "hpe_scale", 0))
            base_rs = simulated_anneal(emulated, base_params)
            base, _ = reduce_configs(
                problem, [problem.configuration(r.spins) for r in base_rs],
                PairingStrategy.SEQUENTIAL)
            if final.energy <= base.energy + 1e-9:
                wins += 1
        assert wins >= 30
