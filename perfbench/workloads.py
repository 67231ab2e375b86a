"""The benchmark's three workloads.

Each workload has a set-up that makes its inputs from the workload seed,
an untraced pass through the package's public entry points
(``run_experiment``, ``mqc_reduce`` or ``cli.main``), a replay pass that
does the same work through each layer's public functions with a span
around every call, and checks that compare the two passes and test the
outputs against computations of the benchmark's own (``checks``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from isingpp import cli
from isingpp.altpp import decompose_low_treewidth, optimize_subgraph, sample_persistence
from isingpp.harness import (
    METHODS,
    ExperimentConfig,
    build_report,
    load_records,
    mode_runset,
    problem_for,
    render_report,
    report_from_records,
    run_experiment,
    topology_graph,
    write_outputs,
)
from isingpp.hpe import PrecisionModel, hpe_from_runsets, quantize_problem, scale_problem
from isingpp.mqc import PairingStrategy, mqc_reduce, pair_runs, reduce_configs
from isingpp.rng import derive_seed
from isingpp.samplers import (
    BetaSchedule,
    Provenance,
    RunSet,
    SamplerParams,
    gibbs_sample,
    simulated_anneal,
)
from isingpp.serialize import load_problem, load_runset, save_problem, save_runset
from isingpp.topology import ProblemGenSpec, random_problem

import checks

STRATEGIES = {
    "mqc_sequential": PairingStrategy.SEQUENTIAL,
    "mqc_rank": PairingStrategy.RANK_ORDER,
    "mqc_maxdiff": PairingStrategy.MAX_DIFFERENCE,
}
SAMPLERS = {"raw": simulated_anneal, "sampling": gibbs_sample}
SAMPLER_SPANS = {simulated_anneal: "samplers.anneal", gibbs_sample: "samplers.gibbs"}
MODES = ("raw", "sampling")


def spin_updates(problem, runset) -> int:
    """Single-spin updates a sampler call made, from its recorded params."""
    p = runset.provenance.params
    if runset.provenance.sampler == "gibbs_sample":
        return (p["burn_in"] + p["num_runs"] * p["thinning"]) * problem.vertex_count
    return p["num_runs"] * p["sweeps"] * problem.vertex_count


def traced_sampler(t, fn, sizes=None):
    """``fn`` with a span and a spin-update count around every call.

    ``sizes`` collects the vertex count of every problem sampled, which
    shows how far sample persistence has frozen the problem.
    """
    def sampler(problem, params, problem_id=None):
        if sizes is not None:
            sizes.append(problem.vertex_count)
        with t.span(SAMPLER_SPANS[fn]):
            runset = fn(problem, params, problem_id=problem_id)
        t.count("samplers.spin_updates", spin_updates(problem, runset))
        return runset
    return sampler


def trace_counts(trace) -> dict:
    """Counters of a ReductionTrace."""
    pairs = [p for level in trace.levels for p in level.pairs]
    return {
        "mqc.levels": len(trace.levels),
        "mqc.merges": len(pairs),
        "mqc.tunnels": sum(len(p.tunnel_sizes) for p in pairs),
        "mqc.run2_adopted": sum(p.adopted.count(2) for p in pairs),
    }


def replay_mqc(problem, runset, strategy, t):
    """``mqc_reduce`` level by level: ``pair_runs`` picks each level's
    pairs under ``strategy`` and a two-run ``reduce_configs`` merges each
    pair. Returns the final configuration and the summed trace counters."""
    configs = list(runset.runs)
    totals = dict.fromkeys(("mqc.levels", "mqc.merges", "mqc.tunnels", "mqc.run2_adopted"), 0)
    while len(configs) > 1:
        with t.span("mqc.pairing"):
            pairs, leftover = pair_runs(
                RunSet(configs, runset.problem_id, runset.provenance), strategy)
        merged = []
        with t.span("mqc.merge"):
            for i, j in pairs:
                out, trace = reduce_configs(problem, (configs[i], configs[j]))
                merged.append(out)
                for key, value in trace_counts(trace).items():
                    if key != "mqc.levels":
                        totals[key] += value
        if leftover is not None:
            merged.append(configs[leftover])
        configs = merged
        totals["mqc.levels"] += 1
    for key, value in totals.items():
        t.count(key, value)
    return configs[0], totals


# ---------------------------------------------------------------- sweep


@dataclass
class Cell:
    """One (problem, mode) cell of the replayed sweep and its outputs."""

    index: int
    mode: str
    problem: object
    runset: object
    finals: dict = field(default_factory=dict)
    builtin: list = field(default_factory=list)
    last_subgraph: tuple = ()
    hpe_runsets: list = field(default_factory=list)


class Sweep:
    """``run_experiment`` with output files: 2 problems of the default
    4x4x4 Chimera family, 200 runs, both modes, all six methods."""

    name = "sweep"
    problems = 2
    run_count = 200

    def __init__(self, seeds):
        self.config = ExperimentConfig(
            problem_count=self.problems, gen_seed=seeds("gen"),
            master_seed=seeds("sample"), run_counts=(self.run_count,),
            modes=MODES, methods=METHODS,
        )
        cells = self.problems * len(MODES)
        self.runs_per_round = cells * self.run_count
        self.ops_per_round = cells * len(METHODS)

    def setup(self, t):
        return [problem_for(self.config, i) for i in range(self.problems)]

    def public_round(self, problems, ws):
        records, _ = run_experiment(self.config, os.path.join(ws, "public"))
        return records, 0

    def _params(self, mode, num_runs, seed):
        c = self.config
        if mode == "raw":
            return SamplerParams(num_runs=num_runs, seed=seed, sweeps=c.sa_sweeps,
                                 beta_schedule=BetaSchedule(c.sa_beta_start, c.sa_beta_end,
                                                            c.sa_interpolation))
        return SamplerParams(num_runs=num_runs, seed=seed, fixed_beta=c.gibbs_beta,
                             burn_in=c.gibbs_burn_in, thinning=c.gibbs_thinning)

    def replay_round(self, problems, ws, t):
        c = self.config
        records, cells = [], []
        for index, problem in enumerate(problems):
            for mode in c.modes:
                with t.span(SAMPLER_SPANS[SAMPLERS[mode]]):
                    runset = mode_runset(c, problem, index, mode, self.run_count)
                t.count("samplers.spin_updates", spin_updates(problem, runset))
                cell = Cell(index, mode, problem, runset)
                cells.append(cell)
                best_input = float(runset.energies().min())
                for method in c.methods:
                    with t.call("pp." + method):
                        fields = self._method(cell, method, t)
                    t.count("pp.energy_drop", best_input - fields["energy"])
                    records.append({
                        "problem": index, "problem_id": runset.problem_id,
                        "run_count": self.run_count, "mode": mode, "method": method,
                        "best_input": best_input, **fields,
                    })
        with t.span("harness.report"):
            rows = build_report(records, c)
            write_outputs(c, records, rows, os.path.join(ws, "replay"))
        return cells

    def _method(self, cell, method, t):
        c, problem, runset = self.config, cell.problem, cell.runset
        if method in STRATEGIES:
            final, counts = replay_mqc(problem, runset, STRATEGIES[method], t)
            cell.finals[method] = final
            return {"energy": final.energy, "levels": counts["mqc.levels"]}
        if method == "builtin_pp":
            with t.span("altpp.decompose"):
                subgraphs = decompose_low_treewidth(problem, c.width_cap)
            t.count("altpp.decompose_calls")
            t.count("altpp.subgraphs", len(subgraphs))
            t.maximum("altpp.max_width", max(s.width for s in subgraphs))
            for run in runset:
                with t.span("altpp.eliminate"):
                    for sub in subgraphs:
                        run = optimize_subgraph(problem, run, sub, c.width_cap)
                cell.builtin.append(run)
            t.count("altpp.eliminations", len(subgraphs) * len(runset))
            cell.last_subgraph = subgraphs[-1].vertices
            return {"energy": float(min(r.energy for r in cell.builtin))}
        if method == "sample_persistence":
            sizes = []
            params = self._params(cell.mode, len(runset), derive_seed(
                c.master_seed, "persistence", cell.mode, cell.index))
            with t.span("altpp.persistence_fix"):
                final = sample_persistence(
                    problem, traced_sampler(t, SAMPLERS[cell.mode], sizes), params,
                    threshold=c.persistence_threshold, rounds=c.persistence_rounds,
                    initial_runs=runset)
            # Round 0 reuses the input runs; every later round samples the
            # problem left after freezing, unless nothing was left.
            complete = len(sizes) == c.persistence_rounds - 1
            t.count("altpp.frozen_fraction_sum",
                    1.0 - sizes[-1] / problem.vertex_count if complete else 1.0)
            t.count("altpp.persistence_calls")
            cell.finals[method] = final
            return {"energy": final.energy}
        # hpe: emulate, sample and merge each scale as hpe() does.
        per_scale = max(1, len(runset) // len(c.hpe_scales))
        params = self._params(cell.mode, per_scale, derive_seed(
            c.master_seed, "hpe", cell.mode, cell.index))
        model = PrecisionModel(h_clip=c.h_range, j_clip=c.j_range, levels=c.hpe_levels)
        sampler = traced_sampler(t, SAMPLERS[cell.mode])
        for k, factor in enumerate(c.hpe_scales):
            with t.span("hpe.emulate"):
                emulated = quantize_problem(scale_problem(problem, factor), model)
            with t.span("hpe.sample"):
                cell.hpe_runsets.append(sampler(emulated, replace(
                    params, num_runs=per_scale, seed=derive_seed(params.seed, "hpe_scale", k))))
        with t.span("hpe.merge"):
            final, _ = hpe_from_runsets(problem, cell.hpe_runsets, scales=c.hpe_scales)
        cell.finals[method] = final
        return {"energy": final.energy}

    def energy_drop(self, problems, records):
        return sum(r["best_input"] - r["energy"] for r in records)

    def check(self, problems, records, cells, ws, failures):
        public, replay = os.path.join(ws, "public"), os.path.join(ws, "replay")
        top = checks.Checker({}, {}, failures)
        top.expect(len(records) == self.ops_per_round, "missing experiment records")
        checks.same_files(top, public, replay,
                          ("config.json", "results.jsonl", "report.json", "report.txt"))
        checks.check_report(top, os.path.join(public, "results.jsonl"),
                            os.path.join(public, "report.json"), self.problems)
        for cell in cells:
            ck = checks.Checker(cell.problem.h, cell.problem.J, failures)
            where = f"problem {cell.index} {cell.mode}"
            inputs = cell.runset.spins_matrix()
            in_energies = checks.batch_energies(ck.h, ck.J, inputs)
            best = float(in_energies.min())
            for r in records:
                if (r["problem"], r["mode"]) == (cell.index, cell.mode):
                    ck.expect(abs(r["best_input"] - best) <= checks.ENERGY_ATOL,
                              f"{where}: best_input {r['best_input']!r}, recomputed {best!r}")
            for method, final in cell.finals.items():
                ck.energy(final.spins, final.energy, f"{where} {method}")
                if method in STRATEGIES:
                    ck.not_above(final.energy, best, f"{where} {method} vs best input")
                # 200 Gibbs runs always leave merging something to gain; 200
                # anneals of 100 sweeps mostly hold the merged optimum.
                if method in STRATEGIES and cell.mode == "sampling":
                    ck.below(final.energy, best, f"{where} {method}: no energy drop")
            for k, run in enumerate(cell.builtin):
                energy = ck.energy(run.spins, run.energy, f"{where} builtin_pp run {k}")
                ck.not_above(energy, float(in_energies[k]), f"{where} builtin_pp run {k}")
                ck.conditionally_optimal(run.spins, cell.last_subgraph,
                                         f"{where} builtin_pp run {k}")
            per_scale_best = min(ck.best_of(rs.spins_matrix()) for rs in cell.hpe_runsets)
            ck.not_above(cell.finals["hpe"].energy, per_scale_best,
                         f"{where} hpe vs its per-scale runs")

    def self_test_data(self, problems, records, cells):
        cell = cells[-1]
        final = cell.finals["mqc_sequential"]
        return cell.problem.h, cell.problem.J, cell.runset.spins_matrix(), final.spins, final.energy


# ---------------------------------------------------------------- merge


class Merge:
    """``mqc_reduce`` under all three pairing strategies on 2,048-run sets
    of one default-family problem, sampled in set-up."""

    name = "merge"
    run_count = 2048
    # Gibbs at beta 1 gives few big tunnels; 2-sweep anneals (a random start
    # quenched at beta 5) give many small ones. Anneals of 3 or more sweeps
    # can already hold the merged optimum, which leaves merging nothing to
    # gain.
    inputs = (
        ("gibbs", gibbs_sample, dict(fixed_beta=1.0, burn_in=1000, thinning=1)),
        ("anneal", simulated_anneal, dict(sweeps=2)),
    )

    def __init__(self, seeds):
        self.seeds = seeds
        self.runs_per_round = len(self.inputs) * len(STRATEGIES) * self.run_count
        self.ops_per_round = len(self.inputs) * len(STRATEGIES)

    def setup(self, t):
        problem = problem_for(ExperimentConfig(problem_count=1, gen_seed=self.seeds("gen")), 0)
        runsets = [
            traced_sampler(t, fn)(problem, SamplerParams(
                num_runs=self.run_count, seed=self.seeds(name), **kw), problem_id=name)
            for name, fn, kw in self.inputs
        ]
        return problem, runsets

    def public_round(self, inputs, ws):
        problem, runsets = inputs
        return [mqc_reduce(problem, rs, strategy)
                for rs in runsets for strategy in STRATEGIES.values()], 0

    def replay_round(self, inputs, ws, t):
        problem, runsets = inputs
        out = []
        for rs in runsets:
            best_input = float(rs.energies().min())
            for method, strategy in STRATEGIES.items():
                with t.call("pp." + method):
                    final, counts = replay_mqc(problem, rs, strategy, t)
                t.count("pp.energy_drop", best_input - final.energy)
                out.append((final, counts))
        return out

    def energy_drop(self, inputs, results):
        _, runsets = inputs
        bests = [float(rs.energies().min()) for rs in runsets for _ in STRATEGIES]
        return sum(b - final.energy for b, (final, _) in zip(bests, results))

    def check(self, inputs, public, replay, ws, failures):
        problem, runsets = inputs
        ck = checks.Checker(problem.h, problem.J, failures)
        ck.expect(len(public) == len(replay) == self.ops_per_round, "missing merge results")
        labels = [(name, method) for name, _, _ in self.inputs for method in STRATEGIES]
        bests = [ck.best_of(rs.spins_matrix()) for rs in runsets for _ in STRATEGIES]
        for (name, method), best, (final, trace), (again, counts) in zip(
                labels, bests, public, replay):
            where = f"{name} set, {method}"
            ck.energy(final.spins, final.energy, where)
            ck.below(final.energy, best, f"{where}: no energy drop")
            ck.expect(final.same_spins(again), f"{where}: replay differs from mqc_reduce")
            ck.expect(trace_counts(trace) == counts,
                      f"{where}: replay counters {counts} differ from the ReductionTrace")

    def self_test_data(self, inputs, public, replay):
        problem, runsets = inputs
        final, _ = public[0]
        return problem.h, problem.J, runsets[0].spins_matrix(), final.spins, final.energy


# ---------------------------------------------------------------- files


TOPOLOGY = {"kind": "chimera", "rows": 4, "cols": 4, "shore": 4}
FILES_SAMPLER_ARGS = {"raw": ["--sweeps", "2"], "sampling": ["--thinning", "1"]}


def files_params(mode, num_runs, seed):
    """SamplerParams the CLI builds from FILES_SAMPLER_ARGS and its defaults."""
    if mode == "raw":
        return SamplerParams(num_runs=num_runs, seed=seed, sweeps=2,
                             beta_schedule=BetaSchedule(0.1, 5.0, "geometric"))
    return SamplerParams(num_runs=num_runs, seed=seed, fixed_beta=1.0,
                         burn_in=1000, thinning=1)


class Files:
    """The CLI pipeline gen -> sample -> pp --method mqc_sequential ->
    compare through ``isingpp.cli.main``, on 2 problems, both modes and
    2,048-run runs files."""

    name = "files"
    problems = 2
    run_count = 2048
    method = "mqc_sequential"

    def __init__(self, seeds):
        self.gen_seed = seeds("gen")
        self.pp_seed = seeds("pp")
        self.sample_seed = {(i, mode): seeds("sample", i, mode)
                            for i in range(self.problems) for mode in MODES}
        self.runs_per_round = self.problems * len(MODES) * self.run_count
        self.ops_per_round = 2 + 2 * self.problems * len(MODES)

    @staticmethod
    def _problem_path(root, i):
        return os.path.join(root, "problems", f"problem_{i:04d}.json")

    def _paths(self, root, i, mode):
        """Problem, runs and pp output files of one problem and mode."""
        return (self._problem_path(root, i), os.path.join(root, f"runs_{i}_{mode}.json"),
                os.path.join(root, f"pp_{i}_{mode}.json"))

    def setup(self, t):
        """The problems ``gen`` writes and the runs ``sample`` writes, made
        in memory."""
        graph, n = topology_graph(TOPOLOGY)
        problems = [
            random_problem(graph, ProblemGenSpec(
                h_range=(-2.0, 2.0), j_range=(-1.0, 1.0),
                seed=derive_seed(self.gen_seed, "problem", i)), vertex_count=n)
            for i in range(self.problems)
        ]
        runsets = {
            (i, mode): traced_sampler(t, SAMPLERS[mode])(
                problems[i], files_params(mode, self.run_count, seed),
                problem_id=f"problem_{i:04d}")
            for (i, mode), seed in self.sample_seed.items()
        }
        return problems, runsets

    def _write_results(self, root, runsets):
        """results.jsonl for ``compare``, from the pp output files."""
        with open(os.path.join(root, "results.jsonl"), "w", encoding="utf-8") as f:
            for (i, mode), rs in runsets.items():
                with open(self._paths(root, i, mode)[2], "r", encoding="utf-8") as g:
                    energy = json.load(g)["runs"][0]["energy"]
                f.write(json.dumps({
                    "problem": i, "run_count": self.run_count, "mode": mode,
                    "method": self.method, "energy": energy,
                    "best_input": float(rs.energies().min()),
                }, sort_keys=True) + "\n")

    def public_round(self, inputs, ws):
        _, runsets = inputs
        root = os.path.join(ws, "public")
        steps = [["gen", "--topology", "chimera", "--rows", "4", "--cols", "4",
                  "--shore", "4", "--count", str(self.problems),
                  "--seed", str(self.gen_seed), "--out", os.path.join(root, "problems")]]
        for (i, mode), seed in self.sample_seed.items():
            problem, runs, out = self._paths(root, i, mode)
            steps.append(["sample", "--problem", problem, "--mode", mode,
                          "--runs", str(self.run_count), "--seed", str(seed),
                          *FILES_SAMPLER_ARGS[mode], "--out", runs])
            steps.append(["pp", "--problem", problem, "--runs-file", runs,
                          "--method", self.method, "--seed", str(self.pp_seed),
                          "--out", out])
        steps.append(None)  # compare, once its results file is written
        failed = 0
        with contextlib.redirect_stdout(io.StringIO()):
            for k, argv in enumerate(steps):
                if argv is None:
                    self._write_results(root, runsets)
                    argv = ["compare", "--results", os.path.join(root, "results.jsonl"),
                            "--out", os.path.join(root, "report")]
                if cli.main(argv) != 0:
                    failed = len(steps) - k  # later steps read this one's output
                    break
        return root, failed

    def replay_round(self, inputs, ws, t):
        """The four commands composed from the functions they call."""
        _, runsets = inputs
        root = os.path.join(ws, "replay")
        os.makedirs(os.path.join(root, "problems"), exist_ok=True)

        def save(fn, obj, path):
            with t.span("serialize.save"):
                fn(obj, path)
            t.count("serialize.bytes_written", os.path.getsize(path))

        def load(fn, path, *args):
            with t.span("serialize.load"):
                obj = fn(path, *args)
            t.count("serialize.bytes_read", os.path.getsize(path))
            return obj

        with t.span("cli.gen"):
            graph, n = topology_graph(TOPOLOGY)
            for i in range(self.problems):
                problem = random_problem(graph, ProblemGenSpec(
                    h_range=(-2.0, 2.0), j_range=(-1.0, 1.0),
                    seed=derive_seed(self.gen_seed, "problem", i)), vertex_count=n)
                save(save_problem, problem, self._problem_path(root, i))
        for (i, mode), seed in self.sample_seed.items():
            problem_path, runs_path, out_path = self._paths(root, i, mode)
            with t.span("cli.sample"):
                problem = load(load_problem, problem_path)
                runset = traced_sampler(t, SAMPLERS[mode])(
                    problem, files_params(mode, self.run_count, seed),
                    problem_id=os.path.splitext(os.path.basename(problem_path))[0])
                save(save_runset, runset, runs_path)
            # The pp command, file I/O included, is one call of the method.
            with t.call("pp." + self.method), t.span("cli.pp"):
                problem = load(load_problem, problem_path)
                runset = load(load_runset, runs_path, problem)
                final, _ = replay_mqc(problem, runset, STRATEGIES[self.method], t)
                t.count("pp.energy_drop", float(runset.energies().min()) - final.energy)
                result = RunSet(runs=(final,), problem_id=runset.problem_id, provenance=Provenance(
                    sampler=self.method,
                    params={"source_sampler": runset.provenance.sampler,
                            "source_seed": runset.provenance.seed},
                    seed=self.pp_seed))
                save(save_runset, result, out_path)
        self._write_results(root, runsets)
        with t.span("cli.compare"), t.span("harness.report"):
            rows = report_from_records(load_records(os.path.join(root, "results.jsonl")))
            out = os.path.join(root, "report")
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as f:
                json.dump([r.to_dict() for r in rows], f, indent=2, sort_keys=True)
                f.write("\n")
            with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as f:
                f.write(render_report(rows))
        return root

    def _outputs(self):
        names = [os.path.join("problems", f"problem_{i:04d}.json") for i in range(self.problems)]
        for i, mode in self.sample_seed:
            names += [f"runs_{i}_{mode}.json", f"pp_{i}_{mode}.json"]
        return names + ["results.jsonl", "report/report.json", "report/report.txt"]

    def energy_drop(self, inputs, root):
        with open(os.path.join(root, "results.jsonl"), "r", encoding="utf-8") as f:
            return sum(r["best_input"] - r["energy"] for r in map(json.loads, f))

    def check(self, inputs, public, replay, ws, failures):
        problems, runsets = inputs
        top = checks.Checker({}, {}, failures)
        checks.same_files(top, public, replay, self._outputs())
        checks.check_report(top, os.path.join(public, "results.jsonl"),
                            os.path.join(public, "report", "report.json"), self.problems)
        for (i, mode), rs in runsets.items():
            problem_path, runs_path, out_path = self._paths(public, i, mode)
            h, J = checks.problem_dicts_from_file(problem_path)
            ck = checks.Checker(h, J, failures)
            where = f"problem {i} {mode}"
            ck.expect(h == problems[i].h and J == problems[i].J,
                      f"{where}: problem file differs from the generated problem")
            with open(runs_path, "r", encoding="utf-8") as f:
                stored = json.load(f)["runs"]
            spins = np.array([checks.parse_spins(r["spins"]) for r in stored])
            expected = rs.spins_matrix()
            ck.expect(spins.shape == expected.shape and bool((spins == expected).all()),
                      f"{where}: runs file spins differ from the in-memory runs")
            energies = checks.batch_energies(h, J, expected)
            stored_e = np.array([r["energy"] for r in stored])
            ck.expect(stored_e.shape == energies.shape
                      and bool((np.abs(stored_e - energies) <= checks.ENERGY_ATOL).all()),
                      f"{where}: runs file energies differ from the recomputed ones")
            with open(out_path, "r", encoding="utf-8") as f:
                (result,) = json.load(f)["runs"]
            energy = ck.energy(checks.parse_spins(result["spins"]), result["energy"],
                               f"{where} pp result")
            ck.below(energy, float(energies.min()), f"{where} pp result: no energy drop")

    def self_test_data(self, inputs, public, replay):
        problems, runsets = inputs
        _, _, out_path = self._paths(public, 0, "sampling")
        with open(out_path, "r", encoding="utf-8") as f:
            (result,) = json.load(f)["runs"]
        return (problems[0].h, problems[0].J, runsets[(0, "sampling")].spins_matrix(),
                checks.parse_spins(result["spins"]), result["energy"])


WORKLOADS = {w.name: w for w in (Sweep, Merge, Files)}
