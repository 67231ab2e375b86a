"""Experiment harness: generate problems, sample, post-process, compare.

One experiment sweeps a set of seeded random problems over run counts,
sampling modes, and post-processing methods, then tabulates pairwise
energy comparisons: for every method pair the counts of instances where
the energies are equal (within 1e-9), where the first is lower, and where
the second is lower. Cross-mode rows compare the same method on the raw
and sampling run sets. Every byte of output is a function of the config,
so re-running a config reproduces identical files.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from typing import NamedTuple

from .altpp import (DEFAULT_PERSISTENCE_ROUNDS, DEFAULT_PERSISTENCE_THRESHOLD,
                    DEFAULT_WIDTH_CAP, MAX_WIDTH, builtin_opt_pp, sample_persistence)
from .core import ENERGY_ATOL, IsingProblem
from .errors import ConfigError, InputError, ParameterError
from .hpe import (DEFAULT_LEVELS, DEFAULT_SCALES, PrecisionModel, ScaleSet, emulate,
                  hpe_from_runsets, hpe_jobs, sample_scales)
from .mqc import PairingStrategy, mqc_reduce
from .rng import derive_seed
from .samplers import (
    DEFAULT_BETA_END,
    DEFAULT_BETA_START,
    DEFAULT_BURN_IN,
    DEFAULT_INTERPOLATION,
    DEFAULT_SWEEPS,
    DEFAULT_THINNING,
    BetaSchedule,
    RunSet,
    SamplerParams,
    gibbs_sample,
    random_runs,
    sample_many,
    simulated_anneal,
)
# load_records is imported from here too, by the CLI and the benchmark.
from .serialize import is_type, load_records, read_json, write_json, write_records, write_text
from .topology import (
    ChimeraSpec,
    ProblemGenSpec,
    chimera_graph,
    complete_graph,
    grid_graph,
    path_graph,
    random_problem,
)

# The sampler of each mode: annealing for raw, Gibbs for sampling.
SAMPLERS = {"raw": simulated_anneal, "sampling": gibbs_sample}
MODES = tuple(SAMPLERS)
_MQC_STRATEGY = {
    "mqc_sequential": PairingStrategy.SEQUENTIAL,
    "mqc_rank": PairingStrategy.RANK_ORDER,
    "mqc_maxdiff": PairingStrategy.MAX_DIFFERENCE,
}
# Problems whose input runs of one mode, at every run count, are sampled in
# one call, and whose cells each method's function takes at once; their
# run sets are held until the block's records are out.
_PROBLEM_BLOCK = 16
# Time bench_reduce spends on each run count in each of its rounds.
_BENCH_ROUND_SECONDS = 0.2


# Element type of each sequence field of ExperimentConfig.
_SEQUENCE_ITEMS = {
    "h_range": "float", "j_range": "float", "run_counts": "int",
    "modes": "str", "methods": "str", "hpe_scales": "float",
}


def _chimera(rows, cols, shore):
    spec = ChimeraSpec(rows, cols, shore)
    return chimera_graph(spec), spec.vertex_count


# Each topology kind's integer parameters, and the builder that takes
# them, in that order, and returns (edge list, vertex count).
TOPOLOGIES = {
    "chimera": (("rows", "cols", "shore"), _chimera),
    "complete": (("n",), lambda n: (complete_graph(n), n)),
    "path": (("n",), lambda n: (path_graph(n), n)),
    "grid": (("rows", "cols"), lambda rows, cols: (grid_graph(rows, cols), rows * cols)),
}


def default_topology() -> dict:
    return {"kind": "chimera", "rows": 4, "cols": 4, "shore": 4}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run of the harness depends on."""

    topology: dict = field(default_factory=default_topology)
    problem_count: int = 50
    gen_seed: int = 316
    h_range: tuple = (-2.0, 2.0)
    j_range: tuple = (-1.0, 1.0)
    run_counts: tuple = (200, 400)
    modes: tuple = MODES
    methods: tuple = (*_MQC_STRATEGY, "builtin_pp")
    master_seed: int = 2024
    sa_sweeps: int = DEFAULT_SWEEPS
    sa_beta_start: float = DEFAULT_BETA_START
    sa_beta_end: float = DEFAULT_BETA_END
    sa_interpolation: str = DEFAULT_INTERPOLATION
    gibbs_beta: float = 1.0
    gibbs_burn_in: int = DEFAULT_BURN_IN
    gibbs_thinning: int = DEFAULT_THINNING
    width_cap: int = DEFAULT_WIDTH_CAP
    persistence_threshold: float = DEFAULT_PERSISTENCE_THRESHOLD
    persistence_rounds: int = DEFAULT_PERSISTENCE_ROUNDS
    hpe_scales: tuple = DEFAULT_SCALES
    hpe_levels: int = DEFAULT_LEVELS

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _SEQUENCE_ITEMS:
                kind = _SEQUENCE_ITEMS[f.name]
                if not isinstance(value, (list, tuple)) or not all(
                        is_type(v, kind) for v in value):
                    raise ConfigError(f"{f.name} must be a list of {kind}, got {value!r}")
            elif not is_type(value, f.type):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        for name, kind in _SEQUENCE_ITEMS.items():
            convert = {"int": int, "float": float, "str": str}[kind]
            object.__setattr__(self, name, tuple(map(convert, getattr(self, name))))
        if self.problem_count < 1:
            raise ConfigError(f"problem_count must be positive, got {self.problem_count}")
        for name in ("h_range", "j_range"):
            if len(getattr(self, name)) != 2:
                raise ConfigError(f"{name} must hold two numbers, got {getattr(self, name)}")
        try:
            ProblemGenSpec(self.h_range, self.j_range, 0)  # the owner of the range rules
        except ParameterError as e:
            raise ConfigError(str(e)) from e
        if not self.run_counts or any(n < 1 for n in self.run_counts):
            raise ConfigError(f"run_counts must be positive, got {self.run_counts}")
        if not self.modes or any(m not in MODES for m in self.modes):
            raise ConfigError(f"modes must be a nonempty subset of {MODES}, got {self.modes}")
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ConfigError(
                f"methods must be a nonempty subset of {METHODS}, got {self.methods}"
            )
        for name in ("run_counts", "modes", "methods"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ConfigError(f"duplicate {name} in {getattr(self, name)}")
        # Parameters of the listed methods only, so unused ones stay free.
        if "builtin_pp" in self.methods and not 1 <= self.width_cap <= MAX_WIDTH:
            raise ConfigError(f"width_cap must lie in 1..{MAX_WIDTH}, got {self.width_cap}")
        if "sample_persistence" in self.methods:
            if not (0.5 < self.persistence_threshold <= 1.0):
                raise ConfigError(f"persistence_threshold must lie in (0.5, 1], "
                                  f"got {self.persistence_threshold}")
            if self.persistence_rounds < 1:
                raise ConfigError(
                    f"persistence_rounds must be positive, got {self.persistence_rounds}")
            # Every round but the last freezes on agreement between runs.
            if self.persistence_rounds >= 2 and min(self.run_counts) < 2:
                raise ConfigError(
                    f"run_counts must be at least 2 for sample_persistence with "
                    f"{self.persistence_rounds} rounds, got {self.run_counts}")
        if "hpe" in self.methods:
            # The parameter types hpe() takes check their own values.
            for name, build in (("hpe_scales", ScaleSet),
                                ("h_range", lambda r: PrecisionModel(h_clip=r)),
                                ("j_range", lambda r: PrecisionModel(j_clip=r)),
                                ("hpe_levels", lambda n: PrecisionModel(levels=n))):
                try:
                    build(getattr(self, name))
                except ValueError as e:
                    raise ConfigError(f"{name} does not suit hpe: {e}") from e

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in _SEQUENCE_ITEMS:
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(doc).__name__}")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(read_json(path, ConfigError))


def topology_graph(topology: dict):
    """Edge list and vertex count for a topology description."""
    kind = topology.get("kind")
    if not isinstance(kind, str) or kind not in TOPOLOGIES:
        raise ConfigError(f"unknown topology kind {kind!r}")
    keys, build = TOPOLOGIES[kind]
    unknown = set(topology) - {"kind", *keys}
    if unknown:
        raise ConfigError(f"unknown topology keys {sorted(unknown, key=repr)}; "
                          f"topology {kind!r} takes {list(keys)}")
    for key in keys:
        if not is_type(topology.get(key), "int"):
            raise ConfigError(
                f"topology {kind!r} needs an integer {key!r}, got {topology.get(key)!r}"
            )
    return build(*(topology[key] for key in keys))


def problem_family(topology: dict, h_range, j_range):
    """The function from a seed to the random problem on ``topology``
    whose fields and couplings are uniform in ``h_range`` and ``j_range``."""
    graph, n = topology_graph(topology)
    # Built once, so bad ranges fail before any problem is drawn.
    spec = ProblemGenSpec(h_range, j_range, 0)
    # IsingProblem needs a finite absolute sum of every draw's coefficients.
    h_top, j_top = (max(map(abs, r)) for r in (spec.h_range, spec.j_range))
    if not math.isfinite(n * h_top + len(graph) * j_top):
        raise ParameterError(f"h_range {spec.h_range} and j_range {spec.j_range} on {n} vertices "
                             f"and {len(graph)} edges can draw coefficients whose absolute sum "
                             f"is not finite")
    return lambda seed: random_problem(graph, replace(spec, seed=seed), vertex_count=n)


def problem_for(config: ExperimentConfig, index: int) -> IsingProblem:
    """Problem ``index`` of the configured family."""
    if not (0 <= index < config.problem_count):
        raise ConfigError(f"problem index {index} outside 0..{config.problem_count - 1}")
    draw = problem_family(config.topology, config.h_range, config.j_range)
    return draw(derive_seed(config.gen_seed, "problem", index))


def sampler_params(config: ExperimentConfig, mode: str, num_runs: int, seed: int):
    """Parameters for the sampler of ``mode``: annealing for raw, Gibbs for sampling."""
    if mode == "raw":
        return SamplerParams(
            num_runs=num_runs, seed=seed, sweeps=config.sa_sweeps,
            beta_schedule=BetaSchedule(
                config.sa_beta_start, config.sa_beta_end, config.sa_interpolation
            ),
        )
    return SamplerParams(
        num_runs=num_runs, seed=seed,
        fixed_beta=config.gibbs_beta,
        burn_in=config.gibbs_burn_in, thinning=config.gibbs_thinning,
    )


def _input_job(config: ExperimentConfig, problem: IsingProblem, index: int,
               mode: str, num_runs: int):
    """The ``sample_many`` job of a (problem, mode, run count) cell's input runs."""
    return (problem, sampler_params(config, mode, num_runs, derive_seed(
        config.master_seed, "sample", mode, num_runs, index)), f"p{index:04d}")


def mode_runset(config: ExperimentConfig, problem: IsingProblem, index: int,
                mode: str, num_runs: int):
    """The run set a (problem, mode, run count) cell starts from."""
    if mode not in SAMPLERS:
        raise ConfigError(f"unknown mode {mode!r}")
    return sample_many(SAMPLERS[mode], [_input_job(config, problem, index, mode, num_runs)])[0]


def _runs_per_scale(config: ExperimentConfig, num_runs: int) -> int:
    """Budget parity: a cell's run count split across hpe's scales."""
    return max(1, num_runs // len(config.hpe_scales))


class Cell(NamedTuple):
    """A (problem, run count, mode) cell: the problem's index in its family,
    the problem, its input run set and the mode. A method that re-samples
    takes ``seed_for`` it: ``seed`` if given, else one derived from the
    master seed, the method, the mode and ``index``."""

    index: int
    problem: IsingProblem
    runset: RunSet
    mode: str
    seed: int | None = None

    def seed_for(self, config: ExperimentConfig, method: str) -> int:
        return derive_seed(config.master_seed, method, self.mode, self.index) \
            if self.seed is None else self.seed


def _single(final, **fields):
    return final.spins[None], [final.energy], {"energy": final.energy, **fields}


def _mqc(strategy, config, cells):
    for cell in cells:
        final, trace = mqc_reduce(cell.problem, cell.runset, strategy)
        yield _single(final, levels=len(trace.levels))


def _builtin_pp(config, cells):
    for cell in cells:
        out = builtin_opt_pp(cell.problem, cell.runset, config.width_cap)
        yield out.spins, out.energies(), {"energy": float(out.energies().min())}


def _persistence(config, cells):
    for cell in cells:
        yield _single(sample_persistence(cell.problem, SAMPLERS[cell.mode], sampler_params(
            config, cell.mode, len(cell.runset), cell.seed_for(config, "persistence")),
            threshold=config.persistence_threshold, rounds=config.persistence_rounds,
            initial_runs=cell.runset))


def _hpe(config, cells):
    """Samples, when called, each (problem, mode)'s ``emulate`` copies at its
    largest cell, one ``sample_scales`` call a mode. A cell merges each scale's
    first ``_runs_per_scale`` runs: a run's states do not depend on the run count."""
    cells, scales = list(cells), {}
    largest = {(c.index, c.mode): c for c in sorted(cells, key=lambda c: len(c.runset))}
    model = PrecisionModel(h_clip=config.h_range, j_clip=config.j_range,
                           levels=config.hpe_levels)
    for mode in dict.fromkeys(cell.mode for cell in cells):
        tops = [cell for cell in largest.values() if cell.mode == mode]
        runsets = iter(sample_scales(SAMPLERS[mode], [job for cell in tops for job in hpe_jobs(
            emulate(cell.problem, config.hpe_scales, model),
            _runs_per_scale(config, len(cell.runset)),
            sampler_params(config, mode, 1, cell.seed_for(config, "hpe")))]))
        for cell in tops:
            scales[cell.index, mode] = list(itertools.islice(runsets, len(config.hpe_scales)))

    def merge(cell):
        n = _runs_per_scale(config, len(cell.runset))
        final, _ = hpe_from_runsets(cell.problem, [
            RunSet.from_matrix(rs.spins[:n], rs.energies()[:n], rs.problem_id, rs.provenance)
            for rs in scales[cell.index, cell.mode]], scales=config.hpe_scales)
        return _single(final)
    return map(merge, cells)


# The one method dispatch. Each post-processor's function of (config,
# cells) does its block-wide work when called and returns an iterator of
# each cell's (output spins, their energies, record fields), in cell order.
_METHOD_TABLE = {**{name: partial(_mqc, strategy) for name, strategy in _MQC_STRATEGY.items()},
                 "builtin_pp": _builtin_pp, "sample_persistence": _persistence, "hpe": _hpe}
METHODS = tuple(_METHOD_TABLE)


def apply_method(config: ExperimentConfig, problem: IsingProblem, runset,
                 method: str, mode: str, index: int = 0, seed: int | None = None):
    """Run one post-processor on one cell; returns (output spins, their
    energies, record fields), the spins one row per output run.

    This is the one-cell call of the method's function, which a sweep
    calls on a block's cells. sample_persistence and hpe re-sample with
    the sampler of ``mode``, seeded as ``Cell`` says. On a problem with no
    vertices neither samples: both return the empty run at energy 0.0.
    """
    if method not in _METHOD_TABLE:
        raise ConfigError(f"unknown method {method!r}")
    return next(_METHOD_TABLE[method](config, [Cell(index, problem, runset, mode, seed)]))


def _sweep(config: ExperimentConfig, methods):
    """One record per cell and method, in sweep order: the cell, the best
    input energy and the method's record fields.

    Every listed mode's sampler settings are checked, at the largest run
    count, before the first cell. For each block of up to
    ``_PROBLEM_BLOCK`` problems and each mode, one sampler call samples
    every run count's input runs. Each method's function is then called on
    the block's cells, and their outputs are taken cell by cell, in the
    order (problem, run count, mode, method).
    """
    for mode in config.modes:
        try:
            sampler_params(config, mode, max(config.run_counts), 0)
        except ParameterError as e:
            raise ConfigError(f"sampler settings of mode {mode!r}: {e}") from e
    for lo in range(0, config.problem_count, _PROBLEM_BLOCK):
        indices = range(lo, min(lo + _PROBLEM_BLOCK, config.problem_count))
        problems = [problem_for(config, index) for index in indices]
        # (run count, mode, k) -> the input run set of the block's problem k.
        inputs = {}
        for mode in config.modes:
            keys = [(num_runs, mode, k) for num_runs in config.run_counts
                    for k in range(len(problems))]
            inputs.update(zip(keys, sample_many(SAMPLERS[mode], [
                _input_job(config, problems[k], indices[k], mode, num_runs)
                for num_runs, _, k in keys])))
        cells = [Cell(index, problem, inputs[num_runs, mode, k], mode)
                 for k, (index, problem) in enumerate(zip(indices, problems))
                 for num_runs, mode in itertools.product(config.run_counts, config.modes)]
        outputs = [_METHOD_TABLE[method](config, cells) for method in methods]
        for cell, *outs in zip(cells, *outputs):
            best_input = float(cell.runset.energies().min())
            for method, (*_, fields) in zip(methods, outs):
                yield {"problem": cell.index, "problem_id": cell.runset.problem_id,
                       "run_count": len(cell.runset), "mode": cell.mode, "method": method,
                       "best_input": best_input, **fields}


def run_experiment(config: ExperimentConfig, out_dir=None):
    """Execute the full sweep; returns (records, report rows).

    One record per problem x run count x mode x method, each carrying the
    method's final energy and the best energy among the input runs. With
    ``out_dir`` set, writes config.json, results.jsonl, report.json, and
    report.txt.
    """
    records = list(_sweep(config, config.methods))
    rows = build_report(records, config)
    if out_dir is not None:
        write_outputs(config, records, rows, out_dir)
    return records, rows


@dataclass(frozen=True, slots=True)
class ComparisonRow:
    """=/</> counts for one method-mode pair at one run count."""

    run_count: int
    method_a: str
    mode_a: str
    method_b: str
    mode_b: str
    equal: int
    a_lower: int
    b_lower: int

    @property
    def label(self) -> str:
        if self.mode_a == self.mode_b:
            return f"{self.mode_a}: {self.method_a} vs {self.method_b}"
        return f"{self.method_a}: {self.mode_a} vs {self.mode_b}"

    def to_dict(self) -> dict:
        return asdict(self)


def _compare(energies, problems, run_count, method_a, mode_a, method_b, mode_b):
    equal = a_lower = b_lower = 0
    for p in problems:
        ea = energies.get((p, mode_a, method_a))
        eb = energies.get((p, mode_b, method_b))
        if ea is None or eb is None:
            raise InputError(
                f"missing results for problem {p} at run count {run_count}"
            )
        if abs(ea - eb) <= ENERGY_ATOL:
            equal += 1
        elif ea < eb:
            a_lower += 1
        else:
            b_lower += 1
    return ComparisonRow(run_count, method_a, mode_a, method_b, mode_b,
                         equal, a_lower, b_lower)


def comparison_rows(records, run_counts, modes, methods, cross_mode=True):
    """Comparison rows over every problem in ``records``.

    Per run count: every method pair within each mode, then (with
    ``cross_mode`` and both modes present) each method raw vs sampling.
    """
    if not records:
        raise InputError("no records to compare")
    problems = sorted({r["problem"] for r in records})
    pairs = [(ma, mode, mb, mode) for mode in modes
             for i, ma in enumerate(methods) for mb in methods[i + 1:]]
    if cross_mode and "raw" in modes and "sampling" in modes:
        pairs += [(m, "raw", m, "sampling") for m in methods]
    rows = []
    for num_runs in run_counts:
        energies = {(r["problem"], r["mode"], r["method"]): r["energy"]
                    for r in records if r["run_count"] == num_runs}
        rows.extend(_compare(energies, problems, num_runs, *pair) for pair in pairs)
    return rows


def build_report(records, config: ExperimentConfig):
    """All comparison rows derivable from a record list."""
    return comparison_rows(records, config.run_counts, config.modes, config.methods)


def report_from_records(records):
    """Rebuild comparison rows from a results file's records."""
    return comparison_rows(records,
                           sorted({r["run_count"] for r in records}),
                           sorted({r["mode"] for r in records}),
                           sorted({r["method"] for r in records}))


def render_report(rows) -> str:
    """Plain-text table: runs | comparison | = | < | >."""
    header = ("runs", "comparison", "=", "<", ">")
    body = [
        (str(r.run_count), r.label, str(r.equal), str(r.a_lower), str(r.b_lower))
        for r in rows
    ]
    widths = [max(len(row[i]) for row in [header] + body) for i in range(5)]
    lines = []
    for row in [header] + body:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def write_report(rows, out_dir):
    """Write report.json and report.txt for ``rows`` into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    write_json([r.to_dict() for r in rows], os.path.join(out_dir, "report.json"))
    write_text(render_report(rows), os.path.join(out_dir, "report.txt"))


def write_outputs(config: ExperimentConfig, records, rows, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_json(config.to_dict(), os.path.join(out_dir, "config.json"))
    write_records(records, os.path.join(out_dir, "results.jsonl"))
    write_report(rows, out_dir)


@dataclass(frozen=True, slots=True)
class SensitivityReport:
    """Strategy-pair comparisons plus the instances where strategies split."""

    rows: tuple
    differing: tuple  # (problem, run_count, mode) triples
    records: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def sensitivity_report(config: ExperimentConfig, out_dir=None,
                       records=None) -> SensitivityReport:
    """Reduce identical run sets under all three pairing strategies.

    Flags every (problem, run count, mode) cell whose three final
    energies are not all equal within tolerance. ``records`` may be
    ``run_experiment(config)``'s; when the config lists all three MQC
    methods, the report is built from them instead of a sweep of its own.
    """
    strategies = tuple(_MQC_STRATEGY)
    if records is None or not set(strategies) <= set(config.methods):
        records = _sweep(config, strategies)
    keys = ("problem", "run_count", "mode", "method", "energy", "best_input")
    records = [{key: rec[key] for key in keys} for rec in records if rec["method"] in strategies]
    # Each cell's records, in strategy order.
    cells = [sorted(records[k:k + 3], key=lambda rec: strategies.index(rec["method"]))
             for k in range(0, len(records), 3)]
    records = [rec for cell in cells for rec in cell]
    differing = [(cell[0]["problem"], cell[0]["run_count"], cell[0]["mode"]) for cell in cells
                 if max(r["energy"] for r in cell) - min(r["energy"] for r in cell) > ENERGY_ATOL]
    rows = comparison_rows(records, config.run_counts, config.modes, strategies,
                           cross_mode=False)
    report = SensitivityReport(tuple(rows), tuple(differing), tuple(records))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_json(report.to_dict(), os.path.join(out_dir, "sensitivity.json"))
        write_text(render_report(report.rows) + f"\ninstances with differing strategies: "
                   f"{len(report.differing)}\n", os.path.join(out_dir, "sensitivity.txt"))
    return report


def bench_reduce(problem: IsingProblem, run_counts, seed: int,
                 strategy: PairingStrategy = PairingStrategy.SEQUENTIAL,
                 repeats: int = 3):
    """CPU seconds of one mqc_reduce call per run count: the fastest call.

    Each call is timed with ``time.process_time``, so time the process
    spends descheduled, while other processes run, is not counted. Run
    generation is excluded from the timed region. Each of ``repeats``
    rounds calls mqc_reduce on the run counts in turn, one call each,
    until every run count has spent ``_BENCH_ROUND_SECONDS`` CPU seconds,
    as ``timeit.Timer.autorange`` runs a statement until a minimum time
    has passed. So a drift in machine speed hits all run counts alike, and
    a run count of a few milliseconds gets as many chances at an
    undisturbed call as one of a tenth of a second. As in ``timeit``, the
    garbage collector is off while timing: collections of the long-lived
    objects of the calling process would land in some calls and not
    others.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be positive, got {repeats}")
    runsets = [random_runs(problem, n, derive_seed(seed, "bench", n)) for n in run_counts]
    best = [float("inf")] * len(runsets)
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            spent = [0.0] * len(runsets)
            while min(spent) < _BENCH_ROUND_SECONDS:
                for k, runset in enumerate(runsets):
                    if spent[k] < _BENCH_ROUND_SECONDS:
                        start = time.process_time()
                        mqc_reduce(problem, runset, strategy)
                        seconds = time.process_time() - start
                        spent[k] += seconds
                        best[k] = min(best[k], seconds)
    finally:
        if collecting:
            gc.enable()
    return [{"run_count": n, "seconds": t} for n, t in zip(run_counts, best)]
