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

import json
import numbers
import os
import time
from dataclasses import asdict, dataclass, field, fields

from .altpp import builtin_opt_pp, sample_persistence
from .core import ENERGY_ATOL, IsingProblem
from .errors import ConfigError, InputError
from .hpe import PrecisionModel, ScaleSet, hpe
from .mqc import PairingStrategy, mqc_reduce
from .rng import derive_seed
from .samplers import (
    BetaSchedule,
    SamplerParams,
    gibbs_sample,
    random_runs,
    simulated_anneal,
)
from .serialize import is_finite_number, write_json
from .topology import (
    ChimeraSpec,
    ProblemGenSpec,
    chimera_graph,
    complete_graph,
    grid_graph,
    path_graph,
    random_problem,
)

MODES = ("raw", "sampling")
METHODS = (
    "mqc_sequential", "mqc_rank", "mqc_maxdiff",
    "builtin_pp", "sample_persistence", "hpe",
)
_MQC_STRATEGY = {
    "mqc_sequential": PairingStrategy.SEQUENTIAL,
    "mqc_rank": PairingStrategy.RANK_ORDER,
    "mqc_maxdiff": PairingStrategy.MAX_DIFFERENCE,
}


# Element type of each sequence field of ExperimentConfig.
_SEQUENCE_ITEMS = {
    "h_range": "float", "j_range": "float", "run_counts": "int",
    "modes": "str", "methods": "str", "hpe_scales": "float",
}
# Integer parameters of each topology kind.
_TOPOLOGY_KEYS = {
    "chimera": ("rows", "cols", "shore"),
    "complete": ("n",),
    "path": ("n",),
    "grid": ("rows", "cols"),
}


def default_topology() -> dict:
    return {"kind": "chimera", "rows": 4, "cols": 4, "shore": 4}


def _is_type(value, kind: str) -> bool:
    """Whether ``value`` is an int, a finite float (ints count), a str or a dict."""
    if isinstance(value, bool):
        return False
    if kind == "int":
        return isinstance(value, numbers.Integral)
    if kind == "float":
        return is_finite_number(value)
    return isinstance(value, {"str": str, "dict": dict}[kind])


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run of the harness depends on."""

    topology: dict = field(default_factory=default_topology)
    problem_count: int = 50
    gen_seed: int = 316
    h_range: tuple = (-2.0, 2.0)
    j_range: tuple = (-1.0, 1.0)
    run_counts: tuple = (200, 400)
    modes: tuple = ("raw", "sampling")
    methods: tuple = ("mqc_sequential", "mqc_rank", "mqc_maxdiff", "builtin_pp")
    master_seed: int = 2024
    sa_sweeps: int = 100
    sa_beta_start: float = 0.1
    sa_beta_end: float = 5.0
    sa_interpolation: str = "geometric"
    gibbs_beta: float = 1.0
    gibbs_burn_in: int = 1000
    gibbs_thinning: int = 10
    width_cap: int = 4
    persistence_threshold: float = 0.9
    persistence_rounds: int = 3
    hpe_scales: tuple = (1.0, 2.0, 4.0, 8.0)
    hpe_levels: int = 17

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _SEQUENCE_ITEMS:
                kind = _SEQUENCE_ITEMS[f.name]
                if not isinstance(value, (list, tuple)) or not all(
                        _is_type(v, kind) for v in value):
                    raise ConfigError(f"{f.name} must be a list of {kind}, got {value!r}")
            elif not _is_type(value, f.type):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        for name, kind in _SEQUENCE_ITEMS.items():
            convert = {"int": int, "float": float, "str": str}[kind]
            object.__setattr__(self, name, tuple(map(convert, getattr(self, name))))
        if self.problem_count < 1:
            raise ConfigError(f"problem_count must be positive, got {self.problem_count}")
        if not self.run_counts or any(n < 1 for n in self.run_counts):
            raise ConfigError(f"run_counts must be positive, got {self.run_counts}")
        if not self.modes or any(m not in MODES for m in self.modes):
            raise ConfigError(f"modes must be a nonempty subset of {MODES}, got {self.modes}")
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ConfigError(
                f"methods must be a nonempty subset of {METHODS}, got {self.methods}"
            )
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"duplicate methods in {self.methods}")
        # Parameters of the listed methods only, so unused ones stay free.
        if "builtin_pp" in self.methods and self.width_cap < 1:
            raise ConfigError(f"width_cap must be at least 1, got {self.width_cap}")
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
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: line {e.lineno}: {e.msg}") from e
    return ExperimentConfig.from_dict(doc)


def topology_graph(topology: dict):
    """Edge list and vertex count for a topology description."""
    kind = topology.get("kind")
    if kind not in _TOPOLOGY_KEYS:
        raise ConfigError(f"unknown topology kind {kind!r}")
    for key in _TOPOLOGY_KEYS[kind]:
        if not _is_type(topology.get(key), "int"):
            raise ConfigError(
                f"topology {kind!r} needs an integer {key!r}, got {topology.get(key)!r}"
            )
    if kind == "chimera":
        spec = ChimeraSpec(topology["rows"], topology["cols"], topology["shore"])
        return chimera_graph(spec), spec.vertex_count
    if kind == "complete":
        n = topology["n"]
        return complete_graph(n), n
    if kind == "grid":
        rows, cols = topology["rows"], topology["cols"]
        return grid_graph(rows, cols), rows * cols
    n = topology["n"]
    return path_graph(n), n


def problem_for(config: ExperimentConfig, index: int) -> IsingProblem:
    """Problem ``index`` of the configured family."""
    if not (0 <= index < config.problem_count):
        raise ConfigError(f"problem index {index} outside 0..{config.problem_count - 1}")
    graph, n = topology_graph(config.topology)
    spec = ProblemGenSpec(
        h_range=config.h_range,
        j_range=config.j_range,
        seed=derive_seed(config.gen_seed, "problem", index),
    )
    return random_problem(graph, spec, vertex_count=n)


SAMPLERS = {"raw": simulated_anneal, "sampling": gibbs_sample}


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


def mode_runset(config: ExperimentConfig, problem: IsingProblem, index: int,
                mode: str, num_runs: int):
    """The run set a (problem, mode, run count) cell starts from."""
    if mode not in SAMPLERS:
        raise ConfigError(f"unknown mode {mode!r}")
    seed = derive_seed(config.master_seed, "sample", mode, num_runs, index)
    return SAMPLERS[mode](problem, sampler_params(config, mode, num_runs, seed),
                          problem_id=f"p{index:04d}")


def apply_method(config: ExperimentConfig, problem: IsingProblem, runset,
                 method: str, mode: str, index: int = 0, seed: int | None = None):
    """Run one post-processor; returns (output spins, their energies,
    record fields), the spins one row per output run.

    sample_persistence and hpe re-sample with the sampler of ``mode``,
    seeded with ``seed`` when given, else with a seed derived from the
    master seed, the method, the mode and the problem ``index``.
    """
    def resampling(tag, num_runs):
        s = derive_seed(config.master_seed, tag, mode, index) if seed is None else seed
        return SAMPLERS[mode], sampler_params(config, mode, num_runs, s)

    def single(final, **fields):
        return final.spins[None], [final.energy], {"energy": final.energy, **fields}

    if method in _MQC_STRATEGY:
        final, trace = mqc_reduce(problem, runset, _MQC_STRATEGY[method])
        return single(final, levels=len(trace.levels))
    if method == "builtin_pp":
        out = builtin_opt_pp(problem, runset, config.width_cap)
        return out.spins, out.energies(), {"energy": float(out.energies().min())}
    if method == "sample_persistence":
        sampler, params = resampling("persistence", len(runset))
        return single(sample_persistence(
            problem, sampler, params,
            threshold=config.persistence_threshold,
            rounds=config.persistence_rounds,
            initial_runs=runset,
        ))
    if method == "hpe":
        # Budget parity: split the cell's run count across the scales.
        per_scale = max(1, len(runset) // len(config.hpe_scales))
        sampler, params = resampling("hpe", per_scale)
        final, _ = hpe(
            problem,
            ScaleSet(config.hpe_scales, per_scale),
            PrecisionModel(h_clip=config.h_range, j_clip=config.j_range,
                           levels=config.hpe_levels),
            params, sampler=sampler,
        )
        return single(final)
    raise ConfigError(f"unknown method {method!r}")


def _cells(config: ExperimentConfig):
    """(index, run count, mode, problem, run set) for every sweep cell, in order."""
    for index in range(config.problem_count):
        problem = problem_for(config, index)
        for num_runs in config.run_counts:
            for mode in config.modes:
                yield (index, num_runs, mode, problem,
                       mode_runset(config, problem, index, mode, num_runs))


def _sweep(config: ExperimentConfig, methods):
    """One record per cell and method, in sweep order: the cell, the best
    input energy and the method's record fields."""
    for index, num_runs, mode, problem, runset in _cells(config):
        best_input = float(runset.energies().min())
        for method in methods:
            *_, fields = apply_method(config, problem, runset, method, mode, index)
            yield {"problem": index, "problem_id": runset.problem_id, "run_count": num_runs,
                   "mode": mode, "method": method, "best_input": best_input, **fields}


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
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as f:
        f.write(render_report(rows))


def write_outputs(config: ExperimentConfig, records, rows, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    write_json(config.to_dict(), os.path.join(out_dir, "config.json"))
    with open(os.path.join(out_dir, "results.jsonl"), "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    write_report(rows, out_dir)


# Fields every results record needs, with their kind for ``_is_type``.
_RECORD_FIELDS = {"problem": "int", "run_count": "int", "mode": "str", "method": "str",
                  "energy": "float"}


def load_records(path):
    """Records of a results.jsonl file, one JSON object a line.

    Each record needs integer ``problem`` and ``run_count``, string
    ``mode`` and ``method`` and a finite number ``energy``. Syntax is
    checked on every line first; then the first bad field raises
    InputError naming its line.
    """
    lines = []
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            try:
                lines.append((i + 1, json.loads(line)))
            except json.JSONDecodeError as e:
                raise InputError(f"{path}: line {i + 1}: {e.msg}") from e
    if not lines:
        raise InputError(f"{path}: no records")
    for lineno, rec in lines:
        if not isinstance(rec, dict):
            raise InputError(f"{path}: line {lineno}: a record must be a JSON object")
        for name, kind in _RECORD_FIELDS.items():
            if not _is_type(rec.get(name), kind):
                raise InputError(f"{path}: line {lineno}: field {name!r} must be {kind}, "
                                 f"got {rec.get(name)!r}")
    return [rec for _, rec in lines]


@dataclass(frozen=True, slots=True)
class SensitivityReport:
    """Strategy-pair comparisons plus the instances where strategies split."""

    rows: tuple
    differing: tuple  # (problem, run_count, mode) triples
    records: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def sensitivity_report(config: ExperimentConfig, out_dir=None) -> SensitivityReport:
    """Reduce identical run sets under all three pairing strategies.

    Flags every (problem, run count, mode) cell whose three final
    energies are not all equal within tolerance.
    """
    strategies = tuple(_MQC_STRATEGY)
    records = [{key: rec[key] for key in ("problem", "run_count", "mode", "method",
                                          "energy", "best_input")}
               for rec in _sweep(config, strategies)]
    cells = [records[k:k + len(strategies)] for k in range(0, len(records), len(strategies))]
    differing = [(cell[0]["problem"], cell[0]["run_count"], cell[0]["mode"]) for cell in cells
                 if max(r["energy"] for r in cell) - min(r["energy"] for r in cell) > ENERGY_ATOL]
    rows = comparison_rows(records, config.run_counts, config.modes, strategies,
                           cross_mode=False)
    report = SensitivityReport(tuple(rows), tuple(differing), tuple(records))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_json(report.to_dict(), os.path.join(out_dir, "sensitivity.json"))
        with open(os.path.join(out_dir, "sensitivity.txt"), "w", encoding="utf-8") as f:
            f.write(render_report(report.rows))
            f.write(f"\ninstances with differing strategies: {len(report.differing)}\n")
    return report


def bench_reduce(problem: IsingProblem, run_counts, seed: int,
                 strategy: PairingStrategy = PairingStrategy.SEQUENTIAL,
                 repeats: int = 3):
    """Wall time of mqc_reduce per run count, best of ``repeats``.

    Run generation is excluded from the timed region. Each repeat times
    every run count once, so a drift in machine speed hits all run counts
    alike rather than only the ones timed last.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be positive, got {repeats}")
    runsets = [random_runs(problem, n, derive_seed(seed, "bench", n)) for n in run_counts]
    best = [float("inf")] * len(runsets)
    for _ in range(repeats):
        for k, runset in enumerate(runsets):
            start = time.perf_counter()
            mqc_reduce(problem, runset, strategy)
            best[k] = min(best[k], time.perf_counter() - start)
    return [{"run_count": n, "seconds": t} for n, t in zip(run_counts, best)]
