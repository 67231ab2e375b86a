"""Command-line pipeline: gen, sample, pp, compare, bench, experiment.

Each stage is deterministic given its flags, exits 0 on success, and
prints a one-line diagnostic to stderr (exit 2) on any expected failure,
running out of memory included.
The ISINGPP_OUT environment variable, when set, overrides every output
directory argument; nothing else is read from the environment.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ParameterError
from .harness import (
    METHODS,
    MODES,
    SAMPLERS,
    TOPOLOGIES,
    ExperimentConfig,
    apply_method,
    bench_reduce,
    default_topology,
    load_config,
    load_records,
    problem_family,
    render_report,
    report_from_records,
    run_experiment,
    sampler_params,
    sensitivity_report,
    write_report,
)
from .mqc import PairingStrategy
from .rng import derive_seed
from .samplers import INTERPOLATIONS, Provenance, RunSet, random_runs
from .serialize import load_problem, load_runset, save_problem, save_runset, write_json


def _resolve_out(path):
    return os.environ.get("ISINGPP_OUT", path)


def _add_topology_args(p):
    default = default_topology()
    p.add_argument("--topology", default=default["kind"], choices=list(TOPOLOGIES))
    p.add_argument("--rows", type=int, default=default["rows"])
    p.add_argument("--cols", type=int, default=default["cols"])
    p.add_argument("--shore", type=int, default=default["shore"])
    p.add_argument("--n", type=int, default=16, help="vertex count for complete/path")


def _topology_dict(args):
    keys, _ = TOPOLOGIES[args.topology]
    return {"kind": args.topology, **{key: getattr(args, key) for key in keys}}


# Sampler flags (sample, pp) and post-processor flags (pp), by argparse
# destination: the ExperimentConfig field each one sets and its argparse
# settings. An absent flag keeps the field's default.
_SAMPLER_FLAGS = {
    "sweeps": ("sa_sweeps", {"type": int}),
    "beta_start": ("sa_beta_start", {"type": float}),
    "beta_end": ("sa_beta_end", {"type": float}),
    "interpolation": ("sa_interpolation", {"choices": INTERPOLATIONS}),
    "beta": ("gibbs_beta", {"type": float,
                            "help": "fixed inverse temperature for sampling mode"}),
    "burn_in": ("gibbs_burn_in", {"type": int}),
    "thinning": ("gibbs_thinning", {"type": int}),
}
_METHOD_FLAGS = {
    "width_cap": ("width_cap", {"type": int}),
    "threshold": ("persistence_threshold", {"type": float}),
    "rounds": ("persistence_rounds", {"type": int}),
    "scales": ("hpe_scales", {"type": float, "nargs": "+"}),
    "levels": ("hpe_levels", {"type": int}),
}


def _add_flags(p, flags):
    for dest, (_, settings) in flags.items():
        p.add_argument("--" + dest.replace("_", "-"), default=argparse.SUPPRESS, **settings)


def _config(args, **fields):
    """An ExperimentConfig of ``fields`` plus the command's sampler and method flags."""
    return ExperimentConfig(**fields, **{
        name: getattr(args, dest)
        for dest, (name, _) in (_SAMPLER_FLAGS | _METHOD_FLAGS).items() if hasattr(args, dest)
    })


def cmd_gen(args):
    if args.count < 0:
        raise ParameterError(f"--count must be non-negative, got {args.count}")
    draw = problem_family(_topology_dict(args), args.h_range, args.j_range)
    out = _resolve_out(args.out)
    os.makedirs(out, exist_ok=True)
    for index in range(args.count):
        problem = draw(derive_seed(args.seed, "problem", index))
        save_problem(problem, os.path.join(out, f"problem_{index:04d}.json"))
    print(f"wrote {args.count} problems to {out}")
    return 0


def cmd_sample(args):
    problem = load_problem(args.problem)
    pid = os.path.splitext(os.path.basename(args.problem))[0]
    if args.mode == "random":
        runset = random_runs(problem, args.runs, args.seed, problem_id=pid)
    else:
        params = sampler_params(_config(args), args.mode, args.runs, args.seed)
        runset = SAMPLERS[args.mode](problem, params, problem_id=pid)
    save_runset(runset, _resolve_out(args.out))
    print(f"wrote {len(runset)} runs to {_resolve_out(args.out)}")
    return 0


def cmd_pp(args):
    problem = load_problem(args.problem)
    runset = load_runset(args.runs_file, problem)
    # The input file fixes the run budget; the resampling methods take
    # their seed from --seed as given.
    spins, energies, _ = apply_method(_config(args, methods=(args.method,)), problem,
                                      runset, args.method, args.resample_mode,
                                      seed=args.seed)
    result = RunSet.from_matrix(spins, energies, runset.problem_id, Provenance(
        sampler=args.method,
        params={"source_sampler": runset.provenance.sampler,
                "source_seed": runset.provenance.seed},
        seed=args.seed,
    ))
    save_runset(result, _resolve_out(args.out))
    print(f"{args.method}: best energy {result.best().energy}")
    return 0


def cmd_compare(args):
    rows = report_from_records(load_records(args.results))
    out = _resolve_out(args.out)
    if out:
        write_report(rows, out)
    print(render_report(rows), end="")
    return 0


def cmd_bench(args):
    defaults = ExperimentConfig()
    draw = problem_family(_topology_dict(args), defaults.h_range, defaults.j_range)
    problem = draw(derive_seed(args.seed, "bench-problem"))
    points = bench_reduce(problem, args.runs, args.seed, args.strategy, repeats=args.repeats)
    for pt in points:
        print(f"{pt['run_count']:>6} runs  {pt['seconds'] * 1e3:9.2f} ms")
    out = _resolve_out(args.out)
    if out:
        write_json(points, out)
    return 0


def cmd_experiment(args):
    config = load_config(args.config) if args.config else ExperimentConfig()
    out = _resolve_out(args.out)
    records, _ = run_experiment(config, out)
    if args.sensitivity:
        report = sensitivity_report(config, out, records)
        print(f"strategy-differing instances: {len(report.differing)}")
    print(f"experiment outputs in {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="isingpp",
        description="Post-processing pipeline for Ising optimizer outputs",
    )
    defaults = ExperimentConfig()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate seeded random problems")
    _add_topology_args(p)
    p.add_argument("--count", type=int, default=defaults.problem_count)
    p.add_argument("--seed", type=int, default=defaults.gen_seed)
    p.add_argument("--h-range", type=float, nargs=2, default=list(defaults.h_range))
    p.add_argument("--j-range", type=float, nargs=2, default=list(defaults.j_range))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sample", help="sample runs for one problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--mode", default=MODES[0], choices=[*MODES, "random"])
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_flags(p, _SAMPLER_FLAGS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("pp", help="apply one post-processor to a runs file")
    p.add_argument("--problem", required=True)
    p.add_argument("--runs-file", required=True)
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--seed", type=int, default=0)
    _add_flags(p, _METHOD_FLAGS)
    p.add_argument("--resample-mode", default=MODES[0], choices=MODES)
    _add_flags(p, _SAMPLER_FLAGS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pp)

    p = sub.add_parser("compare", help="build comparison tables from results")
    p.add_argument("--results", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="time mqc_reduce over growing run counts")
    _add_topology_args(p)
    p.add_argument("--runs", type=int, nargs="+", default=[256, 512, 1024, 2048])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--strategy", default="sequential",
                   choices=[s.value for s in PairingStrategy])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("experiment", help="run a full configured sweep")
    p.add_argument("--config", default=None, help="JSON config; defaults when omitted")
    p.add_argument("--out", required=True)
    p.add_argument("--sensitivity", action="store_true",
                   help="also write pairing-strategy sensitivity tables")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
