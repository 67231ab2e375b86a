"""Command-line pipeline: gen, sample, pp, compare, bench, experiment.

Each stage is deterministic given its flags, exits 0 on success, and
prints a one-line diagnostic to stderr (exit 2) on any expected failure.
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
    SAMPLERS,
    ExperimentConfig,
    apply_method,
    bench_reduce,
    load_config,
    load_records,
    render_report,
    report_from_records,
    run_experiment,
    sampler_params,
    sensitivity_report,
    topology_graph,
    write_report,
)
from .mqc import PairingStrategy
from .rng import derive_seed
from .samplers import Provenance, RunSet, random_runs
from .serialize import load_problem, load_runset, save_problem, save_runset, write_json
from .topology import ProblemGenSpec, random_problem


def _resolve_out(path):
    return os.environ.get("ISINGPP_OUT", path)


def _add_topology_args(p):
    p.add_argument("--topology", default="chimera",
                   choices=["chimera", "complete", "path", "grid"])
    p.add_argument("--rows", type=int, default=4)
    p.add_argument("--cols", type=int, default=4)
    p.add_argument("--shore", type=int, default=4)
    p.add_argument("--n", type=int, default=16, help="vertex count for complete/path")


def _topology_dict(args):
    if args.topology == "chimera":
        return {"kind": "chimera", "rows": args.rows, "cols": args.cols,
                "shore": args.shore}
    if args.topology == "grid":
        return {"kind": "grid", "rows": args.rows, "cols": args.cols}
    return {"kind": args.topology, "n": args.n}


def _add_sampler_args(p):
    p.add_argument("--sweeps", type=int, default=100)
    p.add_argument("--beta-start", type=float, default=0.1)
    p.add_argument("--beta-end", type=float, default=5.0)
    p.add_argument("--interpolation", default="geometric",
                   choices=["geometric", "linear"])
    p.add_argument("--beta", type=float, default=1.0,
                   help="fixed inverse temperature for sampling mode")
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--thinning", type=int, default=10)


# Sampler and post-processor flags, by argparse destination, and the
# ExperimentConfig field each one sets.
_CONFIG_FLAGS = {
    "sweeps": "sa_sweeps",
    "beta_start": "sa_beta_start",
    "beta_end": "sa_beta_end",
    "interpolation": "sa_interpolation",
    "beta": "gibbs_beta",
    "burn_in": "gibbs_burn_in",
    "thinning": "gibbs_thinning",
    "width_cap": "width_cap",
    "threshold": "persistence_threshold",
    "rounds": "persistence_rounds",
    "scales": "hpe_scales",
    "levels": "hpe_levels",
}


def _config(args, **fields):
    """An ExperimentConfig of ``fields`` plus the command's sampler and method flags."""
    return ExperimentConfig(**fields, **{
        name: getattr(args, flag)
        for flag, name in _CONFIG_FLAGS.items() if hasattr(args, flag)
    })


def cmd_gen(args):
    if args.count < 0:
        raise ParameterError(f"--count must be non-negative, got {args.count}")
    out = _resolve_out(args.out)
    os.makedirs(out, exist_ok=True)
    graph, n = topology_graph(_topology_dict(args))
    for index in range(args.count):
        spec = ProblemGenSpec(
            h_range=tuple(args.h_range), j_range=tuple(args.j_range),
            seed=derive_seed(args.seed, "problem", index),
        )
        problem = random_problem(graph, spec, vertex_count=n)
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
    graph, n = topology_graph(_topology_dict(args))
    spec = ProblemGenSpec(h_range=(-2.0, 2.0), j_range=(-1.0, 1.0),
                          seed=derive_seed(args.seed, "bench-problem"))
    problem = random_problem(graph, spec, vertex_count=n)
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
    run_experiment(config, out)
    if args.sensitivity:
        report = sensitivity_report(config, out)
        print(f"strategy-differing instances: {len(report.differing)}")
    print(f"experiment outputs in {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="isingpp",
        description="Post-processing pipeline for Ising optimizer outputs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate seeded random problems")
    _add_topology_args(p)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=316)
    p.add_argument("--h-range", type=float, nargs=2, default=[-2.0, 2.0])
    p.add_argument("--j-range", type=float, nargs=2, default=[-1.0, 1.0])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sample", help="sample runs for one problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--mode", default="raw", choices=["raw", "sampling", "random"])
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_sampler_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("pp", help="apply one post-processor to a runs file")
    p.add_argument("--problem", required=True)
    p.add_argument("--runs-file", required=True)
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width-cap", type=int, default=4)
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--scales", type=float, nargs="+", default=[1.0, 2.0, 4.0, 8.0])
    p.add_argument("--levels", type=int, default=17)
    p.add_argument("--resample-mode", default="raw", choices=["raw", "sampling"])
    _add_sampler_args(p)
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
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
