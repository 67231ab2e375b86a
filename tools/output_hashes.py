"""Hash every output file of a fixed set of seeded isingpp runs.

Usage:

    PYTHONPATH=src python tools/output_hashes.py OUT_DIR

OUT_DIR must not exist yet. The script runs, in process, through
``isingpp.cli.main``:

* ``experiment --sensitivity`` on the default config cut to 2 problems,
  with all six methods, into ``OUT_DIR/experiment``;
* ``experiment --sensitivity`` on a small path-graph config that lists
  one pairing strategy only, so the sensitivity tables come from their
  own sweep, into ``OUT_DIR/experiment_one_strategy``;
* ``experiment --sensitivity`` with all six methods, both modes and run
  counts 3, 8 and 17 on 17 path-graph problems, which span two problem
  blocks of the sweep and odd per-scale hpe run counts, into
  ``OUT_DIR/experiment_two_blocks``;
* ``experiment --sensitivity`` in sampling mode only, with all six
  methods and run counts 2 and 5 on 2 problems of a 16-vertex path,
  burn-in 0 and thinning 1, so every Gibbs chain of the sweep is shorter
  than its columns' lag range and runs only in their ramp-up and drain,
  into ``OUT_DIR/experiment_short_chains``;
* ``gen`` of one default problem, ``sample`` of it in modes raw, sampling
  and random, and ``pp`` of each runs file with every method, then
  ``sample`` of 2,048 2-sweep raw runs, whose merge levels span several
  256-pair blocks, and ``pp`` of them with the three MQC methods, and
  ``sample`` of 2,048 sampling-mode runs at thinning 1, one Gibbs chain
  whose states span several collection windows, into
  ``OUT_DIR/pipeline``;
* a hand-written problem with three uncoupled vertices, its ``J``
  pairs listed in descending order and ``h`` entries out of order, one
  an explicit 0.0 and one an integer, ``sample`` of it in modes raw and
  sampling, and ``pp`` of each runs file with every method, into
  ``OUT_DIR/irregular``;
* ``gen`` of one complete-graph problem on 16 vertices, whose every site
  has more neighbours than a level kernel tabulates, ``sample`` of it in
  modes raw and sampling, and ``pp`` of each runs file with every method,
  then ``sample`` of one raw run, an annealing block of one column, into
  ``OUT_DIR/complete``;
* a hand-written problem on a 9-leaf star whose hub is joined to a
  Chimera cell, so the level kernels both read fields from tables and
  sum them, ``sample`` of it in modes raw and sampling, and ``pp`` of
  each runs file with every method (``hpe`` in sampling mode runs its 4
  scales as Gibbs columns), into ``OUT_DIR/mixed_width``;
* ``pp --method sample_persistence --resample-mode sampling`` of the
  sampling-mode runs of ``complete`` and of ``mixed_width``, whose
  rounds sample a lone Gibbs chain on each remainder (on ``mixed_width``
  the whole graph, its hub summing 10 neighbours), into the same
  directories;
* ``gen`` of the default config's first 14 problems, ``sample`` of
  problem 13 in sampling mode with 400 runs, and ``pp --method
  sample_persistence --resample-mode sampling`` of those runs, with the
  seeds the default experiment derives for that cell, into
  ``OUT_DIR/persistence_cell``: its rounds end above the best input run,
  so the result is the input's best;
* ``gen`` of two problems of each topology kind at its default sizes,
  into ``OUT_DIR/gen/<kind>``;
* the ``--help`` text of the program and of each subcommand, into
  ``OUT_DIR/help`` (formatted for 80 columns);
* ``content_hash()`` of every problem file of ``pipeline``, ``irregular``,
  ``complete``, ``mixed_width`` and ``gen/<kind>``, one ``hash  path``
  line each, into
  ``OUT_DIR/content_hashes.txt``. No other output carries these ids;
* the sha256 of ``json.dumps(trace.to_dict(), sort_keys=True)`` for the
  ``mqc_reduce`` trace of every ``pipeline`` runs file, the 2,048-run
  one last, under each pairing strategy, one ``sha256  path strategy``
  line each, into ``OUT_DIR/traces.txt``. No command writes a trace.

It then prints one ``sha256  path`` line per file, sorted by path
relative to OUT_DIR. Run it once with the ``src`` of each of two
checkouts on ``PYTHONPATH`` and ``diff`` the two listings to see which
output files changed bytes.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import sys

from isingpp.cli import main
from isingpp.harness import METHODS, ExperimentConfig
from isingpp.mqc import PairingStrategy, mqc_reduce
from isingpp.serialize import load_problem, load_runset

MODES = ("raw", "sampling", "random")
MQC_METHODS = ("mqc_sequential", "mqc_rank", "mqc_maxdiff")
TOPOLOGY_KINDS = ("chimera", "complete", "path", "grid")
COMMANDS = ("gen", "sample", "pp", "compare", "bench", "experiment")
# Criterion 10's config: mqc_sequential is its only pairing strategy.
ONE_STRATEGY = {
    "topology": {"kind": "path", "n": 8}, "problem_count": 4, "run_counts": [4],
    "modes": ["raw", "sampling"], "methods": ["mqc_sequential", "builtin_pp"],
    "sa_sweeps": 15, "gibbs_burn_in": 30, "gibbs_thinning": 1,
}
# 17 problems: a full block of the sweep and one more.
TWO_BLOCKS = {
    "topology": {"kind": "path", "n": 8}, "problem_count": 17, "run_counts": [3, 8, 17],
    "modes": ["raw", "sampling"], "methods": list(METHODS),
    "sa_sweeps": 15, "gibbs_burn_in": 30, "gibbs_thinning": 1,
}
# On a 16-vertex path the Gibbs columns' lags span 0 to 7, so chains of 2
# and 5 sweeps end before their last lag class starts.
SHORT_CHAINS = {
    "topology": {"kind": "path", "n": 16}, "problem_count": 2, "run_counts": [2, 5],
    "modes": ["sampling"], "methods": list(METHODS),
    "gibbs_burn_in": 0, "gibbs_thinning": 1,
}

# Vertices 3, 7 and 11 have no coupling, so their adjacency rows are
# empty; J lists its pairs in descending order, each larger end first.
# h ends with entries out of vertex order, one an explicit 0.0 and one
# an integer (JSON 2); content_hashes.txt pins how they are read.
IRREGULAR = {
    "vertex_count": 12,
    "h": [[0, 0.5], [2, -1.25], [5, 0.75], [7, -0.5], [9, 1.0], [3, -0.75], [11, 0.0],
          [6, 2]],
    "J": [[10, 9, -0.5], [10, 6, 0.75], [10, 2, -1.0], [9, 8, 1.0], [9, 5, -0.25],
          [8, 4, 0.5], [6, 5, -0.75], [6, 2, 1.0], [5, 4, -1.0], [5, 1, 0.25],
          [4, 0, -0.5], [2, 1, 0.5], [1, 0, -1.0]],
}

# A 9-leaf star on vertices 0 to 9 whose hub is joined to vertex 10 of a
# Chimera cell on vertices 10 to 17. The hub has 10 neighbours, more than
# a level kernel tabulates, so its level sums its fields at each step; the
# other levels read theirs from tables.
MIXED_WIDTH = {
    "vertex_count": 18,
    "h": [[v, 0.25 * (v % 9) - 1.0] for v in range(18)],
    "J": [[0, b, 0.75 if b % 2 else -0.5] for b in range(1, 11)]
    + [[10 + a, 14 + b, (-1) ** (a + b) * (0.25 + 0.125 * a)] for a in range(4) for b in range(4)],
}


def _run(*argv):
    if main(list(argv)) != 0:
        raise SystemExit(f"isingpp {' '.join(argv)} failed")


def _experiment(out, name, config):
    config_path = os.path.join(out, f"{name}.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(config, f)
    _run("experiment", "--config", config_path, "--out", os.path.join(out, name),
         "--sensitivity")


def _sample_and_pp(directory, name, modes, seed, pp_seed):
    """``sample`` problem file ``name`` of ``directory`` in each of ``modes``,
    then ``pp`` each runs file with every method."""
    problem = os.path.join(directory, name)
    for mode in modes:
        runs = os.path.join(directory, f"runs_{mode}.json")
        _run("sample", "--problem", problem, "--mode", mode, "--seed", seed, "--out", runs)
        for method in METHODS:
            _run("pp", "--problem", problem, "--runs-file", runs, "--method", method,
                 "--seed", pp_seed, "--out", os.path.join(directory, f"pp_{mode}_{method}.json"))


def run_pipeline(out):
    _experiment(out, "experiment", ExperimentConfig(problem_count=2, methods=METHODS).to_dict())
    _experiment(out, "experiment_one_strategy", ONE_STRATEGY)
    _experiment(out, "experiment_two_blocks", TWO_BLOCKS)
    _experiment(out, "experiment_short_chains", SHORT_CHAINS)

    pipeline = os.path.join(out, "pipeline")
    _run("gen", "--count", "1", "--out", pipeline)
    _sample_and_pp(pipeline, "problem_0000.json", MODES, "7", "11")
    problem_path = os.path.join(pipeline, "problem_0000.json")
    large = os.path.join(pipeline, "runs_raw_2048.json")
    _run("sample", "--problem", problem_path, "--mode", "raw", "--runs", "2048",
         "--sweeps", "2", "--seed", "7", "--out", large)
    for method in MQC_METHODS:
        _run("pp", "--problem", problem_path, "--runs-file", large, "--method", method,
             "--seed", "11", "--out", os.path.join(pipeline, f"pp_raw_2048_{method}.json"))
    _run("sample", "--problem", problem_path, "--mode", "sampling", "--runs", "2048",
         "--thinning", "1", "--seed", "7", "--out",
         os.path.join(pipeline, "runs_sampling_2048.json"))

    irregular = os.path.join(out, "irregular")
    os.makedirs(irregular)
    with open(os.path.join(irregular, "problem.json"), "w", encoding="utf-8") as f:
        json.dump(IRREGULAR, f)
    _sample_and_pp(irregular, "problem.json", ("raw", "sampling"), "5", "13")

    mixed = os.path.join(out, "mixed_width")
    os.makedirs(mixed)
    with open(os.path.join(mixed, "problem.json"), "w", encoding="utf-8") as f:
        json.dump(MIXED_WIDTH, f)
    _sample_and_pp(mixed, "problem.json", ("raw", "sampling"), "9", "19")

    complete = os.path.join(out, "complete")
    _run("gen", "--topology", "complete", "--n", "16", "--count", "1", "--out", complete)
    _sample_and_pp(complete, "problem_0000.json", ("raw", "sampling"), "3", "17")
    _run("sample", "--problem", os.path.join(complete, "problem_0000.json"), "--mode", "raw",
         "--runs", "1", "--seed", "3", "--out", os.path.join(complete, "runs_raw_one.json"))

    for directory, name, pp_seed in ((complete, "problem_0000.json", "17"),
                                     (mixed, "problem.json", "19")):
        _run("pp", "--problem", os.path.join(directory, name), "--runs-file",
             os.path.join(directory, "runs_sampling.json"), "--method", "sample_persistence",
             "--resample-mode", "sampling", "--seed", pp_seed, "--out",
             os.path.join(directory, "pp_sampling_sample_persistence_resampled.json"))

    # The default experiment's sampling-mode, 400-run cell of problem 13:
    # derive_seed(2024, "sample", "sampling", 400, 13) and
    # derive_seed(2024, "persistence", "sampling", 13).
    cell = os.path.join(out, "persistence_cell")
    _run("gen", "--count", "14", "--seed", "316", "--out", cell)
    cell_runs = os.path.join(cell, "runs_sampling.json")
    _run("sample", "--problem", os.path.join(cell, "problem_0013.json"), "--mode", "sampling",
         "--runs", "400", "--seed", "8964919128785046527", "--out", cell_runs)
    _run("pp", "--problem", os.path.join(cell, "problem_0013.json"), "--runs-file", cell_runs,
         "--method", "sample_persistence", "--resample-mode", "sampling",
         "--seed", "4909063203267201489", "--out",
         os.path.join(cell, "pp_sampling_sample_persistence.json"))

    for kind in TOPOLOGY_KINDS:
        _run("gen", "--topology", kind, "--count", "2", "--out", os.path.join(out, "gen", kind))

    os.makedirs(os.path.join(out, "help"))
    for command in ("", *COMMANDS):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.suppress(SystemExit):
            main([command, "--help"] if command else ["--help"])
        with open(os.path.join(out, "help", f"{command or 'isingpp'}.txt"), "w",
                  encoding="utf-8") as f:
            f.write(text.getvalue())

    paths = sorted(glob.glob(os.path.join(out, "gen", "*", "problem*.json"))
                   + [path for name in ("pipeline", "irregular", "complete", "mixed_width")
                      for path in glob.glob(os.path.join(out, name, "problem*.json"))])
    with open(os.path.join(out, "content_hashes.txt"), "w", encoding="utf-8") as f:
        f.writelines(f"{load_problem(path).content_hash()}  {os.path.relpath(path, out)}\n"
                     for path in paths)

    problem = load_problem(problem_path)
    with open(os.path.join(out, "traces.txt"), "w", encoding="utf-8") as f:
        for path in [os.path.join(pipeline, f"runs_{mode}.json") for mode in MODES] + [large]:
            runset = load_runset(path, problem)
            for strategy in PairingStrategy:
                trace = json.dumps(mqc_reduce(problem, runset, strategy)[1].to_dict(),
                                   sort_keys=True)
                digest = hashlib.sha256(trace.encode()).hexdigest()
                f.write(f"{digest}  {os.path.relpath(path, out)} {strategy.value}\n")


def hash_lines(out):
    lines = []
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            lines.append((os.path.relpath(path, out), digest))
    return [f"{digest}  {rel}" for rel, digest in sorted(lines)]


def cli(argv):
    if len(argv) != 1:
        raise SystemExit("usage: output_hashes.py OUT_DIR")
    out = argv[0]
    if os.path.exists(out):
        raise SystemExit(f"{out} exists; give a new directory")
    # ISINGPP_OUT would redirect every output of the runs above.
    os.environ.pop("ISINGPP_OUT", None)
    # argparse wraps help text to the terminal width it reads from COLUMNS.
    os.environ["COLUMNS"] = "80"
    os.makedirs(out)
    # The commands' own messages would mix with the listing.
    with contextlib.redirect_stdout(sys.stderr):
        run_pipeline(out)
    print("\n".join(hash_lines(out)))


if __name__ == "__main__":
    cli(sys.argv[1:])
