"""Hash every output file of a fixed set of seeded isingpp runs.

Usage:

    PYTHONPATH=src python tools/output_hashes.py OUT_DIR

OUT_DIR must not exist yet. The script runs, in process, through
``isingpp.cli.main``:

* ``experiment --sensitivity`` on the default config cut to 2 problems,
  with all six methods, into ``OUT_DIR/experiment``;
* ``gen`` of one default problem, ``sample`` of it in modes raw, sampling
  and random, and ``pp`` of each runs file with every method, into
  ``OUT_DIR/pipeline``.

It then prints one ``sha256  path`` line per file, sorted by path
relative to OUT_DIR. Run it once with the ``src`` of each of two
checkouts on ``PYTHONPATH`` and ``diff`` the two listings to see which
output files changed bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys

from isingpp.cli import main
from isingpp.harness import METHODS, ExperimentConfig

MODES = ("raw", "sampling", "random")


def _run(*argv):
    if main(list(argv)) != 0:
        raise SystemExit(f"isingpp {' '.join(argv)} failed")


def run_pipeline(out):
    experiment = os.path.join(out, "experiment")
    os.makedirs(experiment)
    config = ExperimentConfig(problem_count=2, methods=METHODS).to_dict()
    config_path = os.path.join(out, "config.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(config, f)
    _run("experiment", "--config", config_path, "--out", experiment, "--sensitivity")

    pipeline = os.path.join(out, "pipeline")
    _run("gen", "--count", "1", "--out", pipeline)
    problem = os.path.join(pipeline, "problem_0000.json")
    for mode in MODES:
        runs = os.path.join(pipeline, f"runs_{mode}.json")
        _run("sample", "--problem", problem, "--mode", mode, "--seed", "7", "--out", runs)
        for method in METHODS:
            _run("pp", "--problem", problem, "--runs-file", runs, "--method", method,
                 "--seed", "11", "--out", os.path.join(pipeline, f"pp_{mode}_{method}.json"))


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
    os.makedirs(out)
    # The commands' own messages would mix with the listing.
    with contextlib.redirect_stdout(sys.stderr):
        run_pipeline(out)
    print("\n".join(hash_lines(out)))


if __name__ == "__main__":
    cli(sys.argv[1:])
