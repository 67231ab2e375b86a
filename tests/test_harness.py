"""Harness and CLI tests: config handling, sweep structure, report
invariants, byte-stable outputs, and end-to-end pipeline runs."""

import hashlib
import importlib
import json
import os
import re
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from isingpp import (
    ENERGY_ATOL,
    ExperimentConfig,
    SamplerParams,
    bench_reduce,
    load_problem,
    load_runset,
    run_experiment,
    sensitivity_report,
)
from isingpp import altpp, harness
from isingpp.cli import _config, build_parser, main
from isingpp.errors import ConfigError, InputError
from isingpp.hpe import PrecisionModel, ScaleSet, emulate, hpe, hpe_jobs, sample_scales
from isingpp.harness import (
    METHODS,
    Cell,
    ComparisonRow,
    build_report,
    load_config,
    load_records,
    mode_runset,
    problem_for,
    render_report,
    report_from_records,
    sampler_params,
    topology_graph,
)
from isingpp.rng import derive_seed
from isingpp.samplers import Provenance, RunSet, sample_many
from isingpp.serialize import save_problem, save_runset
from isingpp.topology import ChimeraSpec, ProblemGenSpec, chimera_graph, random_problem

from conftest import oracle_energy


@pytest.fixture(autouse=True)
def _no_out_override(monkeypatch):
    # The output-override variable would redirect every CLI test's files.
    monkeypatch.delenv("ISINGPP_OUT", raising=False)


def tiny_config(**overrides):
    """A sweep small enough to run in well under a second."""
    base = dict(
        topology={"kind": "path", "n": 6},
        problem_count=4,
        gen_seed=11,
        run_counts=(4, 8),
        modes=("raw", "sampling"),
        methods=("mqc_sequential", "builtin_pp"),
        master_seed=5,
        sa_sweeps=15,
        gibbs_burn_in=30,
        gibbs_thinning=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def file_hash(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def count_sampler_calls(monkeypatch):
    """Route the harness's samplers through wrappers; returns the list of
    modes they are called with, one entry a call."""
    calls = []

    # The wrappers are not the package's samplers, so a block's jobs reach
    # them one call each.
    def counted(mode, sampler):
        def sample(*args, **kwargs):
            calls.append(mode)
            return sampler(*args, **kwargs)
        return sample

    monkeypatch.setattr(harness, "SAMPLERS", {
        mode: counted(mode, sampler) for mode, sampler in harness.SAMPLERS.items()})
    return calls


# -- configuration ------------------------------------------------------


def test_config_defaults_are_valid():
    config = ExperimentConfig()
    assert config.problem_count == 50
    assert config.topology["kind"] == "chimera"
    assert set(config.modes) <= {"raw", "sampling"}


def test_config_round_trips_through_dict():
    config = tiny_config()
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_config_to_dict_is_json_ready():
    doc = tiny_config().to_dict()
    json.dumps(doc)
    assert isinstance(doc["run_counts"], list)
    assert isinstance(doc["methods"], list)


def test_config_rejects_unknown_fields():
    doc = tiny_config().to_dict()
    doc["sa_sweps"] = 100
    with pytest.raises(ConfigError, match="sa_sweps"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize(
    "overrides",
    [
        {"problem_count": 0},
        {"run_counts": ()},
        {"run_counts": (4, 0)},
        {"modes": ()},
        {"modes": ("raw", "warm")},
        {"methods": ()},
        {"methods": ("mqc_sequential", "annealer")},
        {"methods": ("mqc_rank", "mqc_rank")},
        {"h_range": (2.0, -2.0)},
        {"j_range": (1.0, -1.0)},
    ],
)
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ConfigError):
        tiny_config(**overrides)


DUPLICATES = {"run_counts": (20, 20), "modes": ("raw", "raw"),
              "methods": ("mqc_sequential", "builtin_pp", "mqc_sequential")}


@pytest.mark.parametrize("field", DUPLICATES)
def test_config_rejects_duplicate_entries(field):
    # A duplicate would sample and post-process its cells again, and
    # report each of their rows twice.
    with pytest.raises(ConfigError, match=rf"^duplicate {field} in "
                       rf"{re.escape(str(DUPLICATES[field]))}$"):
        tiny_config(**{field: DUPLICATES[field]})


@pytest.mark.parametrize("field", DUPLICATES)
def test_cli_experiment_rejects_duplicate_entries(tmp_path, capsys, monkeypatch, field):
    calls = count_sampler_calls(monkeypatch)
    out = tmp_path / "exp"
    path = write_raw_config(tmp_path, **{field: list(DUPLICATES[field])})
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: duplicate {field} in ") and err.count("\n") == 1
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"problem_count": "3"},
        {"problem_count": 2.0},
        {"master_seed": True},
        {"gibbs_beta": "hot"},
        {"gibbs_beta": float("nan")},
        {"sa_interpolation": 1},
        {"topology": "chimera"},
        {"run_counts": 200},
        {"run_counts": [200, "400"]},
        {"modes": "raw"},
        {"h_range": [-2.0, None]},
        {"hpe_scales": [1.0, float("inf")]},
    ],
)
def test_config_rejects_wrong_types(doc):
    with pytest.raises(ConfigError, match=next(iter(doc))):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize(
    "method, overrides, field",
    [
        ("builtin_pp", {"width_cap": 0}, "width_cap"),
        ("sample_persistence", {"persistence_threshold": 0.5}, "persistence_threshold"),
        ("sample_persistence", {"persistence_threshold": 1.01}, "persistence_threshold"),
        ("sample_persistence", {"persistence_rounds": 0}, "persistence_rounds"),
        ("hpe", {"hpe_scales": (2.0, 1.0)}, "hpe_scales"),
        ("hpe", {"hpe_scales": ()}, "hpe_scales"),
        ("hpe", {"hpe_scales": (0.0, 1.0)}, "hpe_scales"),
        ("hpe", {"h_range": (1.0, 1.0)}, "h_range"),
        ("hpe", {"j_range": (1.0, 1.0)}, "j_range"),
        ("hpe", {"hpe_levels": 1}, "hpe_levels"),
        ("sample_persistence", {"run_counts": (4, 1)}, "run_counts"),
        ("builtin_pp", {"width_cap": 23}, "width_cap"),
    ],
)
def test_config_checks_parameters_of_listed_methods(method, overrides, field):
    with pytest.raises(ConfigError, match=field):
        tiny_config(methods=("mqc_sequential", method), **overrides)
    # Methods that are not listed leave their parameters unchecked.
    tiny_config(methods=("mqc_sequential",), **overrides)


def test_config_allows_one_run_for_a_single_persistence_round():
    # Only rounds before the last freeze on agreement between runs.
    tiny_config(methods=("sample_persistence",), run_counts=(1,), persistence_rounds=1)
    with pytest.raises(ConfigError, match="run_counts"):
        tiny_config(methods=("sample_persistence",), run_counts=(1,), persistence_rounds=2)


def test_config_names_the_first_bad_field_of_several():
    with pytest.raises(ConfigError, match="width_cap"):
        ExperimentConfig(hpe_scales=(2.0, 1.0), methods=("builtin_pp", "hpe"),
                         width_cap=0, persistence_rounds=0)


def test_config_accepts_integral_floats():
    config = ExperimentConfig.from_dict({"gibbs_beta": 2, "h_range": [-1, 1]})
    assert config.gibbs_beta == 2
    assert config.h_range == (-1.0, 1.0)


def test_load_config_round_trip(tmp_path):
    config = tiny_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    assert load_config(path) == config


def test_load_config_names_line_of_syntax_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "problem_count": 3,\n  oops\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)


# -- topology and problem family ----------------------------------------


def test_topology_graph_chimera_matches_direct_construction():
    graph, n = topology_graph({"kind": "chimera", "rows": 2, "cols": 2, "shore": 4})
    assert n == 32
    assert graph == chimera_graph(ChimeraSpec(2, 2, 4))


@pytest.mark.parametrize(
    "topology, vertices, edges",
    [
        ({"kind": "complete", "n": 5}, 5, 10),
        ({"kind": "path", "n": 7}, 7, 6),
        ({"kind": "grid", "rows": 3, "cols": 4}, 12, 17),
    ],
)
def test_topology_graph_families(topology, vertices, edges):
    graph, n = topology_graph(topology)
    assert n == vertices
    assert len(graph) == edges


def test_topology_graph_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="torus") as e:
        topology_graph({"kind": "torus", "n": 8})
    assert str(e.value) == "unknown topology kind 'torus'"


@pytest.mark.parametrize(
    "topology, unknown",
    [
        ({"kind": "path", "n": 8, "rows": 3, "shroe": 2}, "['rows', 'shroe']"),
        ({"kind": "chimera", "rows": 2, "cols": 2, "shore": 4, "n": 32}, "['n']"),
        ({"kind": "grid", "rows": 2, "cols": 3, "Rows": 2}, "['Rows']"),
    ],
)
def test_topology_graph_rejects_unknown_keys(topology, unknown):
    keys = {"path": "['n']", "chimera": "['rows', 'cols', 'shore']", "grid": "['rows', 'cols']"}
    with pytest.raises(ConfigError) as e:
        topology_graph(topology)
    assert str(e.value) == (f"unknown topology keys {unknown}; "
                            f"topology {topology['kind']!r} takes {keys[topology['kind']]}")


@pytest.mark.parametrize(
    "topology,key",
    [
        ({"kind": "grid"}, "rows"),
        ({"kind": "grid", "rows": 2}, "cols"),
        ({"kind": "chimera", "rows": 2, "cols": 2, "shore": 4.5}, "shore"),
        ({"kind": "path", "n": "8"}, "'n'"),
        ({"kind": "complete", "n": None}, "'n'"),
    ],
)
def test_topology_graph_rejects_missing_or_non_integer_keys(topology, key):
    with pytest.raises(ConfigError, match=key) as e:
        topology_graph(topology)
    name = key.strip("'")
    assert str(e.value) == (f"topology {topology['kind']!r} needs an integer {name!r}, "
                            f"got {topology.get(name)!r}")


@pytest.mark.parametrize("topology", [
    {"kind": "chimera", "rows": 1, "cols": 2, "shore": 3},
    {"kind": "complete", "n": 5},
    {"kind": "path", "n": 6},
    {"kind": "grid", "rows": 2, "cols": 3},
])
def test_cli_gen_writes_the_problems_of_problem_for(tmp_path, topology):
    config = ExperimentConfig(topology=topology, problem_count=2, gen_seed=9,
                              h_range=(-1.0, 3.0), j_range=(-0.5, 0.5))
    sizes = [arg for key, value in topology.items() if key != "kind"
             for arg in (f"--{key}", str(value))]
    out = tmp_path / "problems"
    assert main(["gen", "--topology", topology["kind"], *sizes, "--count", "2",
                 "--seed", "9", "--h-range", "-1", "3", "--j-range", "-0.5", "0.5",
                 "--out", str(out)]) == 0
    for index in range(2):
        save_problem(problem_for(config, index), tmp_path / "expected.json")
        assert (file_hash(out / f"problem_{index:04d}.json")
                == file_hash(tmp_path / "expected.json"))


def test_problem_family_is_seeded_and_distinct():
    config = tiny_config()
    first = problem_for(config, 0)
    again = problem_for(config, 0)
    other = problem_for(config, 1)
    assert first.content_hash() == again.content_hash()
    assert first.content_hash() != other.content_hash()


def test_problem_index_must_be_in_range():
    config = tiny_config()
    with pytest.raises(ConfigError):
        problem_for(config, -1)
    with pytest.raises(ConfigError):
        problem_for(config, config.problem_count)


def test_mode_runset_dispatches_on_mode():
    config = tiny_config()
    problem = problem_for(config, 0)
    raw = mode_runset(config, problem, 0, "raw", 4)
    sampling = mode_runset(config, problem, 0, "sampling", 4)
    assert raw.provenance.sampler == "simulated_anneal"
    assert sampling.provenance.sampler == "gibbs_sample"
    assert len(raw) == len(sampling) == 4
    with pytest.raises(ConfigError, match="warm"):
        mode_runset(config, problem, 0, "warm", 4)


def test_default_config_anneals_with_sampler_defaults():
    assert sampler_params(ExperimentConfig(), "raw", 7, 3) == SamplerParams(num_runs=7, seed=3)


# -- experiment sweep ----------------------------------------------------


def test_run_experiment_produces_one_record_per_cell():
    config = tiny_config()
    records, rows = run_experiment(config)
    cells = (config.problem_count * len(config.run_counts)
             * len(config.modes) * len(config.methods))
    assert len(records) == cells
    seen = {(r["problem"], r["run_count"], r["mode"], r["method"]) for r in records}
    assert len(seen) == cells
    for rec in records:
        assert rec["problem_id"] == f"p{rec['problem']:04d}"
        assert rec["energy"] <= rec["best_input"] + ENERGY_ATOL
        if rec["method"].startswith("mqc_"):
            assert rec["levels"] >= 1


def test_report_rows_each_cover_every_problem():
    config = tiny_config()
    _, rows = run_experiment(config)
    # Per run count: one within-mode pair per mode, plus one cross-mode
    # row per method.
    per_count = len(config.modes) + len(config.methods)
    assert len(rows) == per_count * len(config.run_counts)
    for row in rows:
        assert row.equal + row.a_lower + row.b_lower == config.problem_count


def test_comparison_row_labels():
    within = ComparisonRow(8, "mqc_rank", "raw", "builtin_pp", "raw", 3, 1, 0)
    across = ComparisonRow(8, "mqc_rank", "raw", "mqc_rank", "sampling", 2, 1, 1)
    assert within.label == "raw: mqc_rank vs builtin_pp"
    assert across.label == "mqc_rank: raw vs sampling"


def test_rerun_writes_byte_identical_outputs(tmp_path):
    config = tiny_config()
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    names = ["config.json", "results.jsonl", "report.json", "report.txt"]
    for name in names:
        assert file_hash(tmp_path / "a" / name) == file_hash(tmp_path / "b" / name)


def test_final_energies_are_genuine(tmp_path):
    # Spot-check stored energies against a from-scratch evaluation.
    config = tiny_config(problem_count=2, run_counts=(4,), modes=("raw",))
    records, _ = run_experiment(config)
    for rec in records:
        problem = problem_for(config, rec["problem"])
        runset = mode_runset(config, problem, rec["problem"], rec["mode"],
                             rec["run_count"])
        best = min(oracle_energy(problem, run.spins) for run in runset)
        assert rec["best_input"] == pytest.approx(best, abs=ENERGY_ATOL)


def canonical_rows(rows):
    out = set()
    for r in rows:
        a = (r.method_a, r.mode_a)
        b = (r.method_b, r.mode_b)
        if a <= b:
            out.add((r.run_count, a, b, r.equal, r.a_lower, r.b_lower))
        else:
            out.add((r.run_count, b, a, r.equal, r.b_lower, r.a_lower))
    return out


def test_report_rebuilt_from_results_file_matches(tmp_path):
    config = tiny_config()
    records, rows = run_experiment(config, tmp_path)
    loaded = load_records(tmp_path / "results.jsonl")
    assert loaded == records
    rebuilt = report_from_records(loaded)
    assert canonical_rows(rebuilt) == canonical_rows(rows)


def test_build_report_requires_records():
    with pytest.raises(InputError, match="no records"):
        build_report([], tiny_config())


def test_build_report_flags_missing_cell():
    config = tiny_config()
    records, _ = run_experiment(config)
    with pytest.raises(InputError, match="problem 2"):
        build_report([r for r in records if not (
            r["problem"] == 2 and r["run_count"] == 8
            and r["mode"] == "raw" and r["method"] == "builtin_pp")], config)


def test_load_records_rejects_empty_and_malformed(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(InputError, match="no records"):
        load_records(empty)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
    with pytest.raises(InputError, match="line 2"):
        load_records(bad)


GOOD_RECORD = {"problem": 0, "run_count": 4, "mode": "raw", "method": "alpha",
               "energy": -1.0}


@pytest.mark.parametrize("field, value", [
    ("run_count", None), ("run_count", True), ("run_count", 4.0),
    ("problem", "0"), ("mode", 1), ("method", None),
    ("energy", float("nan")), ("energy", float("inf")), ("energy", [1.0]),
    ("energy", "1.0"), ("energy", 10**400),
])
def test_load_records_checks_each_record(tmp_path, field, value):
    bad = dict(GOOD_RECORD)
    if value is None:
        del bad[field]
    else:
        bad[field] = value
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n\n" + json.dumps(bad) + "\n",
                    encoding="utf-8")
    with pytest.raises(InputError, match=f"line 3: field '{field}'"):
        load_records(path)


def test_write_outputs_refuses_a_non_finite_record(tmp_path):
    """The results writer encodes every record before it opens the file,
    so a nan energy, which load_records would refuse, leaves no file."""
    records = [GOOD_RECORD, {**GOOD_RECORD, "best_input": 1.0, "energy": float("nan")}]
    with pytest.raises(ValueError):
        harness.write_outputs(tiny_config(), records, [], tmp_path)
    assert not (tmp_path / "results.jsonl").exists()


def test_load_records_rejects_non_object_line(tmp_path):
    path = tmp_path / "results.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n[1, 2]\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 2: a record must be a JSON object"):
        load_records(path)


def test_render_report_is_a_padded_table():
    _, rows = run_experiment(tiny_config(problem_count=2, run_counts=(4,)))
    text = render_report(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["runs", "comparison", "=", "<", ">"]
    assert len(lines) == len(rows) + 1
    assert text.endswith("\n")


# -- strategy sensitivity ------------------------------------------------


def test_sensitivity_report_structure(tmp_path):
    config = tiny_config(problem_count=3, run_counts=(6,), modes=("raw",))
    report = sensitivity_report(config, tmp_path)
    assert len(report.rows) == 3  # pairs among the three strategies
    for row in report.rows:
        assert row.equal + row.a_lower + row.b_lower == config.problem_count
    assert len(report.records) == config.problem_count * 3
    for problem, run_count, mode in report.differing:
        assert 0 <= problem < config.problem_count
        assert run_count in config.run_counts
        assert mode in config.modes
    assert (tmp_path / "sensitivity.json").exists()
    assert (tmp_path / "sensitivity.txt").exists()


def test_pairing_strategies_split_on_pinned_instance():
    # Known instance where the three pairing strategies end at three
    # different energies. Values pin the whole chain: problem family,
    # chain sampling, and reduction.
    from isingpp import PairingStrategy, mqc_reduce

    config = ExperimentConfig(
        topology={"kind": "chimera", "rows": 2, "cols": 2, "shore": 4},
        problem_count=50,
        gen_seed=316,
        run_counts=(32,),
        modes=("sampling",),
        methods=("mqc_sequential", "mqc_rank", "mqc_maxdiff"),
        master_seed=2024,
        gibbs_beta=1.0,
        gibbs_burn_in=200,
        gibbs_thinning=2,
    )
    problem = problem_for(config, 1)
    runset = mode_runset(config, problem, 1, "sampling", 32)
    finals = {
        strategy: mqc_reduce(problem, runset, strategy)[0].energy
        for strategy in PairingStrategy
    }
    assert finals[PairingStrategy.SEQUENTIAL] == -38.24758171886285
    assert finals[PairingStrategy.RANK_ORDER] == -38.233317627980774
    assert finals[PairingStrategy.MAX_DIFFERENCE] == -37.68203973069941
    assert max(finals.values()) - min(finals.values()) > ENERGY_ATOL


def test_sensitivity_report_is_deterministic():
    config = tiny_config(problem_count=2, run_counts=(4,), modes=("raw",))
    first = sensitivity_report(config)
    second = sensitivity_report(config)
    assert first.to_dict() == second.to_dict()


def splitting_config(methods):
    """Two Chimera problems whose second splits the pairing strategies in
    sampling mode (see the pinned instance above)."""
    return ExperimentConfig(
        topology={"kind": "chimera", "rows": 2, "cols": 2, "shore": 4},
        problem_count=2, run_counts=(32,), modes=("raw", "sampling"), methods=methods,
        sa_sweeps=30, gibbs_burn_in=200, gibbs_thinning=2,
    )


@pytest.mark.parametrize("methods", [
    ("mqc_sequential", "mqc_rank", "mqc_maxdiff", "builtin_pp"),
    ("mqc_maxdiff", "builtin_pp", "mqc_sequential", "mqc_rank"),
    ("mqc_sequential", "builtin_pp"),
])
def test_sensitivity_report_from_experiment_records_matches_own_sweep(
        tmp_path, monkeypatch, methods):
    config = splitting_config(methods)
    records, _ = run_experiment(config)
    own = sensitivity_report(config, tmp_path / "own")
    assert own.differing == ((1, 32, "sampling"),)
    calls = count_sampler_calls(monkeypatch)
    sensitivity_report(config, tmp_path / "given", records)
    # With all three strategies listed the records are reused; otherwise
    # the report samples every cell in a sweep of its own, a mode's cells
    # of both problems together.
    reused = {"mqc_sequential", "mqc_rank", "mqc_maxdiff"} <= set(methods)
    assert calls == ([] if reused else ["raw", "raw", "sampling", "sampling"])
    for name in ("sensitivity.json", "sensitivity.txt"):
        assert file_hash(tmp_path / "own" / name) == file_hash(tmp_path / "given" / name)


# -- benchmark helper ----------------------------------------------------


def test_bench_reduce_times_each_run_count(chimera_2x2):
    points = bench_reduce(chimera_2x2, (4, 8), seed=0, repeats=1)
    assert [pt["run_count"] for pt in points] == [4, 8]
    assert all(pt["seconds"] > 0 for pt in points)


def test_bench_reduce_rejects_nonpositive_repeats(chimera_2x2):
    with pytest.raises(ConfigError):
        bench_reduce(chimera_2x2, (4,), seed=0, repeats=0)


# -- command line --------------------------------------------------------


def gen_problems(tmp_path, count=2, seed=7):
    out = tmp_path / "problems"
    code = main(["gen", "--topology", "path", "--n", "6",
                 "--count", str(count), "--seed", str(seed),
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.mark.parametrize("argv", [
    ["sample", "--problem", "p.json", "--out", "r.json"],
    ["pp", "--problem", "p.json", "--runs-file", "r.json", "--method", "hpe",
     "--out", "o.json"],
])
def test_cli_config_flags_default_to_experiment_config(argv):
    args = build_parser().parse_args(argv)
    assert _config(args) == ExperimentConfig()
    args = build_parser().parse_args(argv + ["--sweeps", "7", "--thinning", "3"])
    assert _config(args) == ExperimentConfig(sa_sweeps=7, gibbs_thinning=3)


def test_cli_gen_writes_seeded_problem_files(tmp_path, capsys):
    out = gen_problems(tmp_path, count=3)
    files = sorted(os.listdir(out))
    assert files == [f"problem_{i:04d}.json" for i in range(3)]
    assert "wrote 3 problems" in capsys.readouterr().out
    again = tmp_path / "again"
    main(["gen", "--topology", "path", "--n", "6", "--count", "3",
          "--seed", "7", "--out", str(again)])
    for name in files:
        assert file_hash(out / name) == file_hash(again / name)


def test_cli_gen_rejects_negative_count(tmp_path, capsys):
    code = main(["gen", "--topology", "path", "--n", "4", "--count", "-1",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--count" in err
    assert err.count("\n") == 1
    assert main(["gen", "--topology", "path", "--n", "4", "--count", "0",
                 "--out", str(tmp_path / "none")]) == 0
    assert "wrote 0 problems" in capsys.readouterr().out
    assert os.listdir(tmp_path / "none") == []


@pytest.mark.parametrize("argv", [
    ["gen", "--topology", "complete", "--n", "100000000", "--count", "0"],
    ["gen", "--topology", "path", "--n", "1000000000"],
    ["gen", "--topology", "grid", "--rows", "100000", "--cols", "100000"],
    ["gen", "--topology", "chimera", "--rows", "10000", "--cols", "10000"],
    ["sample", "--problem", "{huge}"],
    ["pp", "--problem", "{huge}", "--runs-file", "{huge}", "--method", "mqc_sequential"],
], ids=["complete", "path", "grid", "chimera", "sample", "pp"])
def test_cli_rejects_sizes_above_the_limit(tmp_path, capsys, argv):
    """A graph or problem file above the size limit fails with one
    error: line at once, before any edge list is built and before any
    output is written."""
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"vertex_count": 10**12, "h": [], "J": []}), encoding="utf-8")
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main([arg.format(huge=huge) for arg in argv] + ["--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "limit" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("h_range", [[" -1e308", "1e308"], [" -inf", "1"]])
def test_cli_gen_rejects_range_without_finite_width(tmp_path, capsys, h_range):
    code = main(["gen", "--topology", "path", "--n", "4", "--count", "1",
                 "--h-range", *h_range, "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite width" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("ranges", [["--h-range", " -5e307", "5e307"],
                                    ["--j-range", "0", "1e308"]])
def test_cli_gen_rejects_ranges_whose_draws_could_overflow(tmp_path, capsys, ranges):
    """Each range has a finite width, but 4 vertices' or 3 edges' worth of
    its largest value has no finite sum, so no problem is written."""
    out = tmp_path / "x"
    code = main(["gen", "--topology", "path", "--n", "4", "--count", "1", *ranges,
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field", ["h_range", "j_range"])
def test_config_rejects_range_without_finite_width(field):
    with pytest.raises(ConfigError, match=field):
        tiny_config(**{field: (-1e308, 1e308)})
    with pytest.raises(ConfigError, match=field):
        tiny_config(**{field: (-1.0, 0.0, 1.0)})


def test_cli_experiment_rejects_range_without_finite_width(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**tiny_config().to_dict(), "h_range": [-1e308, 1e308]}),
                    encoding="utf-8")
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "h_range" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("kind", [["chimera"], {"kind": "path"}, None, 3])
def test_cli_experiment_rejects_non_string_topology_kind(tmp_path, capsys, kind):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**tiny_config().to_dict(), "topology": {"kind": kind, "n": 6}}),
                    encoding="utf-8")
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "exp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown topology kind")
    assert err.count("\n") == 1


def test_cli_gen_rejects_empty_coefficient_interval(tmp_path, capsys):
    code = main(["gen", "--topology", "path", "--n", "4", "--count", "1",
                 "--h-range", "2", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("h_range, bound", [(["nan", "1"], "lower"), (["0", "nan"], "upper")])
def test_cli_gen_names_a_nan_range_bound(tmp_path, capsys, h_range, bound):
    """NaN <= 1 is false, but the interval is not empty: its bound is NaN."""
    out = tmp_path / "x"
    code = main(["gen", "--topology", "path", "--n", "4", "--count", "1",
                 "--h-range", *h_range, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: h_range {bound} bound is NaN")
    assert err.count("\n") == 1
    assert not out.exists()


def sample_runs(tmp_path, problem_path, out_name, mode="raw", runs=6, seed=3):
    out = tmp_path / out_name
    code = main(["sample", "--problem", str(problem_path), "--mode", mode,
                 "--runs", str(runs), "--seed", str(seed),
                 "--sweeps", "20", "--burn-in", "30", "--thinning", "1",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.mark.parametrize("mode", ["raw", "sampling", "random"])
def test_cli_sample_modes_produce_loadable_runs(tmp_path, mode):
    problems = gen_problems(tmp_path)
    problem = load_problem(problems / "problem_0000.json")
    runs_path = sample_runs(tmp_path, problems / "problem_0000.json",
                            f"runs_{mode}.json", mode=mode)
    runset = load_runset(runs_path, problem)
    assert len(runset) == 6
    assert runset.problem_id == "problem_0000"


def test_cli_sample_is_deterministic(tmp_path):
    problems = gen_problems(tmp_path)
    a = sample_runs(tmp_path, problems / "problem_0000.json", "a.json")
    b = sample_runs(tmp_path, problems / "problem_0000.json", "b.json")
    assert file_hash(a) == file_hash(b)


def test_cli_sample_at_huge_beta_quenches_without_warnings(tmp_path):
    """beta * dE overflows to inf here; exp(-inf) = 0 is the right
    acceptance, and no numpy warning reaches the user."""
    problems = gen_problems(tmp_path)
    out = tmp_path / "runs.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sample", "--problem", str(problems / "problem_0000.json"),
                     "--mode", "raw", "--beta-start", "1e307", "--beta-end", "1e308",
                     "--runs", "8", "--out", str(out)])
    assert code == 0
    problem = load_problem(problems / "problem_0000.json")
    n = problem.vertex_count
    for run in load_runset(out, problem):
        # Row a is the run with spin a flipped.
        flips = np.where(np.eye(n, dtype=bool), -run.spins, run.spins)
        assert (problem.evaluate_many(flips) - problem.evaluate(run.spins) >= -1e-9).all()


def test_cli_sample_rejects_a_gibbs_beta_whose_double_overflows(tmp_path, capsys):
    """Gibbs sampling multiplies fields by 2 beta; at inf a zero field
    gives inf * 0 = nan, which would set the spin to -1 every time."""
    problems = gen_problems(tmp_path)
    out = tmp_path / "runs.json"
    assert main(["sample", "--problem", str(problems / "problem_0000.json"),
                 "--mode", "sampling", "--beta", "1e308", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fixed_beta" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("mode", ["raw", "sampling", "random"])
def test_cli_sample_rejects_coefficients_whose_sum_overflows(tmp_path, capsys, mode):
    """Each coefficient is finite, but their absolute sum is not, so an
    energy could overflow to an infinity that no file may hold."""
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "vertex_count": 4, "h": [[0, 1e308], [1, -1e308], [2, 1e308], [3, 5.0]],
        "J": [[0, 1, 1.7e308], [1, 2, -1.7e308], [2, 3, 1e308], [0, 3, 1e308]]}))
    out = tmp_path / "runs.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sample", "--problem", str(problem), "--mode", mode, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite sum" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_sample_missing_problem_exits_with_diagnostic(tmp_path, capsys):
    code = main(["sample", "--problem", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "runs.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, flag", [("compare", "--results"), ("sample", "--problem")])
def test_cli_names_a_file_that_is_not_utf8(tmp_path, capsys, command, flag):
    """A file that starts with bytes ff fe, a UTF-16 byte-order mark, is
    not UTF-8: one error line names it, and the command exits 2."""
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out.json"
    assert main([command, flag, str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and "UTF-8" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("mode", ["raw", "sampling", "random"])
def test_cli_sample_refuses_more_runs_than_a_seed_has_streams(tmp_path, capsys, mode):
    """10^12 runs exceed the 2**32 child streams of a seed: one line and
    exit 2, before any array of the runs is allocated."""
    problems = gen_problems(tmp_path)
    out = tmp_path / "runs.json"
    code = main(["sample", "--problem", str(problems / "problem_0000.json"), "--mode", mode,
                 "--runs", "1000000000000", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "2**32" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--burn-in", "10000000000000000000"],
    ["--thinning", "100000000000000000", "--runs", "100"],
], ids=["burn_in", "thinning"])
def test_cli_sample_refuses_a_gibbs_chain_beyond_int64_sweeps(tmp_path, capsys, flags):
    problems = gen_problems(tmp_path)
    out = tmp_path / "runs.json"
    code = main(["sample", "--problem", str(problems / "problem_0000.json"),
                 "--mode", "sampling", *flags, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: burn_in + num_runs * thinning must be at most 2**63 - 1")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_reports_running_out_of_memory_in_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(problem, params, problem_id=None):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setitem(harness.SAMPLERS, "raw", exhausted)
    problems = gen_problems(tmp_path)
    out = tmp_path / "runs.json"
    code = main(["sample", "--problem", str(problems / "problem_0000.json"),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB for an array\n"
    assert not out.exists()


def test_cli_pp_reduce_lowers_energy_and_records_source(tmp_path):
    problems = gen_problems(tmp_path)
    problem = load_problem(problems / "problem_0000.json")
    runs_path = sample_runs(tmp_path, problems / "problem_0000.json", "runs.json")
    out = tmp_path / "reduced.json"
    code = main(["pp", "--problem", str(problems / "problem_0000.json"),
                 "--runs-file", str(runs_path), "--method", "mqc_sequential",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    reduced = load_runset(out, problem)
    original = load_runset(runs_path, problem)
    assert len(reduced) == 1
    assert reduced.energies()[0] <= original.energies().min() + ENERGY_ATOL
    assert reduced.provenance.sampler == "mqc_sequential"
    assert reduced.provenance.params["source_sampler"] == "simulated_anneal"
    assert reduced.provenance.params["source_seed"] == 3


def test_cli_pp_builtin_improves_every_run(tmp_path):
    problems = gen_problems(tmp_path)
    problem = load_problem(problems / "problem_0000.json")
    runs_path = sample_runs(tmp_path, problems / "problem_0000.json", "runs.json")
    out = tmp_path / "pp.json"
    code = main(["pp", "--problem", str(problems / "problem_0000.json"),
                 "--runs-file", str(runs_path), "--method", "builtin_pp",
                 "--out", str(out)])
    assert code == 0
    before = load_runset(runs_path, problem).energies()
    after = load_runset(out, problem).energies()
    assert after.shape == before.shape
    assert np.all(after <= before + ENERGY_ATOL)


def test_cli_pp_single_run_passes_through(tmp_path):
    problems = gen_problems(tmp_path)
    problem = load_problem(problems / "problem_0000.json")
    runs_path = sample_runs(tmp_path, problems / "problem_0000.json",
                            "one.json", runs=1)
    out = tmp_path / "reduced.json"
    code = main(["pp", "--problem", str(problems / "problem_0000.json"),
                 "--runs-file", str(runs_path), "--method", "mqc_sequential",
                 "--out", str(out)])
    assert code == 0
    original = load_runset(runs_path, problem)
    reduced = load_runset(out, problem)
    assert len(reduced) == 1
    assert reduced[0].same_spins(original[0])


def test_cli_pp_persistence_refuses_one_run_with_more_than_one_round(tmp_path, capsys):
    problem_path = gen_problems(tmp_path) / "problem_0000.json"
    runs_path = sample_runs(tmp_path, problem_path, "one.json", runs=1)
    capsys.readouterr()
    out = tmp_path / "pp.json"
    assert main(["pp", "--problem", str(problem_path), "--runs-file", str(runs_path),
                 "--method", "sample_persistence", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least two runs" in err
    assert "--rounds" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("method, mode", [
    *(pytest.param(m, "raw", id=m) for m in (
        "mqc_sequential", "mqc_rank", "mqc_maxdiff", "builtin_pp", "sample_persistence")),
    *(pytest.param("hpe", mode, id=f"hpe-{mode}") for mode in ("raw", "sampling"))])
def test_cli_pp_problem_without_vertices(tmp_path, method, mode):
    """Every method takes the runs of a problem with no vertices and keeps
    energy 0.0; the ones that re-sample take the empty run unsampled."""
    problem_path = tmp_path / "empty.json"
    problem_path.write_text(json.dumps({"vertex_count": 0, "h": [], "J": []}))
    problem = load_problem(problem_path)
    runs_path = tmp_path / "runs.json"
    save_runset(RunSet([problem.configuration([])] * 3, problem.content_hash(),
                       Provenance("hand", {}, 0)), runs_path)
    out = tmp_path / "pp.json"
    assert main(["pp", "--problem", str(problem_path), "--runs-file", str(runs_path),
                 "--method", method, "--resample-mode", mode, "--out", str(out)]) == 0
    result = load_runset(out, problem)
    assert result.spins.shape == ((3, 0) if method == "builtin_pp" else (1, 0))
    assert not result.energies().any()


def test_cli_pp_checks_only_the_chosen_method(tmp_path, capsys):
    problem_path = gen_problems(tmp_path) / "problem_0000.json"
    runs_path = sample_runs(tmp_path, problem_path, "runs.json")
    args = ["pp", "--problem", str(problem_path), "--runs-file", str(runs_path),
            "--width-cap", "0"]
    assert main(args + ["--method", "mqc_sequential",
                        "--out", str(tmp_path / "mqc.json")]) == 0
    assert main(args + ["--method", "mqc_sequential", "--sweeps", "0",
                        "--out", str(tmp_path / "mqc.json")]) == 0
    capsys.readouterr()
    assert main(args + ["--method", "builtin_pp",
                        "--out", str(tmp_path / "builtin.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "width_cap" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "builtin.json").exists()


def test_cli_pp_refuses_a_width_cap_above_the_largest_table(tmp_path, capsys, monkeypatch):
    """On K32, cap 31 makes the whole graph one subgraph, whose elimination
    would build a table of 2^32 entries a run: pp exits 2 with one error
    line before any elimination starts."""
    problems = tmp_path / "problems"
    assert main(["gen", "--topology", "complete", "--n", "32", "--count", "1",
                 "--out", str(problems)]) == 0
    problem_path = problems / "problem_0000.json"
    runs_path = sample_runs(tmp_path, problem_path, "runs.json", mode="random")
    eliminations = []
    monkeypatch.setattr(altpp, "_eliminate",
                        lambda problem, spins, sub: eliminations.append(sub.width) or spins)
    capsys.readouterr()
    assert main(["pp", "--problem", str(problem_path), "--runs-file", str(runs_path),
                 "--method", "builtin_pp", "--width-cap", "31",
                 "--out", str(tmp_path / "builtin.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "width_cap" in err
    assert err.count("\n") == 1
    assert eliminations == []
    assert not (tmp_path / "builtin.json").exists()


def test_cli_pp_rejects_runs_for_a_different_problem(tmp_path, capsys):
    problems = gen_problems(tmp_path)
    runs_path = sample_runs(tmp_path, problems / "problem_0000.json", "runs.json")
    code = main(["pp", "--problem", str(problems / "problem_0001.json"),
                 "--runs-file", str(runs_path), "--method", "mqc_sequential",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("where, field, value", [
    ("run", "energy", float("nan")),
    ("run", "energy", float("-inf")),
    ("run", "energy", [1.0]),
    ("run", "energy", True),
    ("run", "energy", "1.0"),
    ("provenance", "seed", None),
    ("provenance", "seed", "3"),
    ("provenance", "seed", 3.5),
    ("provenance", "seed", False),
    ("provenance", "sampler", ["x"]),
    ("provenance", "params", 5),
    ("run", "spins", 5),
    ("doc", "problem_id", 5),
])
def test_cli_pp_rejects_bad_stored_values(tmp_path, capsys, where, field, value):
    problem_path = gen_problems(tmp_path) / "problem_0000.json"
    runs_path = sample_runs(tmp_path, problem_path, "runs.json")
    doc = json.loads(runs_path.read_text(encoding="utf-8"))
    {"doc": doc, "provenance": doc["provenance"], "run": doc["runs"][1]}[where][field] = value
    runs_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "reduced.json"
    code = main(["pp", "--problem", str(problem_path), "--runs-file", str(runs_path),
                 "--method", "mqc_rank", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(field) in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_compare_builds_tables_from_results(tmp_path, capsys):
    records = []
    for problem in range(3):
        for method, energy in (("alpha", -1.0), ("beta", -1.0 - problem)):
            records.append({"problem": problem, "run_count": 4, "mode": "raw",
                            "method": method, "energy": energy,
                            "best_input": -1.0})
    results = tmp_path / "results.jsonl"
    with open(results, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    out = tmp_path / "report"
    code = main(["compare", "--results", str(results), "--out", str(out)])
    assert code == 0
    rows = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert rows == [{"run_count": 4, "method_a": "alpha", "mode_a": "raw",
                     "method_b": "beta", "mode_b": "raw",
                     "equal": 1, "a_lower": 0, "b_lower": 2}]
    stdout = capsys.readouterr().out
    assert "alpha vs beta" in stdout
    assert (out / "report.txt").read_text(encoding="utf-8") in stdout


@pytest.mark.parametrize("field, value", [("run_count", None), ("energy", float("nan"))])
def test_cli_compare_rejects_bad_record(tmp_path, capsys, field, value):
    bad = dict(GOOD_RECORD, method="beta", **{field: value})
    if value is None:
        del bad[field]
    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(bad) + "\n",
                       encoding="utf-8")
    out = tmp_path / "report"
    code = main(["compare", "--results", str(results), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err and repr(field) in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_compare_empty_results_exits_with_diagnostic(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    results.write_text("", encoding="utf-8")
    code = main(["compare", "--results", str(results)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    doc = tiny_config(**overrides).to_dict()
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_cli_experiment_writes_full_output_set(tmp_path):
    config_path = write_config(
        tmp_path, problem_count=2, run_counts=(4,), modes=("raw",),
        methods=("mqc_sequential", "mqc_rank"),
    )
    out = tmp_path / "exp"
    code = main(["experiment", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    for name in ("config.json", "results.jsonl", "report.json", "report.txt"):
        assert (out / name).exists()


def test_cli_experiment_sensitivity_flag_adds_tables(tmp_path, capsys):
    config_path = write_config(
        tmp_path, problem_count=2, run_counts=(4,), modes=("raw",),
        methods=("mqc_sequential",),
    )
    out = tmp_path / "exp"
    code = main(["experiment", "--config", str(config_path), "--out", str(out),
                 "--sensitivity"])
    assert code == 0
    assert (out / "sensitivity.json").exists()
    assert "strategy-differing instances" in capsys.readouterr().out


def test_cli_experiment_sensitivity_samples_each_cell_once(tmp_path, monkeypatch):
    config = tiny_config(methods=("mqc_maxdiff", "builtin_pp", "mqc_sequential", "mqc_rank"))
    config_path = write_config(tmp_path, methods=config.methods)
    calls = count_sampler_calls(monkeypatch)
    assert main(["experiment", "--config", str(config_path), "--out", str(tmp_path / "exp"),
                 "--sensitivity"]) == 0
    # One block of problems: each mode samples every run count's cells of
    # all of them.
    assert calls == [mode for mode in config.modes for _ in config.run_counts
                     for _ in range(config.problem_count)]


def test_sweep_samples_each_block_and_mode_in_one_call(monkeypatch):
    config = tiny_config(problem_count=harness._PROBLEM_BLOCK + 1, run_counts=(3, 8),
                         methods=("mqc_sequential", "hpe"))
    calls = []

    def content(jobs):
        return [(problem.content_hash(), params, pid) for problem, params, pid in jobs]

    def counted(sampler, jobs):
        jobs = list(jobs)
        calls.append((sampler, content(jobs)))
        return sample_many(sampler, jobs)

    monkeypatch.setattr(harness, "sample_many", counted)
    # hpe's scales go through hpe.sample_scales.
    monkeypatch.setattr(importlib.import_module("isingpp.hpe"), "sample_many", counted)
    run_experiment(config)
    # Per block: each mode's input runs of every cell, then, when hpe's
    # function is called, each mode's hpe scales of every problem, once,
    # at the largest run count.
    per_scale = max(config.run_counts) // len(config.hpe_scales)
    model = PrecisionModel(config.h_range, config.j_range, config.hpe_levels)
    expected = []
    for block in (range(harness._PROBLEM_BLOCK), [harness._PROBLEM_BLOCK]):
        problems = [problem_for(config, index) for index in block]
        for mode in config.modes:
            expected.append((harness.SAMPLERS[mode], content([
                (problem, sampler_params(config, mode, num_runs, derive_seed(
                    config.master_seed, "sample", mode, num_runs, index)), f"p{index:04d}")
                for num_runs in config.run_counts for index, problem in zip(block, problems)])))
        for mode in config.modes:
            expected.append((harness.SAMPLERS[mode], content([
                job for index, problem in zip(block, problems) for job in hpe_jobs(
                    emulate(problem, config.hpe_scales, model), per_scale, sampler_params(
                        config, mode, per_scale,
                        derive_seed(config.master_seed, "hpe", mode, index)))])))
    assert calls == expected


def test_sweep_hpe_records_match_standalone_hpe():
    # 17 problems span two blocks; 3 runs give hpe one run per scale. The
    # sweep merges each cell's budget of the scales sampled at its
    # problem's largest cell; the one-cell call samples the cell's own.
    config = tiny_config(problem_count=17, run_counts=(3, 8), methods=("hpe",))
    records, _ = run_experiment(config)
    assert len(records) == 17 * 2 * 2
    for rec in records:
        index, mode = rec["problem"], rec["mode"]
        problem = problem_for(config, index)
        runset = mode_runset(config, problem, index, mode, rec["run_count"])
        *_, fields = harness.apply_method(config, problem, runset, "hpe", mode, index)
        assert fields["energy"].hex() == rec["energy"].hex()


def test_every_record_is_its_cells_one_cell_call():
    # Two blocks, both modes and every method of the table: 408 records.
    config = tiny_config(problem_count=17, run_counts=(3, 8), methods=METHODS)
    records, _ = run_experiment(config)
    assert len(records) == 17 * 2 * 2 * len(METHODS) == 408
    runsets = {}
    for rec in records:
        cell = rec["problem"], rec["mode"], rec["run_count"]
        problem = problem_for(config, rec["problem"])
        if cell not in runsets:
            runsets[cell] = mode_runset(config, problem, *cell)
        *_, fields = harness.apply_method(config, problem, runsets[cell], rec["method"],
                                          rec["mode"], rec["problem"])
        assert fields["energy"].hex() == rec["energy"].hex()
        assert {**rec, **fields} == rec


def test_a_methods_block_call_gives_each_cells_one_cell_call(monkeypatch):
    # The larger raw cell comes first, against a sweep's ascending run
    # counts, so hpe samples the scales of the first cell.
    config = tiny_config(problem_count=1, methods=METHODS)
    sampled = []
    monkeypatch.setattr(harness, "sample_scales", lambda sampler, jobs: (
        sampled.append([q.num_runs for _, q, _ in jobs]) or sample_scales(sampler, jobs)))
    problem = problem_for(config, 0)
    raw = mode_runset(config, problem, 0, "raw", 8)
    cells = [Cell(0, problem, raw, "raw"),
             Cell(0, problem, RunSet.from_matrix(raw.spins[:4], raw.energies()[:4],
                                                 raw.problem_id, raw.provenance), "raw"),
             Cell(0, problem, mode_runset(config, problem, 0, "sampling", 4), "sampling", 9)]
    for method in METHODS:
        outputs = harness._METHOD_TABLE[method](config, cells)
        if method == "hpe":
            # One call a mode, at the mode's largest cell: 8 // 4 and 4 // 4 runs.
            assert sampled == [[2] * 4, [1] * 4]
        for cell, (spins, energies, fields) in zip(cells, outputs, strict=True):
            one = harness.apply_method(config, problem, cell.runset, method, cell.mode,
                                       seed=cell.seed)
            assert np.array_equal(spins, one[0]) and list(energies) == list(one[1])
            assert fields == one[2]
    with pytest.raises(ConfigError, match="unknown method 'annealer'"):
        harness.apply_method(config, problem, raw, "annealer", "raw")


CONTRACT_CONFIGS = {
    "tiny_two_blocks": lambda: tiny_config(problem_count=17, run_counts=(3, 8), methods=METHODS),
    "default_four": lambda: ExperimentConfig(problem_count=4, methods=METHODS),
}


@pytest.fixture(scope="module", params=list(CONTRACT_CONFIGS))
def swept(request):
    config = CONTRACT_CONFIGS[request.param]()
    return config, run_experiment(config)[0]


def test_mqc_and_builtin_pp_never_end_above_the_best_input(swept):
    # Both start from the cell's input runs and never raise an energy.
    config, records = swept
    checked = [rec for rec in records if rec["method"] in (*harness._MQC_STRATEGY, "builtin_pp")]
    assert len(checked) == config.problem_count * 2 * 2 * 4
    for rec in checked:
        assert rec["energy"] <= rec["best_input"] + ENERGY_ATOL, rec


def test_persistence_never_ends_above_the_best_input(swept):
    # Round 0's assembled run is the input's best, and a later round's
    # replaces it only when strictly lower (Karimi et al., arXiv:1706.07826).
    config, records = swept
    checked = [rec for rec in records if rec["method"] == "sample_persistence"]
    assert len(checked) == config.problem_count * 2 * 2
    for rec in checked:
        assert rec["energy"] <= rec["best_input"], rec


def persistence_by_rounds(problem, sampler, params, threshold, rounds, initial_runs):
    """sample_persistence's rule unfolded through ``FixedAssignment``: each
    round's best run assembled by every earlier round's ``assemble``, last
    first, and the all-frozen vector once reached; the earliest minimum."""
    fixes, assembled, current = [], [], problem
    for r in range(rounds):
        if current.vertex_count == 0:
            spins = np.zeros(0, dtype=np.int8)
        elif r == 0:
            spins = (runset := initial_runs).best().spins
        else:
            runset = sampler(current, replace(
                params, seed=derive_seed(params.seed, "persistence", r)))
            spins = runset.best().spins
        for fa in reversed(fixes):
            spins = fa.assemble(spins)
        assembled.append(problem.configuration(spins))
        if current.vertex_count == 0 or r == rounds - 1:
            break
        fixes.append(altpp.persistence_fix(current, runset, threshold))
        current = fixes[-1].reduced_problem
    return min(assembled, key=lambda c: c.energy)


def test_persistence_records_are_the_earliest_best_assembled_round(swept):
    # tiny_two_blocks freezes every vertex of 29 cells; both configs have
    # sampling-mode cells whose later rounds end below the input.
    config, records = swept
    below = []
    for rec in records:
        if rec["method"] != "sample_persistence":
            continue
        index, mode = rec["problem"], rec["mode"]
        problem = problem_for(config, index)
        runset = mode_runset(config, problem, index, mode, rec["run_count"])
        best = persistence_by_rounds(
            problem, harness.SAMPLERS[mode], sampler_params(
                config, mode, len(runset), derive_seed(config.master_seed, "persistence",
                                                       mode, index)),
            config.persistence_threshold, config.persistence_rounds, runset)
        assert best.energy.hex() == rec["energy"].hex(), rec
        spins, *_ = harness.apply_method(config, problem, runset, "sample_persistence",
                                         mode, index)
        assert np.array_equal(spins[0], best.spins)
        below.append(best.energy < runset.best().energy)
    assert any(below) and not all(below)


def test_persistence_keeps_the_best_input_where_its_last_round_ends_above_it():
    # The default experiment's sampling-mode, 400-run cell of problem 13:
    # the last round's best run, assembled, is 0.942 above the input's best.
    config = ExperimentConfig(problem_count=16, methods=METHODS)
    problem = problem_for(config, 13)
    runset = mode_runset(config, problem, 13, "sampling", 400)
    spins, _, fields = harness.apply_method(config, problem, runset, "sample_persistence",
                                            "sampling", 13)
    assert fields["energy"].hex() == runset.best().energy.hex() == (-184.41916840815477).hex()
    assert np.array_equal(spins[0], runset.best().spins)


def test_hpe_never_ends_above_its_best_scale_run(swept):
    # hpe merges its scales' runs with MQC at full precision, so it ends at
    # or below the best of them. hpe() samples a cell's scales as the
    # one-cell call does, and its report gives their best energies.
    config, records = swept
    checked = [rec for rec in records if rec["method"] == "hpe"]
    assert len(checked) == config.problem_count * 2 * 2
    model = PrecisionModel(config.h_range, config.j_range, config.hpe_levels)
    for rec in checked:
        index, mode = rec["problem"], rec["mode"]
        per_scale = harness._runs_per_scale(config, rec["run_count"])
        final, report = hpe(problem_for(config, index), ScaleSet(config.hpe_scales, per_scale),
                            model, sampler_params(config, mode, per_scale, derive_seed(
                                config.master_seed, "hpe", mode, index)),
                            sampler=harness.SAMPLERS[mode])
        assert final.energy.hex() == rec["energy"].hex()
        assert rec["energy"] <= min(report.per_scale_best) + ENERGY_ATOL, rec


@pytest.mark.parametrize("fields, mode", [
    ({"sa_sweeps": 0}, "raw"),
    ({"sa_beta_start": 5.0, "sa_beta_end": 0.1}, "raw"),
    ({"sa_interpolation": "cubic"}, "raw"),
    ({"gibbs_beta": 0.0}, "sampling"),
    ({"gibbs_thinning": 0}, "sampling"),
    ({"gibbs_burn_in": -1}, "sampling"),
    # 2 * beta overflows; a zero field would give a spin of nan odds.
    ({"gibbs_beta": 1e308}, "sampling"),
    # A chain's sweep count must fit int64 at the largest run count.
    ({"gibbs_burn_in": 10**19}, "sampling"),
    ({"gibbs_thinning": 2**61}, "sampling"),
])
def test_cli_experiment_rejects_bad_sampler_settings_before_sampling(
        tmp_path, capsys, monkeypatch, fields, mode):
    config_path = write_config(tmp_path, modes=("sampling", "raw"), **fields)
    calls = count_sampler_calls(monkeypatch)
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(config_path), "--out", str(out),
                 "--sensitivity"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"mode {mode!r}" in err
    assert err.count("\n") == 1
    assert calls == []
    assert not out.exists()


def write_raw_config(tmp_path, **fields):
    """A one-problem tiny config with ``fields`` set as given, unchecked."""
    path = tmp_path / "config.json"
    doc = {**tiny_config(problem_count=1, run_counts=(4,)).to_dict(), **fields}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_cli_experiment_takes_a_beta_end_beyond_64_bits(tmp_path):
    # numpy holds an int beyond 64 bits as an object, which the beta
    # interpolations cannot take.
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(write_raw_config(tmp_path, sa_beta_end=2**64)),
                 "--out", str(out)]) == 0
    assert (out / "report.txt").exists()


def test_cli_experiment_rejects_more_levels_than_floats_index(tmp_path, capsys):
    config_path = write_raw_config(tmp_path, methods=["hpe"], hpe_levels=2**1100)
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "2^53" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--h-range", "--j-range"])
def test_cli_gen_rejects_bad_ranges_before_writing(tmp_path, capsys, flag):
    out = tmp_path / "problems"
    assert main(["gen", "--count", "1", flag, "0", "inf", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


def test_cli_experiment_unknown_config_field_exits(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"problem_count": 2, "jitter": 1}),
                    encoding="utf-8")
    code = main(["experiment", "--config", str(path),
                 "--out", str(tmp_path / "exp")])
    assert code == 2
    assert "jitter" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [{"topology": {"kind": "grid"}}, {"problem_count": "3"},
     {"methods": ["mqc_sequential", "hpe"], "hpe_scales": [2.0, 1.0]},
     {"topology": {"kind": "path", "n": 8, "rows": 3, "shroe": 2}},
     {"h_range": [2.0, -2.0]}],
)
def test_cli_experiment_malformed_config_exits(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["experiment", "--config", str(path),
                 "--out", str(tmp_path / "exp")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("text", ["[]", "42", "null"])
def test_cli_experiment_non_object_config_exits(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    code = main(["experiment", "--config", str(path),
                 "--out", str(tmp_path / "exp")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "JSON object" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"vertex_count": 2, "h": [[null, 1.0]], "J": []}',
        '{"vertex_count": 2, "h": [[0, NaN]], "J": []}',
        '{"vertex_count": 2, "h": [], "J": [[0, 1, -Infinity]]}',
        '{"vertex_count": 2, "h": [[0, 1.0], [0, -5.0]], "J": []}',
        '{"vertex_count": 2, "h": [], "J": [[0, 1, 0.5], [0, 1, 9.0]]}',
        '{"vertex_count": 2, "h": 5, "J": []}',
        '{"vertex_count": 2, "h": [], "J": null}',
        '{"vertex_count": 2, "h": {}, "J": []}',
        '{"vertex_count": 2, "h": [[0, 1%s]], "J": []}' % ("0" * 400),
        '{"vertex_count": 2, "h": [], "J": [[0, 1, -1%s]]}' % ("0" * 400),
    ],
)
def test_cli_sample_malformed_problem_exits_without_output(tmp_path, capsys, text):
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(text, encoding="utf-8")
    out = tmp_path / "runs.json"
    code = main(["sample", "--problem", str(problem_path), "--runs", "4",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "pp"])
@pytest.mark.parametrize("field, entries, named", [
    ("h", [[0, 1.0], [1, "1.5"]], "'h' entry 1"),
    ("h", [[0, True]], "'h' entry 0"),
    ("J", [[0, 1, {"w": 1.0}]], "'J' entry 0"),
    ("J", [[0, 1, 0.5], [1, 2, [0.5]]], "'J' entry 1"),
    ("h", [[0, 1.0], 2], "'h' entry 1"),
    ("h", [[2, 1.0], [3, 0.5], [2, -1.0]], "'h' entry 2 repeats"),
])
def test_cli_malformed_coefficient_names_field_and_entry(tmp_path, capsys, command, field,
                                                         entries, named):
    """A bad value or entry in a problem file ends ``sample`` and ``pp``
    with one error: line naming the field and entry, and no warning."""
    runs_path = sample_runs(tmp_path, gen_problems(tmp_path) / "problem_0000.json", "runs.json")
    doc = {"vertex_count": 6, "h": [], "J": []}
    doc[field] = entries
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "out.json"
    argv = {"sample": ["sample", "--problem", str(problem_path), "--runs", "4"],
            "pp": ["pp", "--problem", str(problem_path), "--runs-file", str(runs_path),
                   "--method", "mqc_rank"]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_out_env_var_overrides_destination(tmp_path, monkeypatch):
    redirect = tmp_path / "redirected"
    monkeypatch.setenv("ISINGPP_OUT", str(redirect))
    code = main(["gen", "--topology", "path", "--n", "4", "--count", "1",
                 "--seed", "1", "--out", str(tmp_path / "ignored")])
    assert code == 0
    assert (redirect / "problem_0000.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_bench_reports_timings(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["bench", "--topology", "path", "--n", "4",
                 "--runs", "4", "8", "--repeats", "1", "--out", str(out)])
    assert code == 0
    points = json.loads(out.read_text(encoding="utf-8"))
    assert [pt["run_count"] for pt in points] == [4, 8]
    assert capsys.readouterr().out.count("runs") == 2


def test_cli_bench_passes_strategy_through(tmp_path, capsys, monkeypatch):
    seen = []

    def fake_bench_reduce(problem, run_counts, seed, strategy, repeats):
        seen.append(strategy)
        return [{"run_count": n, "seconds": 0.001} for n in run_counts]

    monkeypatch.setattr("isingpp.cli.bench_reduce", fake_bench_reduce)
    base = ["bench", "--topology", "path", "--n", "4", "--runs", "4", "--repeats", "1"]
    assert main(base) == 0
    for strategy in ("sequential", "rank_order", "max_difference"):
        assert main(base + ["--strategy", strategy]) == 0
    assert seen == ["sequential", "sequential", "rank_order", "max_difference"]
    assert capsys.readouterr().out == "     4 runs       1.00 ms\n" * 4


def test_cli_bench_times_its_seeded_default_range_problem(monkeypatch):
    seen = []

    def fake_bench_reduce(problem, run_counts, seed, strategy, repeats):
        seen.append(problem)
        return []

    monkeypatch.setattr("isingpp.cli.bench_reduce", fake_bench_reduce)
    assert main(["bench", "--topology", "grid", "--rows", "2", "--cols", "3",
                 "--seed", "5", "--runs", "4"]) == 0
    graph = [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)]
    expected = random_problem(graph, ProblemGenSpec(
        (-2.0, 2.0), (-1.0, 1.0), derive_seed(5, "bench-problem")), vertex_count=6)
    assert (seen[0].h, seen[0].J) == (expected.h, expected.J)


def test_cli_bench_max_difference_reports_timings(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["bench", "--topology", "path", "--n", "4", "--runs", "5", "8",
                 "--repeats", "1", "--strategy", "max_difference", "--out", str(out)])
    assert code == 0
    points = json.loads(out.read_text(encoding="utf-8"))
    assert [pt["run_count"] for pt in points] == [5, 8]
