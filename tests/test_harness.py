"""Harness and CLI tests: config handling, sweep structure, report
invariants, byte-stable outputs, and end-to-end pipeline runs."""

import hashlib
import json
import os

import numpy as np
import pytest

from isingpp import (
    ENERGY_ATOL,
    ExperimentConfig,
    bench_reduce,
    load_problem,
    load_runset,
    run_experiment,
    sensitivity_report,
)
from isingpp.cli import main
from isingpp.errors import ConfigError, InputError
from isingpp.harness import (
    ComparisonRow,
    build_report,
    load_config,
    load_records,
    mode_runset,
    problem_for,
    render_report,
    report_from_records,
    topology_graph,
)
from isingpp.topology import ChimeraSpec, chimera_graph

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
    ],
)
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ConfigError):
        tiny_config(**overrides)


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
        ("hpe", {"j_range": (1.0, -1.0)}, "j_range"),
        ("hpe", {"hpe_levels": 1}, "hpe_levels"),
        ("sample_persistence", {"run_counts": (4, 1)}, "run_counts"),
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
    with pytest.raises(ConfigError, match="torus"):
        topology_graph({"kind": "torus", "n": 8})


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
    with pytest.raises(ConfigError, match=key):
        topology_graph(topology)


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


def test_cli_gen_rejects_empty_coefficient_interval(tmp_path, capsys):
    code = main(["gen", "--topology", "path", "--n", "4", "--count", "1",
                 "--h-range", "2", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


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


def test_cli_sample_missing_problem_exits_with_diagnostic(tmp_path, capsys):
    code = main(["sample", "--problem", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "runs.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


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


def test_cli_pp_checks_only_the_chosen_method(tmp_path, capsys):
    problem_path = gen_problems(tmp_path) / "problem_0000.json"
    runs_path = sample_runs(tmp_path, problem_path, "runs.json")
    args = ["pp", "--problem", str(problem_path), "--runs-file", str(runs_path),
            "--width-cap", "0"]
    assert main(args + ["--method", "mqc_sequential",
                        "--out", str(tmp_path / "mqc.json")]) == 0
    capsys.readouterr()
    assert main(args + ["--method", "builtin_pp",
                        "--out", str(tmp_path / "builtin.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "width_cap" in err
    assert err.count("\n") == 1
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
])
def test_cli_pp_rejects_bad_stored_values(tmp_path, capsys, where, field, value):
    problem_path = gen_problems(tmp_path) / "problem_0000.json"
    runs_path = sample_runs(tmp_path, problem_path, "runs.json")
    doc = json.loads(runs_path.read_text(encoding="utf-8"))
    (doc["runs"][1] if where == "run" else doc["provenance"])[field] = value
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
     {"methods": ["mqc_sequential", "hpe"], "hpe_scales": [2.0, 1.0]}],
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


def test_cli_bench_max_difference_reports_timings(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["bench", "--topology", "path", "--n", "4", "--runs", "5", "8",
                 "--repeats", "1", "--strategy", "max_difference", "--out", str(out)])
    assert code == 0
    points = json.loads(out.read_text(encoding="utf-8"))
    assert [pt["run_count"] for pt in points] == [5, 8]
