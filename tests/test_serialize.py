"""Problem and runs file round trips and parse diagnostics."""

import json

import numpy as np
import pytest

from isingpp import (
    IsingProblem,
    SamplerParams,
    load_problem,
    load_runset,
    save_problem,
    save_runset,
    simulated_anneal,
)
from isingpp.errors import InputError, ParseError
from isingpp.serialize import spins_to_strings, strings_to_spins

from conftest import make_chimera_problem


class TestSpinStrings:
    def test_round_trip(self):
        spins = np.array([[1, -1, -1, 1], [-1, 1, 1, 1]], dtype=np.int8)
        assert spins_to_strings(spins) == ["+--+", "-+++"]
        assert np.array_equal(strings_to_spins(["+--+", "-+++"]), spins)

    def test_empty(self):
        assert spins_to_strings(np.empty((2, 0), dtype=np.int8)) == ["", ""]
        assert strings_to_spins(["", ""]).shape == (2, 0)

    def test_bad_character_names_position(self):
        with pytest.raises(ParseError, match="run 1 spin character 'x' at position 2"):
            strings_to_spins(["++++", "+-x-"])
        # A non-ASCII character takes one position, like any other.
        with pytest.raises(ParseError, match="run 0 spin character 'é' at position 1"):
            strings_to_spins(["+é+x"])


class TestProblemFiles:
    def test_round_trip_preserves_floats(self, tmp_path):
        problem = make_chimera_problem(seed=316)
        path = tmp_path / "problem.json"
        save_problem(problem, path)
        loaded = load_problem(path)
        assert loaded.vertex_count == problem.vertex_count
        assert loaded.h == problem.h
        assert loaded.J == problem.J

    def test_write_is_stable(self, tmp_path):
        problem = make_chimera_problem(seed=316)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_problem(problem, a)
        save_problem(problem, b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertex_count": 2,\n  "h": [[0, 1.0]\n}')
        with pytest.raises(ParseError, match="line"):
            load_problem(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"vertex_count": 2, "h": []}\n')
        with pytest.raises(ParseError, match="'J'"):
            load_problem(path)

    def test_bad_entry_shape_named(self, tmp_path):
        path = tmp_path / "entries.json"
        path.write_text(json.dumps(
            {"vertex_count": 2, "h": [[0]], "J": []}))
        with pytest.raises(ParseError, match="'h' entry 0"):
            load_problem(path)

    @pytest.mark.parametrize("field,entries,match", [
        ("h", [[None, 1.0]], "'h' entry 0"),
        ("h", [[0, "1.5"]], "'h' entry 0"),
        ("h", [[0, 1.0], [1.5, 1.0]], "'h' entry 1"),
        ("h", [[True, 1.0]], "'h' entry 0"),
        ("h", [[0, None]], "'h' entry 0"),
        ("J", [[0, None, 0.5]], "'J' entry 0"),
        ("J", [[0, 1, [0.5]]], "'J' entry 0"),
    ])
    def test_malformed_entry_named(self, tmp_path, field, entries, match):
        doc = {"vertex_count": 2, "h": [], "J": []}
        doc[field] = entries
        path = tmp_path / "entries.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=match):
            load_problem(path)

    @pytest.mark.parametrize("text", [
        '{"vertex_count": 2, "h": [[0, NaN]], "J": []}',
        '{"vertex_count": 2, "h": [], "J": [[0, 1, Infinity]]}',
    ])
    def test_non_finite_coefficient_rejected(self, tmp_path, text):
        path = tmp_path / "nan.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="finite"):
            load_problem(path)

    @pytest.mark.parametrize("field,entries,match", [
        ("h", [[0, 1.0], [0, -5.0]], "'h' entry 1 repeats"),
        ("J", [[0, 1, 0.5], [1, 2, 0.1], [0, 1, 9.0]], "'J' entry 2 repeats"),
    ])
    def test_duplicate_entry_named(self, tmp_path, field, entries, match):
        doc = {"vertex_count": 3, "h": [], "J": []}
        doc[field] = entries
        path = tmp_path / "duplicates.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=match):
            load_problem(path)

    def test_bad_vertex_count(self, tmp_path):
        path = tmp_path / "count.json"
        path.write_text(json.dumps({"vertex_count": -3, "h": [], "J": []}))
        with pytest.raises(ParseError, match="vertex_count"):
            load_problem(path)

    def test_inconsistent_contents_rejected(self, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(
            {"vertex_count": 2, "h": [], "J": [[1, 1, 0.5]]}))
        with pytest.raises(ParseError):
            load_problem(path)


class TestRunsFiles:
    def test_round_trip(self, tmp_path):
        problem = make_chimera_problem(seed=4, rows=1, cols=1)
        rs = simulated_anneal(problem, SamplerParams(num_runs=5, seed=3, sweeps=15))
        path = tmp_path / "runs.json"
        save_runset(rs, path)
        loaded = load_runset(path, problem=problem)
        assert len(loaded) == 5
        assert np.array_equal(loaded.spins_matrix(), rs.spins_matrix())
        assert np.allclose(loaded.energies(), rs.energies(), atol=1e-9)
        assert loaded.provenance.sampler == "simulated_anneal"
        assert loaded.problem_id == rs.problem_id

    def test_load_without_problem_skips_validation(self, tmp_path):
        path = tmp_path / "runs.json"
        path.write_text(json.dumps({
            "problem_id": "x",
            "provenance": {"sampler": "manual", "params": {}, "seed": 0},
            "runs": [{"spins": "++", "energy": 123.0}],
        }))
        rs = load_runset(path)
        assert rs[0].energy == 123.0

    def test_energy_mismatch_names_run(self, tmp_path):
        problem = IsingProblem(2, h={0: 1.0})
        path = tmp_path / "runs.json"
        path.write_text(json.dumps({
            "problem_id": "x",
            "provenance": {"sampler": "manual", "params": {}, "seed": 0},
            "runs": [
                {"spins": "++", "energy": 1.0},
                {"spins": "-+", "energy": 5.0},
            ],
        }))
        with pytest.raises(InputError, match="run 1"):
            load_runset(path, problem=problem)

    def test_length_mismatch_names_run(self, tmp_path):
        problem = IsingProblem(3, h={0: 1.0})
        path = tmp_path / "runs.json"
        path.write_text(json.dumps({
            "problem_id": "x",
            "provenance": {"sampler": "manual", "params": {}, "seed": 0},
            "runs": [{"spins": "++", "energy": 1.0}],
        }))
        with pytest.raises(InputError, match="run 0"):
            load_runset(path, problem=problem)

    def test_ragged_runs_name_file_and_run(self, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({
            "problem_id": "x",
            "provenance": {"sampler": "manual", "params": {}, "seed": 0},
            "runs": [{"spins": "+-+", "energy": 0.0}, {"spins": "+-", "energy": 0.0}],
        }))
        with pytest.raises(ParseError) as err:
            load_runset(path)
        assert str(err.value) == f"{path}: run 1 has length 2, expected 3"

    def test_bad_spin_names_file_run_and_position(self, tmp_path):
        path = tmp_path / "spins.json"
        path.write_text(json.dumps({
            "problem_id": "x",
            "provenance": {"sampler": "manual", "params": {}, "seed": 0},
            "runs": [{"spins": "+-+", "energy": 0.0}, {"spins": "[-+", "energy": 0.0}],
        }))
        with pytest.raises(ParseError) as err:
            load_runset(path)
        assert str(err.value).startswith(
            f"{path}: run 1 spin character '[' at position 0")

    @pytest.mark.parametrize("record", [5, {"energy": 0.0}])
    def test_missing_spins_name_file_and_run(self, tmp_path, record):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({
            "problem_id": "x",
            "provenance": {"sampler": "manual", "params": {}, "seed": 0},
            "runs": [{"spins": "+", "energy": 0.0}, record],
        }))
        with pytest.raises(ParseError) as err:
            load_runset(path)
        assert str(err.value) == f"{path}: run 1: missing field 'spins'"

    def test_empty_runs_rejected(self, tmp_path):
        path = tmp_path / "runs.json"
        path.write_text(json.dumps({
            "problem_id": "x",
            "provenance": {"sampler": "manual", "params": {}, "seed": 0},
            "runs": [],
        }))
        with pytest.raises(ParseError, match="empty"):
            load_runset(path)

    def test_missing_provenance_field(self, tmp_path):
        path = tmp_path / "runs.json"
        path.write_text(json.dumps({
            "problem_id": "x",
            "provenance": {"sampler": "manual", "seed": 0},
            "runs": [{"spins": "+", "energy": 0.0}],
        }))
        with pytest.raises(ParseError, match="'params'"):
            load_runset(path)

    @pytest.mark.parametrize("runs", [5, {"spins": "+", "energy": 0.0}, "+"])
    def test_runs_must_be_a_list(self, tmp_path, runs):
        path = tmp_path / "runs.json"
        path.write_text(json.dumps({
            "problem_id": "x",
            "provenance": {"sampler": "manual", "params": {}, "seed": 0},
            "runs": runs,
        }))
        with pytest.raises(ParseError, match="'runs' must be a list"):
            load_runset(path)
