"""Problem and runs file round trips, parse diagnostics, and the one file
layer."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from isingpp import (
    IsingProblem,
    Provenance,
    RunSet,
    SamplerParams,
    load_problem,
    load_runset,
    save_problem,
    save_runset,
    simulated_anneal,
)
from isingpp.errors import InputError, ParseError
from isingpp.serialize import spins_to_strings, strings_to_spins, write_json

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
    def test_entries_read_in_any_order_and_written_sorted(self, tmp_path):
        """Entries out of order, an explicit 0.0 and an integer value load
        as the mapping constructor builds them; the writer sorts them and
        writes each value as a float."""
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"vertex_count": 3, "h": [[2, 2], [0, 0.0]],
                                    "J": [[2, 1, -1], [1, 0, 0.5]]}))
        loaded = load_problem(path)
        built = IsingProblem(3, {2: 2, 0: 0.0}, {(2, 1): -1, (1, 0): 0.5})
        assert loaded.content_hash() == built.content_hash()
        save_problem(loaded, path)
        doc = json.loads(path.read_text())
        assert doc == {"vertex_count": 3, "h": [[0, 0.0], [2, 2.0]],
                       "J": [[0, 1, 0.5], [1, 2, -1.0]]}
        assert all(type(entry[-1]) is float for entry in doc["h"] + doc["J"])

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
        ("h", 5, "'h' must be a list"),
        ("J", None, "'J' must be a list"),
        ("h", {}, "'h' must be a list"),
        ("h", [[0, 10**400]], "'h' entry 0"),
        ("J", [[0, 1, -10**400]], "'J' entry 0"),
        ("h", [[0, False]], "'h' entry 0"),
        ("h", [[0, {}]], "'h' entry 0"),
        ("J", [[0, 1, 0.5], [1, 0, "0.5"]], "'J' entry 1"),
        ("J", [[0, 1, 0.5], "x"], "'J' entry 1"),
        ("h", [[0, 1.0, 2.0]], "'h' entry 0"),
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
        '{"vertex_count": 2, "h": [[1, 1%s]], "J": []}' % ("0" * 400),
        '{"vertex_count": 2, "h": [], "J": [[0, 1, -1%s]]}' % ("0" * 400),
    ])
    def test_non_finite_coefficient_rejected(self, tmp_path, text):
        path = tmp_path / "nan.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="finite"):
            load_problem(path)

    @pytest.mark.parametrize("field,entries,match", [
        ("h", [[0, 1.0], [0, -5.0]], "'h' entry 1 repeats"),
        ("J", [[0, 1, 0.5], [1, 2, 0.1], [0, 1, 9.0]], "'J' entry 2 repeats"),
        ("J", [[0, 1, 0.5], [2, 1, 0.1], [1, 0, 9.0]], "'J' entry 2 repeats"),
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
        # JSON booleans are not counts, though Python's bool is an int.
        for count in (-3, True, False):
            path.write_text(json.dumps({"vertex_count": count, "h": [], "J": []}))
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

    def test_null_problem_id_round_trips(self, tmp_path):
        problem = IsingProblem(2, h={0: 1.0})
        rs = RunSet.from_matrix(np.array([[1, -1]]), [1.0], None,
                                Provenance("manual", {}, 0))
        path = tmp_path / "runs.json"
        save_runset(rs, path)
        assert json.loads(path.read_text())["problem_id"] is None
        assert load_runset(path, problem).problem_id is None

    @pytest.mark.parametrize("where,name,value,form", [
        ("doc", "problem_id", 5, "a string or null"),
        ("doc", "problem_id", ["x"], "a string or null"),
        ("provenance", "sampler", ["x"], "a string"),
        ("provenance", "sampler", None, "a string"),
        ("provenance", "params", 5, "an object"),
        ("provenance", "params", [], "an object"),
        ("run", "spins", 5, "a string"),
        ("run", "spins", ["+"], "a string"),
    ])
    def test_wrongly_typed_field_named(self, tmp_path, where, name, value, form):
        doc = {
            "problem_id": "x",
            "provenance": {"sampler": "manual", "params": {}, "seed": 0},
            "runs": [{"spins": "+", "energy": 0.0}],
        }
        {"doc": doc, "provenance": doc["provenance"], "run": doc["runs"][0]}[where][name] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as err:
            load_runset(path)
        run = ": run 0" if where == "run" else ""
        assert str(err.value) == f"{path}{run}: field {name!r} must be {form}"

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


RUNS_HEAD = ('{"problem_id": "x", "provenance": {"sampler": "manual", "params": {}, '
             '"seed": 0}, "runs": [{"spins": "+", "energy": 0.0}, %s]}')


class TestRunEnergyField:
    @pytest.mark.parametrize("record,message", [
        ('{"spins": "-"}', ": missing field 'energy'"),
        ('{"spins": "-", "energy": true}', " field 'energy' must be a finite number"),
        ('{"spins": "-", "energy": "1"}', " field 'energy' must be a finite number"),
        ('{"spins": "-", "energy": null}', " field 'energy' must be a finite number"),
        ('{"spins": "-", "energy": [1.0]}', " field 'energy' must be a finite number"),
        ('{"spins": "-", "energy": 1%s}' % ("0" * 399),
         " field 'energy' must be a finite number"),
        ('{"spins": "-", "energy": -1%s}' % ("0" * 399),
         " field 'energy' must be a finite number"),
        ('{"spins": "-", "energy": 1e400}', " field 'energy' must be a finite number"),
        ('{"spins": "-", "energy": NaN}', " field 'energy' must be a finite number"),
        ('{"spins": "-", "energy": Infinity}', " field 'energy' must be a finite number"),
        ('{"spins": "-", "energy": -Infinity}', " field 'energy' must be a finite number"),
    ])
    def test_bad_energy_names_file_and_run(self, tmp_path, record, message):
        path = tmp_path / "energy.json"
        path.write_text(RUNS_HEAD % record)
        with pytest.raises(ParseError) as err:
            load_runset(path)
        assert str(err.value) == f"{path}: run 1{message}"

    def test_integer_energy_loads_as_a_float(self, tmp_path):
        path = tmp_path / "energy.json"
        path.write_text(RUNS_HEAD % '{"spins": "-", "energy": -3}')
        assert load_runset(path).energies().tolist() == [0.0, -3.0]

    @pytest.mark.parametrize("records,message", [
        # Run 1's bad energy comes before run 2's bad spins.
        ('{"spins": "-", "energy": "1"}, {"spins": 5, "energy": 0.0}',
         "run 1 field 'energy' must be a finite number"),
        ('{"spins": "-"}, 7', "run 1: missing field 'energy'"),
        # Within a run, spins are checked before the energy.
        ('{"spins": 5}, {"energy": 0.0}', "run 1: field 'spins' must be a string"),
        ('{"energy": NaN}, {"spins": "-"}', "run 1: missing field 'spins'"),
        ('{"spins": "-", "energy": 0.0}, [], {"spins": null}',
         "run 2: missing field 'spins'"),
        ('{"spins": "-", "energy": 0.0}, {"spins": "-", "energy": false}, {"spins": null}',
         "run 2 field 'energy' must be a finite number"),
    ])
    def test_first_failing_run_wins(self, tmp_path, records, message):
        path = tmp_path / "order.json"
        path.write_text(RUNS_HEAD % records)
        with pytest.raises(ParseError) as err:
            load_runset(path)
        assert str(err.value) == f"{path}: {message}"


class TestNonFiniteNotWritten:
    @pytest.mark.parametrize("energies,run", [([float("nan"), 1.0], 0),
                                              ([1.0, float("inf")], 1),
                                              ([-float("inf"), float("nan")], 0)])
    def test_save_runset_refuses_and_writes_nothing(self, tmp_path, energies, run):
        rs = RunSet.from_matrix(np.array([[1, -1], [-1, 1]]), energies, "x",
                                Provenance("manual", {}, 0))
        path = tmp_path / "runs.json"
        with pytest.raises(InputError, match=f"run {run} has energy"):
            save_runset(rs, path)
        assert not path.exists()

    def test_save_runset_refuses_a_non_finite_parameter(self, tmp_path):
        rs = RunSet.from_matrix(np.array([[1, -1]]), [1.0], "x",
                                Provenance("manual", {"beta": float("inf")}, 0))
        path = tmp_path / "runs.json"
        with pytest.raises(ValueError):
            save_runset(rs, path)
        assert not path.exists()

    def test_write_json_refuses_and_writes_nothing(self, tmp_path):
        path = tmp_path / "points.json"
        with pytest.raises(ValueError):
            write_json([{"x": 1.0}, {"x": [2.0, float("nan")]}], path)
        assert not path.exists()


# json's encoders and decoders; only serialize calls them.
_JSON_CALLS = {"load", "loads", "dump", "dumps"}


def file_calls(path):
    """``line: call`` of every ``open(...)`` and ``json.<load|loads|dump|dumps>(...)``
    in ``path``, read with ``ast``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append(f"{node.lineno}: open")
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id == "json" and func.attr in _JSON_CALLS):
            found.append(f"{node.lineno}: json.{func.attr}")
    return found


def test_only_serialize_opens_files_or_calls_json():
    package = Path(__file__).resolve().parent.parent / "src" / "isingpp"
    assert file_calls(package / "serialize.py")
    found = {path.name: file_calls(path) for path in sorted(package.glob("*.py"))
             if path.name != "serialize.py"}
    assert found and not any(found.values()), found
