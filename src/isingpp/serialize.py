"""The one file layer: encoding, decoding and type-checking problem,
runs, config, results, report and sensitivity files.

Problem files are JSON documents:

    {"vertex_count": 3,
     "h": [[0, 1.0], [1, -1.0]],
     "J": [[0, 1, 0.5]]}

``vertex_count`` is a non-negative integer, not a bool. ``h`` and ``J``
are lists of entries, each a list of 2 items ([vertex, value]) or 3
([a, b, value]). The reader checks only this shape and passes the
entries, as columns, to ``IsingProblem.from_entries``, which checks
everything else: vertices are integers in range, no h vertex or pair
(in either order) repeats, no pair couples a vertex to itself, and
values are finite real numbers, not bools, with a finite absolute sum.
An error names the file, the field and the entry. Entries may come in
any order; the writer emits them sorted, each value as a float.

Runs files carry the sampler provenance and one record per run, spins as
a string over '+'/'-' with vertex 0 first:

    {"problem_id": "...",
     "provenance": {"sampler": "...", "params": {...}, "seed": 1},
     "runs": [{"spins": "+-+", "energy": -2.5}, ...]}

A config file is one JSON object of ``ExperimentConfig`` fields, a
results file (``results.jsonl``) one JSON record a line, and report and
sensitivity files a JSON table and a text table each. ``read_json``
raises the caller's error type, and ``is_type`` checks every JSON value.

Writers emit keys in sorted order, indented by 2 (results records one a
line), with a trailing newline, so identical data produces identical
bytes. The runs-file writer follows a json-encoded head with one record
template per run, filled with the energy's ``float.__repr__`` (json's
form of a finite float) and the spins text, which needs no escaping: its
bytes are ``json.dump``'s. The reader checks each rule on the runs'
fields in one pass over all runs, and names the first run that breaks
any rule with the first rule it breaks. No writer emits a non-finite
number, and each encodes its whole text before it opens the path, so a
refused payload leaves no file.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict
from itertools import chain

import numpy as np

from .core import ENERGY_ATOL, SPIN_DTYPE, IsingProblem, _float, _reject_first
from .errors import InputError, ParseError
from .samplers import Provenance, RunSet


# Byte -> spin (0 for every byte but '+' and '-').
_BYTE_SPINS = np.zeros(256, dtype=SPIN_DTYPE)
_BYTE_SPINS[[ord("-"), ord("+")]] = [-1, 1]


def spins_to_strings(spins) -> list:
    """'+'/'-' strings of the rows of the (m, n) +-1 matrix ``spins``,
    cut from one text: byte 44 - s is '+' (43) for s = 1, '-' (45) for
    s = -1."""
    m, n = spins.shape
    text = (44 - spins).astype(np.uint8).tobytes().decode("ascii")
    return [text[k * n:(k + 1) * n] for k in range(m)]


def strings_to_spins(texts, where="") -> np.ndarray:
    """(m, n) spin matrix of m equal-length '+'/'-' strings, decoded at
    once; errors name ``where``, the run and the position."""
    n = len(texts[0])
    for i, text in enumerate(texts):
        if len(text) != n:
            raise ParseError(f"{where}run {i} has length {len(text)}, expected {n}")
    # Every non-ASCII character becomes one '?', so positions hold.
    codes = np.frombuffer("".join(texts).encode("ascii", "replace"), dtype=np.uint8)
    spins = _BYTE_SPINS[codes].reshape(len(texts), n)
    bad = np.flatnonzero(spins == 0)
    if bad.size:
        i, pos = divmod(int(bad[0]), n)
        raise ParseError(f"{where}run {i} spin character {texts[i][pos]!r} at position "
                         f"{pos} (need '+' or '-')")
    return spins


def _json_text(payload) -> str:
    """``payload`` as indented JSON with sorted keys; ValueError for a
    non-finite number."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def write_text(text, path):
    """Write the text ``text`` to ``path``. Callers encode the whole text
    first, so a payload that fails to encode leaves no file."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def write_json(payload, path):
    """Write ``payload`` as indented JSON with sorted keys and a final
    newline, encoded whole before the path is opened."""
    write_text(_json_text(payload) + "\n", path)


def write_records(records, path):
    """Write a results file: each record as one line of JSON, keys sorted."""
    write_text("".join(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n"
                       for rec in records), path)


def _decode(text, path, error, line=1):
    """The JSON value ``text``, which starts on line ``line`` of ``path``;
    a syntax error raises ``error`` naming the line it is on."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"{path}: line {line + e.lineno - 1}: {e.msg}") from e


def _read_text(path, error):
    """The text of ``path``; bytes that are not UTF-8 raise ``error``
    naming the path."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise error(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from e


def read_json(path, error=ParseError):
    """The JSON document in ``path``; a syntax error, or bytes that are
    not UTF-8, raise ``error``."""
    return _decode(_read_text(path, error), path, error)


# The Python type of each JSON value kind.
_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str, "dict": dict,
          "list": list, "null": type(None)}


def is_type(value, kind: str) -> bool:
    """Whether ``value`` is a JSON value of ``kind``, never a bool: an
    int, a finite float (ints count), a str, a dict, a list or None."""
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
        return False
    return kind != "float" or math.isfinite(_float(value))


def _field(doc, name, path):
    if not isinstance(doc, dict) or name not in doc:
        raise ParseError(f"{path}: missing field {name!r}")
    return doc[name]


def _typed_field(doc, name, path, form, *kinds):
    """``doc[name]``, which must be a JSON value of one of ``kinds``."""
    value = _field(doc, name, path)
    if not any(is_type(value, kind) for kind in kinds):
        raise ParseError(f"{path}: field {name!r} must be {form}")
    return value


def save_problem(problem: IsingProblem, path):
    vertices = problem._h_vertices
    write_json({
        "vertex_count": problem.vertex_count,
        "h": list(zip(vertices.tolist(), problem._h_vec[vertices].tolist())),
        "J": list(zip(problem._edge_a.tolist(), problem._edge_b.tolist(),
                      problem._edge_w.tolist())),
    }, path)


def _columns(doc, name, path, width):
    """Field ``name`` of ``doc``, a list of lists of ``width`` items, as
    ``width`` columns."""
    entries = _typed_field(doc, name, path, "a list", "list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != width:
            raise ParseError(f"{path}: field {name!r} entry {i} must be a list of {width} items")
    return list(zip(*entries)) if entries else [()] * width


def load_problem(path) -> IsingProblem:
    doc = read_json(path)
    n = _field(doc, "vertex_count", path)
    if not is_type(n, "int") or n < 0:
        raise ParseError(f"{path}: field 'vertex_count' must be a non-negative integer")
    vertices, h_values = _columns(doc, "h", path, 2)
    a, b, couplings = _columns(doc, "J", path, 3)
    try:
        return IsingProblem.from_entries(n, vertices, h_values, list(zip(a, b)), couplings)
    except (IndexError, ValueError) as e:
        raise ParseError(f"{path}: {e}") from e


# One run's record in a runs file, laid out as json.dump(indent=2) lays it.
_RUN_RECORD = '    {\n      "energy": %r,\n      "spins": "%s"\n    }'


def save_runset(runset: RunSet, path):
    energies = runset.energies()
    bad = np.flatnonzero(~np.isfinite(energies))
    if bad.size:
        i = int(bad[0])
        raise InputError(f"{path}: run {i} has energy {energies[i]}, not a finite number")
    head = _json_text({"problem_id": runset.problem_id,
                       "provenance": asdict(runset.provenance)})
    texts = spins_to_strings(runset.spins)
    # One % over every run's template, fed (energy, spins) run by run.
    records = ",\n".join([_RUN_RECORD] * len(texts)) % tuple(
        chain.from_iterable(zip(energies.tolist(), texts)))
    # The head ends in "\n}"; the runs list is its last key.
    write_text(f'{head[:-2]},\n  "runs": [\n{records}\n  ]\n}}\n', path)


def _run_fields(records, path):
    """The spins and the energy of every run record. Each rule below is
    checked for all runs in one pass; an error names the first run that
    breaks any rule, with the first rule, in this order, that it breaks."""
    records = [rec if isinstance(rec, dict) else {} for rec in records]
    # ... (Ellipsis) marks a missing field; json never gives it.
    texts = [rec.get("spins", ...) for rec in records]
    energies = [rec.get("energy", ...) for rec in records]
    rules = [
        ([text is not ... for text in texts], ": missing field 'spins'"),
        ([isinstance(text, str) for text in texts], ": field 'spins' must be a string"),
        ([energy is not ... for energy in energies], ": missing field 'energy'"),
        # A float's own test first: is_type gives the same answer.
        ([math.isfinite(energy) if type(energy) is float else is_type(energy, "float")
          for energy in energies], " field 'energy' must be a finite number"),
    ]
    _reject_first([(passed, lambda i, rule=rule: ParseError(f"{path}: run {i}{rule}"))
                   for passed, rule in rules])
    return texts, energies


def load_runset(path, problem: IsingProblem | None = None) -> RunSet:
    """Load a runs file; with ``problem`` given, verify lengths and that
    every stored energy matches a fresh evaluation.

    ``problem_id`` must be a string or null, the provenance ``sampler`` a
    string, ``params`` an object and ``seed`` an integer, every run's
    ``spins`` a string and its ``energy`` a finite number. Spins are
    decoded, and energies re-checked, all at once.
    """
    doc = read_json(path)
    prov_doc = _field(doc, "provenance", path)
    provenance = Provenance(
        sampler=_typed_field(prov_doc, "sampler", path, "a string", "str"),
        params=_typed_field(prov_doc, "params", path, "an object", "dict"),
        seed=_typed_field(prov_doc, "seed", path, "an integer", "int"),
    )
    records = _typed_field(doc, "runs", path, "a list", "list")
    if not records:
        raise ParseError(f"{path}: field 'runs' is empty")
    texts, energies = _run_fields(records, path)
    runset = RunSet.from_matrix(strings_to_spins(texts, f"{path}: "), energies,
                                _typed_field(doc, "problem_id", path, "a string or null",
                                             "str", "null"), provenance)
    if problem is not None:
        n = runset.spins.shape[1]
        if n != problem.vertex_count:
            raise InputError(f"{path}: run 0 has {n} spins, problem has "
                             f"{problem.vertex_count} vertices")
        stored = runset.energies()
        fresh = problem.evaluate_many(runset.spins)
        wrong = np.flatnonzero(np.abs(fresh - stored) > ENERGY_ATOL)
        if wrong.size:
            i = wrong[0]
            raise InputError(f"{path}: run {i} stores energy {float(stored[i])}, "
                             f"evaluates to {fresh[i]}")
    return runset


# Fields every results record needs, with their kind for ``is_type``.
_RECORD_FIELDS = {"problem": "int", "run_count": "int", "mode": "str", "method": "str",
                  "energy": "float"}


def load_records(path):
    """Records of a results file, one JSON object a line.

    Each record needs integer ``problem`` and ``run_count``, string
    ``mode`` and ``method`` and a finite number ``energy``. Syntax is
    checked on every line first; then the first bad field raises
    InputError naming its line. A file that is not UTF-8 raises
    InputError naming the path.
    """
    lines = _read_text(path, InputError).split("\n")
    records = [(n, _decode(text, path, InputError, n))
               for n, text in enumerate(map(str.strip, lines), 1) if text]
    if not records:
        raise InputError(f"{path}: no records")
    for n, rec in records:
        if not is_type(rec, "dict"):
            raise InputError(f"{path}: line {n}: a record must be a JSON object")
        for name, kind in _RECORD_FIELDS.items():
            if not is_type(rec.get(name), kind):
                raise InputError(f"{path}: line {n}: field {name!r} must be {kind}, "
                                 f"got {rec.get(name)!r}")
    return [rec for _, rec in records]
