"""Reading and writing problem and runs files.

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

Writers emit keys in sorted order, indented by 2, with a trailing
newline, so identical data produces identical bytes. The runs-file
writer follows a json-encoded head with one record template per run,
filled with the energy's ``float.__repr__`` (json's form of a finite
float) and the spins text, which needs no escaping: its bytes are
``json.dump``'s. The reader checks each rule on the runs' fields in one
pass over all runs, and names the first run that breaks any rule with
the first rule it breaks. No writer emits a non-finite number, and each
encodes its whole text before it opens the path, so a refused payload
leaves no file.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict
from itertools import chain

import numpy as np

from .core import ENERGY_ATOL, SPIN_DTYPE, IsingProblem
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


def _write_text(text, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def write_json(payload, path):
    """Write ``payload`` as indented JSON with sorted keys and a final
    newline, encoded whole before the path is opened."""
    _write_text(_json_text(payload) + "\n", path)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno}: {e.msg}") from e


def _field(doc, name, path):
    if not isinstance(doc, dict) or name not in doc:
        raise ParseError(f"{path}: missing field {name!r}")
    return doc[name]


def _typed_field(doc, name, path, types, form):
    """``doc[name]``, which must be one of ``types`` (never a bool)."""
    value = _field(doc, name, path)
    if not isinstance(value, types) or isinstance(value, bool):
        raise ParseError(f"{path}: field {name!r} must be {form}")
    return value


def is_finite_number(value) -> bool:
    """Whether ``value`` is a real number, not a bool, with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


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
    entries = _typed_field(doc, name, path, list, "a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != width:
            raise ParseError(f"{path}: field {name!r} entry {i} must be a list of {width} items")
    return list(zip(*entries)) if entries else [()] * width


def load_problem(path) -> IsingProblem:
    doc = _load_json(path)
    n = _field(doc, "vertex_count", path)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
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
    _write_text(f'{head[:-2]},\n  "runs": [\n{records}\n  ]\n}}\n', path)


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
        # A float's own test first: is_finite_number gives the same answer.
        ([math.isfinite(energy) if type(energy) is float else is_finite_number(energy)
          for energy in energies], " field 'energy' must be a finite number"),
    ]
    firsts = [passed.index(False) if False in passed else len(records)
              for passed, _ in rules]
    i = min(firsts)
    if i < len(records):
        raise ParseError(f"{path}: run {i}{rules[firsts.index(i)][1]}")
    return texts, energies


def load_runset(path, problem: IsingProblem | None = None) -> RunSet:
    """Load a runs file; with ``problem`` given, verify lengths and that
    every stored energy matches a fresh evaluation.

    ``problem_id`` must be a string or null, the provenance ``sampler`` a
    string, ``params`` an object and ``seed`` an integer, every run's
    ``spins`` a string and its ``energy`` a finite number. Spins are
    decoded, and energies re-checked, all at once.
    """
    doc = _load_json(path)
    prov_doc = _field(doc, "provenance", path)
    provenance = Provenance(
        sampler=_typed_field(prov_doc, "sampler", path, str, "a string"),
        params=_typed_field(prov_doc, "params", path, dict, "an object"),
        seed=_typed_field(prov_doc, "seed", path, int, "an integer"),
    )
    records = _field(doc, "runs", path)
    if not isinstance(records, list):
        raise ParseError(f"{path}: field 'runs' must be a list")
    if not records:
        raise ParseError(f"{path}: field 'runs' is empty")
    texts, energies = _run_fields(records, path)
    runset = RunSet.from_matrix(strings_to_spins(texts, f"{path}: "), energies,
                                _typed_field(doc, "problem_id", path, (str, type(None)),
                                             "a string or null"), provenance)
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
