"""Reading and writing problem and runs files.

Problem files are JSON documents:

    {"vertex_count": 3,
     "h": [[0, 1.0], [1, -1.0]],
     "J": [[0, 1, 0.5]]}

Runs files carry the sampler provenance and one record per run, spins as
a string over '+'/'-' with vertex 0 first:

    {"problem_id": "...",
     "provenance": {"sampler": "...", "params": {...}, "seed": 1},
     "runs": [{"spins": "+-+", "energy": -2.5}, ...]}

Writers emit keys in sorted order with a trailing newline, so identical
data produces identical bytes.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .core import ENERGY_ATOL, SPIN_DTYPE, IsingProblem, SpinConfiguration
from .errors import InputError, ParseError
from .samplers import Provenance, RunSet


def spins_to_string(spins) -> str:
    return "".join("+" if s > 0 else "-" for s in np.asarray(spins))


def string_to_spins(text: str) -> np.ndarray:
    spins = np.empty(len(text), dtype=SPIN_DTYPE)
    for i, ch in enumerate(text):
        if ch == "+":
            spins[i] = 1
        elif ch == "-":
            spins[i] = -1
        else:
            raise ParseError(f"spin character {ch!r} at position {i} (need '+' or '-')")
    return spins


def write_json(payload, path):
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


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


def is_finite_number(value) -> bool:
    """Whether ``value`` is a real number, not a bool, with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _coefficient_entry(entry, width) -> bool:
    """Whether ``entry`` is a list of ``width`` numbers, all but the last integers."""
    return (isinstance(entry, list) and len(entry) == width
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            and all(isinstance(x, int) for x in entry[:-1]))


def save_problem(problem: IsingProblem, path):
    write_json({
        "vertex_count": problem.vertex_count,
        "h": [[a, problem.h[a]] for a in sorted(problem.h)],
        "J": [[a, b, w] for (a, b), w in sorted(problem.J.items())],
    }, path)


def load_problem(path) -> IsingProblem:
    doc = _load_json(path)
    n = _field(doc, "vertex_count", path)
    if not isinstance(n, int) or n < 0:
        raise ParseError(f"{path}: field 'vertex_count' must be a non-negative integer")
    h, J = {}, {}
    for name, coefficients, width, form in (("h", h, 2, "[vertex, value]"),
                                            ("J", J, 3, "[a, b, value]")):
        for i, entry in enumerate(_field(doc, name, path)):
            if not _coefficient_entry(entry, width):
                raise ParseError(f"{path}: field {name!r} entry {i} must be {form}")
            key = entry[0] if width == 2 else tuple(entry[:2])
            if key in coefficients:
                raise ParseError(f"{path}: field {name!r} entry {i} repeats an earlier entry")
            coefficients[key] = float(entry[-1])
    try:
        return IsingProblem(n, h, J)
    except (IndexError, ValueError) as e:
        raise ParseError(f"{path}: {e}") from e


def save_runset(runset: RunSet, path):
    write_json({
        "problem_id": runset.problem_id,
        "provenance": {
            "sampler": runset.provenance.sampler,
            "params": runset.provenance.params,
            "seed": runset.provenance.seed,
        },
        "runs": [
            {"spins": spins_to_string(r.spins), "energy": r.energy}
            for r in runset
        ],
    }, path)


def load_runset(path, problem: IsingProblem | None = None) -> RunSet:
    """Load a runs file; with ``problem`` given, verify lengths and that
    every stored energy matches a fresh evaluation.

    Stored energies must be finite JSON numbers and the provenance seed a
    JSON integer.
    """
    doc = _load_json(path)
    prov_doc = _field(doc, "provenance", path)
    provenance = Provenance(
        sampler=str(_field(prov_doc, "sampler", path)),
        params=_field(prov_doc, "params", path),
        seed=_field(prov_doc, "seed", path),
    )
    if not isinstance(provenance.seed, int) or isinstance(provenance.seed, bool):
        raise ParseError(f"{path}: field 'seed' must be an integer")
    records = _field(doc, "runs", path)
    if not isinstance(records, list):
        raise ParseError(f"{path}: field 'runs' must be a list")
    runs = []
    for i, rec in enumerate(records):
        spins = string_to_spins(str(_field(rec, "spins", path)))
        energy = _field(rec, "energy", path)
        if not is_finite_number(energy):
            raise ParseError(f"{path}: run {i} field 'energy' must be a finite number")
        runs.append(SpinConfiguration(spins, float(energy)))
    if not runs:
        raise ParseError(f"{path}: field 'runs' is empty")
    runset = RunSet(tuple(runs), str(_field(doc, "problem_id", path)), provenance)
    if problem is not None:
        for i, r in enumerate(runset):
            if len(r) != problem.vertex_count:
                raise InputError(
                    f"{path}: run {i} has {len(r)} spins, problem has "
                    f"{problem.vertex_count} vertices"
                )
            fresh = problem.evaluate(r.spins)
            if abs(fresh - r.energy) > ENERGY_ATOL:
                raise InputError(
                    f"{path}: run {i} stores energy {r.energy}, evaluates to {fresh}"
                )
    return runset
