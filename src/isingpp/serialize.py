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
from dataclasses import asdict

import numpy as np

from .core import ENERGY_ATOL, SPIN_DTYPE, IsingProblem
from .errors import InputError, ParseError
from .mqc import _row_energies
from .samplers import Provenance, RunSet


# Spin + 1 -> byte, and byte -> spin (0 for every byte but '+' and '-').
_SPIN_BYTES = np.frombuffer(b"-?+", dtype=np.uint8)
_BYTE_SPINS = np.zeros(256, dtype=SPIN_DTYPE)
_BYTE_SPINS[[ord("-"), ord("+")]] = [-1, 1]


def spins_to_strings(spins) -> list:
    """'+'/'-' strings of the rows of the (m, n) +-1 matrix ``spins``,
    cut from one byte table."""
    m, n = spins.shape
    text = _SPIN_BYTES[spins + 1].tobytes().decode("ascii")
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
    bad = np.argwhere(spins == 0)
    if bad.size:
        i, pos = bad[0].tolist()
        raise ParseError(f"{where}run {i} spin character {texts[i][pos]!r} at position "
                         f"{pos} (need '+' or '-')")
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
        "provenance": asdict(runset.provenance),
        "runs": [{"spins": text, "energy": energy} for text, energy in
                 zip(spins_to_strings(runset.spins), runset.energies().tolist())],
    }, path)


def load_runset(path, problem: IsingProblem | None = None) -> RunSet:
    """Load a runs file; with ``problem`` given, verify lengths and that
    every stored energy matches a fresh evaluation.

    Stored energies must be finite JSON numbers and the provenance seed a
    JSON integer. Spins are decoded, and energies re-checked, all at once.
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
    if not records:
        raise ParseError(f"{path}: field 'runs' is empty")
    texts, energies = [], []
    for i, rec in enumerate(records):
        run = f"{path}: run {i}"
        texts.append(str(_field(rec, "spins", run)))
        energy = _field(rec, "energy", run)
        if not is_finite_number(energy):
            raise ParseError(f"{run} field 'energy' must be a finite number")
        energies.append(float(energy))
    runset = RunSet.from_matrix(strings_to_spins(texts, f"{path}: "), energies,
                                str(_field(doc, "problem_id", path)), provenance)
    if problem is not None:
        n = runset.spins.shape[1]
        if n != problem.vertex_count:
            raise InputError(f"{path}: run 0 has {n} spins, problem has "
                             f"{problem.vertex_count} vertices")
        fresh = _row_energies(problem, runset.spins)
        wrong = np.flatnonzero(np.abs(fresh - runset.energies()) > ENERGY_ATOL)
        if wrong.size:
            i = wrong[0]
            raise InputError(f"{path}: run {i} stores energy {energies[i]}, "
                             f"evaluates to {fresh[i]}")
    return runset
