"""Output checks computed apart from the package.

Energies are recomputed from a problem's ``h`` and ``J`` dicts with code
of the benchmark's own: one spin vector in plain Python, or a whole run
set column by column in numpy. Neither goes through
``IsingProblem.evaluate``/``evaluate_many``. The comparison rows of an
experiment are rebuilt from its ``results.jsonl`` the same way.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from isingpp.core import ENERGY_ATOL


def plain_energy(h: dict, J: dict, spins) -> float:
    s = [int(x) for x in spins]
    e = 0.0
    for a, v in h.items():
        e += v * s[a]
    for (a, b), w in J.items():
        e += w * s[a] * s[b]
    return e


def batch_energies(h: dict, J: dict, matrix) -> np.ndarray:
    s = np.asarray(matrix, dtype=np.float64)
    e = np.zeros(s.shape[0])
    for a, v in h.items():
        e += v * s[:, a]
    for (a, b), w in J.items():
        e += w * s[:, a] * s[:, b]
    return e


def parse_spins(text: str) -> np.ndarray:
    return np.array([1 if ch == "+" else -1 for ch in text], dtype=np.int8)


def problem_dicts_from_file(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    h = {int(a): float(v) for a, v in doc["h"]}
    J = {(int(a), int(b)): float(w) for a, b, w in doc["J"]}
    return h, J


class Checker:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self, h: dict, J: dict, failures=None):
        self.h, self.J = h, J
        self.failures = [] if failures is None else failures

    def expect(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)

    def energy(self, spins, claimed: float, what: str) -> float:
        """Recompute the energy of ``spins`` and compare it with ``claimed``."""
        fresh = plain_energy(self.h, self.J, spins)
        self.expect(abs(fresh - claimed) <= ENERGY_ATOL,
                    f"{what}: stored energy {claimed!r}, recomputed {fresh!r}")
        return fresh

    def not_above(self, energy: float, bound: float, what: str):
        self.expect(energy <= bound + ENERGY_ATOL,
                    f"{what}: energy {energy!r} above {bound!r}")

    def below(self, energy: float, bound: float, what: str):
        """``energy`` is lower than ``bound`` by more than the tolerance."""
        self.expect(energy < bound - ENERGY_ATOL,
                    f"{what}: energy {energy!r} not below {bound!r}")

    def best_of(self, matrix) -> float:
        return float(batch_energies(self.h, self.J, matrix).min())

    def conditionally_optimal(self, spins, region, what: str):
        """Enumerate every assignment of ``region`` with the rest fixed."""
        region = list(region)
        inside = set(region)
        s = [int(x) for x in spins]
        terms = [(a, b, w) for (a, b), w in self.J.items() if a in inside or b in inside]

        def local(assign):
            t = dict(zip(region, assign))
            get = lambda v: t.get(v, s[v])
            e = sum(self.h.get(v, 0.0) * t[v] for v in region)
            return e + sum(w * get(a) * get(b) for a, b, w in terms)

        best = min(local(a) for a in itertools.product((-1, 1), repeat=len(region)))
        self.expect(local([s[v] for v in region]) <= best + ENERGY_ATOL,
                    f"{what}: region {region} is not at its conditional minimum")


def comparison_rows(records):
    """Comparison rows rebuilt from result records, keyed like report rows.

    Same-mode rows pair every two methods; cross-mode rows pair one
    method's raw and sampling results.
    """
    energy = {(r["run_count"], r["problem"], r["mode"], r["method"]): r["energy"]
              for r in records}
    problems = sorted({r["problem"] for r in records})
    methods = sorted({r["method"] for r in records})
    modes = sorted({r["mode"] for r in records})
    pairs = [(ma, mo, mb, mo) for mo in modes
             for i, ma in enumerate(methods) for mb in methods[i + 1:]]
    if {"raw", "sampling"} <= set(modes):
        pairs += [(m, "raw", m, "sampling") for m in methods]
    rows = {}
    for n in sorted({r["run_count"] for r in records}):
        for ma, mo_a, mb, mo_b in pairs:
            counts = [0, 0, 0]
            for p in problems:
                ea, eb = energy[(n, p, mo_a, ma)], energy[(n, p, mo_b, mb)]
                counts[0 if abs(ea - eb) <= ENERGY_ATOL else 1 if ea < eb else 2] += 1
            rows.update([_canonical((n, ma, mo_a, mb, mo_b), counts)])
    return rows


def _canonical(key, counts):
    """Order a row's two sides so reports that list pairs differently agree."""
    n, ma, mo_a, mb, mo_b = key
    if (ma, mo_a) > (mb, mo_b):
        return (n, mb, mo_b, ma, mo_a), [counts[0], counts[2], counts[1]]
    return key, list(counts)


def check_report(checker: Checker, results_path, report_path, problem_count: int):
    """Rows rebuilt from results.jsonl must match report.json and sum up."""
    with open(results_path, "r", encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    with open(report_path, "r", encoding="utf-8") as f:
        report = json.load(f)
    ours = comparison_rows(records)
    theirs = dict(_canonical(
        (r["run_count"], r["method_a"], r["mode_a"], r["method_b"], r["mode_b"]),
        [r["equal"], r["a_lower"], r["b_lower"]]) for r in report)
    checker.expect(len(theirs) == len(report), f"{report_path}: duplicate rows")
    checker.expect(ours == theirs, f"{report_path}: rows differ from the rebuilt ones")
    for key, counts in ours.items():
        checker.expect(sum(counts) == problem_count,
                       f"row {key} counts {counts} do not sum to {problem_count}")
    return records


def same_files(checker: Checker, left, right, names):
    for name in names:
        with open(os.path.join(left, name), "rb") as a, \
                open(os.path.join(right, name), "rb") as b:
            checker.expect(a.read() == b.read(),
                           f"replayed {name} differs from the untraced output")


def self_test(h: dict, J: dict, runs_matrix, merged_spins, merged_energy: float):
    """Feed doctored results to fresh checkers; returns problems found.

    Two doctored results must be rejected: a merge result with one spin
    flipped but its old energy kept, and a merge result replaced by the
    worst input run, which raises the energy above the best input. The
    undoctored result must pass the same checks.
    """
    problems = []
    best = float(batch_energies(h, J, runs_matrix).min())

    honest = Checker(h, J)
    honest.energy(merged_spins, merged_energy, "honest merge")
    honest.not_above(merged_energy, best, "honest merge")
    if honest.failures:
        problems.append(f"self-test: the undoctored result fails: {honest.failures}")

    # Flip the first spin whose flip changes the energy.
    flipped = np.array(merged_spins, copy=True)
    for v in range(len(flipped)):
        flipped[v] = -flipped[v]
        if abs(plain_energy(h, J, flipped) - merged_energy) > 1e-6:
            break
        flipped[v] = -flipped[v]
    stale = Checker(h, J)
    stale.energy(flipped, merged_energy, "flipped spin, stale energy")
    if not stale.failures:
        problems.append("checker accepts a flipped spin with a stale energy")

    energies = batch_energies(h, J, runs_matrix)
    worst = int(np.argmax(energies))
    raised = Checker(h, J)
    claimed = raised.energy(runs_matrix[worst], float(energies[worst]), "worst run")
    raised.not_above(claimed, best, "merge that raises the energy")
    if energies[worst] > best + ENERGY_ATOL and not raised.failures:
        problems.append("checker accepts a merge that raises the energy")
    if energies[worst] <= best + ENERGY_ATOL:
        problems.append("self-test input has no run above the best one")
    return problems
