"""Ising problems, spin configurations, and tunnel arithmetic.

The energy of a spin assignment ``s`` in ``{-1, +1}^n`` is

    F(s) = sum_a h[a] * s[a]  +  sum_{a<b} J[a, b] * s[a] * s[b]

with linear coefficients ``h`` and symmetric pair couplings ``J`` given on
an undirected graph. Vertices absent from ``h``/``J`` (e.g. dead hardware
qubits) simply contribute nothing.

A *tunnel* is a set of vertices considered for a joint flip. Its
contribution under a configuration counts the tunnel's linear terms and
its boundary couplings; couplings internal to the tunnel are excluded, so
the contribution changes sign exactly when the whole tunnel is flipped.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DimensionError, InputError, ParameterError, SizeError

SPIN_DTYPE = np.int8

# Global tolerance for energy equality checks.
ENERGY_ATOL = 1e-9

# The most vertices a problem, and the most edges a generated graph, may
# have. Sizes are checked before anything of that size is allocated.
SIZE_LIMIT = 1 << 20

# evaluate_many sums this many rows at a time, so its temporaries do not
# grow with the number of runs.
_EVAL_ROWS = 256


# Vertex ids are Python or numpy integers, never bools or floats.
_VERTEX_ID_TYPES = frozenset({int, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})


def _vertex_ids(keys, n):
    """``keys`` as an intp array, and the mask of those that are vertex
    ids: integers in ``range(n)``. The others read as -1."""
    try:
        if set(map(type, keys)) <= _VERTEX_ID_TYPES:
            ids = np.fromiter(keys, np.intp, len(keys))
            return ids, (ids >= 0) & (ids < n)
    except OverflowError:  # an integer beyond intp
        pass
    typed = np.fromiter(map(_VERTEX_ID_TYPES.__contains__, map(type, keys)), bool, len(keys))
    ids = np.where(typed, np.fromiter(keys, object, len(keys)), -1)
    ok = (ids >= 0) & (ids < n)
    return np.where(ok, ids, -1).astype(np.intp), ok


def _float(value):
    """``float(value)``, or an infinity for an integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _coefficients(values):
    """``values`` as a float64 array by ``_float``, and the mask of those
    that are real numbers other than bools. The others read as 0.0."""
    types = set(map(type, values))
    real = {t for t in types if issubclass(t, numbers.Real) and not issubclass(t, bool)}
    ok = np.ones(len(values), dtype=bool)
    if real != types:
        ok = np.fromiter(map(real.__contains__, map(type, values)), bool, len(values))
        values = [v if good else 0.0 for v, good in zip(values, ok.tolist())]
    try:
        return np.fromiter(values, np.float64, len(values)), ok
    except OverflowError:
        return np.fromiter(map(_float, values), np.float64, len(values)), ok


def _pair_ends(pairs):
    """The ends of ``pairs`` as one flat sequence, and the mask of the
    pairs that are tuples or lists of two ends, or rows of a (k, 2) array.
    Each other pair reads as two -1 ends."""
    if isinstance(pairs, np.ndarray) and pairs.ndim == 2 and pairs.shape[1] == 2:
        return pairs.reshape(-1), np.ones(len(pairs), dtype=bool)
    paired = np.ones(len(pairs), dtype=bool)
    if not (set(map(type, pairs)) <= {tuple, list} and set(map(len, pairs)) <= {2}):
        paired[:] = [isinstance(p, (tuple, list)) and len(p) == 2 for p in pairs]
        pairs = [p if ok else (-1, -1) for p, ok in zip(pairs, paired.tolist())]
    return list(chain.from_iterable(pairs)), paired


def _not_finite(entry, value):
    got = "an integer beyond the float range" if isinstance(value, int) else repr(_float(value))
    return ParameterError(f"{entry}: value must be finite, got {got}")


def _reject_first(checks):
    """Raise the error of the first entry that fails one of ``checks``:
    (mask of the entries that pass, error of entry i) pairs, in the order
    an entry is checked."""
    passed = np.logical_and.reduce([ok for ok, _ in checks])
    if not passed.all():
        i = int(np.argmin(passed))
        raise next(error(i) for ok, error in checks if not ok[i])


class IsingProblem:
    """Immutable problem instance over vertices ``0 .. vertex_count - 1``.

    h maps vertex -> coefficient, J maps an unordered vertex pair ->
    coupling. ``from_entries`` is the one checked entry path; the
    constructor passes it the mappings' keys and values. It checks them
    as arrays: integer vertex ids in range, no h vertex or pair given
    twice (a pair in either order), no self-coupling, and values that are
    finite real numbers, not bools, whose absolute sum is finite. An
    error names the field and the entry. The problem keeps arrays only;
    ``h`` and ``J`` are dicts built from them in sorted order.
    """

    __slots__ = (
        "vertex_count", "_h_vec", "_h_vertices",
        "_adj", "_adj_w", "_adj_start", "_edge_a", "_edge_b", "_edge_w",
    )

    def __init__(self, vertex_count, h=None, J=None):
        h, J = dict(h or {}), dict(J or {})
        self._set(vertex_count, list(h), list(h.values()), list(J), list(J.values()))

    @classmethod
    def from_entries(cls, vertex_count, vertices, h_values, pairs, couplings):
        """The problem of h entries ``vertices[i]: h_values[i]`` and J entries
        ``pairs[k]: couplings[k]``, the pairs as (a, b) or a (k, 2) array."""
        problem = cls.__new__(cls)
        problem._set(vertex_count, vertices, h_values, pairs, couplings)
        return problem

    def _set(self, vertex_count, vertices, h_values, pairs, couplings):
        try:  # int() rejects None, strings, nan and infinities
            whole = (not isinstance(vertex_count, (bool, np.bool_))
                     and int(vertex_count) == vertex_count >= 0)
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise DimensionError(
                f"vertex_count must be a non-negative integer, got {vertex_count!r}")
        n = self.vertex_count = int(vertex_count)
        if n > SIZE_LIMIT:
            raise SizeError(f"vertex_count {n} is above the limit of {SIZE_LIMIT}")
        if len(vertices) != len(h_values) or len(pairs) != len(couplings):
            raise DimensionError("every h vertex and J pair needs one value")

        h_ids, h_ok = _vertex_ids(vertices, n)
        h_w, h_real = _coefficients(h_values)
        by_vertex = np.argsort(h_ids, kind="stable")
        h_repeat = np.zeros(len(h_ids), dtype=bool)
        h_repeat[by_vertex[1:]] = np.diff(h_ids[by_vertex]) == 0
        _reject_first([
            (h_ok, lambda i: IndexError(
                f"'h' entry {i}: vertex {vertices[i]!r} is not an integer in range({n})")),
            (~h_repeat, lambda i: IndexError(f"'h' entry {i} repeats vertex {int(h_ids[i])}")),
            (h_real, lambda i: ParameterError(
                f"'h' entry {i}: value {h_values[i]!r} is not a real number")),
            (np.isfinite(h_w), lambda i: _not_finite(f"'h' entry {i}", h_values[i])),
        ])

        flat, paired = _pair_ends(pairs)
        ends, ends_ok = _vertex_ids(flat, n)
        lo, hi = np.sort(ends.reshape(-1, 2), axis=1).T
        j_w, j_real = _coefficients(couplings)
        # Sorted by (lo, hi), stably, so a pair's later repeats follow it.
        order = np.lexsort((hi, lo))
        repeat = np.zeros(len(lo), dtype=bool)
        repeat[order[1:]] = (np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)
        _reject_first([
            (paired, lambda i: IndexError(f"'J' entry {i}: {pairs[i]!r} is not a vertex pair")),
            (ends_ok.reshape(-1, 2).all(axis=1), lambda i: IndexError(
                f"'J' entry {i}: pair {pairs[i]!r} is not two integers in range({n})")),
            (lo != hi, lambda i: IndexError(
                f"'J' entry {i}: self-coupling {pairs[i]!r} is not allowed")),
            (~repeat, lambda i: IndexError(
                f"'J' entry {i} repeats pair {(int(lo[i]), int(hi[i]))}")),
            (j_real, lambda i: ParameterError(
                f"'J' entry {i}: value {couplings[i]!r} is not a real number")),
            (np.isfinite(j_w), lambda i: _not_finite(f"'J' entry {i}", couplings[i])),
        ])
        # The sum bounds every energy, partial sum and local field.
        with np.errstate(over="ignore"):
            if not np.isfinite(np.abs(h_w).sum() + np.abs(j_w).sum()):
                raise ParameterError("the absolute values of h and J must have a finite sum")

        self._h_vec = np.zeros(n, dtype=np.float64)
        self._h_vec[h_ids] = h_w
        self._h_vertices = h_ids[by_vertex]
        self._edge_a, self._edge_b, self._edge_w = lo[order], hi[order], j_w[order]

        # Each edge from both ends, sorted by (end, other end): vertex v's
        # entries of _adj and _adj_w run from _adj_start[v] to _adj_start[v + 1].
        ends = np.concatenate([self._edge_a, self._edge_b])
        others = np.concatenate([self._edge_b, self._edge_a])
        by_end = np.lexsort((others, ends))
        self._adj, self._adj_w = others[by_end], np.tile(self._edge_w, 2)[by_end]
        self._adj_start = np.searchsorted(ends[by_end], np.arange(n + 1))

    @property
    def h(self):
        """The linear coefficients, vertex -> value, in vertex order."""
        return dict(zip(self._h_vertices.tolist(), self._h_vec[self._h_vertices].tolist()))

    @property
    def J(self):
        """The couplings, (a, b) with a < b -> value, in sorted order."""
        return dict(zip(self.edge_list, self._edge_w.tolist()))

    @property
    def edge_list(self):
        """Edges as a list of (a, b) with a < b, sorted."""
        return list(zip(self._edge_a.tolist(), self._edge_b.tolist()))

    def _check_length(self, spins):
        if spins.shape[-1] != self.vertex_count:
            raise DimensionError(
                f"spin vector has length {spins.shape[-1]}, expected {self.vertex_count}"
            )

    def evaluate(self, spins) -> float:
        """Energy of one spin vector: the one-row case of ``evaluate_many``."""
        return float(self.evaluate_many(np.asarray(spins)[None])[0])

    def evaluate_many(self, spins_matrix) -> np.ndarray:
        """Energies of a (runs, vertex_count) matrix of spin vectors, the
        package's one energy kernel. Each C-ordered row is summed h by
        vertex, then J by sorted pair, so a row's energy has the same bits
        whatever the matrix's layout, dtype or other rows."""
        s = np.ascontiguousarray(spins_matrix)
        # +-1 products are exact in int8, the RunSet dtype, at half the cost.
        if s.dtype != SPIN_DTYPE:
            s = s.astype(np.float64, copy=False)
        self._check_length(s)
        energies = np.empty(len(s), dtype=np.float64)
        # A row's sums do not depend on the other rows, so blocks of rows
        # give every row the bits of the whole matrix's sums.
        for lo in range(0, len(s), _EVAL_ROWS):
            rows, out = s[lo:lo + _EVAL_ROWS], energies[lo:lo + _EVAL_ROWS]
            np.sum(self._h_vec * rows, axis=1, out=out)
            if self._edge_w.size:
                out += np.sum(self._edge_w * (rows.take(self._edge_a, axis=1)
                                              * rows.take(self._edge_b, axis=1)), axis=1)
        return energies

    def configuration(self, spins) -> "SpinConfiguration":
        """Wrap a spin vector, computing its energy fresh."""
        arr = np.asarray(spins, dtype=SPIN_DTYPE)
        return SpinConfiguration(arr, self.evaluate(arr))

    def content_hash(self) -> str:
        """Stable short identifier derived from the problem's contents."""
        parts = [str(self.vertex_count)]
        parts.extend(f"h {a} {v!r}" for a, v in
                     zip(self._h_vertices.tolist(), self._h_vec[self._h_vertices]))
        parts.extend(f"J {a} {b} {w!r}" for a, b, w in
                     zip(self._edge_a.tolist(), self._edge_b.tolist(), self._edge_w.tolist()))
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        return digest[:12]

    def __repr__(self):
        return (
            f"IsingProblem(vertex_count={self.vertex_count}, "
            f"|h|={len(self._h_vertices)}, |J|={len(self._edge_w)})"
        )


def check_spins(spins):
    """Raise ValueError unless every entry of the array ``spins`` is -1 or +1."""
    if np.count_nonzero(spins == 1) + np.count_nonzero(spins == -1) != spins.size:
        bad = spins[(spins != 1) & (spins != -1)]
        raise ValueError(f"spins must be -1 or +1, found {np.unique(bad).tolist()}")


@dataclass(frozen=True, eq=False, slots=True)
class SpinConfiguration:
    """One optimizer run: a spin vector plus its cached energy.

    Value type. The spin array is marked read-only; derived configurations
    are always built fresh with a newly computed energy, never mutated.
    """

    spins: np.ndarray
    energy: float

    def __post_init__(self):
        arr = np.asarray(self.spins)
        check_spins(arr)  # as given: a cast first would read 1.7 or 257 as a spin
        arr = arr.astype(SPIN_DTYPE)
        arr.setflags(write=False)
        object.__setattr__(self, "spins", arr)
        object.__setattr__(self, "energy", float(self.energy))

    def __len__(self):
        return self.spins.shape[0]

    def same_spins(self, other) -> bool:
        return np.array_equal(self.spins, other.spins)

    def __repr__(self):
        return f"SpinConfiguration(n={len(self)}, energy={self.energy})"


def tunnel_contribution(problem: IsingProblem, config: SpinConfiguration,
                        vertices) -> float:
    """Energy terms the tunnel T, the set of ``vertices``, owns under ``config``:

        sum_{a in T} h[a] s[a]  +  sum_{a in T, b not in T} J[a, b] s[a] s[b]

    Couplings with both ends inside the tunnel are excluded, so negating
    every spin in the tunnel negates the value exactly. A vertex listed
    twice counts once; an empty tunnel is rejected, and so is an entry
    that is not a vertex id, as ``IsingProblem`` reads them.
    """
    vertices, n = list(vertices), problem.vertex_count
    if not vertices:
        raise InputError("a tunnel must contain at least one vertex")
    ids, ok = _vertex_ids(vertices, n)
    _reject_first([(ok, lambda i: IndexError(
        f"tunnel entry {i}: vertex {vertices[i]!r} is not an integer in range({n})"))])
    verts = np.unique(ids)
    s = np.asarray(config.spins, dtype=np.float64)
    problem._check_length(s)

    inside = np.zeros(problem.vertex_count, dtype=bool)
    inside[verts] = True

    total = float(np.sum(problem._h_vec[verts] * s[verts]))
    if problem._edge_w.size:
        boundary = inside[problem._edge_a] ^ inside[problem._edge_b]
        if boundary.any():
            total += float(np.sum(
                problem._edge_w[boundary]
                * s[problem._edge_a[boundary]]
                * s[problem._edge_b[boundary]]
            ))
    return total
