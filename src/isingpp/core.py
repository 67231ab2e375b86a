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
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError, ParameterError, SizeError

SPIN_DTYPE = np.int8

# Global tolerance for energy equality checks.
ENERGY_ATOL = 1e-9

# The most vertices a problem, and the most edges a generated graph, may
# have. Sizes are checked before anything of that size is allocated.
SIZE_LIMIT = 1 << 20


def _finite(value, name, key) -> float:
    """``value`` as a float, which must be finite, named ``name.format(key)`` in errors."""
    try:
        x = float(value)
    except OverflowError:
        raise ParameterError(f"{name.format(key)} must be finite, got an integer "
                             f"beyond the float range") from None
    if not math.isfinite(x):
        raise ParameterError(f"{name.format(key)} must be finite, got {value!r}")
    return x


class IsingProblem:
    """Immutable problem instance over vertices ``0 .. vertex_count - 1``.

    h maps vertex -> coefficient, J maps an unordered vertex pair -> coupling.
    Self-couplings, duplicate pairs and non-finite coefficients are
    rejected. Construction normalizes
    every pair to (a, b) with a < b and precomputes a dense h array plus one
    adjacency table; instances must not be mutated afterwards.
    """

    __slots__ = (
        "vertex_count", "h", "J",
        "_h_vec", "_adj", "_adj_w", "_adj_start", "_edge_a", "_edge_b", "_edge_w",
    )

    def __init__(self, vertex_count, h=None, J=None):
        if int(vertex_count) != vertex_count or vertex_count < 0:
            raise DimensionError(f"vertex_count must be a non-negative integer, got {vertex_count!r}")
        n = int(vertex_count)
        if n > SIZE_LIMIT:
            raise SizeError(f"vertex_count {n} is above the limit of {SIZE_LIMIT}")
        self.vertex_count = n

        h = dict(h or {})
        for a, v in h.items():
            if not (0 <= a < n):
                raise IndexError(f"h vertex {a} out of range for {n} vertices")
            h[a] = _finite(v, "h[{}]", a)

        normalized = {}
        for pair, w in dict(J or {}).items():
            a, b = pair
            if a == b:
                raise IndexError(f"self-coupling ({a}, {b}) is not allowed")
            if not (0 <= a < n and 0 <= b < n):
                raise IndexError(f"J pair ({a}, {b}) out of range for {n} vertices")
            key = (a, b) if a < b else (b, a)
            if key in normalized:
                raise IndexError(f"duplicate coupling for pair {key}")
            normalized[key] = _finite(w, "J{}", key)

        self.h = h
        self.J = normalized

        self._h_vec = np.zeros(n, dtype=np.float64)
        self._h_vec[list(h)] = list(h.values())

        # Each edge from both ends, sorted by (end, other end): vertex v's
        # entries of _adj and _adj_w run from _adj_start[v] to _adj_start[v + 1],
        # and those whose neighbour is above v are the sorted edges (a, b).
        pairs = np.array(list(normalized), dtype=np.intp).reshape(-1, 2)
        ends, others = pairs.T.ravel(), pairs[:, ::-1].T.ravel()
        weights = np.tile(np.fromiter(normalized.values(), np.float64, len(normalized)), 2)
        by_end = np.lexsort((others, ends))
        ends, self._adj, self._adj_w = ends[by_end], others[by_end], weights[by_end]
        self._adj_start = np.searchsorted(ends, np.arange(n + 1))
        upper = self._adj > ends
        self._edge_a, self._edge_b, self._edge_w = ends[upper], self._adj[upper], self._adj_w[upper]

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
        energies = np.sum(self._h_vec * s, axis=1)
        if self._edge_w.size:
            energies += np.sum(
                self._edge_w * (s.take(self._edge_a, axis=1) * s.take(self._edge_b, axis=1)),
                axis=1)
        return energies

    def configuration(self, spins) -> "SpinConfiguration":
        """Wrap a spin vector, computing its energy fresh."""
        arr = np.asarray(spins, dtype=SPIN_DTYPE)
        return SpinConfiguration(arr, self.evaluate(arr))

    def content_hash(self) -> str:
        """Stable short identifier derived from the problem's contents."""
        parts = [str(self.vertex_count)]
        parts.extend(f"h {a} {self._h_vec[a]!r}" for a in sorted(self.h))
        parts.extend(
            f"J {a} {b} {w!r}"
            for (a, b), w in sorted(self.J.items())
        )
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        return digest[:12]

    def __repr__(self):
        return (
            f"IsingProblem(vertex_count={self.vertex_count}, "
            f"|h|={len(self.h)}, |J|={len(self.J)})"
        )


@dataclass(frozen=True, eq=False, slots=True)
class SpinConfiguration:
    """One optimizer run: a spin vector plus its cached energy.

    Value type. The spin array is marked read-only; derived configurations
    are always built fresh with a newly computed energy, never mutated.
    """

    spins: np.ndarray
    energy: float

    def __post_init__(self):
        arr = np.asarray(self.spins, dtype=SPIN_DTYPE)
        bad = arr[(arr != 1) & (arr != -1)]
        if bad.size:
            raise ValueError(f"spins must be -1 or +1, found {np.unique(bad).tolist()}")
        arr = arr.copy()
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
    twice counts once; an empty tunnel is rejected.
    """
    verts = np.unique(np.fromiter((int(v) for v in vertices), dtype=np.intp))
    if not verts.size:
        raise InputError("a tunnel must contain at least one vertex")
    if verts[0] < 0 or verts[-1] >= problem.vertex_count:
        raise IndexError(
            f"tunnel vertices out of range for {problem.vertex_count} vertices"
        )
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
