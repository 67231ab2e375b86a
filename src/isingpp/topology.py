"""Problem graphs and random coefficient assignment.

Graphs are plain edge lists: ``[(a, b), ...]`` with ``a < b``, sorted.
Vertices are dense integers from 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import SIZE_LIMIT, IsingProblem
from .errors import InputError, ParameterError, SizeError
from .rng import child_sequences, make_generator


@dataclass(frozen=True, slots=True)
class ChimeraSpec:
    """An m x n grid of bipartite K_{shore,shore} cells.

    Within a cell every side-0 vertex couples to every side-1 vertex.
    Side-0 vertices couple to the matching vertex in the cell above and
    below; side-1 vertices to the matching vertex left and right.
    """

    rows: int
    cols: int
    shore: int

    def __post_init__(self):
        for name in ("rows", "cols", "shore"):
            object.__setattr__(self, name, _whole(getattr(self, name), 1, name))

    @property
    def vertex_count(self) -> int:
        return self.rows * self.cols * 2 * self.shore

    def vertex(self, row: int, col: int, side: int, k: int) -> int:
        return ((row * self.cols + col) * 2 + side) * self.shore + k


def _whole(value, least, what):
    """``value`` as an int; ParameterError unless it is an integer of at
    least ``least``."""
    if ((isinstance(value, float) and not math.isfinite(value))
            or int(value) != value or value < least):
        raise ParameterError(f"{what} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _bounded(what, vertices, edges):
    """Raise SizeError unless a graph of ``vertices`` and ``edges`` stays
    within SIZE_LIMIT, before any list of that size is built."""
    if max(vertices, edges) > SIZE_LIMIT:
        raise SizeError(f"{what} would have {vertices} vertices and {edges} edges, "
                        f"above the limit of {SIZE_LIMIT}")


@dataclass(frozen=True, slots=True)
class ProblemGenSpec:
    """Uniform coefficient ranges plus the seed that fixes the draw."""

    h_range: tuple
    j_range: tuple
    seed: int

    def __post_init__(self):
        for name in ("h_range", "j_range"):
            lo, hi = getattr(self, name)
            for bound, value in (("lower", lo), ("upper", hi)):
                if math.isnan(value):
                    raise ParameterError(f"{name} {bound} bound is NaN: [{lo}, {hi}]")
            if not (lo <= hi):
                raise ParameterError(f"{name} is empty: [{lo}, {hi}]")
            if not math.isfinite(hi - lo):  # as uniform draws need
                raise ParameterError(f"{name} [{lo}, {hi}] does not span a finite width")
        object.__setattr__(self, "h_range", (float(self.h_range[0]), float(self.h_range[1])))
        object.__setattr__(self, "j_range", (float(self.j_range[0]), float(self.j_range[1])))


def chimera_graph(spec: ChimeraSpec):
    """Edge list of the Chimera topology described by ``spec``."""
    rows, cols, shore = spec.rows, spec.cols, spec.shore
    _bounded("chimera graph", spec.vertex_count, rows * cols * shore * shore
             + (rows - 1) * cols * shore + rows * (cols - 1) * shore)
    edges = []
    for i in range(spec.rows):
        for j in range(spec.cols):
            for k in range(spec.shore):
                a = spec.vertex(i, j, 0, k)
                for k2 in range(spec.shore):
                    edges.append((a, spec.vertex(i, j, 1, k2)))
            if i + 1 < spec.rows:
                for k in range(spec.shore):
                    edges.append((spec.vertex(i, j, 0, k), spec.vertex(i + 1, j, 0, k)))
            if j + 1 < spec.cols:
                for k in range(spec.shore):
                    edges.append((spec.vertex(i, j, 1, k), spec.vertex(i, j + 1, 1, k)))
    return sorted((a, b) if a < b else (b, a) for a, b in edges)


def complete_graph(n: int):
    """Edge list of K_n."""
    n = _whole(n, 2, "complete graph vertex count")
    _bounded("complete graph", n, n * (n - 1) // 2)
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def path_graph(n: int):
    """Edge list of the path 0 - 1 - ... - (n-1)."""
    n = _whole(n, 1, "path graph vertex count")
    _bounded("path graph", n, n - 1)
    return [(a, a + 1) for a in range(n - 1)]


def grid_graph(rows: int, cols: int):
    """Edge list of the rows x cols square lattice, row-major vertex ids."""
    rows, cols = _whole(rows, 1, "grid rows"), _whole(cols, 1, "grid cols")
    _bounded("grid graph", rows * cols, rows * (cols - 1) + (rows - 1) * cols)
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return sorted(edges)


def random_problem(graph, spec: ProblemGenSpec, vertex_count=None) -> IsingProblem:
    """Draw uniform coefficients on ``graph``.

    Stream discipline: the seed is split into two child streams; the first
    draws h for vertices 0..n-1 in order, the second draws J for edges in
    sorted order. The same spec therefore reproduces the same problem
    bit for bit, independent of platform.
    """
    edges = sorted(set((a, b) if a < b else (b, a) for a, b in graph))
    for a, b in edges:
        if a == b:
            raise InputError(f"graph contains a self-loop at vertex {a}")
    if vertex_count is None:
        if not edges:
            raise InputError("cannot infer vertex count from an empty graph")
        vertex_count = max(b for _, b in edges) + 1

    h_seq, j_seq = child_sequences(spec.seed, 2)
    h_rng = make_generator(h_seq)
    j_rng = make_generator(j_seq)

    h_lo, h_hi = spec.h_range
    j_lo, j_hi = spec.j_range
    return IsingProblem.from_entries(
        vertex_count, range(vertex_count), h_rng.uniform(h_lo, h_hi, vertex_count),
        edges, j_rng.uniform(j_lo, j_hi, len(edges)))

