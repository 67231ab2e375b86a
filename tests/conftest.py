"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the package's vectorized paths:
energies are summed term by term in Python, and ground states come from
explicit enumeration, so the fast implementations are checked against
straightforward arithmetic.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from isingpp import ChimeraSpec, IsingProblem, ProblemGenSpec, chimera_graph, random_problem


def oracle_energy(problem, spins) -> float:
    """Term-by-term energy, no numpy."""
    total = 0.0
    for a, v in problem.h.items():
        total += v * float(spins[a])
    for (a, b), w in problem.J.items():
        total += w * float(spins[a]) * float(spins[b])
    return total


def oracle_neighbours(problem):
    """Each vertex's neighbours, ascending, and their couplings, read from
    ``problem.J`` in plain Python: two lists of per-vertex arrays."""
    adj = [[] for _ in range(problem.vertex_count)]
    for (a, b), w in problem.J.items():
        adj[a].append((b, w))
        adj[b].append((a, w))
    nbr = [np.array([b for b, _ in sorted(row)], dtype=np.intp) for row in adj]
    nbr_w = [np.array([w for _, w in sorted(row)], dtype=np.float64) for row in adj]
    return nbr, nbr_w


def oracle_ground(problem):
    """Exhaustive enumeration; first minimum in lexicographic order
    (-1 before +1). Keep vertex counts small."""
    n = problem.vertex_count
    best_spins, best_energy = None, None
    for state in itertools.product((-1, 1), repeat=n):
        e = oracle_energy(problem, state)
        if best_energy is None or e < best_energy:
            best_energy = e
            best_spins = state
    return np.array(best_spins, dtype=np.int8), best_energy


def subset_states(base_spins, subset):
    """All 2^k assignments of ``subset`` (sorted, k <= 15) on top of
    ``base_spins``, one per row, in lexicographic order (-1 before +1):
    row j sets the subset's spins from the bits of j, most significant
    first."""
    subset = sorted(subset)
    k = len(subset)
    assert k <= 15
    states = np.tile(np.asarray(base_spins, dtype=np.int8), (1 << k, 1))
    codes = np.arange(1 << k)
    states[:, subset] = ((codes[:, None] >> np.arange(k - 1, -1, -1)) & 1) * 2 - 1
    return states


def conditional_min_enum(problem, base_spins, subset):
    """Exact conditional minimum over ``subset`` with the rest fixed.

    Enumerates all 2^k assignments of the subset (k <= 15) on top of
    ``base_spins`` and evaluates them in a batch; ties go to the first in
    lexicographic order.
    """
    states = subset_states(base_spins, subset)
    energies = problem.evaluate_many(states)
    i = int(np.argmin(energies))
    return states[i], float(energies[i])


def random_tree_edges(rng, n):
    """Uniform random recursive tree on n vertices."""
    return [(int(rng.integers(0, i)), i) for i in range(1, n)]


@pytest.fixture
def chimera_2x2(request):
    spec = ChimeraSpec(2, 2, 4)
    graph = chimera_graph(spec)
    return random_problem(graph, ProblemGenSpec((-2, 2), (-1, 1), seed=316),
                          vertex_count=spec.vertex_count)


def make_chimera_problem(seed, rows=2, cols=2, shore=4, h_range=(-2, 2), j_range=(-1, 1)):
    spec = ChimeraSpec(rows, cols, shore)
    return random_problem(chimera_graph(spec), ProblemGenSpec(h_range, j_range, seed),
                          vertex_count=spec.vertex_count)


def make_tree_problem(seed, n, h_range=(-1, 1), j_range=(-1, 1)):
    rng = np.random.default_rng(seed)
    edges = random_tree_edges(rng, n)
    return random_problem(edges, ProblemGenSpec(h_range, j_range, seed), vertex_count=n)
