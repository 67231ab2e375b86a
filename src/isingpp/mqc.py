"""Multi-run quantum correction: merging runs tunnel by tunnel.

Two runs agree on a set of vertices and disagree on the rest. The
disagreement region splits into connected components ("tunnels") of the
problem graph; distinct tunnels are never adjacent, so each can be decided
independently. For every tunnel the merge keeps the side whose tunnel
contribution (linear terms plus boundary couplings) is strictly lower,
preferring run 1 on ties. Because the contribution changes sign under a
whole-tunnel flip, the merged energy never exceeds either input's.

``mqc_reduce`` folds a whole RunSet to a single configuration by repeated
pairwise merging, each level one (runs, n) spin matrix; ``hpe`` reduces
its groups through the same level loop. The pairing order at each level
is a strategy choice:

* sequential      - pair runs in the order they appear;
* rank_order      - sort by energy (ties by position) and pair adjacent;
* max_difference  - greedily pair the remaining runs with the largest
                    Hamming distance, smallest index pair on ties.

An odd run out is carried to the next level unchanged, after the merged
pairs.

All pairs of a level are merged together, ``_ROW_BLOCK`` (256) pairs per
numpy pass. The disagreement entries of a block are the nodes of one
graph, the disjoint union of its pairs' disagreement subgraphs, and a
hook-and-compress union-find labels its components, the tunnels, in
order of pair and then smallest vertex. One ``bincount`` over those
labels gives every tunnel's contribution, and one product per block
every merged energy. A block costs O(P (n + E)) per union-find round
for P pairs, n vertices and E couplings; the block size bounds the
(P, E) masks and products, so the memory of a merge does not grow with
the run count. Each sum runs in the order of a one-pair merge, so no
contribution, tie or energy bit depends on the block size.

Sequential pairing is O(m) and rank order O(m log m) for m runs.
Max-difference pairing fills one m x m int16 table of Hamming
distances (2 m^2 bytes: 8 MiB at 2,048 runs) with blocked float32
matrix products, O(m^2 n) for n vertices, and then runs the greedy over
a per-row cache of each run's farthest free partner. A step costs O(m)
plus O(m) for each run whose cached partner it took; on sampled runs
that is a few runs a step, so the greedy is O(m^2). Runs that all share
one farthest partner step after step can raise it to O(m^3).
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass

import numpy as np

from .core import IsingProblem, SpinConfiguration, Tunnel
from .errors import DimensionError, InputError
from .samplers import RunSet


class PairingStrategy(str, enum.Enum):
    SEQUENTIAL = "sequential"
    RANK_ORDER = "rank_order"
    MAX_DIFFERENCE = "max_difference"


def hamming_distance(run1: SpinConfiguration, run2: SpinConfiguration) -> int:
    """Number of vertices where the two runs disagree."""
    if len(run1) != len(run2):
        raise DimensionError(
            f"runs have lengths {len(run1)} and {len(run2)}"
        )
    return int(np.count_nonzero(run1.spins != run2.spins))


def _check_runs(problem, configs):
    """Raise DimensionError naming the first run that does not fit."""
    n = problem.vertex_count
    for k, config in enumerate(configs):
        if config.spins.shape != (n,):
            raise DimensionError(
                f"run {k} of length {config.spins.size} does not fit a problem "
                f"with {n} vertices"
            )


def disagreement_tunnels(problem: IsingProblem, run1: SpinConfiguration,
                         run2: SpinConfiguration) -> list:
    """Tunnels of the disagreement region, ordered by smallest vertex."""
    _check_runs(problem, (run1, run2))
    _, _, verts, labels, counts, _ = _merge_rows(
        problem, run1.spins[None], run2.spins[None])
    groups = [[] for _ in range(int(counts[0]))]
    for v, c in zip(verts.tolist(), labels.tolist()):
        groups[c].append(v)
    return [Tunnel(tuple(g)) for g in groups]


def _component_roots(u, v, size):
    """Each node's smallest component member, on ``size`` nodes joined by
    the edges (u[k], v[k]).

    Hook-and-compress union-find. A round hooks, for every edge whose ends
    have different roots, the larger root onto the smaller one
    (``np.minimum.at``), then pointer-jumps ``parent = parent[parent]``
    until no entry changes, so every node points at a root again.
    ``parent[x] <= x`` throughout, which makes each root its component's
    smallest node. A round removes every root that is the larger end of a
    live edge, so at least one root of every component that still has
    two; edges whose ends share a root stay that way and are dropped.
    """
    parent = np.arange(size)
    while True:
        ru, rv = parent[u], parent[v]
        live = ru != rv
        if not live.any():
            return parent
        u, v, ru, rv = u[live], v[live], ru[live], rv[live]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped


def _merge_rows(problem, s1, s2):
    """Merge run-1 row p of ``s1`` with run-2 row p of ``s2`` for every p.

    Nodes are the disagreement entries, numbered in
    ``np.flatnonzero(s1 != s2)`` order (by row, then vertex); a problem
    edge with both ends in one row's disagreement region joins two nodes.
    The components of that graph, labeled by ``_component_roots`` in node
    order of their smallest member, are the tunnels. A tunnel's run-1
    contribution sums, vertex by vertex, the linear term plus the
    couplings to agreement vertices (couplings inside the disagreement
    region are internal to a tunnel, since distinct tunnels are never
    adjacent); run 2's side is its negative, so run 2 wins iff the sum is
    > 0. Every sum runs in the order of a one-row call. Work is
    O(P (n + E)) per union-find round for P rows, n vertices and E edges.

    Returns the merged spins, their energies (summed as
    ``IsingProblem.evaluate`` sums them), the nodes (flat indices into the
    rows), each node's tunnel label, the tunnel count of each row and the
    run-1 contribution of each tunnel.
    """
    rows, n = s1.shape
    ea, eb, w = problem._edge_a, problem._edge_b, problem._edge_w
    diff = s1 != s2
    nodes = np.flatnonzero(diff)
    node_of = np.cumsum(diff.ravel()) - 1
    da, db = diff.take(ea, axis=1), diff.take(eb, axis=1)

    p, e = np.nonzero(da & db)
    roots = _component_roots(node_of[p * n + ea[e]], node_of[p * n + eb[e]],
                             nodes.size)
    is_root = roots == np.arange(nodes.size)
    labels = (np.cumsum(is_root) - 1)[roots]
    counts = np.bincount(nodes[is_root] // n, minlength=rows)

    # Couplings to agreement vertices, in edge order: the ones from an
    # edge's first end, then the ones from its second end.
    field = np.zeros(nodes.size)
    p, e = np.nonzero(da & ~db)
    field += np.bincount(node_of[p * n + ea[e]], weights=w[e] * s1[p, eb[e]],
                         minlength=nodes.size)
    p, e = np.nonzero(db & ~da)
    field += np.bincount(node_of[p * n + eb[e]], weights=w[e] * s1[p, ea[e]],
                         minlength=nodes.size)
    per_vertex = s1.ravel()[nodes] * (problem._h_vec[nodes % n] + field)
    contrib1 = np.bincount(labels, weights=per_vertex, minlength=int(is_root.sum()))

    merged = s1.copy()
    flip = nodes[contrib1[labels] > 0.0]
    merged.ravel()[flip] = s2.ravel()[flip]
    return merged, _row_energies(problem, merged), nodes, labels, counts, contrib1


def _row_energies(problem, spins):
    """Energy of every row of the (rows, n) matrix ``spins``, each summed
    bit for bit as ``IsingProblem.evaluate`` sums one vector.

    Row sums reduce C-ordered rows, which numpy sums pairwise exactly as
    it sums one vector; a column-major operand would be summed in
    another order.
    """
    ea, eb, w = problem._edge_a, problem._edge_b, problem._edge_w
    energies = np.sum(problem._h_vec * spins, axis=1)
    if w.size:
        energies += np.sum(w * (spins.take(ea, axis=1) * spins.take(eb, axis=1)),
                           axis=1)
    return energies


def mqc_pair(problem: IsingProblem, run1: SpinConfiguration,
             run2: SpinConfiguration) -> SpinConfiguration:
    """Merge two runs tunnel by tunnel.

    The result agrees with both runs wherever they agree, adopts the
    lower-contribution side on every tunnel (run 1 on ties), and carries a
    freshly evaluated energy that is at most min of the input energies.
    """
    _check_runs(problem, (run1, run2))
    merged, energies, _, _, _, _ = _merge_rows(
        problem, run1.spins[None], run2.spins[None])
    return SpinConfiguration(merged[0], energies[0])


@dataclass(frozen=True, slots=True)
class PairMerge:
    """One pairwise merge inside a reduction level.

    ``first``/``second`` index the level's run list. ``contributions``
    holds the (run1, run2) tunnel contribution pair for each tunnel,
    ``adopted`` which side won (1 or 2).
    """

    first: int
    second: int
    tunnel_sizes: tuple
    contributions: tuple
    adopted: tuple


@dataclass(frozen=True, slots=True)
class ReductionLevel:
    size: int
    pairs: tuple
    leftover: int | None


@dataclass(frozen=True, slots=True)
class ReductionTrace:
    """Pairings and tunnel decisions, level by level."""

    strategy: str
    levels: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def _pair_indices(spins, energies, strategy):
    """Index pairs plus the leftover index (or None) for one level: the
    rows of ``spins``, with cached ``energies``.

    A pair (i, j) means row i plays run 1 and row j run 2 in the merge,
    so ties inside a tunnel go to row i. Max-difference pairs have i < j
    and come out in (distance descending, i, j) order; they cost one
    m x m int16 distance table and, on sampled runs, O(m^2) time (see
    the module docstring).
    """
    m = len(spins)
    if strategy == PairingStrategy.SEQUENTIAL:
        pairs = [(i, i + 1) for i in range(0, m - 1, 2)]
        leftover = m - 1 if m % 2 else None
        return pairs, leftover

    if strategy == PairingStrategy.RANK_ORDER:
        order = np.argsort(energies, kind="stable").tolist()
        pairs = list(zip(order[0:m - 1:2], order[1::2]))
        leftover = order[-1] if m % 2 else None
        return pairs, leftover

    if strategy == PairingStrategy.MAX_DIFFERENCE:
        return _max_difference_pairs(spins)

    raise InputError(f"unknown pairing strategy {strategy!r}")


# Rows of the distance table filled or rescanned, and pairs merged, per
# numpy call.
_ROW_BLOCK = 256


def _distance_table(spins):
    """Hamming distances between the rows of ``spins``, upper triangle only.

    Entry (i, j) is the distance for j > i and -1 for j <= i. The table
    is int16 (int32 beyond 32,766 vertices) and is filled in blocks of
    rows as (n - S_blk @ S^T) / 2. Each dot product sums n terms of +-1,
    which float32 holds exactly below 2^24 vertices.
    """
    m, n = spins.shape
    s = spins.astype(np.float32 if n < 1 << 24 else np.float64)
    dist = np.empty((m, m), dtype=np.int16 if n <= 32766 else np.int32)
    cols = np.arange(m)
    for lo in range(0, m, _ROW_BLOCK):
        block = dist[lo:lo + _ROW_BLOCK]
        block[...] = (n - s[lo:lo + _ROW_BLOCK] @ s.T) / 2
        block[cols <= np.arange(lo, lo + len(block))[:, None]] = -1
    return dist


def _max_difference_pairs(spins):
    """Greedy max-Hamming-distance pairing of the rows of ``spins``.

    Each step takes the live pair that is first in (distance descending,
    i ascending, j ascending) order. ``best_j[i]`` caches row i's first
    farthest live partner j > i and ``best_v[i]`` that distance, so the
    step's pair is (i, best_j[i]) for the first i of largest ``best_v``.
    Taking a pair kills its two columns, which only lowers entries, so
    a row is rescanned only when its cached partner was one of them.
    """
    m = spins.shape[0]
    dist = _distance_table(spins)
    best_j = dist.argmax(axis=1)
    best_v = dist[np.arange(m), best_j]
    pairs = []
    for _ in range(m // 2):
        i = int(best_v.argmax())
        j = int(best_j[i])
        pairs.append((i, j))
        # A best_j of -1 marks a taken row: no step picks or rescans it,
        # so only the taken columns are cleared (entries on and below the
        # diagonal are -1 already).
        best_v[[i, j]] = -1
        best_j[[i, j]] = -1
        dist[:i, i] = -1
        dist[:j, j] = -1
        stale = np.flatnonzero((best_j == i) | (best_j == j))
        for lo in range(0, stale.size, _ROW_BLOCK):
            rows = stale[lo:lo + _ROW_BLOCK]
            table = dist[rows]
            best_j[rows] = table.argmax(axis=1)
            best_v[rows] = table[np.arange(rows.size), best_j[rows]]
    leftover = int(np.flatnonzero(best_j >= 0)[0]) if m % 2 else None
    return pairs, leftover


def pair_runs(runset: RunSet, strategy: PairingStrategy):
    """Pair up a RunSet's runs; returns (index pairs, leftover index)."""
    return _pair_indices(runset.spins, runset.energies(), PairingStrategy(strategy))


def _merge_pairs(problem, spins, pairs):
    """Merge each index pair (i, j) of the rows of ``spins``, row i as run 1.

    Returns the merged rows, their energies and a PairMerge per pair. The
    pairs go through ``_merge_rows`` in blocks of ``_ROW_BLOCK``, so the
    memory a call adds besides its output is bounded.
    """
    index = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    merged = np.empty((len(index), spins.shape[1]), dtype=spins.dtype)
    energies = np.empty(len(index))
    records = []
    for lo in range(0, len(index), _ROW_BLOCK):
        block = index[lo:lo + _ROW_BLOCK]
        hi = lo + len(block)
        merged[lo:hi], energies[lo:hi], _, labels, counts, contrib1 = _merge_rows(
            problem, spins[block[:, 0]], spins[block[:, 1]])
        sizes = np.bincount(labels, minlength=contrib1.size).tolist()
        side1, side2 = contrib1.tolist(), (-contrib1).tolist()
        adopted = np.where(contrib1 > 0.0, 2, 1).tolist()
        start = 0
        for (i, j), end in zip(pairs[lo:hi], np.cumsum(counts).tolist()):
            records.append(PairMerge(
                i, j, tuple(sizes[start:end]),
                tuple(zip(side1[start:end], side2[start:end])),
                tuple(adopted[start:end])))
            start = end
    return merged, energies, records


def _reduce_levels(problem, spins, energies, strategy):
    """Reduce each group of runs in the (G, k, n) ``spins``, with (G, k)
    ``energies``, to one: every level pairs each group under ``strategy``
    and merges all groups' pairs in one ``_merge_pairs`` call; a group's
    odd run out follows its merged pairs, energy unchanged. Returns the
    winners' (G, n) spins and (G,) energies, and group 0's levels.
    """
    problem._check_length(spins)
    groups, size, n = spins.shape
    levels = []
    while size > 1:
        flat, flat_energies = spins.reshape(-1, n), energies.reshape(-1)
        flat_pairs, left = [], []
        for g in range(groups):
            pairs, leftover = _pair_indices(spins[g], energies[g], strategy)
            flat_pairs += [(g * size + i, g * size + j) for i, j in pairs]
            if leftover is not None:
                left.append(g * size + leftover)
        merged, merged_energies, records = _merge_pairs(problem, flat, flat_pairs)
        half = size // 2
        levels.append(ReductionLevel(size, tuple(records[:half]), left[0] if left else None))
        spins = merged.reshape(groups, half, n)
        energies = merged_energies.reshape(groups, half)
        if left:
            spins = np.concatenate([spins, flat[left][:, None]], axis=1)
            energies = np.concatenate([energies, flat_energies[left][:, None]], axis=1)
        size = spins.shape[1]
    return spins[:, 0], energies[:, 0], levels


def reduce_configs(problem: IsingProblem, configs,
                   strategy: PairingStrategy = PairingStrategy.SEQUENTIAL):
    """``mqc_reduce`` of a list of configurations, each checked against
    the problem before any pairing."""
    configs = list(configs)
    _check_runs(problem, configs)
    return mqc_reduce(problem, RunSet(configs, None, None), strategy)


def mqc_reduce(problem: IsingProblem, runset: RunSet,
               strategy: PairingStrategy = PairingStrategy.SEQUENTIAL):
    """Reduce a whole RunSet to a single configuration by levels of
    pairwise merges, the strategy re-applied at every level. Returns it
    and a ReductionTrace of each level's pairs and tunnel decisions."""
    strategy = PairingStrategy(strategy)
    spins, energies, levels = _reduce_levels(
        problem, runset.spins[None], runset.energies()[None], strategy)
    return SpinConfiguration(spins[0], energies[0]), ReductionTrace(strategy.value, tuple(levels))
