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
labels gives every tunnel's contribution, and one ``evaluate_many``
call per block every merged energy. A block costs O(P (n + E)) per
union-find round for P pairs, n vertices and E couplings; the block
size bounds the (P, E) masks and products, so the memory of a merge
does not grow with the run count. Each sum runs in the order of a one-pair merge, so no
contribution, tie or energy bit depends on the block size.

The trace is stored as columns: each level keeps its (k, 2) pair index,
the tunnel count of each pair and the size and run-1 contribution of
each tunnel, concatenated over its blocks. The PairMerge records are
built from those columns only when ``ReductionLevel.pairs`` is read.

Sequential pairing is O(m) and rank order O(m log m) for m runs.
Max-difference pairing fills one m x m int16 table of Hamming
distances (2 m^2 bytes: 8 MiB at 2,048 runs) with blocked float32
matrix products, O(m^2 n) for n vertices, and then runs the greedy in
rounds over a per-row cache of each run's farthest free partner. A
round matches, all at once, every pair of runs that are each other's
cached partner; these are pairs the one-pair-a-step greedy takes
whatever else it takes, so the pairs are the same. The table is not
written after it is filled; taken runs are masked out of the rows a
round rescans. A round costs O(m) plus O(m) for each run whose cached
partner it took. Level 0 of 2,048 sampled runs took 33-42 rounds and
about 5 rescans per run, so the greedy is O(m^2) there. Distances like
|i - j| force one pair a round, m/2 rounds that rescan every row, so
the worst case is O(m^3).
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass

import numpy as np

from .core import IsingProblem, SpinConfiguration
from .errors import DimensionError, InputError
from .samplers import RunSet


class PairingStrategy(str, enum.Enum):
    SEQUENTIAL = "sequential"
    RANK_ORDER = "rank_order"
    MAX_DIFFERENCE = "max_difference"


def _strategy(value):
    """``value`` as a PairingStrategy, or InputError naming the three."""
    try:
        return PairingStrategy(value)
    except ValueError:
        names = ", ".join(s.value for s in PairingStrategy)
        raise InputError(f"unknown pairing strategy {value!r}; "
                         f"expected one of {names}") from None


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
    """The disagreement region's tunnels as sorted vertex tuples, by smallest vertex."""
    _check_runs(problem, (run1, run2))
    _, _, verts, labels, counts, _ = _merge_rows(
        problem, run1.spins[None], run2.spins[None])
    groups = [[] for _ in range(int(counts[0]))]
    for v, c in zip(verts.tolist(), labels.tolist()):
        groups[c].append(v)
    return [tuple(g) for g in groups]


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
    ru, rv = u, v
    while True:
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped
        ru, rv = parent[u], parent[v]
        live = ru != rv
        if not live.any():
            return parent
        u, v, ru, rv = u[live], v[live], ru[live], rv[live]


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

    The inner edges and the couplings to agreement vertices are entries
    of (rows, E) masks over the edges. Each set is found by flat index,
    ``np.flatnonzero``, in (row, edge) order, and an entry's row and edge
    are its index divided by E, with remainder: the entries and order of
    a 2-D ``np.nonzero`` at a fraction of its cost.

    Returns the merged spins, their energies from
    ``problem.evaluate_many``, the nodes (flat indices into the rows),
    each node's tunnel label, the tunnel count of each row and the run-1
    contribution of each tunnel.
    """
    rows, n = s1.shape
    ea, eb, w = problem._edge_a, problem._edge_b, problem._edge_w
    diff = s1 != s2
    nodes = np.flatnonzero(diff)
    # The node number at each disagreement entry; no other entry is read.
    node_of = np.empty(diff.size, dtype=np.intp)
    node_of[nodes] = np.arange(nodes.size)
    da, db = diff.take(ea, axis=1), diff.take(eb, axis=1)

    def entries(mask):
        """Flat positions of both ends, and the edge, of each True entry
        of the (rows, E) ``mask``, by row and then edge."""
        f = np.flatnonzero(mask)
        row = f // ea.size
        e = f - row * ea.size
        return row * n + ea[e], row * n + eb[e], e

    a, b, _ = entries(da & db)
    roots = _component_roots(node_of[a], node_of[b], nodes.size)
    is_root = roots == np.arange(nodes.size)
    labels = (np.cumsum(is_root) - 1)[roots]
    counts = np.bincount(nodes[is_root] // n, minlength=rows)

    # Couplings to agreement vertices, in edge order: the ones from an
    # edge's first end, then the ones from its second end.
    spins1 = s1.ravel()
    field = np.zeros(nodes.size)
    a, b, e = entries(da & ~db)
    field += np.bincount(node_of[a], weights=w[e] * spins1[b], minlength=nodes.size)
    a, b, e = entries(db & ~da)
    field += np.bincount(node_of[b], weights=w[e] * spins1[a], minlength=nodes.size)
    per_vertex = spins1[nodes] * (problem._h_vec[nodes % n] + field)
    contrib1 = np.bincount(labels, weights=per_vertex, minlength=int(is_root.sum()))

    merged = s1.copy()
    flip = nodes[contrib1[labels] > 0.0]
    merged.ravel()[flip] = s2.ravel()[flip]
    return merged, problem.evaluate_many(merged), nodes, labels, counts, contrib1


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


@dataclass(frozen=True, slots=True, eq=False)
class ReductionLevel:
    """One level of a reduction, stored as columns.

    ``pair_index`` is the (k, 2) array of the level's index pairs,
    ``tunnel_counts`` the tunnel count of each pair, and ``tunnel_sizes``
    and ``contrib1`` the size and run-1 contribution of each tunnel, in
    pair order. ``leftover`` is the odd run out, or None. ``pairs``
    builds the PairMerge records from these columns on each access; two
    levels are equal when their sizes, leftovers and records are.
    """

    size: int
    leftover: int | None
    pair_index: np.ndarray
    tunnel_counts: np.ndarray
    tunnel_sizes: np.ndarray
    contrib1: np.ndarray

    @property
    def pairs(self) -> tuple:
        """A PairMerge per pair: run 2's side of a tunnel is minus run
        1's, and run 2's side is adopted where run 1's is > 0."""
        sizes, side1 = self.tunnel_sizes.tolist(), self.contrib1.tolist()
        side2 = (-self.contrib1).tolist()
        adopted = np.where(self.contrib1 > 0.0, 2, 1).tolist()
        records, start = [], 0
        for (i, j), end in zip(self.pair_index.tolist(), np.cumsum(self.tunnel_counts).tolist()):
            records.append(PairMerge(
                i, j, tuple(sizes[start:end]),
                tuple(zip(side1[start:end], side2[start:end])),
                tuple(adopted[start:end])))
            start = end
        return tuple(records)

    def __eq__(self, other):
        if not isinstance(other, ReductionLevel):
            return NotImplemented
        return ((self.size, self.pairs, self.leftover)
                == (other.size, other.pairs, other.leftover))

    def __hash__(self):
        return hash((self.size, self.pairs, self.leftover))


@dataclass(frozen=True, slots=True)
class ReductionTrace:
    """Pairings and tunnel decisions, level by level."""

    strategy: str
    levels: tuple

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "levels": tuple({"size": level.size,
                             "pairs": tuple(asdict(p) for p in level.pairs),
                             "leftover": level.leftover}
                            for level in self.levels),
        }


def _pair_indices(spins, energies, strategy):
    """Index pairs plus the leftover index (or None) for one level: the
    rows of ``spins``, with cached ``energies``.

    ``strategy`` is a PairingStrategy, checked by the caller. A pair
    (i, j) means row i plays run 1 and row j run 2 in the merge, so ties
    inside a tunnel go to row i. Max-difference pairs have i < j and come
    out in (distance descending, i, j) order; they cost one m x m int16
    distance table and a few dozen numpy rounds on sampled runs (see the
    module docstring).
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

    return _max_difference_pairs(spins)


# Rows of the distance table filled or rescanned, and pairs merged, per
# numpy call.
_ROW_BLOCK = 256


def _distance_table(spins):
    """Hamming distances between the rows of ``spins``, -1 on the diagonal.

    Entry (i, j) = (j, i) is the distance of rows i and j for i != j. The
    table is int16 (int32 beyond 32,766 vertices) and is filled in blocks
    of rows as (n - S_blk @ S^T) / 2. Each dot product sums n terms of
    +-1, which float32 holds exactly below 2^24 vertices, and
    ``IsingProblem`` refuses more than ``core.SIZE_LIMIT`` = 2^20.
    """
    m, n = spins.shape
    s = spins.astype(np.float32)
    dist = np.empty((m, m), dtype=np.int16 if n <= 32766 else np.int32)
    for lo in range(0, m, _ROW_BLOCK):
        block = dist[lo:lo + _ROW_BLOCK]
        block[...] = (n - s[lo:lo + _ROW_BLOCK] @ s.T) / 2
    np.fill_diagonal(dist, -1)
    return dist


def _max_difference_pairs(spins):
    """Greedy max-Hamming-distance pairing of the rows of ``spins``.

    The greedy takes, step by step, the live pair first in (distance
    descending, i ascending, j ascending) order. A pair that is first
    among all live pairs at both its runs ("locally dominant") is one the
    greedy takes whatever else it takes before, so matching all of them
    at once, round after round, gives the same pairs (Preis, STACS 1999).
    ``best[i]`` caches row i's first argmax over its live columns: its
    largest distance, then smallest index, which is row i's first pair in
    that order. A round matches every i < j with ``best[i] == j`` and
    ``best[j] == i``. The table is never written after it is filled:
    ``dead`` holds -1 for each taken run and 0 for a free one, and a
    rescanned row is OR-ed with it, which (distances being >= 0, in two's
    complement) turns the taken columns to -1 and leaves the rest as they
    are. Taking runs only lowers entries, so a row is rescanned only when
    its cached partner was taken.

    A round costs O(m) plus O(m) for each rescanned row, and the first
    live pair is always matched, so there are at most m/2 rounds: O(m^3)
    at worst, when every round matches one pair and rescans every row.
    Sampled runs need a few dozen rounds. The greedy takes its pairs in
    (distance descending, i, j) order, so one ``lexsort`` of the
    matching, kept in ``mate``, gives its list.
    """
    m = spins.shape[0]
    dist = _distance_table(spins)
    best = dist.argmax(axis=1)
    dead = np.zeros(m, dtype=dist.dtype)
    live = np.arange(m)
    mate = np.full(m, -1)
    while live.size > 1:
        partner = best[live]
        mutual = live[(best[partner] == live) & (live < partner)]
        mate[mutual] = best[mutual]
        dead[mutual] = dead[mate[mutual]] = -1
        live = live[dead[live] == 0]
        stale = live[dead[best[live]] != 0]
        for lo in range(0, stale.size, _ROW_BLOCK):
            rows = stale[lo:lo + _ROW_BLOCK]
            table = dist[rows]
            table |= dead
            best[rows] = table.argmax(axis=1)
    i = np.flatnonzero(mate > np.arange(m))
    j = mate[i]
    order = np.lexsort((j, i, -dist[i, j]))
    pairs = list(zip(i[order].tolist(), j[order].tolist()))
    return pairs, int(live[0]) if m % 2 else None


def pair_runs(runset: RunSet, strategy: PairingStrategy):
    """Pair up a RunSet's runs; returns (index pairs, leftover index)."""
    return _pair_indices(runset.spins, runset.energies(), _strategy(strategy))


def _merge_pairs(problem, spins, pairs):
    """Merge each index pair (i, j) of the rows of ``spins``, row i as run 1.

    Returns the merged rows, their energies and the level's columns: the
    (k, 2) pair index, the tunnel count of each pair, and the size and
    run-1 contribution of each tunnel, in pair order. The pairs go
    through ``_merge_rows`` in blocks of ``_ROW_BLOCK``, so the memory a
    call adds besides its output is bounded.
    """
    index = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    merged = np.empty((len(index), spins.shape[1]), dtype=spins.dtype)
    energies = np.empty(len(index))
    counts = np.empty(len(index), dtype=np.intp)
    sizes, contribs = [], []
    for lo in range(0, len(index), _ROW_BLOCK):
        block = index[lo:lo + _ROW_BLOCK]
        hi = lo + len(block)
        merged[lo:hi], energies[lo:hi], _, labels, counts[lo:hi], contrib1 = _merge_rows(
            problem, spins[block[:, 0]], spins[block[:, 1]])
        sizes.append(np.bincount(labels, minlength=contrib1.size))
        contribs.append(contrib1)
    return merged, energies, index, counts, np.concatenate(sizes), np.concatenate(contribs)


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
        flat, flat_energies = spins.reshape(groups * size, n), energies.reshape(-1)
        flat_pairs, left = [], []
        for g in range(groups):
            pairs, leftover = _pair_indices(spins[g], energies[g], strategy)
            flat_pairs += [(g * size + i, g * size + j) for i, j in pairs]
            if leftover is not None:
                left.append(g * size + leftover)
        merged, merged_energies, index, counts, sizes, contrib1 = _merge_pairs(
            problem, flat, flat_pairs)
        half = size // 2
        tunnels = int(counts[:half].sum())
        levels.append(ReductionLevel(size, left[0] if left else None, index[:half],
                                     counts[:half], sizes[:tunnels], contrib1[:tunnels]))
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
    strategy = _strategy(strategy)
    spins, energies, levels = _reduce_levels(
        problem, runset.spins[None], runset.energies()[None], strategy)
    return SpinConfiguration(spins[0], energies[0]), ReductionTrace(strategy.value, tuple(levels))
