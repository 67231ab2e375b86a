"""Multi-run quantum correction: merging runs tunnel by tunnel.

Two runs agree on a set of vertices and disagree on the rest. The
disagreement region splits into connected components ("tunnels") of the
problem graph; distinct tunnels are never adjacent, so each can be decided
independently. For every tunnel the merge keeps the side whose tunnel
contribution (linear terms plus boundary couplings) is strictly lower,
preferring run 1 on ties. Because the contribution changes sign under a
whole-tunnel flip, the merged energy never exceeds either input's.

``mqc_reduce`` folds a whole RunSet to a single configuration by repeated
pairwise merging. The pairing order at each level is a strategy choice:

* sequential      - pair runs in the order they appear;
* rank_order      - sort by energy (ties by position) and pair adjacent;
* max_difference  - greedily pair the remaining runs with the largest
                    Hamming distance, smallest index pair on ties.

An odd run out is carried to the next level unchanged, after the merged
pairs.

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
from dataclasses import dataclass

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


def disagreement_tunnels(problem: IsingProblem, run1: SpinConfiguration,
                         run2: SpinConfiguration) -> list:
    """Tunnels of the disagreement region, ordered by smallest vertex."""
    verts, comp_ids, count = _label_components(problem, run1.spins, run2.spins)
    groups = [[] for _ in range(count)]
    for v, c in zip(verts.tolist(), comp_ids.tolist()):
        groups[c].append(v)
    return [Tunnel(tuple(g)) for g in groups]


def _label_components(problem, s1, s2):
    """Disagreement vertices, their component labels, and the label count.

    Components are labeled in order of their smallest vertex. DFS uses an
    explicit stack over the problem's adjacency arrays.
    """
    diff = np.nonzero(s1 != s2)[0]
    n = problem.vertex_count
    if diff.size == 0:
        return diff, np.empty(0, dtype=np.intp), 0
    in_diff = np.zeros(n, dtype=bool)
    in_diff[diff] = True
    labels = np.full(n, -1, dtype=np.intp)
    count = 0
    nbr = problem._nbr
    for start in diff.tolist():
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = count
        while stack:
            v = stack.pop()
            for w in nbr[v].tolist():
                if in_diff[w] and labels[w] < 0:
                    labels[w] = count
                    stack.append(w)
        count += 1
    return diff, labels[diff], count


def _merge_pair(problem, run1, run2):
    """Merge two runs; returns (config, tunnel_sizes, contributions, adopted).

    contributions[k] is (run1, run2) for tunnel k; adopted[k] is 1 or 2.
    Tunnels appear in order of their smallest vertex.
    """
    s1, s2 = run1.spins, run2.spins
    if s1.shape[0] != problem.vertex_count or s2.shape[0] != problem.vertex_count:
        raise DimensionError(
            f"runs of length {s1.shape[0]}/{s2.shape[0]} do not fit a problem "
            f"with {problem.vertex_count} vertices"
        )
    diff, comp_ids, count = _label_components(problem, s1, s2)
    if count == 0:
        merged = problem.configuration(s1)
        return merged, (), (), ()

    # Per-vertex share of the contribution: the vertex's linear term plus
    # its couplings to agreement vertices. Couplings inside the
    # disagreement region are internal to some tunnel (distinct tunnels
    # are never adjacent) and drop out.
    n = problem.vertex_count
    s1f = s1.astype(np.float64)
    in_diff = np.zeros(n, dtype=bool)
    in_diff[diff] = True
    field = np.zeros(n, dtype=np.float64)
    if problem._edge_w.size:
        ea, eb, w = problem._edge_a, problem._edge_b, problem._edge_w
        field += np.bincount(ea, weights=w * s1f[eb] * ~in_diff[eb], minlength=n)
        field += np.bincount(eb, weights=w * s1f[ea] * ~in_diff[ea], minlength=n)
    per_vertex = s1f * (problem._h_vec + field)
    contrib1 = np.bincount(comp_ids, weights=per_vertex[diff], minlength=count)

    # Flipping a whole tunnel negates its contribution, so run2's side is
    # exactly -contrib1 and run2 wins iff contrib1 > 0.
    adopt2 = contrib1 > 0.0
    merged_spins = s1.copy()
    flip = diff[adopt2[comp_ids]]
    merged_spins[flip] = s2[flip]
    merged = problem.configuration(merged_spins)

    sizes = tuple(np.bincount(comp_ids, minlength=count).tolist())
    contribs = tuple((float(c), float(-c)) for c in contrib1)
    adopted = tuple(2 if a else 1 for a in adopt2.tolist())
    return merged, sizes, contribs, adopted


def mqc_pair(problem: IsingProblem, run1: SpinConfiguration,
             run2: SpinConfiguration) -> SpinConfiguration:
    """Merge two runs tunnel by tunnel.

    The result agrees with both runs wherever they agree, adopts the
    lower-contribution side on every tunnel (run 1 on ties), and carries a
    freshly evaluated energy that is at most min of the input energies.
    """
    merged, _, _, _ = _merge_pair(problem, run1, run2)
    return merged


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

    def to_dict(self) -> dict:
        return {
            "first": self.first,
            "second": self.second,
            "tunnel_sizes": list(self.tunnel_sizes),
            "contributions": [list(c) for c in self.contributions],
            "adopted": list(self.adopted),
        }


@dataclass(frozen=True, slots=True)
class ReductionLevel:
    size: int
    pairs: tuple
    leftover: int | None

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "pairs": [p.to_dict() for p in self.pairs],
            "leftover": self.leftover,
        }


@dataclass(frozen=True, slots=True)
class ReductionTrace:
    """Pairings and tunnel decisions, level by level."""

    strategy: str
    levels: tuple

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "levels": [lv.to_dict() for lv in self.levels],
        }


def _pair_indices(configs, strategy):
    """Index pairs plus the leftover index (or None) for one level.

    A pair (i, j) means configs[i] plays run 1 and configs[j] run 2 in
    the merge, so ties inside a tunnel go to configs[i]. Max-difference
    pairs have i < j and come out in (distance descending, i, j) order;
    they cost one m x m int16 distance table and, on sampled runs, O(m^2)
    time (see the module docstring).
    """
    m = len(configs)
    if strategy == PairingStrategy.SEQUENTIAL:
        pairs = [(i, i + 1) for i in range(0, m - 1, 2)]
        leftover = m - 1 if m % 2 else None
        return pairs, leftover

    if strategy == PairingStrategy.RANK_ORDER:
        order = sorted(range(m), key=lambda i: (configs[i].energy, i))
        pairs = [(order[k], order[k + 1]) for k in range(0, m - 1, 2)]
        leftover = order[-1] if m % 2 else None
        return pairs, leftover

    if strategy == PairingStrategy.MAX_DIFFERENCE:
        return _max_difference_pairs(np.stack([c.spins for c in configs]))

    raise InputError(f"unknown pairing strategy {strategy!r}")


# Rows of the distance table filled, or rescanned, per numpy call.
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
    return _pair_indices(list(runset.runs), PairingStrategy(strategy))


def reduce_configs(problem: IsingProblem, configs,
                   strategy: PairingStrategy = PairingStrategy.SEQUENTIAL):
    """Reduce a list of configurations by levels of pairwise merges.

    The strategy is re-applied at every level. Returns the final
    configuration and a ReductionTrace recording each level's pairs and
    per-tunnel decisions.
    """
    strategy = PairingStrategy(strategy)
    configs = list(configs)
    if not configs:
        raise InputError("nothing to reduce")
    if configs[0].spins.shape[0] != problem.vertex_count:
        raise DimensionError(
            f"runs of length {configs[0].spins.shape[0]} do not fit a problem "
            f"with {problem.vertex_count} vertices"
        )
    levels = []
    while len(configs) > 1:
        pairs, leftover = _pair_indices(configs, strategy)
        merged = []
        records = []
        for i, j in pairs:
            out, sizes, contribs, adopted = _merge_pair(problem, configs[i], configs[j])
            merged.append(out)
            records.append(PairMerge(i, j, sizes, contribs, adopted))
        if leftover is not None:
            merged.append(configs[leftover])
        levels.append(ReductionLevel(len(configs), tuple(records), leftover))
        configs = merged
    trace = ReductionTrace(strategy.value, tuple(levels))
    return configs[0], trace


def mqc_reduce(problem: IsingProblem, runset: RunSet,
               strategy: PairingStrategy = PairingStrategy.SEQUENTIAL):
    """Reduce a whole RunSet to a single configuration."""
    return reduce_configs(problem, runset.runs, strategy)
