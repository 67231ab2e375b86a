"""Optimizer-style post-processing: local exact minimization and
sample persistence.

``builtin_opt_pp`` mimics the cleanup pass a hardware optimizer applies to
its own output: the problem graph is cut into low-treewidth subgraphs, and
each run is improved by exactly minimizing every subgraph conditioned on
the spins outside it. The cover depends only on the graph, so it is
computed once per graph and cap and cached; every call gets a fresh list
of the cached subgraphs. Growing it tries regions with a heap-driven
min-degree elimination, O(r log r) per trial region of r vertices for a
fixed cap. The exact step is min-sum variable elimination along the
order that certified the subgraph's width, so its cost is bounded by
2^(width+1) table entries per step and run. All runs go through a subgraph
together, as one table with a leading runs axis, in blocks that bound the
memory whatever the run count.

Sample persistence instead freezes vertices on which a sample set agrees
strongly, folds their couplings into the remaining linear terms, and
re-samples the smaller problem.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass, replace

import numpy as np

from .core import SPIN_DTYPE, IsingProblem, SpinConfiguration
from .errors import InputError, ParameterError, WidthError
from .rng import derive_seed
from .samplers import Provenance, RunSet, SamplerParams

DEFAULT_WIDTH_CAP = 4
# The widest subgraph elimination accepts: a step of width w holds a table
# of 2^(w+1) float64 entries per run, so 64 MB per run at this bound.
MAX_WIDTH = 22
DEFAULT_PERSISTENCE_THRESHOLD = 0.9
DEFAULT_PERSISTENCE_ROUNDS = 3


@dataclass(frozen=True, slots=True)
class Subgraph:
    """A vertex set plus the elimination order certifying its width."""

    vertices: tuple
    elimination_order: tuple
    width: int

    def __post_init__(self):
        if sorted(self.elimination_order) != sorted(self.vertices):
            raise InputError("elimination_order must permute the subgraph's vertices")
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))

    def __len__(self):
        return len(self.vertices)


def _min_degree(adj, width_cap=None):
    """Min-degree elimination of the graph ``adj`` (vertex -> neighbor set).

    Consumes ``adj``. Each step eliminates the vertex of least (degree,
    vertex id), popped from a heap of (degree, vertex) entries; an entry
    whose degree is no longer its vertex's is stale and skipped, and a
    vertex whose degree changes gets a new entry. Eliminating a vertex
    connects its remaining neighbors; the width is the largest neighbor
    count seen at a step. Returns (order, width). With ``width_cap``, it
    returns as soon as the width exceeds the cap, with the order so far.
    """
    heap = [(len(nbrs), v) for v, nbrs in adj.items()]
    heapq.heapify(heap)
    order = []
    width = 0
    while heap:
        degree, v = heapq.heappop(heap)
        nbrs = adj.get(v)
        if nbrs is None or len(nbrs) != degree:
            continue
        del adj[v]
        width = max(width, degree)
        if width_cap is not None and width > width_cap:
            return order, width
        for a in nbrs:
            other = adj[a]
            before = len(other)
            other |= nbrs
            other.discard(a)
            other.discard(v)
            if len(other) != before:
                heapq.heappush(heap, (len(other), a))
        order.append(v)
    return order, width


def min_degree_elimination(vertices, edges):
    """Min-degree elimination order and induced width of a vertex set.

    ``edges`` is any edge list; only edges inside ``vertices`` matter.
    Ties break toward the lowest vertex id. Eliminating a vertex connects
    its remaining neighbors; the width is the largest neighbor count seen
    at an elimination step.
    """
    adj = {v: set() for v in vertices}
    for a, b in edges:
        if a in adj and b in adj and a != b:
            adj[a].add(b)
            adj[b].add(a)
    return _min_degree(adj)


def decompose_low_treewidth(problem: IsingProblem,
                            width_cap: int = DEFAULT_WIDTH_CAP):
    """Cover the vertex set with connected subgraphs of certified width.

    Regions are grown greedily: start at the lowest unassigned vertex,
    then repeatedly add the lowest-numbered unassigned neighbor whose
    addition keeps the min-degree elimination width within the cap. When
    no neighbor fits, the region is closed and a new one starts. The
    result is a partition of the vertices, deterministic for a given
    problem and cap.

    The cover depends only on the graph, so it is computed once per
    (vertex count, edge list, cap) and cached; every call returns a fresh
    list of the cached (frozen) subgraphs. A trial on a region of r
    vertices costs O(r log r) for a fixed cap, and stops as soon as its
    width exceeds the cap.
    """
    if width_cap < 1:
        raise ParameterError(f"width_cap must be at least 1, got {width_cap}")
    return list(_decompose(problem.vertex_count, tuple(problem.edge_list), width_cap))


# A sweep decomposes one graph at one cap; a few entries keep alternating
# graphs or caps cached without holding every graph a process has seen.
@functools.lru_cache(maxsize=8)
def _decompose(vertex_count, edges, width_cap):
    nbrs = [set() for _ in range(vertex_count)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)

    def induced(members):
        return {v: nbrs[v] & members for v in members}

    unassigned = set(range(vertex_count))
    subgraphs = []
    while unassigned:
        region = {min(unassigned)}
        unassigned -= region
        # The certificate of the region is its last accepted trial's.
        order, width = list(region), 0
        while True:
            candidates = sorted({w for v in region for w in nbrs[v] if w in unassigned})
            for cand in candidates:
                trial_order, trial_width = _min_degree(induced(region | {cand}), width_cap)
                if trial_width <= width_cap:
                    region.add(cand)
                    unassigned.discard(cand)
                    order, width = trial_order, trial_width
                    break
            else:
                break
        subgraphs.append(Subgraph(tuple(region), tuple(order), width))
    return tuple(subgraphs)


def _folded_fields(problem: IsingProblem, spins, inside) -> np.ndarray:
    """The (runs, |inside|) local fields of the vertices where the mask
    ``inside`` is set, in ascending order, under each row of the (runs,
    n) matrix ``spins`` with the inside spins left out: h, then each
    coupling to an outside neighbour times that neighbour's spin, in
    adjacency order, one ``+=`` a rank over the fields that have an
    outside neighbour of that rank."""
    ends = np.repeat(np.arange(problem.vertex_count), np.diff(problem._adj_start))
    fold = np.flatnonzero(inside[ends] & ~inside[problem._adj])
    owner = ends[fold]  # sorted, so a field's entries are adjacent
    rank = np.arange(fold.size) - np.searchsorted(owner, owner)
    column = (np.cumsum(inside) - 1)[owner]  # each entry's column of fields
    fields = np.tile(problem._h_vec[inside], (len(spins), 1))
    for at in (rank == r for r in range(rank.max(initial=-1) + 1)):
        fields[:, column[at]] += problem._adj_w[fold[at]] * spins[:, problem._adj[fold[at]]]
    return fields


# Most table entries one elimination block may hold: a subgraph of width w
# takes up to 2^(w+1) entries per run, so blocks hold 2^20 >> (w+1) runs.
_TABLE_BUDGET = 1 << 20


def _eliminate(problem: IsingProblem, spins, sub: Subgraph) -> np.ndarray:
    """Copy of the (runs, n) matrix ``spins`` with ``sub``'s spins in every
    row set to their exact minimum conditioned on the rest of the row.

    Min-sum variable elimination along ``sub.elimination_order``; every
    table carries a leading runs axis, of length 1 on the coupling tables
    that all runs share. A step wider than ``MAX_WIDTH``, whatever
    ``sub.width`` declares, raises WidthError before its table is built.
    """
    if spins.shape[1] != problem.vertex_count:
        raise InputError(
            f"configuration of length {spins.shape[1]} does not fit the problem"
        )
    for v in sub.vertices:
        if not (0 <= v < problem.vertex_count):
            raise IndexError(f"subgraph vertex {v} out of range")
    in_sub = np.zeros(problem.vertex_count, dtype=bool)
    in_sub[list(sub.vertices)] = True
    m = spins.shape[0]

    # Factors: scope is a sorted tuple of variables, table axis k + 1
    # indexes scope[k] with 0 -> spin -1, 1 -> spin +1.
    factors = []
    for v, unary in zip(sub.vertices, _folded_fields(problem, spins, in_sub).T):
        # A zero field adds nothing, so the runs that have one are unaffected.
        if np.any(unary != 0.0):
            factors.append(((v,), np.stack([-unary, unary], axis=1)))
    both = in_sub[problem._edge_a] & in_sub[problem._edge_b]
    for a, b, w in zip(problem._edge_a[both].tolist(), problem._edge_b[both].tolist(),
                       problem._edge_w[both].tolist()):
        # s_a * s_b is +1 on the diagonal, -1 off it.
        factors.append(((a, b), np.array([[[w, -w], [-w, w]]])))

    eliminations = []
    for v in sub.elimination_order:
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        union = tuple(sorted(set().union(*(f[0] for f in touching)) if touching else {v}))
        if len(union) > MAX_WIDTH + 1:
            raise WidthError(f"eliminating vertex {v} takes width {len(union) - 1}, "
                             f"above the largest allowed, {MAX_WIDTH}")
        joint = np.zeros((m,) + (2,) * len(union))
        for scope, table in touching:
            shape = [len(table)] + [2 if u in scope else 1 for u in union]
            joint = joint + table.reshape(shape)
        axis = 1 + union.index(v)
        down = np.take(joint, 0, axis=axis)
        up = np.take(joint, 1, axis=axis)
        # Ties resolve to +1, which also fixes the zero-field convention.
        choice = (up <= down).astype(np.intp)
        rest = tuple(u for u in union if u != v)
        eliminations.append((v, rest, choice))
        if rest:
            factors.append((rest, np.minimum(down, up)))
        # A scalar remainder is a constant; it cannot influence the argmin.

    new_spins = spins.copy()
    assignment = {}
    for v, rest, choice in reversed(eliminations):
        assignment[v] = choice[(np.arange(m),) + tuple(assignment[u] for u in rest)]
        new_spins[:, v] = 2 * assignment[v] - 1
    return new_spins


def optimize_subgraph(problem: IsingProblem, config: SpinConfiguration,
                      sub: Subgraph, width_cap: int | None = None) -> SpinConfiguration:
    """Exactly minimize a subgraph's spins with the rest held fixed.

    Runs min-sum variable elimination along ``sub.elimination_order``;
    table sizes stay within 2^(width+1). If the incoming assignment is
    already conditionally optimal the configuration is returned unchanged
    (fresh energy), so the operation is idempotent and never increases
    the energy.
    """
    if width_cap is not None and sub.width > width_cap:
        raise WidthError(
            f"subgraph width {sub.width} exceeds cap {width_cap}; re-decompose"
        )
    return problem.configuration(_eliminate(problem, config.spins[None], sub)[0])


def builtin_opt_pp(problem: IsingProblem, runset: RunSet,
                   width_cap: int = DEFAULT_WIDTH_CAP) -> RunSet:
    """Improve every run by exact subgraph minimization.

    Subgraphs come from ``decompose_low_treewidth`` and are processed in
    order, each once; later subgraphs see the updates of earlier ones.
    All runs go through a subgraph together, in blocks of at most
    ``_TABLE_BUDGET`` table entries, and each run ends as it would if
    ``optimize_subgraph`` took it through the subgraphs alone. The
    energies come from one ``problem.evaluate_many`` call.
    """
    subgraphs = decompose_low_treewidth(problem, width_cap)
    spins = runset.spins
    for sub in subgraphs:
        rows = max(1, _TABLE_BUDGET >> (sub.width + 1))
        spins = np.concatenate([_eliminate(problem, spins[i:i + rows], sub)
                                for i in range(0, len(spins), rows)])
    prov = runset.provenance
    return RunSet.from_matrix(
        spins, problem.evaluate_many(spins), runset.problem_id,
        Provenance(
            sampler="builtin_opt_pp",
            params={"width_cap": width_cap, "source": {
                "sampler": prov.sampler, "params": prov.params, "seed": prov.seed,
            }},
            seed=prov.seed,
        ),
    )


@dataclass(frozen=True, slots=True)
class FixedAssignment:
    """Result of freezing high-agreement vertices.

    ``assignments`` maps frozen vertices (original ids) to spins;
    ``free_vertices`` lists the remaining ids in ascending order, and
    index i of ``reduced_problem`` corresponds to ``free_vertices[i]``.
    ``offset`` is the energy carried by the frozen part, so for any spin
    vector s on the free vertices:
    full_energy(assemble(s)) = reduced_energy(s) + offset.
    """

    assignments: dict
    free_vertices: tuple
    reduced_problem: IsingProblem
    offset: float

    def assemble(self, reduced_spins) -> np.ndarray:
        n = len(self.assignments) + len(self.free_vertices)
        full = np.zeros(n, dtype=np.int8)
        full[list(self.assignments)] = list(self.assignments.values())
        full[list(self.free_vertices)] = reduced_spins
        return full


def persistence_fix(problem: IsingProblem, runset: RunSet,
                    threshold: float = DEFAULT_PERSISTENCE_THRESHOLD) -> FixedAssignment:
    """Freeze every vertex on which at least ``threshold`` of runs agree.

    The threshold must exceed 0.5 (so at most one value can qualify) and
    be at most 1. Frozen couplings fold into the free vertices' linear
    terms: h'[a] = h[a] + sum over frozen neighbors b of J[a,b] * s[b],
    summed h first, then b in ascending order. The offset is the energy
    of the frozen spins with the free ones set to 0.
    """
    if not (0.5 < threshold <= 1.0):
        raise ParameterError(
            f"threshold must lie in (0.5, 1], got {threshold}"
        )
    if len(runset) < 2:
        raise InputError("persistence_fix needs at least two runs")
    spins = runset.spins
    if spins.shape[1] != problem.vertex_count:
        raise InputError("runs do not fit the problem")
    # Each spin's own fraction of the runs, so both spins round alike.
    plus = np.count_nonzero(spins == 1, axis=0)
    fixed = np.zeros(problem.vertex_count, dtype=SPIN_DTYPE)
    fixed[plus / len(spins) >= threshold] = 1
    fixed[(len(spins) - plus) / len(spins) >= threshold] = -1
    free = fixed == 0
    index = np.cumsum(free) - 1  # a free vertex's id in the reduced problem

    folded = _folded_fields(problem, fixed[None], free)[0]
    fields = np.flatnonzero(folded)  # a field that folds to 0.0 takes no h entry
    a, b, w = problem._edge_a, problem._edge_b, problem._edge_w
    inner = free[a] & free[b]

    assignments = {v: int(fixed[v]) for v in np.flatnonzero(fixed).tolist()}
    free_vertices = tuple(np.flatnonzero(free).tolist())
    reduced = IsingProblem.from_entries(
        len(free_vertices), fields, folded[fields],
        np.column_stack((index[a[inner]], index[b[inner]])), w[inner])
    return FixedAssignment(assignments, free_vertices, reduced, problem.evaluate(fixed))


def sample_persistence(problem: IsingProblem, sampler, params: SamplerParams,
                       threshold: float = DEFAULT_PERSISTENCE_THRESHOLD,
                       rounds: int = DEFAULT_PERSISTENCE_ROUNDS,
                       initial_runs: RunSet | None = None) -> SpinConfiguration:
    """Iterate {sample, freeze, reduce} and return the best assembled run.

    Sample persistence of Karimi, Rosenberg and Katzgraber (arXiv:1706.07826).
    ``sampler`` is any callable of (problem, params) -> RunSet; round r
    re-seeds it from (params.seed, r), and ``initial_runs``, if given, is
    round 0's sample. One spin vector holds the frozen spins; each round
    writes its best run at the free vertices, then freezes more. It returns
    the earliest lowest-energy of these runs and, once all vertices are
    frozen, of the all-frozen vector: never above ``initial_runs``' best.
    """
    if rounds < 1:
        raise ParameterError(f"rounds must be positive, got {rounds}")
    spins = np.zeros(problem.vertex_count, dtype=SPIN_DTYPE)
    free = np.arange(problem.vertex_count)  # the current problem's vertices' ids
    current, best = problem, None
    for r in range(rounds):
        if current.vertex_count:
            if r == 0 and initial_runs is not None:
                runset = initial_runs
                if runset.spins.shape[1] != current.vertex_count:
                    raise InputError("initial_runs do not fit the problem")
            else:
                round_params = replace(params, seed=derive_seed(params.seed, "persistence", r))
                runset = sampler(current, round_params)
            spins[free] = runset.best().spins
        assembled = problem.configuration(spins)
        best = assembled if best is None or assembled.energy < best.energy else best
        if current.vertex_count == 0 or r == rounds - 1:
            break
        fa = persistence_fix(current, runset, threshold)
        spins[free[list(fa.assignments)]] = list(fa.assignments.values())
        free = free[list(fa.free_vertices)]
        current = fa.reduced_problem
    return best
