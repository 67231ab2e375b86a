"""Graph generators, seeded problem generation, and the connected
components that ``disagreement_tunnels`` labels on those graphs."""

import math

import numpy as np
import pytest

from isingpp import (
    ChimeraSpec,
    IsingProblem,
    ProblemGenSpec,
    chimera_graph,
    complete_graph,
    disagreement_tunnels,
    grid_graph,
    path_graph,
    random_problem,
)
from isingpp import topology
from isingpp.errors import InputError, ParameterError, SizeError


def edge_count_formula(m, n, s):
    return m * n * s * s + s * (n * (m - 1) + m * (n - 1))


class TestChimeraGraph:
    @pytest.mark.parametrize("dims,vertices,edges", [
        ((1, 1, 4), 8, 16),
        ((2, 1, 4), 16, 36),
        ((4, 4, 4), 128, 352),
    ])
    def test_counts(self, dims, vertices, edges):
        spec = ChimeraSpec(*dims)
        graph = chimera_graph(spec)
        assert spec.vertex_count == vertices
        assert len(graph) == edges
        assert edges == edge_count_formula(*dims)

    def test_degree_bound(self):
        spec = ChimeraSpec(3, 3, 4)
        degree = np.zeros(spec.vertex_count, dtype=int)
        for a, b in chimera_graph(spec):
            degree[a] += 1
            degree[b] += 1
        assert degree.max() <= spec.shore + 2

    def test_cells_are_bipartite(self):
        """No edge joins two vertices on the same side of the same cell."""
        spec = ChimeraSpec(2, 2, 4)
        in_cell = {}
        for i in range(spec.rows):
            for j in range(spec.cols):
                for side in range(2):
                    for k in range(spec.shore):
                        in_cell[spec.vertex(i, j, side, k)] = (i, j, side)
        for a, b in chimera_graph(spec):
            cell_a, cell_b = in_cell[a], in_cell[b]
            if cell_a[:2] == cell_b[:2]:
                assert cell_a[2] != cell_b[2]

    def test_edges_sorted_and_normalized(self):
        graph = chimera_graph(ChimeraSpec(2, 2, 2))
        assert graph == sorted(graph)
        assert all(a < b for a, b in graph)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ParameterError):
            ChimeraSpec(0, 1, 4)
        with pytest.raises(ParameterError):
            ChimeraSpec(1, 1, 0)


class TestSimpleGraphs:
    def test_complete_graph(self):
        assert len(complete_graph(3)) == 3
        assert len(complete_graph(5)) == 10
        assert len(complete_graph(12)) == 66
        with pytest.raises(ParameterError):
            complete_graph(1)

    def test_path_graph(self):
        assert path_graph(4) == [(0, 1), (1, 2), (2, 3)]
        assert path_graph(1) == []
        with pytest.raises(ParameterError):
            path_graph(0)

    def test_grid_graph(self):
        # 2x3 grid: 3 + 4 horizontal/vertical edges... count = 2*2 + 3*1 = 7
        edges = grid_graph(2, 3)
        assert len(edges) == 2 * 2 + 3 * 1
        assert (0, 3) in edges
        with pytest.raises(ParameterError):
            grid_graph(0, 3)

    @pytest.mark.parametrize("build,integral", [
        (lambda: complete_graph(3.0), lambda: complete_graph(3)),
        (lambda: path_graph(3.0), lambda: path_graph(3)),
        (lambda: grid_graph(2.0, 2), lambda: grid_graph(2, 2)),
        (lambda: grid_graph(1.5, 2), None),
        (lambda: chimera_graph(ChimeraSpec(1, 1.0, 2)), lambda: chimera_graph(ChimeraSpec(1, 1, 2))),
        (lambda: complete_graph(math.inf), None),
        (lambda: ChimeraSpec(1, 1, math.nan), None),
    ], ids=["complete", "path", "grid", "grid_fraction", "chimera", "complete_inf", "chimera_nan"])
    def test_float_sizes(self, build, integral):
        """A non-integral size fails with ParameterError; an integral float
        builds the same graph of int vertex ids as the int size."""
        if integral is None:
            with pytest.raises(ParameterError):
                build()
            return
        graph = build()
        assert graph == integral()
        assert all(type(v) is int for edge in graph for v in edge)

    @pytest.mark.parametrize("build", [
        lambda: complete_graph(1449),
        lambda: complete_graph(10**8),
        lambda: path_graph(topology.SIZE_LIMIT + 1),
        lambda: path_graph(10**9),
        lambda: grid_graph(1, topology.SIZE_LIMIT + 1),
        lambda: grid_graph(725, 725),
        lambda: grid_graph(10**5, 10**5),
        lambda: chimera_graph(ChimeraSpec(1, 1, 1025)),
        lambda: chimera_graph(ChimeraSpec(10**4, 10**4, 4)),
    ])
    def test_sizes_above_the_limit_fail_before_building(self, build):
        """K_1449 has 1,049,076 edges and the 725 x 725 grid 1,049,800,
        just above the limit of 2^20; the others pass it by far."""
        with pytest.raises(SizeError, match="limit"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: complete_graph(5),
        lambda: path_graph(7),
        lambda: grid_graph(2, 3),
        lambda: grid_graph(3, 3),
        lambda: chimera_graph(ChimeraSpec(2, 3, 2)),
        lambda: chimera_graph(ChimeraSpec(3, 1, 4)),
    ])
    def test_counts_are_the_built_sizes(self, build, monkeypatch):
        """With the limit at the larger of a graph's vertex and edge
        counts it builds; one below, it fails: the counts each builder
        works out beforehand are those of the graph it builds."""
        graph = build()
        limit = max(len(graph), max(b for _, b in graph) + 1)
        monkeypatch.setattr(topology, "SIZE_LIMIT", limit)
        assert build() == graph
        monkeypatch.setattr(topology, "SIZE_LIMIT", limit - 1)
        with pytest.raises(SizeError):
            build()


class TestRandomProblem:
    def test_deterministic(self):
        spec = ChimeraSpec(2, 2, 4)
        graph = chimera_graph(spec)
        gen = ProblemGenSpec((-2, 2), (-1, 1), seed=316)
        p1 = random_problem(graph, gen, vertex_count=spec.vertex_count)
        p2 = random_problem(graph, gen, vertex_count=spec.vertex_count)
        assert p1.h == p2.h
        assert p1.J == p2.J
        assert p1.content_hash() == p2.content_hash()

    def test_frozen_values_for_seed_316(self):
        """Exact draws pinned so a silent generator change cannot pass."""
        spec = ChimeraSpec(2, 2, 4)
        gen = ProblemGenSpec((-2, 2), (-1, 1), seed=316)
        p = random_problem(chimera_graph(spec), gen, vertex_count=spec.vertex_count)
        assert p.h[0] == 0.5977713725621552
        assert p.h[31] == -1.9358902732941532
        assert p.J[(0, 4)] == 0.3866035485186654
        assert p.content_hash() == "23524ad4fc96"

    def test_values_within_declared_ranges(self):
        spec = ChimeraSpec(4, 4, 4)
        gen = ProblemGenSpec((-2, 2), (-1, 1), seed=99)
        p = random_problem(chimera_graph(spec), gen, vertex_count=spec.vertex_count)
        assert all(-2 <= v <= 2 for v in p.h.values())
        assert all(-1 <= w <= 1 for w in p.J.values())
        assert set(p.h) == set(range(spec.vertex_count))
        assert sorted(p.J) == chimera_graph(spec)

    def test_degenerate_ranges_give_zeros(self):
        p = random_problem(path_graph(4), ProblemGenSpec((0, 0), (0, 0), seed=1))
        assert all(v == 0.0 for v in p.h.values())
        assert all(w == 0.0 for w in p.J.values())

    def test_empty_interval_rejected(self):
        with pytest.raises(ParameterError):
            ProblemGenSpec((2, -2), (-1, 1), seed=1)

    @pytest.mark.parametrize("bad", [(-1e308, 1e308), (-math.inf, 1.0), (-math.inf, -math.inf),
                                     (1.0, math.inf)])
    def test_interval_without_finite_width_rejected(self, bad):
        # Generator.uniform overflows on such a range.
        for h_range, j_range in ((bad, (-1, 1)), ((-2, 2), bad)):
            with pytest.raises(ParameterError, match="finite width"):
                ProblemGenSpec(h_range, j_range, seed=1)

    def test_different_seeds_differ(self):
        graph = path_graph(6)
        a = random_problem(graph, ProblemGenSpec((-2, 2), (-1, 1), seed=1))
        b = random_problem(graph, ProblemGenSpec((-2, 2), (-1, 1), seed=2))
        assert a.h != b.h

    def test_vertex_count_inferred_from_graph(self):
        p = random_problem([(0, 1), (1, 2)], ProblemGenSpec((0, 1), (0, 1), seed=4))
        assert p.vertex_count == 3

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            random_problem([(1, 1)], ProblemGenSpec((0, 1), (0, 1), seed=4))

    def test_empty_graph_needs_vertex_count(self):
        with pytest.raises(InputError):
            random_problem([], ProblemGenSpec((0, 1), (0, 1), seed=4))
        p = random_problem([], ProblemGenSpec((0, 1), (0, 1), seed=4), vertex_count=3)
        assert p.vertex_count == 3 and p.J == {}


def bfs_reachable(start, members, graph):
    """Independent reachability check used to validate component maximality."""
    adj = {v: set() for v in members}
    for a, b in graph:
        if a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def subset_tunnels(subset, graph):
    """Tunnels between an all-up run and the same run flipped on ``subset``,
    on a problem whose couplings are the edges of ``graph``."""
    problem = IsingProblem(max(b for _, b in graph) + 1, {}, {e: 1.0 for e in graph})
    spins = np.ones(problem.vertex_count)
    run1 = problem.configuration(spins)
    spins[sorted(subset)] = -1
    return disagreement_tunnels(problem, run1, problem.configuration(spins))


class TestConnectedComponents:
    """Components of a disagreement region, as ``disagreement_tunnels``
    labels them."""

    def test_path_subset_splits(self):
        graph = path_graph(5)
        comps = subset_tunnels({1, 3, 4}, graph)
        assert comps == [(1,), (3, 4)]

    def test_empty_subset(self):
        assert subset_tunnels(set(), path_graph(3)) == []

    def test_complete_graph_single_component(self):
        graph = complete_graph(6)
        for subset in [{0, 5}, {1, 2, 3}, set(range(6))]:
            comps = subset_tunnels(subset, graph)
            assert len(comps) == 1
            assert set(comps[0]) == subset

    def test_ordered_by_smallest_member(self):
        comps = subset_tunnels({0, 2, 4}, path_graph(5))
        assert [c[0] for c in comps] == [0, 2, 4]

    def test_partition_and_maximality(self):
        """Components partition the subset; each one equals its BFS closure,
        so none could be extended or split."""
        rng = np.random.default_rng(77)
        graph = chimera_graph(ChimeraSpec(2, 2, 4))
        n = 32
        for _ in range(25):
            subset = set(int(v) for v in
                         rng.choice(n, size=rng.integers(1, n), replace=False))
            comps = subset_tunnels(subset, graph)
            seen = set()
            for comp in comps:
                verts = set(comp)
                assert comp == tuple(sorted(verts))
                assert not (verts & seen)
                seen |= verts
                assert verts == bfs_reachable(comp[0], subset, graph)
            assert seen == subset
            smallest = [min(c) for c in comps]
            assert smallest == sorted(smallest)

    def test_no_edges_between_components(self):
        rng = np.random.default_rng(13)
        graph = chimera_graph(ChimeraSpec(2, 1, 4))
        for _ in range(20):
            subset = set(int(v) for v in rng.choice(16, size=8, replace=False))
            comps = subset_tunnels(subset, graph)
            owner = {}
            for i, comp in enumerate(comps):
                for v in comp:
                    owner[v] = i
            for a, b in graph:
                if a in owner and b in owner:
                    assert owner[a] == owner[b]
