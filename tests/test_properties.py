"""Property-based checks of invariants on random small inputs.

Runs are derandomized with a fixed example count, so the suite stays
deterministic.
"""

import json
import os
import struct
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from isingpp import (
    ENERGY_ATOL,
    ChimeraSpec,
    IsingProblem,
    PairingStrategy,
    Provenance,
    RunSet,
    SpinConfiguration,
    Subgraph,
    chimera_graph,
    complete_graph,
    decompose_low_treewidth,
    disagreement_tunnels,
    grid_graph,
    load_runset,
    min_degree_elimination,
    mqc_pair,
    optimize_subgraph,
    path_graph,
    save_runset,
)
from isingpp.altpp import _eliminate, _min_degree
from isingpp.errors import ParseError
from isingpp.mqc import _merge_pairs, _pair_indices, reduce_configs
from isingpp.serialize import strings_to_spins

from conftest import conditional_min_enum

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Integers give exact ties and zero fields; floats give the general case.
coefficients = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)


def spin_rows(n):
    return st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)


@st.composite
def problems(draw):
    """A problem of at most 10 vertices on a random graph."""
    n = draw(st.integers(1, 10))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    h = {v: draw(coefficients) for v in draw(st.sets(st.integers(0, n - 1)))}
    return IsingProblem(n, h, {e: draw(coefficients) for e in edges})


@st.composite
def elimination_cases(draw):
    """A problem, a vertex subset with an arbitrary elimination order, and
    a batch of runs."""
    problem = draw(problems())
    n = problem.vertex_count
    order = tuple(draw(st.permutations(range(n)))[:draw(st.integers(1, n))])
    # The order's induced width is at most its length less one; the width
    # only sizes elimination blocks.
    sub = Subgraph(order, order, len(order) - 1)
    runs = draw(st.lists(spin_rows(n), min_size=1, max_size=8))
    return problem, sub, np.array(runs, dtype=np.int8)


@derandomized
@given(elimination_cases())
def test_elimination_matches_enumeration(case):
    problem, sub, spins = case
    out = _eliminate(problem, spins, sub)
    for before, after in zip(spins, out):
        _, best = conditional_min_enum(problem, before, sub.vertices)
        assert abs(problem.evaluate(after) - best) <= 1e-9
        single = optimize_subgraph(problem, problem.configuration(before), sub)
        assert np.array_equal(single.spins, after)
        assert single.energy == problem.evaluate(after)


@st.composite
def run_pairs(draw):
    """A problem and two configurations of it."""
    problem = draw(problems())
    n = problem.vertex_count
    return (problem, problem.configuration(draw(spin_rows(n))),
            problem.configuration(draw(spin_rows(n))))


@derandomized
@given(run_pairs())
def test_merge_never_raises_energy(case):
    problem, run1, run2 = case
    merged = mqc_pair(problem, run1, run2)
    assert merged.energy <= min(run1.energy, run2.energy) + ENERGY_ATOL
    assert merged.energy == problem.evaluate(merged.spins)


@derandomized
@given(run_pairs())
def test_tunnel_contributions_flip_sign(case):
    """Run 2's side of each tunnel is minus run 1's, and moving one tunnel
    of run 1 to run 2's spins changes the freshly evaluated energy by
    their difference."""
    problem, run1, run2 = case
    _, trace = reduce_configs(problem, [run1, run2])
    record, = trace.levels[0].pairs
    sizes, contributions = record.tunnel_sizes, record.contributions
    tunnels = disagreement_tunnels(problem, run1, run2)
    assert list(sizes) == [len(t) for t in tunnels]
    for tunnel, (c1, c2) in zip(tunnels, contributions):
        assert c2 == -c1
        moved = run1.spins.copy()
        moved[list(tunnel.vertices)] = run2.spins[list(tunnel.vertices)]
        assert abs(problem.evaluate(moved) - run1.energy - (c2 - c1)) <= ENERGY_ATOL


def label_components(problem, s1, s2):
    """The component labeler as first written, kept as its specification:
    disagreement vertices, their component labels and the label count,
    by a depth-first search from each unlabeled vertex in ascending
    order."""
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


def merge_pair(problem, run1, run2):
    """The one-pair merge as first written, kept as its specification;
    returns (config, tunnel_sizes, contributions, adopted)."""
    s1, s2 = run1.spins, run2.spins
    diff, comp_ids, count = label_components(problem, s1, s2)
    if count == 0:
        return problem.configuration(s1), (), (), ()
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
    adopt2 = contrib1 > 0.0
    merged_spins = s1.copy()
    flip = diff[adopt2[comp_ids]]
    merged_spins[flip] = s2[flip]
    sizes = tuple(np.bincount(comp_ids, minlength=count).tolist())
    contribs = tuple((float(c), float(-c)) for c in contrib1)
    adopted = tuple(2 if a else 1 for a in adopt2.tolist())
    return problem.configuration(merged_spins), sizes, contribs, adopted


@st.composite
def run_levels(draw):
    """A problem and 1 to 40 pairs of its runs, each a random pair or one
    run twice."""
    problem = draw(problems())
    count = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(count, 2, problem.vertex_count))
    equal = rng.random(count) < 0.2
    runs[equal, 1] = runs[equal, 0]
    return problem, [problem.configuration(row) for row in runs.reshape(2 * count, -1)]


@derandomized
@given(run_levels())
def test_batched_merge_matches_pairwise(case):
    """Merging all pairs of a level together gives, pair by pair, the
    spins, energy bits and tunnel decisions of the one-pair merge."""
    problem, configs = case
    pairs = [(k, k + 1) for k in range(0, len(configs), 2)]
    merged, energies, records = _merge_pairs(
        problem, np.stack([c.spins for c in configs]), pairs)
    for (i, j), spins, energy, record in zip(pairs, merged, energies.tolist(), records,
                                             strict=True):
        ref, sizes, contributions, adopted = merge_pair(problem, configs[i], configs[j])
        assert np.array_equal(spins, ref.spins)
        assert struct.pack("<d", energy) == struct.pack("<d", ref.energy)
        assert (record.first, record.second) == (i, j)
        assert record.tunnel_sizes == sizes
        assert [struct.pack("<dd", *c) for c in record.contributions] == \
            [struct.pack("<dd", *c) for c in contributions]
        assert record.adopted == adopted


@st.composite
def runs_files(draw):
    """A problem and a run set of it whose stored energies are any finite
    floats."""
    problem = draw(problems())
    runs = [SpinConfiguration(np.array(draw(spin_rows(problem.vertex_count)), dtype=np.int8),
                              draw(st.floats(allow_nan=False, allow_infinity=False)))
            for _ in range(draw(st.integers(1, 6)))]
    seed = draw(st.integers(-2**63, 2**63 - 1))
    return problem, RunSet(runs, "p", Provenance("manual", {"sweeps": 3}, seed))


def save_runset_per_run(runset, path):
    """The runs-file writer as first written, one run at a time, kept as
    the specification of ``save_runset``'s bytes."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({
            "problem_id": runset.problem_id,
            "provenance": {
                "sampler": runset.provenance.sampler,
                "params": runset.provenance.params,
                "seed": runset.provenance.seed,
            },
            "runs": [
                {"spins": "".join("+" if s > 0 else "-" for s in r.spins),
                 "energy": r.energy}
                for r in runset
            ],
        }, f, indent=2, sort_keys=True)
        f.write("\n")


@derandomized
@given(runs_files())
def test_runs_file_round_trip(case):
    """Spins and the bits of every stored energy survive save and load,
    also through the energy re-check when the energies are fresh; the
    saved bytes are those of the per-run writer."""
    problem, runset = case
    with tempfile.TemporaryDirectory() as tmp:
        path, spec = os.path.join(tmp, "runs.json"), os.path.join(tmp, "spec.json")
        save_runset(runset, path)
        save_runset_per_run(runset, spec)
        with open(path, "rb") as saved, open(spec, "rb") as expected:
            assert saved.read() == expected.read()
        loaded = load_runset(path)
        fresh = RunSet([problem.configuration(r.spins) for r in runset], "p",
                       runset.provenance)
        save_runset(fresh, path)
        checked = load_runset(path, problem)
    for before, after in ((runset, loaded), (fresh, checked)):
        assert np.array_equal(after.spins_matrix(), before.spins_matrix())
        assert [struct.pack("<d", r.energy) for r in after] == \
            [struct.pack("<d", r.energy) for r in before]
        assert after.provenance == before.provenance


@derandomized
@given(runs_files())
def test_runset_from_configurations_matches_matrix(case):
    """A RunSet stacked from configurations and one built from their
    matrix hold the same spins and energy bits, and give the same best
    run, runs by index and runs by iteration."""
    _, runset = case
    configs = list(runset)
    spins = np.array([c.spins for c in configs], dtype=np.int8)
    energies = [c.energy for c in configs]
    built = RunSet.from_matrix(spins, energies, "p", runset.provenance)
    stacked = RunSet(configs, "p", runset.provenance)

    def bits(config):
        return config.spins.tobytes(), struct.pack("<d", config.energy)

    for rs in (stacked, built):
        assert rs.spins.dtype == np.int8 and not rs.spins.flags.writeable
        assert np.array_equal(rs.spins, spins)
        assert rs.energies().tobytes() == np.array(energies).tobytes()
        assert bits(rs.best()) == bits(min(configs, key=lambda c: c.energy))
        assert [bits(rs[k]) for k in range(len(rs))] == [bits(c) for c in configs]
        assert [bits(c) for c in rs] == [bits(c) for c in configs]


def parse_spins_per_run(texts):
    """The spin parser one character at a time, as the per-run parser
    first written did it, after the length check; kept as the
    specification of ``strings_to_spins``. Returns the spins or the
    error message."""
    rows = []
    for i, text in enumerate(texts):
        if len(text) != len(texts[0]):
            return f"run {i} has length {len(text)}, expected {len(texts[0])}"
    for i, text in enumerate(texts):
        row = []
        for pos, ch in enumerate(text):
            if ch not in "+-":
                return f"run {i} spin character {ch!r} at position {pos} (need '+' or '-')"
            row.append(1 if ch == "+" else -1)
        rows.append(row)
    return np.array(rows, dtype=np.int8).reshape(len(texts), len(texts[0]))


@derandomized
@given(st.lists(st.text("+-", max_size=6) | st.text("+-x\u00e9\ud800", max_size=6),
                min_size=1, max_size=5))
def test_spin_parser_matches_per_run_parser(texts):
    expected = parse_spins_per_run(texts)
    if isinstance(expected, str):
        with pytest.raises(ParseError) as err:
            strings_to_spins(texts)
        assert str(err.value) == expected
    else:
        spins = strings_to_spins(texts)
        assert spins.dtype == np.int8 and np.array_equal(spins, expected)


@derandomized
@given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.5]), min_size=1, max_size=40))
def test_rank_order_pairing_matches_sorted(energies):
    """Rank order pairs runs in (energy, position) order; -0.0 and 0.0 tie."""
    order = sorted(range(len(energies)), key=lambda i: (energies[i], i))
    m = len(energies)
    expected = ([(order[k], order[k + 1]) for k in range(0, m - 1, 2)],
                order[-1] if m % 2 else None)
    spins = np.ones((m, 1), dtype=np.int8)
    assert _pair_indices(spins, np.array(energies), PairingStrategy.RANK_ORDER) == expected


def lexsort_max_difference(spins):
    """The max_difference pairing as first written, kept as its
    specification: sort every pair by (distance descending, i, j) and walk
    the order, taking each pair whose two runs are both still free."""
    m = spins.shape[0]
    if m == 1:
        return [], 0
    s = spins.astype(np.float32)
    gram = s @ s.T
    i_idx, j_idx = np.triu_indices(m, k=1)
    dist = (s.shape[1] - gram[i_idx, j_idx]) / 2.0
    order = np.lexsort((j_idx, i_idx, -dist))
    used = np.zeros(m, dtype=bool)
    pairs = []
    for k in order.tolist():
        i, j = int(i_idx[k]), int(j_idx[k])
        if not used[i] and not used[j]:
            used[i] = used[j] = True
            pairs.append((i, j))
            if len(pairs) == m // 2:
                break
    leftover = int(np.nonzero(~used)[0][0]) if m % 2 else None
    return pairs, leftover


@st.composite
def spin_matrices(draw):
    """1 to 60 runs of 1 to 6 spins, each a copy of one of a few distinct
    rows (tie-heavy) or of up to 60 rows (mostly distinct)."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 60))
    distinct = draw(st.one_of(st.integers(1, 4), st.integers(1, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.choice(np.array([-1, 1], dtype=np.int8), size=(distinct, n))
    return rows[rng.integers(0, distinct, size=m)]


@derandomized
@given(spin_matrices())
def test_max_difference_pairing_matches_lexsort_greedy(spins):
    problem = IsingProblem(spins.shape[1])
    energies = np.array([problem.configuration(row).energy for row in spins])
    assert _pair_indices(spins, energies, PairingStrategy.MAX_DIFFERENCE) == \
        lexsort_max_difference(spins)


def scan_min_degree_elimination(vertices, edges):
    """The min-degree elimination as first written, kept as its
    specification: each step scans every remaining vertex for the least
    (degree, vertex id)."""
    adj = {v: set() for v in vertices}
    for a, b in edges:
        if a in adj and b in adj and a != b:
            adj[a].add(b)
            adj[b].add(a)
    order = []
    width = 0
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        nbrs = adj.pop(v)
        width = max(width, len(nbrs))
        for a in nbrs:
            adj[a].update(nbrs)
            adj[a].difference_update((a, v))
        order.append(v)
    return order, width


def scan_decompose_low_treewidth(problem, width_cap):
    """The region-growing cover as first written, over the scan above,
    kept as its specification."""
    edges = problem.edge_list
    unassigned = set(range(problem.vertex_count))
    subgraphs = []
    while unassigned:
        region = [min(unassigned)]
        unassigned.discard(region[0])
        while True:
            candidates = sorted({
                w for v in region for w in problem.neighbors(v).tolist()
                if w in unassigned
            })
            for cand in candidates:
                _, trial_width = scan_min_degree_elimination(region + [cand], edges)
                if trial_width <= width_cap:
                    region.append(cand)
                    unassigned.discard(cand)
                    break
            else:
                break
        order, width = scan_min_degree_elimination(region, edges)
        subgraphs.append(Subgraph(tuple(region), tuple(order), width))
    return subgraphs


@st.composite
def graphs(draw):
    """(vertex count, edge list) of a random graph or of a tie-heavy one:
    a path, a grid, a complete graph or a few Chimera cells."""
    kind = draw(st.sampled_from(["random", "path", "grid", "complete", "chimera"]))
    if kind == "random":
        n = draw(st.integers(1, 16))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        return n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if kind == "path":
        n = draw(st.integers(1, 16))
        return n, path_graph(n)
    if kind == "grid":
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        return rows * cols, grid_graph(rows, cols)
    if kind == "complete":
        n = draw(st.integers(2, 9))
        return n, complete_graph(n)
    spec = ChimeraSpec(draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 4)))
    return spec.vertex_count, chimera_graph(spec)


@st.composite
def vertex_subsets(draw):
    """A graph and a vertex subset of it in random order."""
    n, edges = draw(graphs())
    subset = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    return edges, subset


@derandomized
@given(vertex_subsets())
def test_min_degree_kernel_matches_scan(case):
    edges, subset = case
    order, width = scan_min_degree_elimination(subset, edges)
    assert min_degree_elimination(subset, edges) == (order, width)
    for cap in range(width + 2):
        adj = {v: set() for v in subset}
        for a, b in edges:
            if a in adj and b in adj:
                adj[a].add(b)
                adj[b].add(a)
        capped_order, capped_width = _min_degree(adj, cap)
        assert (capped_width > cap) == (width > cap)
        if width <= cap:
            assert (capped_order, capped_width) == (order, width)


@derandomized
@given(graphs())
def test_decomposition_matches_scan(graph):
    n, edges = graph
    problem = IsingProblem(n, {}, {e: 1.0 for e in edges})
    for cap in range(1, 7):
        expected = scan_decompose_low_treewidth(problem, cap)
        subs = decompose_low_treewidth(problem, cap)
        assert [(s.vertices, s.elimination_order, s.width) for s in subs] == \
            [(s.vertices, s.elimination_order, s.width) for s in expected]
