"""Property-based checks of invariants on random small inputs.

Runs are derandomized with a fixed example count, so the suite stays
deterministic.
"""

import contextlib
import io
import json
import math
import numbers
import os
import struct
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from isingpp import (
    ENERGY_ATOL,
    BetaSchedule,
    ChimeraSpec,
    ExperimentConfig,
    IsingProblem,
    PairingStrategy,
    PrecisionModel,
    Provenance,
    RunSet,
    SamplerParams,
    SpinConfiguration,
    Subgraph,
    builtin_opt_pp,
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
    quantize_problem,
    random_runs,
    save_problem,
    save_runset,
    scale_problem,
    simulated_anneal,
)
from isingpp import samplers
from isingpp.altpp import _eliminate, _min_degree, persistence_fix
from isingpp.cli import main
from isingpp.errors import ParameterError, ParseError
from isingpp.harness import METHODS, problem_for
from isingpp.mqc import (
    ReductionLevel,
    ReductionTrace,
    _merge_pairs,
    _pair_indices,
    _reduce_levels,
    mqc_reduce,
    pair_runs,
    reduce_configs,
)
from isingpp.rng import child_sequences, child_words, make_generator
from isingpp.serialize import _run_fields, strings_to_spins

from conftest import conditional_min_enum, oracle_neighbours

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


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


@st.composite
def twin_problems(draw):
    """A problem on a random graph, with magnitudes mixed so that terms
    added in another order show in the bits, and its twin: the same
    coefficients given in shuffled orders, some pairs reversed."""
    n = draw(st.integers(1, 10))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    values = st.one_of(coefficients, st.sampled_from([1e16, -1e16, 0.25, -0.5, 3e-3]))
    h = {v: draw(values) for v in draw(st.sets(st.integers(0, n - 1)))}
    J = {e: draw(values) for e in edges}
    flips = draw(st.lists(st.booleans(), min_size=len(J), max_size=len(J)))
    twin_J = {(b, a) if flip else (a, b): w
              for ((a, b), w), flip in zip(draw(st.permutations(list(J.items()))), flips)}
    return (IsingProblem(n, h, J),
            IsingProblem(n, dict(draw(st.permutations(list(h.items())))), twin_J))


def same_problem(problem, other):
    """Whether two problems agree in every array, content hash and saved bytes."""
    for name in IsingProblem.__slots__[1:]:
        ours, theirs = getattr(problem, name), getattr(other, name)
        if ours.dtype != theirs.dtype or ours.tobytes() != theirs.tobytes():
            return False
    with tempfile.TemporaryDirectory() as tmp:
        saved = []
        for i, p in enumerate((problem, other)):
            path = os.path.join(tmp, f"{i}.json")
            save_problem(p, path)
            with open(path, "rb") as f:
                saved.append(f.read())
    return (problem.vertex_count == other.vertex_count
            and problem.content_hash() == other.content_hash() and saved[0] == saved[1])


@derandomized
@given(twin_problems())
def test_equal_content_gives_equal_bits(twins):
    """A problem's arrays, content hash, saved bytes and builtin_pp spins
    depend on its content alone, not on the order it was given in."""
    problem, twin = twins
    assert same_problem(problem, twin)
    runs = random_runs(problem, 8, 1)
    assert np.array_equal(builtin_opt_pp(problem, runs).spins, builtin_opt_pp(twin, runs).spins)


@st.composite
def entry_mappings(draw):
    """h over a random subset of vertices, some of them explicit zeros,
    and J over a random graph, its pairs shuffled and some reversed."""
    n = draw(st.integers(0, 10))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.permutations(draw(st.lists(st.sampled_from(pairs), unique=True)))) \
        if pairs else []
    values = st.one_of(coefficients, st.just(0.0), st.integers(-3, 3))
    vertices = draw(st.permutations(sorted(draw(st.sets(st.integers(0, n - 1)))))) if n else []
    h = {v: draw(values) for v in vertices}
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    J = {(b, a) if flip else (a, b): draw(values) for (a, b), flip in zip(edges, flips)}
    return n, h, J


@derandomized
@given(entry_mappings())
def test_from_entries_equals_the_mapping_constructor(case):
    """``from_entries`` on a mapping's items, as lists or as arrays, makes
    the problem the constructor makes of the mapping: every h entry kept,
    a zero too, and every pair sorted, each value as a float."""
    n, h, J = case
    problem = IsingProblem(n, h, J)
    assert problem.h == {v: float(h[v]) for v in sorted(h)}
    assert problem.J == dict(sorted(((min(e), max(e)), float(w)) for e, w in J.items()))
    assert same_problem(problem, IsingProblem.from_entries(
        n, list(h), list(h.values()), list(J), list(J.values())))
    assert same_problem(problem, IsingProblem.from_entries(
        n, np.array(list(h), dtype=np.intp), np.array(list(h.values()), dtype=np.float64),
        np.array(list(J), dtype=np.intp).reshape(-1, 2),
        np.array(list(J.values()), dtype=np.float64)))


@st.composite
def spin_matrices(draw):
    """A problem and an int8 matrix of up to 12 runs of it."""
    problem = draw(problems())
    runs = draw(st.lists(spin_rows(problem.vertex_count), min_size=1, max_size=12))
    return problem, np.array(runs, dtype=np.int8)


@derandomized
@given(spin_matrices())
def test_evaluate_many_is_one_kernel(case):
    """A run's energy has the same bits alone or among other runs, through
    ``evaluate`` or ``evaluate_many``, and whatever the matrix's layout
    or dtype."""
    problem, spins = case
    energies = problem.evaluate_many(spins)
    for i, row in enumerate(spins):
        assert same_bits(problem.evaluate(row), energies[i])
        assert same_bits(problem.evaluate_many(spins[i:i + 1]), energies[i:i + 1])
    for other in (np.asfortranarray(spins), spins.astype(np.int64),
                  spins.astype(np.float64), np.repeat(spins, 2, axis=1)[:, ::2]):
        assert same_bits(problem.evaluate_many(other), energies)
    assert same_bits(problem.evaluate_many(spins[::2]), energies[::2])


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
        moved[list(tunnel)] = run2.spins[list(tunnel)]
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
    nbr, _ = oracle_neighbours(problem)
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
    assert_level_matches_merge_pair(problem, configs)


def assert_level_matches_merge_pair(problem, configs, step=1):
    """One ``_merge_pairs`` call on the pairs (0, 1), (2, 3), ... of
    ``configs``; every ``step``-th pair has the spins, energy bits and
    tunnel decisions of ``merge_pair``."""
    pairs = [(k, k + 1) for k in range(0, len(configs), 2)]
    merged, energies, *columns = _merge_pairs(
        problem, np.stack([c.spins for c in configs]), pairs)
    records = ReductionLevel(len(configs), None, *columns).pairs
    assert len(merged) == len(energies) == len(records) == len(pairs)
    for k in range(0, len(pairs), step):
        (i, j), record = pairs[k], records[k]
        ref, sizes, contributions, adopted = merge_pair(problem, configs[i], configs[j])
        assert np.array_equal(merged[k], ref.spins)
        assert struct.pack("<d", energies[k]) == struct.pack("<d", ref.energy)
        assert (record.first, record.second) == (i, j)
        assert record.tunnel_sizes == sizes
        assert [struct.pack("<dd", *c) for c in record.contributions] == \
            [struct.pack("<dd", *c) for c in contributions]
        assert record.adopted == adopted


def test_full_size_merge_matches_pairwise():
    """2,048 2-sweep anneals of the default problem (128 vertices, 352
    edges), merged in one call: 1,024 pairs in four 256-pair blocks, each
    block with more rows than the problem has vertices and fewer than it
    has edges. Every 16th pair matches the one-pair merge."""
    problem = problem_for(ExperimentConfig(), 0)
    assert (problem.vertex_count, problem._edge_a.size) == (128, 352)
    runs = simulated_anneal(problem, SamplerParams(num_runs=2048, seed=23, sweeps=2))
    assert_level_matches_merge_pair(problem, list(runs), step=16)


def test_edgeless_merge_spans_two_blocks():
    """600 random runs of a 20-vertex problem with no couplings, merged in
    one call: 300 pairs in blocks of 256 and 44, with E = 0. Every pair
    matches the one-pair merge."""
    rng = np.random.default_rng(29)
    problem = IsingProblem(20, {v: float(c) for v, c in enumerate(rng.normal(size=20))})
    runs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(600, 20))
    runs[1:60:2] = runs[0:60:2]
    assert_level_matches_merge_pair(problem, [problem.configuration(r) for r in runs])


def packed_contributions(trace):
    """A trace dict with each contribution pair as its bytes, so that ==
    compares contribution bits."""
    return {**trace, "levels": tuple(
        {**level, "pairs": tuple(
            {**pair, "contributions": tuple(struct.pack("<dd", *c) for c in pair["contributions"])}
            for pair in level["pairs"])}
        for level in trace["levels"])}


def pairwise_reduction(problem, configs, strategy):
    """The reduction merged one pair at a time with ``merge_pair``, each
    level paired by ``pair_runs``; returns the final configuration and
    the trace dict."""
    levels = []
    while len(configs) > 1:
        pairs, leftover = pair_runs(RunSet(configs, None, None), strategy)
        merged, records = [], []
        for i, j in pairs:
            ref, sizes, contributions, adopted = merge_pair(problem, configs[i], configs[j])
            merged.append(ref)
            records.append({"first": i, "second": j, "tunnel_sizes": sizes,
                            "contributions": contributions, "adopted": adopted})
        levels.append({"size": len(configs), "pairs": tuple(records), "leftover": leftover})
        configs = merged + ([configs[leftover]] if leftover is not None else [])
    return configs[0], {"strategy": strategy.value, "levels": tuple(levels)}


@st.composite
def reduction_cases(draw):
    """A problem, a pairing strategy and 1 to 3 groups of 1 to 40 of its
    runs each, with some runs repeated so that their pair has no tunnel."""
    problem = draw(problems())
    strategy = draw(st.sampled_from(list(PairingStrategy)))
    groups, count = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs = rng.choice(np.array([-1, 1], dtype=np.int8),
                      size=(groups, count, problem.vertex_count))
    twins = 2 * np.flatnonzero(rng.random(count // 2) < 0.2)
    runs[:, twins + 1] = runs[:, twins]
    return problem, strategy, runs


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(reduction_cases())
def test_reduction_trace_matches_pairwise_levels(case):
    """``mqc_reduce``'s trace, built from level columns, has the pairs,
    leftovers, tunnel sizes, contribution bits and adopted sides of a
    reduction merged one pair at a time; and group 0 of a (G, k, n)
    stack, reduced as hpe reduces its groups, has the levels of its lone
    reduction."""
    problem, strategy, runs = case
    groups = [[problem.configuration(row) for row in group] for group in runs]
    final, trace = mqc_reduce(problem, RunSet(groups[0], None, None), strategy)
    ref, ref_trace = pairwise_reduction(problem, groups[0], strategy)
    assert np.array_equal(final.spins, ref.spins)
    assert struct.pack("<d", final.energy) == struct.pack("<d", ref.energy)
    assert packed_contributions(trace.to_dict()) == packed_contributions(ref_trace)

    energies = np.array([[c.energy for c in group] for group in groups])
    spins, winners, levels = _reduce_levels(problem, runs, energies, strategy)
    assert np.array_equal(spins[0], final.spins)
    assert struct.pack("<d", winners[0]) == struct.pack("<d", final.energy)
    assert tuple(levels) == trace.levels and hash(tuple(levels)) == hash(trace.levels)
    assert packed_contributions(ReductionTrace(strategy.value, tuple(levels)).to_dict()) \
        == packed_contributions(trace.to_dict())


# Finite floats, with the ones whose repr takes another form drawn often.
stored_energies = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.225073858507201e-308, 1e16, -1e16, 1.5e300])

# JSON values that round-trip: nested lists and objects of finite numbers,
# strings (quotes, backslashes, non-ASCII), bools and null.
provenance_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


@st.composite
def runs_files(draw):
    """A problem and a run set of it whose stored energies are any finite
    floats, under any problem id and nested provenance params."""
    problem = draw(problems())
    runs = [SpinConfiguration(np.array(draw(spin_rows(problem.vertex_count)), dtype=np.int8),
                              draw(stored_energies))
            for _ in range(draw(st.integers(1, 6)))]
    seed = draw(st.integers(-2**63, 2**63 - 1))
    params = draw(st.dictionaries(st.text(), provenance_values, max_size=4))
    return problem, RunSet(runs, draw(st.none() | st.text()),
                           Provenance("manual", params, seed))


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
        fresh = RunSet([problem.configuration(r.spins) for r in runset], runset.problem_id,
                       runset.provenance)
        save_runset(fresh, path)
        checked = load_runset(path, problem)
    for before, after in ((runset, loaded), (fresh, checked)):
        assert np.array_equal(after.spins_matrix(), before.spins_matrix())
        assert [struct.pack("<d", r.energy) for r in after] == \
            [struct.pack("<d", r.energy) for r in before]
        assert after.provenance == before.provenance
        assert after.problem_id == before.problem_id


def run_fields_per_run(records, path):
    """The runs-file reader's field checks as first written, one run at a
    time, kept as the specification of ``_run_fields``."""
    texts, energies = [], []
    for i, rec in enumerate(records):
        run = f"{path}: run {i}"
        if not isinstance(rec, dict) or "spins" not in rec:
            raise ParseError(f"{run}: missing field 'spins'")
        if not isinstance(rec["spins"], str):
            raise ParseError(f"{run}: field 'spins' must be a string")
        if "energy" not in rec:
            raise ParseError(f"{run}: missing field 'energy'")
        energy = rec["energy"]
        try:
            finite = (not isinstance(energy, bool) and isinstance(energy, numbers.Real)
                      and math.isfinite(energy))
        except OverflowError:
            finite = False
        if not finite:
            raise ParseError(f"{run} field 'energy' must be a finite number")
        texts.append(rec["spins"])
        energies.append(float(energy))
    return texts, energies


# What json.load may give for a field, finite or not.
field_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(), st.text(max_size=2),
    st.sampled_from([10**400, -10**400, "+-", []]))
good_records = st.fixed_dictionaries({
    "spins": st.sampled_from(["+", "-+"]),
    "energy": st.floats(allow_nan=False, allow_infinity=False) | st.integers()})
any_records = good_records | field_values | st.dictionaries(
    st.sampled_from(["spins", "energy", "x"]), field_values, max_size=3)


@derandomized
@given(st.lists(good_records, max_size=4), st.lists(any_records, min_size=1, max_size=4))
def test_run_fields_match_the_per_run_checks(good, rest):
    """Whole-list checks of run records give the per-run checks' fields,
    or their message for the first failing run and its first failing
    check."""
    records = good + rest

    def outcome(check):
        try:
            texts, energies = check(records, "runs.json")
        except ParseError as e:
            return str(e)
        return texts, [struct.pack("<d", float(e)) for e in energies]

    assert outcome(_run_fields) == outcome(run_fields_per_run)


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


def one_group_pairs(spins, energies, strategy):
    """``pair_runs`` of the rows of ``spins`` with cached ``energies``."""
    return pair_runs(RunSet.from_matrix(spins, energies, None, None), strategy)


@derandomized
@given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.5]), min_size=1, max_size=40))
def test_rank_order_pairing_matches_sorted(energies):
    """Rank order pairs runs in (energy, position) order; -0.0 and 0.0 tie."""
    order = sorted(range(len(energies)), key=lambda i: (energies[i], i))
    m = len(energies)
    expected = ([(order[k], order[k + 1]) for k in range(0, m - 1, 2)],
                order[-1] if m % 2 else None)
    spins = np.ones((m, 1), dtype=np.int8)
    assert one_group_pairs(spins, energies, PairingStrategy.RANK_ORDER) == expected


@derandomized
@given(st.sampled_from(list(PairingStrategy)), st.integers(1, 3), st.integers(1, 13),
       st.integers(1, 5), st.integers(1, 13), st.integers(0, 2**32 - 1))
def test_one_pairing_call_pairs_each_group_as_its_own_call(strategy, groups, m, n, distinct,
                                                           seed):
    """One ``_pair_indices`` call over G groups of m runs gives each group
    the pairs and leftover of its own one-group call. Each group's pairs,
    then its leftover, are an order of its rows: the identity under
    sequential pairing and the (energy, position) order under rank order.
    Runs repeat and energies tie, -0.0 with 0.0."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(np.array([-1, 1], dtype=np.int8), size=(distinct, n))
    spins = rows[rng.integers(0, distinct, size=(groups, m))]
    energies = rng.choice([-1.0, -0.0, 0.0, 2.5], size=(groups, m))
    pairs, left = _pair_indices(spins, energies, strategy)
    assert pairs.shape == (groups, m // 2, 2)
    assert left is None if m % 2 == 0 else left.shape == (groups,)
    for g in range(groups):
        alone, leftover = one_group_pairs(spins[g], energies[g], strategy)
        assert pairs[g].tolist() == [list(p) for p in alone]
        assert (left is None and leftover is None) or left[g] == leftover
        order = pairs[g].ravel().tolist() + ([] if leftover is None else [leftover])
        assert sorted(order) == list(range(m))
        if strategy == PairingStrategy.SEQUENTIAL:
            assert order == list(range(m))
        elif strategy == PairingStrategy.RANK_ORDER:
            assert order == sorted(range(m), key=lambda i: (energies[g][i], i))


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
    assert one_group_pairs(spins, energies, PairingStrategy.MAX_DIFFERENCE) == \
        lexsort_max_difference(spins)


@pytest.mark.parametrize("n", [254, 255, 300])
@pytest.mark.parametrize("distinct", [3, 80])
def test_max_difference_pairing_matches_lexsort_greedy_on_wide_runs(n, distinct):
    """81 runs of 254 vertices (a one-byte table, its largest entry 255)
    and of 255 and 300 (a two-byte table), each a copy of one of 3 rows
    (tie-heavy) or of up to 80 (mostly distinct), run 1 the flip of run
    0, so the farthest pair is n apart."""
    rng = np.random.default_rng(n * 100 + distinct)
    rows = rng.choice(np.array([-1, 1], dtype=np.int8), size=(distinct, n))
    spins = rows[rng.integers(0, distinct, size=81)]
    spins[1] = -spins[0]  # one pair at distance n
    energies = np.zeros(len(spins))
    assert one_group_pairs(spins, energies, PairingStrategy.MAX_DIFFERENCE) == \
        lexsort_max_difference(spins)


def assert_levels_pair_as_spec(problem, runset):
    """Every level of a max-difference ``mqc_reduce`` pairs its runs as
    ``lexsort_max_difference`` pairs them, the merged runs of one level
    (leftover last) being the next level's runs."""
    _, trace = mqc_reduce(problem, runset, PairingStrategy.MAX_DIFFERENCE)
    spins = runset.spins
    for level in trace.levels:
        pairs, leftover = lexsort_max_difference(spins)
        assert level.pair_index.tolist() == [list(p) for p in pairs]
        assert level.leftover == leftover
        merged = _merge_pairs(problem, spins, pairs)[0]
        spins = merged if leftover is None else np.concatenate([merged, spins[[leftover]]])
    assert len(spins) == 1


@pytest.mark.parametrize("kind", ["gibbs", "anneal_2_sweeps", "anneal_100_sweeps"])
def test_max_difference_pairing_matches_spec_on_sampled_runs(kind):
    """Sampled runs of the default problem at realistic sizes, which take
    the greedy through many rounds and rescans of rows whose farthest run
    many others share: 512 Gibbs runs (beta 1, burn-in 1000, thinning 1),
    512 anneals of 2 sweeps, and 200 anneals of 100 sweeps, a tie-heavy
    set where runs repeat."""
    problem = problem_for(ExperimentConfig(problem_count=1), 0)
    if kind == "gibbs":
        runset = samplers.gibbs_sample(problem, SamplerParams(
            num_runs=512, seed=31, fixed_beta=1.0, burn_in=1000, thinning=1))
    elif kind == "anneal_2_sweeps":
        runset = simulated_anneal(problem, SamplerParams(
            num_runs=512, seed=32, sweeps=2, beta_schedule=BetaSchedule(0.1, 5.0)))
    else:
        runset = simulated_anneal(problem, SamplerParams(num_runs=200, seed=33))
    assert_levels_pair_as_spec(problem, runset)


@pytest.mark.parametrize("m", [64, 65])
def test_max_difference_pairing_matches_spec_at_worst_case(m):
    """Run k has its first k spins flipped, so distance(i, j) = |i - j|.
    Every run but the two ends has an end as its farthest run, so each
    round of the greedy matches one pair, (0, m-1), then (1, m-2) and so
    on, and rescans every live row. That is the bound: at most m/2
    rounds, each O(m) plus O(m) per rescanned row, so O(m^3) at worst.
    At odd m the middle run is left over."""
    spins = np.where(np.arange(m) < np.arange(m)[:, None], -1, 1).astype(np.int8)
    expected = ([(k, m - 1 - k) for k in range(m // 2)], m // 2 if m % 2 else None)
    assert lexsort_max_difference(spins) == expected
    assert one_group_pairs(spins, np.zeros(m), PairingStrategy.MAX_DIFFERENCE) == expected


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
    nbr, _ = oracle_neighbours(problem)
    unassigned = set(range(problem.vertex_count))
    subgraphs = []
    while unassigned:
        region = [min(unassigned)]
        unassigned.discard(region[0])
        while True:
            candidates = sorted({
                w for v in region for w in nbr[v].tolist()
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


def same_runsets(a, b):
    """Whether two lists of run sets hold the same spins and energy bits."""
    return len(a) == len(b) and all(
        np.array_equal(x.spins, y.spins) and same_bits(x.energies(), y.energies())
        for x, y in zip(a, b))


def summed(sample, jobs):
    """``sample(jobs)`` with every level kernel summing its fields at
    each step instead of reading them from tables."""
    with mock.patch.object(samplers, "_TABLE_DEGREE", -1):
        return sample(jobs)


def per_vertex_anneal(problem, params, field_sum):
    """The Metropolis kernel as first written, kept as its specification:
    all runs advance together one vertex at a time, in index order.
    ``field_sum(h, spins, weights)`` sums each run's field from h, the
    (runs, degree) neighbour spins and the couplings."""
    n = problem.vertex_count
    gens = [make_generator(s) for s in child_sequences(params.seed, params.num_runs)]
    spins = np.empty((params.num_runs, n), dtype=np.int8)
    for i, g in enumerate(gens):
        spins[i] = g.integers(0, 2, n).astype(np.int8) * 2 - 1

    betas = params.beta_schedule.betas(params.sweeps)
    uniforms = np.empty((params.num_runs, n), dtype=np.float64)
    h_vec = problem._h_vec
    nbr, nbr_w = oracle_neighbours(problem)

    for t in range(params.sweeps):
        beta = betas[t]
        for i, g in enumerate(gens):
            uniforms[i] = g.random(n)
        for a in range(n):
            field = h_vec[a]
            if nbr[a].size:
                field = field_sum(field, spins[:, nbr[a]].astype(np.float64), nbr_w[a])
            delta = -2.0 * spins[:, a] * field
            accept = uniforms[:, a] < np.exp(-beta * np.maximum(delta, 0.0))
            spins[accept, a] *= -1
    return spins


def left_to_right(h, spins, weights):
    """The package's one field rule: h first, then the neighbour terms in
    ascending order, one term after another."""
    total = h
    for term in (spins * weights).T:
        total = total + term
    return total


def blas_dot(h, spins, weights):
    """The neighbour sum as first written, a BLAS product in the kernel's
    own order, added to h: exact, and so equal, on integral sums only."""
    return h + spins @ weights


@st.composite
def anneal_cases(draw):
    """A problem on a tie-heavy, edgeless or full-size graph, with integer
    or float coefficients, and annealing parameters for it."""
    n, edges = draw(st.one_of(
        graphs(),
        st.integers(1, 12).map(lambda n: (n, [])),
        st.sampled_from([(128, chimera_graph(ChimeraSpec(4, 4, 4))), (81, grid_graph(9, 9))]),
    ))
    integral = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(size):
        if integral:
            return rng.integers(-2, 3, size).astype(float)
        return np.where(rng.random(size) < 0.2, 0.0, rng.uniform(-2.0, 2.0, size))

    problem = IsingProblem(n, dict(enumerate(values(n))), dict(zip(edges, values(len(edges)))))
    start = draw(st.floats(0.01, 5.0))
    schedule = BetaSchedule(start, start * draw(st.floats(1.0, 20.0)),
                            draw(st.sampled_from(["geometric", "linear"])))
    params = SamplerParams(num_runs=draw(st.integers(1, 8)), seed=draw(st.integers(0, 2**32)),
                           sweeps=draw(st.integers(1, 5)), beta_schedule=schedule)
    return problem, params, integral, draw(st.integers(1, 9))


@derandomized
@given(anneal_cases())
def test_level_anneal_matches_per_vertex_kernel(case):
    """Updating a dependency level at once is the index-order sweep: the
    same spins and energy bits as the per-vertex kernel, and, where every
    sum is exact, as the kernel with its BLAS product. Runs are annealed
    in blocks of a drawn size, down to one run a block. The tabled levels
    give the bits of summing every field, edgeless graphs' width-0 levels
    included."""
    problem, params, integral, block = case
    with mock.patch.object(samplers, "_RUN_BLOCK", block):
        runset = simulated_anneal(problem, params)
        assert same_runsets([runset], summed(samplers.simulated_anneal_many,
                                             [(problem, params, None)]))
    expected = per_vertex_anneal(problem, params, left_to_right)
    assert np.array_equal(runset.spins, expected)
    assert same_bits(runset.energies(), problem.evaluate_many(expected))
    if integral:
        assert np.array_equal(runset.spins, per_vertex_anneal(problem, params, blas_dot))


def test_anneal_blocks_match_per_vertex_kernel():
    """More runs than one block: every block, of 171 runs each, follows the
    specification."""
    problem = IsingProblem(9, {a: 0.3 * a - 1.1 for a in range(9)},
                           {e: 0.7 - 0.13 * i for i, e in enumerate(complete_graph(9))})
    params = SamplerParams(num_runs=2 * samplers._RUN_BLOCK + 1, seed=5, sweeps=3)
    expected = per_vertex_anneal(problem, params, left_to_right)
    assert np.array_equal(simulated_anneal(problem, params).spins, expected)


@pytest.mark.parametrize("sweeps", [1, 2])
def test_one_run_sums_left_to_right(sweeps):
    """One run, and vertex 8 alone in its level: its neighbours are held
    at -1, so its neighbour terms are -1, -1e16, 0.25, 0.25, 0.25, 0.25,
    1e16, 0.25. Left to right they sum to 0.25 and the vertex settles at
    -1; summed pairwise they give 0 and it would flip every sweep."""
    weights = [1.0, 1e16, -0.25, -0.25, -0.25, -0.25, -1e16, -0.25]
    problem = IsingProblem(9, {**{a: 1e30 for a in range(8)}, 8: 0.0},
                           {(a, 8): w for a, w in enumerate(weights)})
    params = SamplerParams(num_runs=1, seed=0, sweeps=sweeps,
                           beta_schedule=BetaSchedule(1e3, 1e3))
    expected = per_vertex_anneal(problem, params, left_to_right)
    assert np.array_equal(simulated_anneal(problem, params).spins, expected)


def mixed_magnitude_rows(width, shape):
    """``width`` rows of terms of mixed magnitude, which make any order of
    summation but their own show in the bits, and their sum row by row."""
    rng = np.random.default_rng(width)
    terms = rng.standard_normal((width, *shape)) * 10.0 ** rng.integers(-8, 9, (width, *shape))
    expected = terms[0]
    for row in terms[1:]:
        expected = expected + row
    return terms, expected


@pytest.mark.parametrize("width", [3, 9, 40])
@pytest.mark.parametrize("shape", [(1, 2), (2, 1), (3, 5)])
def test_reduce_adds_rows_left_to_right(width, shape):
    """add.reduce over axis 0 adds whole rows one after another whenever a
    row has two or more entries; with one entry a row it sums pairwise,
    so the level kernels sum with ``_ordered_sum`` instead."""
    terms, expected = mixed_magnitude_rows(width, shape)
    assert same_bits(np.add.reduce(terms, axis=0), expected)


@pytest.mark.parametrize("width", [1, 3, 9, 40])
@pytest.mark.parametrize("shape", [(1, 1), (1,), (1, 2), (2, 1), (3, 5)])
def test_ordered_sum_adds_rows_left_to_right(width, shape):
    """The level kernels' one summation order: whole rows one after
    another, one entry a row included, and 0.0 for no rows."""
    terms, expected = mixed_magnitude_rows(width, shape)
    assert same_bits(samplers._ordered_sum(terms), expected)
    assert samplers._ordered_sum(terms[:0]) == 0.0


def python_gibbs_chain(problem, params):
    """The Gibbs chain as first written, kept as its specification: one
    site at a time, the field summed h first and then the neighbours left
    to right, and p_up = 1 / (1 + exp(2 beta f)) with math.exp, set to 0
    above x = 700 and to 1 below x = -700."""
    n = problem.vertex_count
    beta = params.fixed_beta
    rng = make_generator(params.seed)
    state = (rng.integers(0, 2, n) * 2 - 1).tolist()
    h_list = problem._h_vec.tolist()
    nbr, nbr_w = oracle_neighbours(problem)
    adj = [list(zip(nbr[a].tolist(), nbr_w[a].tolist())) for a in range(n)]
    samples = np.empty((params.num_runs, n), dtype=np.int8)
    collected = 0
    for sweep in range(params.burn_in + params.num_runs * params.thinning):
        u = rng.random(n)
        for a in range(n):
            f = h_list[a]
            for b, w in adj[a]:
                f += w * state[b]
            x = 2.0 * beta * f
            if x > 700.0:
                p_up = 0.0
            elif x < -700.0:
                p_up = 1.0
            else:
                p_up = 1.0 / (1.0 + math.exp(x))
            state[a] = 1 if u[a] < p_up else -1
        done = sweep + 1 - params.burn_in
        if done > 0 and done % params.thinning == 0:
            samples[collected] = state
            collected += 1
    return samples


@st.composite
def shared_graph_problems(draw):
    """Two to four problems on one graph: a random graph (often with
    isolated vertices), a path, K8 or a few Chimera cells. Either their
    coefficients are drawn with many exact zeros, or they are the scaled
    and quantized copies hpe samples, where couplings snap to 0.0 and stay
    edges."""
    n, edges = draw(st.one_of(graphs(), st.just((8, complete_graph(8))),
                              st.integers(1, 16).map(lambda n: (n, path_graph(n)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(2, 4))

    def values(size):
        return np.where(rng.random(size) < 0.3, 0.0, rng.uniform(-2.0, 2.0, size))

    if draw(st.booleans()):
        return [IsingProblem(n, dict(enumerate(values(n))), dict(zip(edges, values(len(edges)))))
                for _ in range(count)]
    base = IsingProblem(n, dict(enumerate(values(n))), dict(zip(edges, values(len(edges)))))
    model = PrecisionModel(levels=draw(st.sampled_from([3, 5, 17])))
    return [quantize_problem(scale_problem(base, 2.0 ** k), model) for k in range(count)]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(shared_graph_problems(), st.data())
def test_gibbs_columns_match_python_chain(problems, data):
    """Gibbs chains of problems on one graph, sampled in one call as the
    columns of the level kernel, give each chain's spins and energy bits
    as the Python chain does, and as the kernel does when it sums every
    field instead of reading tables. The chains differ in length, beta,
    burn-in and thinning; betas up to 1e6 push x past both 700 guards."""
    jobs = [(problem, SamplerParams(
        num_runs=data.draw(st.sampled_from([200, 400])), seed=data.draw(st.integers(0, 2**32)),
        fixed_beta=data.draw(st.one_of(st.floats(0.05, 5.0), st.sampled_from([400.0, 1e6]))),
        burn_in=data.draw(st.integers(0, 30)), thinning=data.draw(st.integers(1, 2))), None)
        for problem in problems]
    runsets = samplers.gibbs_sample_many(jobs)
    assert same_runsets(runsets, summed(samplers.gibbs_sample_many, jobs))
    for (problem, params, _), runset in zip(jobs, runsets):
        expected = python_gibbs_chain(problem, params)
        assert np.array_equal(runset.spins, expected)
        assert same_bits(runset.energies(), problem.evaluate_many(expected))


def test_gibbs_columns_sum_h_first_then_left_to_right():
    """Vertex 3 alone in its level: its neighbours are held at -1, so its
    field is h = 1.0 and then the terms 1e16, -1e16, -0.5. In that order
    they sum to -0.5, as 1.0 + 1e16 rounds to 1e16, and the vertex settles
    at +1; with h added last the field is 0.5 and it would settle at -1."""
    problem = IsingProblem(4, {0: 1e30, 1: 1e30, 2: 1e30, 3: 1.0},
                           {(0, 3): -1e16, (1, 3): 1e16, (2, 3): 0.5})
    params = SamplerParams(num_runs=3, seed=0, fixed_beta=1e3, burn_in=1, thinning=1)
    expected = python_gibbs_chain(problem, params)
    assert (expected == [-1, -1, -1, 1]).all()
    for runset in samplers.gibbs_sample_many([(problem, params, None)] * 2):
        assert np.array_equal(runset.spins, expected)


@pytest.mark.parametrize("extra", [0, 4])
def test_lone_gibbs_chain_sums_h_first_then_left_to_right(extra):
    """The case above in the lone chain, with vertex 3 read from its table
    and, given ``extra`` more neighbours held at -1 through 0.0 couplings,
    with its field summed at each visit."""
    n = 4 + extra
    problem = IsingProblem(n, {0: 1e30, 1: 1e30, 2: 1e30, 3: 1.0,
                               **{v: 1e30 for v in range(4, n)}},
                           {(0, 3): -1e16, (1, 3): 1e16, (2, 3): 0.5,
                            **{(3, v): 0.0 for v in range(4, n)}})
    assert (problem._adj_start[4] - problem._adj_start[3] > samplers._TABLE_DEGREE) == bool(extra)
    params = SamplerParams(num_runs=3, seed=0, fixed_beta=1e3, burn_in=1, thinning=1)
    expected = python_gibbs_chain(problem, params)
    assert (expected[:, :4] == [-1, -1, -1, 1]).all()
    assert np.array_equal(samplers.gibbs_sample(problem, params).spins, expected)


def test_fields_beyond_the_float_range_are_rejected():
    """Coefficients whose absolute sum overflows could give infinite
    fields and energies, and inf - inf = nan, so no problem holds them."""
    with pytest.raises(ParameterError, match="finite sum"):
        IsingProblem(4, {0: 1e308, 1: -1e308, 2: 1e308, 3: 5.0},
                     {(0, 1): 1.7e308, (1, 2): -1.7e308, (2, 3): 1e308, (0, 3): 1e308})


@pytest.mark.parametrize("beta", [1e9, 1e300])
def test_lone_gibbs_chain_takes_beta_fields_beyond_the_float_range(beta):
    """Finite fields near the float limit times 2 beta overflow to inf, in
    the tables and the summed steps as in the Python chain, and the chain
    warns of none. Hub 0 has more neighbours than a table holds, so it
    sums its field; vertex 10 has a field small enough to leave its spin
    to chance at beta 1e9."""
    problem = IsingProblem(11, {0: 1e300, 1: -1e300, 2: 3e299, 3: -5.0, 10: 1e-9},
                           {(0, v): (-1) ** v * 1e299 for v in range(1, 10)})
    params = SamplerParams(num_runs=20, seed=1, fixed_beta=beta, burn_in=3, thinning=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spins = samplers.gibbs_sample(problem, params).spins
    assert problem._adj_start[1] > samplers._TABLE_DEGREE
    assert np.array_equal(spins, python_gibbs_chain(problem, params))


def test_anneal_sums_h_first():
    """The problem of ``test_gibbs_columns_sum_h_first_then_left_to_right``,
    annealed: vertex 3's field is h = 1.0 and then the neighbour terms
    1e16, -1e16, -0.5, summed h first as every field is, which is -0.5,
    so the vertex settles at +1; summed with h last, the field would be
    0.5 and it would settle at -1."""
    problem = IsingProblem(4, {0: 1e30, 1: 1e30, 2: 1e30, 3: 1.0},
                           {(0, 3): -1e16, (1, 3): 1e16, (2, 3): 0.5})
    params = SamplerParams(num_runs=3, seed=0, sweeps=2, beta_schedule=BetaSchedule(1e3, 1e3))
    expected = per_vertex_anneal(problem, params, left_to_right)
    assert (expected == [-1, -1, -1, 1]).all()
    for runset in samplers.simulated_anneal_many([(problem, params, None)] * 2):
        assert np.array_equal(runset.spins, expected)


def test_lone_gibbs_chain_is_python_chain():
    problem = IsingProblem(9, {a: 0.3 * a - 1.1 for a in range(9)},
                           {e: 0.7 - 0.13 * i for i, e in enumerate(complete_graph(9))})
    params = SamplerParams(num_runs=50, seed=3, fixed_beta=0.7, burn_in=10, thinning=2)
    assert np.array_equal(samplers.gibbs_sample(problem, params).spins,
                          python_gibbs_chain(problem, params))


@st.composite
def lone_chain_problems(draw):
    """A problem with sites on both sides of the Gibbs kernel's table
    bound of ``samplers._TABLE_DEGREE`` neighbours: a star, K8 to K10, a
    random graph (often with isolated vertices) or a few Chimera cells (up
    to 6 neighbours a site), with many exact-zero coefficients."""
    kind = draw(st.sampled_from(["star", "complete", "random", "chimera"]))
    if kind == "star":
        n = draw(st.integers(2, 30))
        edges = [(0, b) for b in range(1, n)]
    elif kind == "complete":
        n = draw(st.integers(8, 10))
        edges = complete_graph(n)
    elif kind == "random":
        n = draw(st.integers(1, 16))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    else:
        spec = ChimeraSpec(draw(st.integers(1, 2)), draw(st.integers(1, 2)),
                           draw(st.integers(1, 4)))
        n, edges = spec.vertex_count, chimera_graph(spec)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(size):
        return np.where(rng.random(size) < 0.3, 0.0, rng.uniform(-2.0, 2.0, size))

    return IsingProblem(n, dict(enumerate(values(n))), dict(zip(edges, values(len(edges)))))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(lone_chain_problems(), st.data())
def test_lone_gibbs_chain_matches_python_chain(problem, data):
    """The lone chain, which reads p_up from a table at sites of few
    neighbours and sums the field at the others, gives the Python chain's
    spins and energy bits; betas of 400 and 1e6 push x past both 700
    guards."""
    params = SamplerParams(
        num_runs=data.draw(st.sampled_from([50, 200])), seed=data.draw(st.integers(0, 2**32)),
        fixed_beta=data.draw(st.one_of(st.floats(0.05, 5.0), st.sampled_from([400.0, 1e6]))),
        burn_in=data.draw(st.integers(0, 30)), thinning=data.draw(st.integers(1, 3)))
    runset = samplers.gibbs_sample(problem, params)
    expected = python_gibbs_chain(problem, params)
    assert np.array_equal(runset.spins, expected)
    assert same_bits(runset.energies(), problem.evaluate_many(expected))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(shared_graph_problems(), st.integers(1, 9), st.data())
def test_batched_anneal_matches_per_problem_anneal(problems, block, data):
    """Runs of problems on one graph, annealed in one call, give each
    problem's spins and energy bits as its own call and the per-vertex
    kernel do. Jobs share a sweep count and schedule or not, and blocks of
    a drawn size mix the runs of several problems."""
    schedules = [BetaSchedule(0.1, 5.0), BetaSchedule(0.5, 2.0, "linear")]
    jobs = [(problem, SamplerParams(
        num_runs=data.draw(st.integers(1, 8)), seed=data.draw(st.integers(0, 2**32)),
        sweeps=data.draw(st.integers(1, 3)), beta_schedule=data.draw(st.sampled_from(schedules))),
        None) for problem in problems]
    with mock.patch.object(samplers, "_RUN_BLOCK", block):
        runsets = samplers.simulated_anneal_many(jobs)
    for (problem, params, _), runset in zip(jobs, runsets):
        expected = per_vertex_anneal(problem, params, left_to_right)
        assert np.array_equal(runset.spins, expected)
        assert np.array_equal(simulated_anneal(problem, params).spins, expected)
        assert same_bits(runset.energies(), problem.evaluate_many(expected))


def star_and_chimera_cell():
    """A 9-leaf star whose hub, vertex 0, is joined to vertex 10 of a
    Chimera cell on vertices 10 to 17. The hub's level, with three cell
    vertices, is wider than a table; the other levels are tabled."""
    cell = [(a + 10, b + 10) for a, b in chimera_graph(ChimeraSpec(1, 1, 4))]
    return 18, [(0, b) for b in range(1, 10)] + [(0, 10)] + cell


@pytest.mark.parametrize("block", [1, 3, 7])
def test_mixed_width_levels_match_summed_and_specification(block):
    """On a graph with tabled and summed levels, annealing pooled jobs in
    blocks that split them, and their Gibbs columns, give the spins and
    energy bits of summing every field and of the specifications."""
    n, edges = star_and_chimera_cell()
    rng = np.random.default_rng(block)
    problems = [IsingProblem(n, dict(enumerate(rng.uniform(-2.0, 2.0, n))),
                             dict(zip(edges, rng.uniform(-1.0, 1.0, len(edges)))))
                for _ in range(3)]
    widths = [len(P) - 1 for _, P, _ in samplers._level_tables(problems)[1]]
    assert min(widths) <= samplers._TABLE_DEGREE < max(widths)
    anneal = [(problem, SamplerParams(num_runs=runs, seed=seed, sweeps=4), None)
              for problem, runs, seed in zip(problems, (4, 5, 2), (1, 2, 3))]
    with mock.patch.object(samplers, "_RUN_BLOCK", block):
        runsets = samplers.simulated_anneal_many(anneal)
        assert same_runsets(runsets, summed(samplers.simulated_anneal_many, anneal))
    for (problem, params, _), runset in zip(anneal, runsets):
        assert np.array_equal(runset.spins, per_vertex_anneal(problem, params, left_to_right))
    gibbs = [(problem, SamplerParams(num_runs=40, seed=seed, fixed_beta=beta, burn_in=5,
                                     thinning=2), None)
             for problem, seed, beta in zip(problems, (4, 5, 6), (0.5, 2.0, 400.0))]
    runsets = samplers.gibbs_sample_many(gibbs)
    assert same_runsets(runsets, summed(samplers.gibbs_sample_many, gibbs))
    for (problem, params, _), runset in zip(gibbs, runsets):
        assert np.array_equal(runset.spins, python_gibbs_chain(problem, params))


def cancelling_star():
    """Hub 8 of a 9-vertex star, its leaves held at -1 by h = 1e30, so its
    neighbour terms are -1, 1, 1, -0.5, 1e16, 1, -1e16, -1, and h = 0.5.
    Summed h first and then left to right, as every field is, its field
    is -1.0; with h last it would be -0.5, and summed pairwise 0.5 or
    1.0, of the other sign."""
    weights = [1.0, -1.0, -1.0, 0.5, -1e16, -1.0, 1e16, 1.0]
    return IsingProblem(9, {**{a: 1e30 for a in range(8)}, 8: 0.5},
                        {(a, 8): w for a, w in enumerate(weights)})


def wide_level_problems():
    """Problems with levels of more than ``samplers._TABLE_DEGREE``
    neighbours, and a beta for each: K16, K9 and the star joined to a
    Chimera cell with drawn coefficients, and the cancelling star."""
    rng = np.random.default_rng(16)
    graphs = [(16, complete_graph(16)), (9, complete_graph(9)), star_and_chimera_cell()]
    return [pytest.param(IsingProblem(n, dict(enumerate(rng.uniform(-2.0, 2.0, n))),
                                      dict(zip(edges, rng.uniform(-2.0, 2.0, len(edges))))),
                         0.8, id=name)
            for name, (n, edges) in zip(["K16", "K9", "star_cell"], graphs)
            ] + [pytest.param(cancelling_star(), 1e3, id="cancelling_star")]


@pytest.mark.parametrize("problem, beta", wide_level_problems())
@pytest.mark.parametrize("seed", range(4))
def test_one_column_wide_levels_sum_in_specified_order(problem, beta, seed):
    """With one column, each wide level's Gibbs p_up is, bit for bit, the
    Python sum of h first and then the neighbour terms left to right,
    through ``_heat_bath``; its annealing max(dE, 0) is that of the same
    sum."""
    n = problem.vertex_count
    rng = np.random.default_rng(seed)
    order, levels, _ = samplers._level_tables([problem])
    state = np.ones((n + 1, 1), dtype=np.uint8)
    state[:n, 0] = rng.integers(0, 2, n)
    spins = np.empty(n)
    spins[order] = np.where(state[:n, 0], 1.0, -1.0)
    nbr, nbr_w = oracle_neighbours(problem)
    beta2 = np.array([2.0 * beta * rng.uniform(0.1, 1.0)])
    wide = [(rows, P, W) for rows, P, W in levels if len(P) - 1 > samplers._TABLE_DEGREE]
    assert wide
    for rows, P, W in wide:
        with np.errstate(over="ignore"):
            p_up = samplers._gibbs_level(state, P, W, beta2)()
        delta = samplers._anneal_level(state, rows, P, W, np.zeros(1, dtype=np.intp))()
        assert p_up.shape == delta.shape == (rows.stop - rows.start, 1)
        for j, a in enumerate(order[rows].tolist()):
            h = problem._h_vec[a].item()
            terms = (nbr_w[a] * spins[nbr[a]]).tolist()
            f = h
            for t in terms:
                f += t
            with np.errstate(over="ignore"):
                assert same_bits(p_up[j], samplers._heat_bath(np.array([beta2[0] * f])))
            assert same_bits(delta[j], np.maximum([-2.0 * spins[a] * f], 0.0))


@pytest.mark.parametrize("problem, beta", wide_level_problems())
def test_one_gibbs_column_is_python_chain(problem, beta):
    """One chain run as the one column of the level kernel gives the
    Python chain's states; on the cancelling star, a pairwise sum would
    hold the hub at -1 where the chain holds it at +1."""
    params = SamplerParams(num_runs=30, seed=7, fixed_beta=beta, burn_in=5, thinning=2)
    expected = python_gibbs_chain(problem, params)
    assert np.array_equal(samplers._gibbs_columns(
        [params], samplers._level_tables([problem], 1))[0], expected)


def test_default_chimera_levels_are_all_tabled(monkeypatch):
    """Every level of the default 4x4x4 Chimera graph, and every step of
    its two-chain Gibbs columns, reads its fields from a table, in the
    annealer and in the Gibbs columns, so neither falls back to summing
    them."""
    problem = problem_for(ExperimentConfig(), 0)
    levels = len(samplers._level_tables([problem])[1])
    steps = len(samplers._level_tables([problem] * 2, 2)[1])
    tabled = []
    real = samplers._table_reader
    monkeypatch.setattr(samplers, "_table_reader", lambda *args: tabled.append(1) or real(*args))
    simulated_anneal(problem, SamplerParams(num_runs=2, seed=0, sweeps=1))
    assert len(tabled) == levels
    samplers.gibbs_sample_many([(problem, SamplerParams(
        num_runs=1, seed=seed, fixed_beta=1.0, burn_in=0, thinning=1), None) for seed in (1, 2)])
    assert len(tabled) == levels + steps


def test_lone_gibbs_column_collects_across_windows():
    """A lone chain on the default Chimera graph, which runs as one
    column, gives the Python chain's states at thinning 1 and 10 with
    burn-ins on both sides of the first window's end, and at a thinning
    longer than a window. Every sample is a state of one Python
    trajectory: that after sweep burn_in + k thinning."""
    problem = problem_for(ExperimentConfig(), 0)
    window = samplers._UNIFORM_BUFFER // problem.vertex_count
    cases = [(burn_in, thinning, runs) for thinning, runs in ((1, 300), (10, 120))
             for burn_in in (0, 1, window - 1, window, window + 1)] + [(1, window + 3, 3)]
    sweeps = max(burn_in + thinning * runs for burn_in, thinning, runs in cases)
    trajectory = python_gibbs_chain(problem, SamplerParams(
        num_runs=sweeps, seed=3, fixed_beta=1.0, burn_in=0, thinning=1))
    for burn_in, thinning, runs in cases:
        params = SamplerParams(num_runs=runs, seed=3, fixed_beta=1.0, burn_in=burn_in,
                               thinning=thinning)
        expected = trajectory[burn_in + thinning - 1::thinning][:runs]
        assert np.array_equal(samplers.gibbs_sample(problem, params).spins, expected)


def test_mixed_gibbs_columns_collect_across_windows():
    """Six chains on the default Chimera graph in one call, of different
    lengths, betas, burn-ins and thinnings, some shorter than a window of
    six columns and some spanning several, each give the Python chain's
    states."""
    problems = [problem_for(ExperimentConfig(), k) for k in range(3)] * 2
    window = samplers._UNIFORM_BUFFER // (128 * len(problems))
    shapes = [(5, 1, 1), (200, 0, 1), (30, window - 1, 7), (3, window + 1, window + 2),
              (60, 17, 3), (1, 2 * window, 1)]
    jobs = [(problem, SamplerParams(num_runs=runs, seed=40 + c, fixed_beta=0.5 + 0.25 * c,
                                    burn_in=burn_in, thinning=thinning), None)
            for c, (problem, (runs, burn_in, thinning)) in enumerate(zip(problems, shapes))]
    for (problem, params, _), runset in zip(jobs, samplers.gibbs_sample_many(jobs)):
        assert np.array_equal(runset.spins, python_gibbs_chain(problem, params))


@derandomized
@given(st.integers(0, 7), st.integers(1, 4), st.integers(1, 32), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_packed_index_is_the_reduced_index(width, columns, sites, jobs, seed):
    """A table reader of few (site, column) entries, which packs each
    entry's index bits into one uint64, reads the entries that summing
    bit k times 2**k reads, at widths 0 to 7 and with pad rows (row n,
    the constant +1) among the index rows."""
    n = 9
    rng = np.random.default_rng(seed)
    state = np.ones((n + 1, columns), dtype=np.uint8)
    state[:n] = rng.integers(0, 2, (n, columns))
    P = rng.integers(0, n + 1, (width, sites))
    P[:, ::2] = n
    # Entry (j, job, i) of this table is its own flat position.
    table = np.arange(sites * jobs << width, dtype=np.float64).reshape(sites, jobs, -1)
    slot = rng.integers(0, jobs, columns)
    assert sites * columns <= samplers._PACKED_ENTRIES
    packed = samplers._table_reader(state, P, table, slot)()
    with mock.patch.object(samplers, "_PACKED_ENTRIES", 0):
        reduced = samplers._table_reader(state, P, table, slot)()
    assert packed.shape == reduced.shape == (sites, columns)
    assert np.array_equal(packed, reduced)


def test_lone_gibbs_chains_run_as_one_column(monkeypatch):
    """A lone chain runs as one column wherever it is: on the default
    128-vertex Chimera graph, 64 vertices a step, on K16, whose steps are
    summed, and on a 50-vertex remainder of the default graph, 25
    vertices a step. Each gives the Python chain's states."""
    calls = []
    real = samplers._gibbs_columns
    monkeypatch.setattr(samplers, "_gibbs_columns", lambda *args: (
        calls.append(len(args[0])) or real(*args)))
    problem = problem_for(ExperimentConfig(), 0)
    # Two runs that differ on vertices 0 to 49 only: persistence at
    # threshold 1 freezes the other 78.
    spins = np.ones((2, problem.vertex_count), dtype=np.int8)
    spins[1, :50] = -1
    remainder = persistence_fix(problem, RunSet.from_matrix(
        spins, problem.evaluate_many(spins), None, None), 1.0).reduced_problem
    rng = np.random.default_rng(16)
    k16 = IsingProblem(16, dict(enumerate(rng.uniform(-1.0, 1.0, 16))),
                       {e: rng.uniform(-1.0, 1.0) for e in complete_graph(16)})
    assert remainder.vertex_count == 50
    assert len(samplers._level_tables([remainder], 1)[1]) == 2
    params = SamplerParams(num_runs=20, seed=9, fixed_beta=1.0, burn_in=5, thinning=2)
    for case in (problem, k16, remainder):
        calls.clear()
        runset = samplers.gibbs_sample(case, params)
        assert calls == [1]
        assert np.array_equal(runset.spins, python_gibbs_chain(case, params))


@derandomized
@given(graphs(), st.integers(1, 2048))
def test_lagged_schedule_keeps_the_sweep_order(graph, columns):
    """Step k of super-sweep T runs sweep T - lag of its vertices. So on
    every edge a < b, with t = lag * steps + k, t[a] < t[b] < t[a] +
    steps: b reads a's spin of this sweep and a reads b's of the last
    one. No step holds an edge; a step's rows are sorted by lag, then
    vertex; max lag + 1 sweeps of uniforms fit the buffer unless every
    lag is 0, and every lag is 0 only on the levels."""
    n, edges = graph
    problem = IsingProblem(n, {}, {e: 1.0 for e in edges})
    order, steps, lag = samplers._level_tables([problem], columns)
    step, lag_of = np.empty(n, dtype=int), np.empty(n, dtype=int)
    for k, (rows, _, _) in enumerate(steps):
        step[order[rows]] = k
        assert [(lag[r], order[r]) for r in range(rows.start, rows.stop)] == sorted(
            (lag[r], order[r]) for r in range(rows.start, rows.stop))
    assert steps[-1][0].stop == n
    lag_of[order] = lag
    t = lag_of * len(steps) + step
    for a, b in edges:
        a, b = min(a, b), max(a, b)
        assert t[a] < t[b] < t[a] + len(steps)
        assert step[a] != step[b]
    if lag.any():
        assert (lag.max() + 1) * n * columns <= samplers._UNIFORM_BUFFER
    else:
        _, levels, _ = samplers._level_tables([problem])
        assert [rows for rows, _, _ in steps] == [rows for rows, _, _ in levels]


def lagged_and_level_runsets(jobs):
    """``gibbs_sample_many(jobs)`` on the lagged schedule, and with no room
    for uniforms of lagged sweeps, where every lag is 0 and the steps are
    the levels."""
    lagged = samplers.gibbs_sample_many(jobs)
    with mock.patch.object(samplers, "_UNIFORM_BUFFER", 0):
        assert not samplers._level_tables([p for p, _, _ in jobs], len(jobs))[2].any()
        return lagged, samplers.gibbs_sample_many(jobs)


def gibbs_jobs(problems, runs, seed=0, burn_in=0, thinning=1, beta=1.0):
    return [(problem, SamplerParams(num_runs=r, seed=seed + c, fixed_beta=beta, burn_in=burn_in,
                                    thinning=thinning), None)
            for c, (problem, r) in enumerate(zip(problems, runs))]


def drawn_problems(n, edges, count, seed=0):
    rng = np.random.default_rng(seed)
    return [IsingProblem(n, dict(enumerate(rng.uniform(-2.0, 2.0, n))),
                         dict(zip(edges, rng.uniform(-1.0, 1.0, len(edges)))))
            for _ in range(count)]


def test_lagged_gibbs_columns_of_the_sweep_call():
    """The call that samples a block of two default problems: 10 chains,
    2 of 200 runs and 8 of 50, burn-in 1,000, thinning 10. The lagged
    schedule gives every chain's spins and energy bits of the levels."""
    problems = [problem_for(ExperimentConfig(), k) for k in range(2)]
    jobs = gibbs_jobs(problems * 5, [200, 200] + [50] * 8, burn_in=1000, thinning=10)
    assert samplers._level_tables(problems * 5, 10)[2].max() == 3
    assert same_runsets(*lagged_and_level_runsets(jobs))


def disconnected_graph():
    """Two Chimera cells, a path and two isolated vertices."""
    cell = chimera_graph(ChimeraSpec(1, 1, 4))
    return 24, cell + [(a + 8, b + 8) for a, b in cell] + [(v, v + 1) for v in range(16, 21)]


@pytest.mark.parametrize("graph, top", [
    pytest.param((16, path_graph(16)), 7, id="path16"),
    pytest.param((128, chimera_graph(ChimeraSpec(4, 4, 4))), 3, id="chimera"),
    pytest.param(disconnected_graph(), 2, id="disconnected"),
    pytest.param((5, []), 0, id="edgeless"),
    pytest.param((3, complete_graph(3)), 0, id="triangle"),
    pytest.param((5, complete_graph(5)), 0, id="K5"),
    pytest.param(star_and_chimera_cell(), 1, id="star_cell"),
])
@pytest.mark.parametrize("runs", [(1,), (3, 1, 2)])
def test_short_lagged_chains_are_the_level_chains(graph, top, runs):
    """Chains of 1 to 3 sweeps (burn-in 0, thinning 1), shorter than
    their lag range, run only in the ramp-up and drain of the lagged
    schedule and give the spins and energy bits of the levels, with
    tables and with every field summed. Triangles and K5 have no
    lagged schedule, and fall back to the levels."""
    n, edges = graph
    problems = drawn_problems(n, edges, len(runs), seed=len(runs))
    assert samplers._level_tables(problems, len(problems))[2].max() == top
    jobs = gibbs_jobs(problems, runs, seed=11)
    if len(jobs) == 1:
        (problem, params, _), = jobs
        lagged = samplers._gibbs_columns([params], samplers._level_tables([problem], 1))
        with mock.patch.object(samplers, "_UNIFORM_BUFFER", 0):
            assert all(map(np.array_equal, lagged, samplers._gibbs_columns(
                [params], samplers._level_tables([problem], 1))))
        return
    lagged, levels = lagged_and_level_runsets(jobs)
    assert same_runsets(lagged, levels)
    assert same_runsets(lagged, summed(samplers.gibbs_sample_many, jobs))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(0, 2**64 - 1), st.integers(0, 4999), st.integers(1, 300))
def test_bulk_child_words_are_numpys_children(seed, start, count):
    """Child i of ``SeedSequence(seed).spawn`` is the sequence of spawn
    key (i,), so each row of a block is that sequence's state words."""
    words = child_words(seed, start, start + count)
    assert words.shape == (count, 4) and words.flags.c_contiguous
    for i in {0, count // 2, count - 1}:
        oracle = np.random.SeedSequence(seed, spawn_key=(start + i,))
        assert np.array_equal(words[i], oracle.generate_state(4, np.uint64))


def test_lagged_chains_of_mixed_lengths_draw_their_own_sweeps(monkeypatch):
    """Chains of 2 to 50 sweeps in one call each draw n initial bits and
    then n uniforms for each of their own sweeps, no more, and give the spins
    and energy bits of the levels."""
    n, edges = disconnected_graph()
    problems = drawn_problems(n, edges, 4, seed=3)
    jobs = [(problem, SamplerParams(num_runs=r, seed=20 + c, fixed_beta=0.7, burn_in=b,
                                    thinning=t), None)
            for c, (problem, r, b, t) in enumerate(zip(problems, (3, 4, 10, 1), (5, 0, 20, 1),
                                                       (1, 2, 3, 1)))]
    generators = []
    real = samplers.make_generator
    monkeypatch.setattr(samplers, "make_generator",
                        lambda seed: generators.append(real(seed)) or generators[-1])
    lagged, levels = lagged_and_level_runsets(jobs)
    assert same_runsets(lagged, levels)
    for g, (_, q, _) in zip(generators, jobs):
        fresh = real(q.seed)
        fresh.integers(0, 2, n)
        fresh.random((q.burn_in + q.num_runs * q.thinning) * n)
        # integers leaves a stale 32-bit buffer in uinteger, which no
        # double reads; the chains read their bits from raw outputs.
        ours, oracle = g.bit_generator.state, fresh.bit_generator.state
        assert ours["state"] == oracle["state"]
        assert ours["has_uint32"] == oracle["has_uint32"]


def test_capped_lags_keep_the_level_chains():
    """32 chains on a 512-vertex path: a lag range of 0 to 255 would not
    fit the buffer, so the steps grow to 64 a sweep, lags 0 to 7, and the
    chains still give the spins and energy bits of the levels."""
    n = 512
    problems = drawn_problems(n, path_graph(n), 32, seed=5)
    _, steps, lag = samplers._level_tables(problems, 32)
    assert (len(steps), lag.max()) == (64, 7)
    assert same_runsets(*lagged_and_level_runsets(gibbs_jobs(problems, [3] * 32, burn_in=2,
                                                             thinning=2)))


def per_vertex_persistence_fix(problem, spins, threshold):
    """persistence_fix as first written, kept as its specification: the
    frozen spins, the free vertices, and the reduced problem's fields,
    each summed h first and then over the frozen neighbours in ascending
    order, and couplings, taken from J in sorted order. A vertex freezes at
    a spin when that spin's own fraction of the runs reaches ``threshold``,
    one rule for both spins."""
    assignments = {}
    for spin in (1, -1):
        agree = np.count_nonzero(spins == spin, axis=0) / len(spins)
        assignments.update({v: spin for v in np.nonzero(agree >= threshold)[0].tolist()})
    free = tuple(v for v in range(problem.vertex_count) if v not in assignments)
    index_of = {v: i for i, v in enumerate(free)}
    nbr, nbr_w = oracle_neighbours(problem)
    h = {}
    for i, v in enumerate(free):
        hv = problem._h_vec[v]
        for b, w in zip(nbr[v].tolist(), nbr_w[v].tolist()):
            if b in assignments:
                hv += w * assignments[b]
        if hv != 0.0:
            h[i] = float(hv)
    J = {(index_of[a], index_of[b]): w for (a, b), w in sorted(problem.J.items())
         if a in index_of and b in index_of}
    return assignments, free, h, J


@st.composite
def persistence_cases(draw):
    """A problem whose coefficients mix magnitudes, so a fold summed in any
    other order shows in the bits, with 2 to 8 runs and a threshold."""
    n = draw(st.integers(1, 10))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    values = st.one_of(coefficients, st.sampled_from([1e16, -1e16, 0.25, -0.5, 3e-3]))
    problem = IsingProblem(n, {v: draw(values) for v in draw(st.sets(st.integers(0, n - 1)))},
                           {e: draw(values) for e in edges})
    spins = np.array(draw(st.lists(spin_rows(n), min_size=2, max_size=8)), dtype=np.int8)
    return problem, spins, draw(st.sampled_from([0.51, 0.75, 1.0]))


@derandomized
@given(persistence_cases())
def test_persistence_fix_matches_per_vertex_fold(case):
    """The edge-array fold gives the frozen spins, free vertices, field
    bits and couplings of the per-vertex fold, and an offset that, with
    the reduced energy, is the full energy of every assembled run."""
    problem, spins, threshold = case
    fa = persistence_fix(problem, RunSet.from_matrix(
        spins, problem.evaluate_many(spins), "x", Provenance("manual", {}, 0)), threshold)
    assignments, free, h, J = per_vertex_persistence_fix(problem, spins, threshold)
    assert fa.assignments == assignments and fa.free_vertices == free
    reduced = fa.reduced_problem
    assert reduced.vertex_count == len(free)
    assert list(reduced.h) == list(h) and same_bits(list(reduced.h.values()), list(h.values()))
    assert reduced.J == J
    scale = 1.0 + sum(map(abs, problem.h.values())) + sum(map(abs, problem.J.values()))
    for run in spins:
        full = problem.evaluate(fa.assemble(run[list(free)]))
        assert reduced.evaluate(run[list(free)]) + fa.offset == \
            pytest.approx(full, abs=ENERGY_ATOL * scale)


# -- the CLI on arbitrary values ------------------------------------------

# A valid experiment config with all six methods, small enough to run in a
# few hundredths of a second.
CLI_CONFIG = {
    "topology": {"kind": "path", "n": 5}, "problem_count": 2, "gen_seed": 3,
    "run_counts": [4], "modes": ["raw", "sampling"], "methods": list(METHODS),
    "master_seed": 5, "sa_sweeps": 4, "gibbs_burn_in": 4, "gibbs_thinning": 1,
}
# Config fields and flags whose integers count work. A huge integer there
# asks for that much work, so the tests give them huge numbers as floats.
WORK_COUNTS = {"problem_count", "run_counts", "sa_sweeps", "gibbs_burn_in", "gibbs_thinning",
               "persistence_rounds", "--count", "--runs", "--sweeps", "--burn-in", "--thinning",
               "--n", "--rows", "--cols", "--shore"}
GEN_FLAGS = ("--topology", "--rows", "--cols", "--shore", "--n", "--count", "--seed",
             "--h-range", "--j-range")
SAMPLE_FLAGS = ("--mode", "--runs", "--seed", "--sweeps", "--beta-start", "--beta-end",
                "--interpolation", "--beta", "--burn-in", "--thinning")

json_numbers = st.one_of(
    st.integers(-2**70, 2**70), st.floats(),
    st.sampled_from([2**1100, -2**1100, 1e308, -1e308, 5e-324, -5e-324, 0, 1, -1]))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=4), json_numbers),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=5)


def tamed(name, value):
    """``value``, with each integer above 8 made a float where ``name``
    counts work, and one above the largest float the largest power of two."""
    if name not in WORK_COUNTS:
        return value
    def tame(v):
        if isinstance(v, int) and not isinstance(v, bool) and v > 8:
            return float(min(v, 2**1023))
        return v
    return [tame(v) for v in value] if isinstance(value, list) else tame(value)


def run_cli(argv, out):
    """Exit code of ``isingpp argv``; fails on anything but success or
    exit 2 with one ``error:`` line and nothing at ``out``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects a flag's value
            code = e.code
    if code != 0:
        assert code == 2, err.getvalue()
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, err.getvalue()
        assert not os.path.exists(out)
    return code


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.sampled_from(sorted(CLI_CONFIG) + ["width_cap", "persistence_threshold",
                                             "hpe_scales", "hpe_levels", "h_range",
                                             "sa_beta_end", "gibbs_beta"]),
       json_values)
def test_cli_experiment_takes_any_value_of_a_field(name, value):
    """One field of a valid config replaced with any JSON value: the
    experiment runs, or it exits 2 with one error line and no output."""
    value = tamed(name, value)
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w", encoding="utf-8") as f:
            json.dump({**CLI_CONFIG, name: value}, f)
        out = os.path.join(tmp, "exp")
        if run_cli(["experiment", "--config", config, "--out", out], out) == 0:
            assert os.path.exists(os.path.join(out, "report.txt"))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.sampled_from(("gen", "sample")), st.data())
def test_cli_gen_and_sample_take_any_flag_value(command, data):
    """One ``gen`` or ``sample`` flag given any JSON value or a non-finite
    number as its text: the command writes its output, or it exits 2 with
    one error line and writes nothing."""
    flag = data.draw(st.sampled_from(GEN_FLAGS if command == "gen" else SAMPLE_FLAGS))
    value = tamed(flag, data.draw(json_values))
    text = data.draw(st.sampled_from([json.dumps(value), "inf", "-inf", "nan", "1e400"]))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        if command == "gen":
            argv = ["gen", "--topology", "path", "--n", "5", "--count", "2", "--out", out]
        else:
            problems = os.path.join(tmp, "problems")
            assert run_cli(["gen", "--topology", "path", "--n", "5", "--count", "1",
                            "--out", problems], problems) == 0
            mode = data.draw(st.sampled_from(["raw", "sampling", "random"]))
            argv = ["sample", "--problem", os.path.join(problems, "problem_0000.json"),
                    "--mode", mode, "--runs", "3", "--sweeps", "4", "--burn-in", "4",
                    "--out", out]
        # --h-range and --j-range take two numbers; the value replaces the upper.
        argv += [flag, "-1", text] if flag.endswith("-range") else [flag, text]
        if run_cli(argv, out) == 0:
            assert os.path.exists(out)
