"""Property-based checks of invariants on random small inputs.

Runs are derandomized with a fixed example count, so the suite stays
deterministic.
"""

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
    IsingProblem,
    PairingStrategy,
    Provenance,
    RunSet,
    SpinConfiguration,
    Subgraph,
    disagreement_tunnels,
    load_runset,
    mqc_pair,
    optimize_subgraph,
    save_runset,
)
from isingpp.altpp import _eliminate
from isingpp.mqc import _merge_pair, _pair_indices

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
    _, sizes, contributions, _ = _merge_pair(problem, run1, run2)
    tunnels = disagreement_tunnels(problem, run1, run2)
    assert list(sizes) == [len(t) for t in tunnels]
    for tunnel, (c1, c2) in zip(tunnels, contributions):
        assert c2 == -c1
        moved = run1.spins.copy()
        moved[list(tunnel.vertices)] = run2.spins[list(tunnel.vertices)]
        assert abs(problem.evaluate(moved) - run1.energy - (c2 - c1)) <= ENERGY_ATOL


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


@derandomized
@given(runs_files())
def test_runs_file_round_trip(case):
    """Spins and the bits of every stored energy survive save and load,
    also through the energy re-check when the energies are fresh."""
    problem, runset = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "runs.json")
        save_runset(runset, path)
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
    configs = [problem.configuration(row) for row in spins]
    assert _pair_indices(configs, PairingStrategy.MAX_DIFFERENCE) == \
        lexsort_max_difference(spins)
