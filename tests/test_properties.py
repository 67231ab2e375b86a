"""Property-based checks of invariants on random small inputs.

Runs are derandomized with a fixed example count, so the suite stays
deterministic.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from isingpp import IsingProblem, Subgraph, optimize_subgraph
from isingpp.altpp import _eliminate

from conftest import conditional_min_enum

# Integers give exact ties and zero fields; floats give the general case.
coefficients = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def elimination_cases(draw):
    """A problem of at most 10 vertices, a vertex subset with an arbitrary
    elimination order, and a batch of runs."""
    n = draw(st.integers(1, 10))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    h = {v: draw(coefficients) for v in draw(st.sets(st.integers(0, n - 1)))}
    problem = IsingProblem(n, h, {e: draw(coefficients) for e in edges})
    order = tuple(draw(st.permutations(range(n)))[:draw(st.integers(1, n))])
    # The order's induced width is at most its length less one; the width
    # only sizes elimination blocks.
    sub = Subgraph(order, order, len(order) - 1)
    runs = draw(st.lists(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
                         min_size=1, max_size=8))
    return problem, sub, np.array(runs, dtype=np.int8)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
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
