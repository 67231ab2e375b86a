"""Seeded sample generators standing in for an annealer.

Every sampler returns its (runs, n) spin matrix as a RunSet whose
provenance records the sampler name, its parameters, and the seed, so a
runs file can be regenerated exactly. Energies come from one call of
``IsingProblem.evaluate_many``, the package's one energy kernel.
Per-run randomness comes from per-run child streams of the master seed
(see rng.child_generators), which makes the output independent of how runs
are scheduled.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from itertools import chain, islice

import numpy as np

from .core import SPIN_DTYPE, IsingProblem, SpinConfiguration, check_spins
from .errors import InputError, ParameterError, SizeError
from .rng import check_child_count, child_generators, make_generator

EXACT_VERTEX_CAP = 25
# exact_ground_state evaluates up to 2 ** _EXACT_CHUNK_BITS states a call.
_EXACT_CHUNK_BITS = 14
_RUN_BLOCK = 256
# A chain draws the uniforms of up to _SWEEP_CHUNK sweeps per
# Generator.random call, into a buffer of at most _UNIFORM_BUFFER doubles
# (1 MB: a full 256-run block of 128 vertices draws 4 sweeps a call).
_SWEEP_CHUNK = 16
_UNIFORM_BUFFER = 1 << 17
# The level kernels read local values from per-site tables, indexed by
# the neighbours' spin pattern, for sites of at most this many neighbours.
_TABLE_DEGREE = 6
# A table reader of at most this many (site, column) entries packs each
# entry's index bits into one uint64 (see _table_reader).
_PACKED_ENTRIES = 128
# Byte k of a uint64 times this lands at bit 56 + k, with no carries.
_PACK = np.array(0x0102040810204080, dtype=np.uint64)
# The spin of each state bit of the level kernels, as a float and as a spin.
_SIGNS = np.array([-1.0, 1.0])
_SPINS = np.array([-1, 1], dtype=SPIN_DTYPE)

DEFAULT_SWEEPS = 100
DEFAULT_BETA_START = 0.1
DEFAULT_BETA_END = 5.0
DEFAULT_BURN_IN = 1000
DEFAULT_THINNING = 10
# The beta spacing of each annealing interpolation.
INTERPOLATIONS = {"geometric": np.geomspace, "linear": np.linspace}
DEFAULT_INTERPOLATION = "geometric"
# The largest fixed_beta: Gibbs sampling multiplies fields by 2 beta. Were
# it inf, a zero field would give inf * 0 = nan, and the spin -1 always.
MAX_FIXED_BETA = sys.float_info.max / 2


@dataclass(frozen=True, slots=True)
class BetaSchedule:
    """Inverse-temperature ramp for annealing, one finite positive value
    per sweep."""

    start: float
    end: float
    interpolation: str = DEFAULT_INTERPOLATION

    def __post_init__(self):
        if not (0 < self.start <= self.end <= sys.float_info.max):
            raise ParameterError(f"need 0 < start <= end, both finite, "
                                 f"got start={self.start}, end={self.end}")
        if self.interpolation not in INTERPOLATIONS:
            raise ParameterError(f"unknown interpolation {self.interpolation!r}")
        # numpy holds an int beyond 64 bits as an object, which the
        # interpolations cannot take.
        for name in ("start", "end"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def betas(self, sweeps: int) -> np.ndarray:
        return INTERPOLATIONS[self.interpolation](self.start, self.end, sweeps)


@dataclass(frozen=True, slots=True)
class SamplerParams:
    """Knobs shared by the stochastic samplers.

    ``beta_schedule`` drives simulated annealing; ``fixed_beta``, in (0,
    ``MAX_FIXED_BETA``], plus ``burn_in``/``thinning`` drive the Gibbs chain.
    """

    num_runs: int
    seed: int
    sweeps: int = DEFAULT_SWEEPS
    beta_schedule: BetaSchedule = field(
        default_factory=lambda: BetaSchedule(DEFAULT_BETA_START, DEFAULT_BETA_END))
    fixed_beta: float | None = None
    burn_in: int = DEFAULT_BURN_IN
    thinning: int = DEFAULT_THINNING

    def __post_init__(self):
        if self.num_runs < 1:
            raise ParameterError(f"num_runs must be positive, got {self.num_runs}")
        check_child_count(self.num_runs)
        if self.sweeps < 1:
            raise ParameterError(f"sweeps must be positive, got {self.sweeps}")
        if self.fixed_beta is not None and not 0 < self.fixed_beta <= MAX_FIXED_BETA:
            raise ParameterError(
                f"fixed_beta must lie in (0, {MAX_FIXED_BETA!r}], got {self.fixed_beta}")
        if self.burn_in < 0:
            raise ParameterError(f"burn_in must be non-negative, got {self.burn_in}")
        if self.thinning < 1:
            raise ParameterError(f"thinning must be positive, got {self.thinning}")
        # A Gibbs chain's sweep count is an int64 in its kernels.
        if self.burn_in + self.num_runs * self.thinning > 2**63 - 1:
            raise ParameterError(f"burn_in + num_runs * thinning must be at most 2**63 - 1, got "
                                 f"{self.burn_in} + {self.num_runs} * {self.thinning}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["beta_schedule"] = asdict(self.beta_schedule)
        return d


@dataclass(frozen=True, slots=True)
class Provenance:
    sampler: str
    params: dict
    seed: int


class RunSet:
    """Runs from one sampler invocation against one problem: a read-only
    (m, n) int8 matrix ``spins``, row i run i, and their m cached energies,
    checked once (m >= 1, every spin -1 or +1). ``RunSet(runs, ...)``
    stacks SpinConfigurations; ``from_matrix`` takes the matrix itself.
    Indexing, iteration and ``best()`` yield SpinConfigurations.
    """

    __slots__ = ("spins", "_energies", "problem_id", "provenance")

    def __init__(self, runs, problem_id, provenance):
        runs = tuple(runs)
        for i, r in enumerate(runs):
            if len(r) != len(runs[0]):
                raise InputError(f"run {i} has length {len(r)}, expected {len(runs[0])}")
        self._set(np.array([r.spins for r in runs], dtype=SPIN_DTYPE),
                  [r.energy for r in runs], problem_id, provenance)

    @classmethod
    def from_matrix(cls, spins, energies, problem_id, provenance) -> "RunSet":
        runset = cls.__new__(cls)
        runset._set(spins, energies, problem_id, provenance)
        return runset

    def _set(self, spins, energies, problem_id, provenance):
        spins = np.asarray(spins)
        energies = np.array(energies, dtype=np.float64)
        if spins.ndim != 2 or not len(spins) or energies.shape != spins.shape[:1]:
            raise InputError(f"a RunSet needs m >= 1 runs as an (m, n) spin matrix and m "
                             f"energies, got shapes {spins.shape} and {energies.shape}")
        check_spins(spins)  # as given: a cast first would read 1.7 or 257 as a spin
        # A read-only int8 matrix, as a sampler's fresh one or a view of
        # another run set, is kept as it is; any other is copied.
        if spins.dtype != SPIN_DTYPE or spins.flags.writeable:
            spins = spins.astype(SPIN_DTYPE)
            spins.setflags(write=False)
        energies.setflags(write=False)
        for name, value in zip(self.__slots__, (spins, energies, problem_id, provenance)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"RunSet is read-only; cannot set {name!r}")

    def __len__(self):
        return len(self.spins)

    def __iter__(self):
        return map(SpinConfiguration, self.spins, self._energies.tolist())

    def __getitem__(self, i):
        return SpinConfiguration(self.spins[i], self._energies[i])

    @property
    def runs(self) -> tuple:
        return tuple(self)

    def energies(self) -> np.ndarray:
        return self._energies

    def best(self) -> SpinConfiguration:
        return self[int(np.argmin(self._energies))]

    def spins_matrix(self) -> np.ndarray:
        return self.spins


def _wrap_runs(problem, spins_matrix, name, params_dict, seed, problem_id=None):
    spins_matrix.setflags(write=False)  # the run set then takes it without a copy
    return RunSet.from_matrix(
        spins_matrix, problem.evaluate_many(spins_matrix),
        problem_id if problem_id is not None else problem.content_hash(),
        Provenance(sampler=name, params=params_dict, seed=seed),
    )


def _level_tables(problems, columns=0):
    """The steps of an index-order sweep over the one nonempty graph that
    ``problems`` share, with their neighbour tables.

    Vertex a does sweep t in step phi(a) mod D of super-sweep t + lag(a),
    lag(a) = phi(a) // D, where 1 <= phi(b) - phi(a) <= D - 1 on every edge
    a < b (Lamport's hyperplane method): a then reads sweep t of its
    lower-indexed neighbours and sweep t - 1 of its higher-indexed ones,
    as the sweep does, and no edge joins two vertices of one step. Where
    a phi exists that climbs by exactly 1 along every edge, it is taken,
    0 at each connected component's minimum, with D = 2 (1 without
    edges); D then grows until max lag + 1 sweeps of uniforms of
    ``columns`` chains fit ``_UNIFORM_BUFFER`` (see ``_sweep_uniforms``).
    Else, as on a triangle, and always at ``columns=0``, the annealer's
    case, and wherever D reaches the level count, phi is the level, 1 +
    the largest level among the lower-indexed neighbours or 0 if there
    are none, and D the level count, so every lag is 0: the steps are
    the levels, and no graph takes more steps than levels.

    The kernels keep one state row per vertex, sorted by (step, lag,
    vertex), so a step's rows are one slice, plus row n, which holds a
    constant +1 spin. Returns the vertex of each row, ``order``, one
    ``(rows, P, W)`` per nonempty step, in step order, and the lag of
    each row. Column j of ``P`` holds the state rows that the local field
    of row ``rows.start + j`` sums: row n first, for h, then the vertex's
    neighbours in adjacency order, padded with row n. ``W[:, j, k]``
    holds problem k's coefficients of those rows, 0.0 in the pads.
    """
    first = problems[0]
    if first.vertex_count == 0:
        raise InputError("cannot sample a problem with no vertices")
    for problem in problems[1:]:
        if not (problem.vertex_count == first.vertex_count
                and np.array_equal(problem._edge_a, first._edge_a)
                and np.array_equal(problem._edge_b, first._edge_b)):
            raise InputError(f"jobs sampled in one call must share one graph, got "
                             f"{first!r} and {problem!r}")
    n = first.vertex_count
    # Row i of coefs holds each problem's h of vertex i, row n + k entry k
    # of the adjacency, and the last row the pad.
    coefs = np.stack([np.concatenate([p._h_vec, p._adj_w, [0.0]]) for p in problems], axis=1)
    adj, start = first._adj.tolist(), first._adj_start.tolist()
    level, phi = [], [None] * n if columns else []
    for a in range(n):
        level.append(1 + max((level[b] for b in adj[start[a]:start[a + 1]] if b < a), default=-1))
        if columns and phi[a] is None:
            # Breadth first over a's component; the edges check phi below.
            phi[a], component = 0, [a]
            for v in component:
                for b in adj[start[v]:start[v + 1]]:
                    if phi[b] is None:
                        phi[b] = phi[v] + (1 if b > v else -1)
                        component.append(b)
            low = min(phi[v] for v in component)
            for v in component:
                phi[v] -= low
    level, phi = np.array(level), np.array(phi)
    ea, eb = first._edge_a, first._edge_b
    D = int(level.max()) + 1
    if columns and (phi[eb] - phi[ea] == 1).all():
        max_lag = max(0, _UNIFORM_BUFFER // (n * columns) - 1)
        D = max(2 if len(ea) else 1, int(phi.max()) // (max_lag + 1) + 1)
    if D > level.max():
        phi, D = level, int(level.max()) + 1
    order = np.lexsort((phi // D, phi % D))
    row = np.empty(n, dtype=np.intp)
    row[order] = np.arange(n)
    levels = []
    for V in np.split(order, np.flatnonzero(np.diff(phi[order] % D)) + 1):
        V = V.tolist()
        width = max(start[v + 1] - start[v] for v in V)
        P = np.full((width + 1, len(V)), n, dtype=np.intp)
        Q = np.full((width + 1, len(V)), n + start[-1], dtype=np.intp)
        Q[0] = V
        for j, v in enumerate(V):
            lo, hi = start[v], start[v + 1]
            P[1:1 + hi - lo, j] = row[adj[lo:hi]]
            Q[1:1 + hi - lo, j] = np.arange(n + lo, n + hi)
        levels.append((slice(int(row[V[0]]), int(row[V[0]]) + len(V)), P, coefs[Q]))
    return order, levels, (phi // D)[order]


def _initial_state(gens, order):
    """The level kernels' state: row r is vertex ``order[r]``, column i
    the chain of ``gens[i]``, as bits (1 for spin +1); row n holds the
    constant +1 of h and of the pad rows.

    A chain's n bits are read from ceil(n / 2) raw outputs, bit 31 and
    then bit 63 of each: exactly ``Generator.integers(0, 2, n)``, which at
    range 2 takes the top bit of each 32-bit draw (Lemire's method), and
    PCG64 serves 32-bit draws low half first. The doubles drawn after
    them are the same too, as a double takes a whole output."""
    n = len(order)
    raw = np.array([g.bit_generator.random_raw((n + 1) // 2) for g in gens], dtype="<u8")
    # Bits 31 and 63 are the top bits of bytes 3 and 7 of a little-endian output.
    bits = raw.view(np.uint8)[:, 3::4] >> 7
    state = np.ones((n + 1, len(gens)), dtype=np.uint8)
    state[:n] = bits[:, order].T
    return state


def _sweep_uniforms(gens, sweeps, order, lag):
    """Each super-sweep's uniforms, in one (n, columns) array that every
    super-sweep overwrites: row r for vertex ``order[r]`` holds the uniform
    of its sweep T - ``lag[r]`` in super-sweep T, column i drawn from
    ``gens[i]`` for its first ``sweeps[i]`` sweeps, stale outside them. A
    generator draws ``chunk`` sweeps a call; PCG64 gives k sweeps at once
    exactly as k draws of one sweep. With lags, the uniforms of the last
    max lag + chunk sweeps wait in a ring, as (sweep, vertex, column)."""
    total, n, top = max(sweeps), len(order), int(lag.max())
    chunk = max(1, min(_SWEEP_CHUNK, total, _UNIFORM_BUFFER // (len(gens) * n) - top))
    span = top + chunk
    drawn = np.zeros((len(gens), chunk, n), dtype=np.float64)
    if top:
        # Row t * n + v of ring holds vertex v's uniforms of sweep t mod span.
        ring = np.zeros((span * n, len(gens)), dtype=np.float64)
        index = [(t - lag) % span * n + order for t in range(span)]
    u = np.empty((n, len(gens)), dtype=np.float64)
    for T in range(total + top):
        if T % chunk == 0 and T < total:
            for g, count, out in zip(gens, sweeps, drawn):
                if count >= T + chunk:
                    g.random(out=out)
                elif count > T:
                    g.random(out=out[:count - T])
            if top:
                ring.reshape(span, n, -1)[np.arange(T, T + chunk) % span] = (
                    drawn.transpose(1, 2, 0))
        # take first copies a source that is not C-contiguous, so without
        # lags it reads one sweep's (n, columns) view of drawn, not a ring.
        # Every index is in range, so "clip" only spares take a temporary.
        if top:
            yield ring.take(index[T % span], axis=0, out=u, mode="clip")
        else:
            yield drawn[:, T % chunk].T.take(order, axis=0, out=u, mode="clip")


def simulated_anneal(problem: IsingProblem, params: SamplerParams,
                     problem_id=None) -> RunSet:
    """Metropolis single-spin-flip annealing.

    Run i draws from child stream i of the seed: first n bits for the
    initial state, read from raw outputs as ``Generator.integers(0, 2,
    n)`` draws them (see ``_initial_state``), then n uniforms per sweep.
    Within a sweep vertices are visited in index order; flipping spin a
    changes the energy by dE = -2 s[a] (h[a] + sum_b J[a,b] s[b]) at
    O(degree) cost, the field summed as every field of the package is:
    h first, then b ascending, one term after another. The flip is
    accepted with probability min(1, exp(-beta dE)), uniform a of the
    sweep deciding.

    Blocks of up to ``_RUN_BLOCK`` runs advance together, one dependency
    level of vertices at a time (see ``_level_tables``). Vertices of one
    level share no edge, and each reads this sweep's spins of its lower-indexed
    neighbours and last sweep's spins of its higher-indexed ones, so
    updating a whole level at once gives exactly the index-order sweep.
    A level whose sites have at most ``_TABLE_DEGREE`` neighbours reads
    each spin's max(dE, 0) from a per-site table, indexed by the spins of
    its neighbours and its own (lookup-table Monte Carlo); a wider level
    sums its fields (``_summed_field``). Either costs about ten numpy
    calls a level, whatever its size, so paths and complete graphs, one
    vertex a level, pay that per vertex.
    """
    return simulated_anneal_many([(problem, params, problem_id)])[0]


def simulated_anneal_many(jobs) -> list:
    """``simulated_anneal`` of each ``(problem, params, problem_id)`` job,
    the problems on one graph: one RunSet per job, bit for bit that job's
    own call. Jobs with the same sweeps and beta schedule pool their runs,
    so runs of different problems share a block, each job's runs with its
    own coefficients.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    order, levels, lag = _level_tables([problem for problem, _, _ in jobs])
    pools = {}
    for k, (_, params, _) in enumerate(jobs):
        pools.setdefault((params.sweeps, params.beta_schedule), []).append(k)
    spins = [None] * len(jobs)
    for (sweeps, schedule), ks in pools.items():
        betas = schedule.betas(sweeps)
        counts = [jobs[k][1].num_runs for k in ks]
        total = sum(counts)
        gens = chain.from_iterable(child_generators(jobs[k][1].seed, jobs[k][1].num_runs)
                                   for k in ks)
        column_job = np.repeat(ks, counts)
        # Runs are independent chains; annealing them in blocks bounds the
        # per-level temporaries, and the generators alive, to _RUN_BLOCK
        # columns. The blocks are of equal size, as a smaller block draws
        # more sweeps of uniforms a generator call (see _sweep_uniforms).
        blocks = -(-total // _RUN_BLOCK)
        size = -(-total // blocks)
        pooled = np.empty((total, len(order)), dtype=SPIN_DTYPE)
        block_jobs = tables = None
        for lo in range(0, total, size):
            here, slot = np.unique(column_job[lo:lo + size], return_inverse=True)
            # A block of the previous block's jobs reuses its tables. The
            # old tables go before new ones are built, so only one block's
            # are held at once.
            if tables is None or not np.array_equal(here, block_jobs):
                tables = None
                tables, block_jobs = [_anneal_table(W, here) for _, _, W in levels], here
            pooled[lo:lo + size] = _anneal_block(
                order, levels, tables, lag, column_job[lo:lo + size], slot, betas,
                list(islice(gens, size)))
        for k, block in zip(ks, np.split(pooled, np.cumsum(counts)[:-1])):
            spins[k] = block
    return [_wrap_runs(problem, s, "simulated_anneal", params.to_dict(), params.seed, pid)
            for (problem, params, pid), s in zip(jobs, spins)]


def _anneal_block(order, levels, tables, lag, column_job, slot, betas, gens):
    """(runs, n) spins of one simulated_anneal chain per generator, run i
    with problem ``column_job[i]``'s coefficients of the level tables, at
    slot ``slot[i]`` of each level's ``_anneal_table``. A level step takes
    each spin's max(dE, 0) from ``_anneal_level``, multiplies it by
    -beta, takes exp and flips the spins whose uniform falls below."""
    state = _initial_state(gens, order)
    steps = [(rows, _anneal_level(state, rows, P, W, column_job, table, slot))
             for (rows, P, W), table in zip(levels, tables)]
    uniforms = _sweep_uniforms(gens, [len(betas)] * len(gens), order, lag)
    # At a huge beta, beta * dE may overflow to inf; exp(-inf) = 0 is then
    # the right acceptance, so the overflow is not reported.
    with np.errstate(over="ignore"):
        for beta, u in zip(betas, uniforms):
            for rows, energy in steps:
                # In place, max(dE, 0) becomes the acceptance probability.
                x = energy()
                x *= -beta
                accept = u[rows] < np.exp(x, out=x)
                s = state[rows]
                s ^= accept  # flip where accepted
    spins = np.empty((len(gens), len(order)), dtype=SPIN_DTYPE)
    spins[:, order] = _SPINS[state[:-1].T]
    return spins


def _ordered_sum(terms):
    """terms[0] + terms[1] + ... elementwise, whole rows strictly one after
    another, or 0.0 for no rows, at any number of columns: add.reduce over
    axis 0 would sum rows of one entry pairwise."""
    return np.add.accumulate(terms, axis=0)[-1] if len(terms) else 0.0


def _anneal_level(state, rows, P, W, column_job, table=None, slot=None):
    """A function that gives max(dE, 0) of flipping each spin of level
    ``rows`` in each column of ``state``, column c with problem
    ``column_job[c]``'s coefficients, as a (level size, columns) array.

    dE = -2 s f, the field f summed by ``_summed_field``. A level of at
    most ``_TABLE_DEGREE`` neighbours reads dE from its ``_anneal_table``,
    column c at slot ``slot[c]``. A wider level, given no table, sums its
    field at each step.
    """
    if table is None:
        weights = W[:, :, column_job]

        def summed():
            x = _summed_field(state, P, weights)
            x *= np.where(state[rows], -2.0, 2.0)
            return np.maximum(x, 0.0, out=x)
        return summed
    return _table_reader(state, np.vstack([P[1:], np.arange(rows.start, rows.stop)]),
                         table, slot)


def _anneal_table(W, jobs):
    """The (sites, jobs, patterns) max(dE, 0) table of a level of
    ``_level_tables`` with terms ``W`` under each of problems ``jobs``, or
    None for a level wider than ``_TABLE_DEGREE``. An index's bit k is the
    spin of term k + 1 (pads are +1), its top bit the site's own spin:
    the ``_pattern_fields`` table times 2 where that spin is -1, then
    times -2 where it is +1."""
    if len(W) - 1 > _TABLE_DEGREE:
        return None
    f = _pattern_fields(W[:, :, jobs])
    half = f.shape[-1]
    table = np.empty(f.shape[:-1] + (2 * half,))
    np.multiply(f, 2.0, out=table[..., :half])
    np.multiply(f, -2.0, out=table[..., half:])
    return np.maximum(table, 0.0, out=table)


def _table_reader(state, P, table, slot):
    """A function that reads, for each (site j, column c), entry
    ``table[j, slot[c], i]`` of the (sites, jobs, patterns) ``table``, i
    the pattern of the at most 8 state bits of rows ``P[:, j]`` in column
    c, row ``P[k, j]`` as bit k.

    Up to ``_PACKED_ENTRIES`` (site, column) entries, one gather puts an
    entry's bits in the top ``len(P)`` bytes of a uint64, bit k in byte 8
    - len(P) + k; times ``_PACK`` byte k lands at bit 56 + k, so a shift
    by 64 - len(P) gives i and drops the other bytes, which read row 0.
    Such a reader returns the same array at every read. Beyond that
    bound, i is the ``add.reduce`` of bit k times 2**k. Measured per
    sweep of the default Chimera graph (2 cores, numpy 2.4), packing is
    faster up to 3 Gibbs columns (64 sites a step) and 12 annealing
    columns (16 sites a level), and slower from 6 and 16 columns; on a
    16-vertex path it is even at 16 Gibbs columns and slower from 32; a
    one-column step of 1,024 sites reads as fast either way. The bound
    of 128 entries packs only where packing was faster or even.
    """
    sites, jobs, patterns = table.shape
    base = (np.arange(sites)[:, None] * jobs + slot) * patterns
    table = table.ravel()
    columns = state.shape[1]
    if sites * columns > _PACKED_ENTRIES:
        weights = (1 << np.arange(len(P), dtype=np.uint8))[:, None, None]

        def read():
            index = np.add.reduce(state.take(P, axis=0) * weights, axis=0, dtype=np.uint8)
            return table.take(base + index)
        return read
    # A view of the C-contiguous state: flat[r * columns + c] is row r of
    # column c. The bytes below an entry's bits read row 0.
    flat = state.reshape(-1)
    rows = np.zeros((sites, 8), dtype=np.intp)
    rows[:, 8 - len(P):] = P.T
    gather = rows.reshape(1, -1) * columns + np.arange(columns)[:, None]
    # Each read overwrites the same index and result; every index is in
    # range, so "clip" only spares take a buffered copy.
    packed = np.empty(gather.shape, dtype=np.uint8)
    x = packed.view(np.uint64)
    shift = np.array(64 - len(P), dtype=np.uint64)
    base = base.T.astype(np.uint64)
    out = np.empty(x.shape)

    def read():
        flat.take(gather, out=packed, mode="clip")
        np.multiply(x, _PACK, out=x)
        np.right_shift(x, shift, out=x)
        np.add(x, base, out=x)
        return table.take(x, out=out, mode="clip").T
    return read


def _summed_field(state, P, W):
    """The local field of each site of a step in each column of
    ``state``, from the step's state rows ``P`` and their coefficients
    ``W``: h first, then the neighbours in ascending order, one term
    after another (``_ordered_sum``), pads included."""
    terms = _SIGNS.take(state.take(P, axis=0))
    terms *= W
    return _ordered_sum(terms)


def _pattern_fields(W):
    """f[..., p]: the local field of each site of a step under each spin
    pattern p of its neighbours, from the step's terms ``W``, the one
    table builder of both level kernels. Term 0 is h; the spin of term k
    + 1 is +1 where bit k of p is set, -1 where not. The terms are added
    as ``_summed_field`` adds them, with the same IEEE operations, so
    every entry has that sum's bits."""
    index = np.arange(1 << len(W) - 1)
    f = np.repeat(W[0][..., None], len(index), axis=-1)
    for k, w in enumerate(W[1:]):
        f += w[..., None] * np.where(index >> k & 1, 1.0, -1.0)
    return f


def gibbs_sample(problem: IsingProblem, params: SamplerParams,
                 problem_id=None) -> RunSet:
    """States of a single-site Gibbs chain at fixed inverse temperature.

    The chain targets P(s) proportional to exp(-beta F(s)). One chain is
    seeded from the master seed, run for ``burn_in`` full sweeps, and then
    sampled every ``thinning`` sweeps until ``num_runs`` states have been
    collected. Site a is redrawn from its exact conditional,
    P(s[a] = +1 | rest) = 1 / (1 + exp(2 beta f_a)) with
    f_a = h[a] + sum_b J[a,b] s[b], summed as the annealer sums it: h
    first, then b ascending, one term after another. Since f_a depends
    only on a's neighbours' spins, a site of at most ``_TABLE_DEGREE``
    neighbours looks p_up up in its row of a ``_gibbs_table``, whose
    entries are those of summing f_a at the visit; a wider site sums it
    at each visit (``_summed_field``). Either takes p_up from
    ``_heat_bath``.
    """
    return gibbs_sample_many([(problem, params, problem_id)])[0]


def gibbs_sample_many(jobs) -> list:
    """``gibbs_sample`` of each ``(problem, params, problem_id)`` job, the
    problems on one graph: one RunSet per job. Every call, a lone job's
    included, runs its chains as the columns of one kernel
    (``_gibbs_columns``), which pipelines the sweeps in lagged steps (2 a
    sweep on the default Chimera graph), on the schedule built here. So
    every site reads one p_up rule, and a job gets the same spins alone
    or among other jobs.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    problems, params, _ = zip(*jobs)
    if any(q.fixed_beta is None for q in params):
        raise ParameterError("gibbs_sample requires fixed_beta")
    spins = _gibbs_columns(params, _level_tables(problems, len(problems)))
    return [_wrap_runs(problem, s, "gibbs_sample", q.to_dict(), q.seed, pid)
            for (problem, q, pid), s in zip(jobs, spins)]


def _gibbs_columns(params, schedule):
    """(num_runs, n) states of the Gibbs chain of each of ``params``, on the
    problems of ``schedule``, as columns of one kernel.

    Column c is chain c, with its own coefficients, beta, burn-in,
    thinning and generator. A super-sweep runs the steps of ``schedule``,
    the ``_level_tables`` of the call; a step takes each site's p_up from
    ``_gibbs_level``, read from a ``_gibbs_table`` of each chain where the
    step is narrow, and sets the spins whose uniform falls below. Each
    field is summed h first, then the neighbours left to right, at any
    number of columns, one included. A step's rows are sorted by lag, so
    in super-sweep T < max lag those that have begun, lag <= T, are the
    head of its slice. A chain's state after sweep s is that of lag class
    l after super-sweep s - 1 + l. The state rows of the last max lag + W
    super-sweeps wait in a ring, and every state completed in a window of
    W super-sweeps is written with one gather, W bounded so that the
    gather's index, one entry a spin, fits ``_UNIFORM_BUFFER``. A row runs
    on past its chain's last sweep, and a chain that has drawn all its
    sweeps stops drawing: no sweep reads the spins of a later one, so the
    collected states are the chain's.
    """
    order, levels, lag = schedule
    n, top, columns = len(order), int(lag.max()), len(params)
    beta2 = np.array([2.0 * q.fixed_beta for q in params])
    burn_in, thinning, runs = (np.array([getattr(q, name) for q in params])
                               for name in ("burn_in", "thinning", "num_runs"))
    totals = (burn_in + runs * thinning).tolist()
    gens = [make_generator(q.seed) for q in params]
    state = _initial_state(gens, order)
    # ends[l]: the number of a step's rows of lag at most l.
    steps = [(rows, _gibbs_level(state, P, W, beta2),
              np.searchsorted(lag[rows], np.arange(top + 1), side="right").tolist())
             for rows, P, W in levels]
    # history[T % span] holds the state rows after super-sweep T. A window
    # of super-sweeps completes at most window * columns states of n spins,
    # so its gather index fits _UNIFORM_BUFFER entries, and neither it nor
    # the history grows with the runs or the sweeps.
    last = max(totals) + top
    window = min(max(1, _UNIFORM_BUFFER // (n * columns)), last)
    span = top + window
    history = np.empty((span, n, columns), dtype=np.uint8)
    # Each vertex's lag and its history entry within a super-sweep.
    row = np.empty(n, dtype=np.intp)
    row[order] = np.arange(n)
    vertex_lag, vertex_entry = lag[row], row * columns
    # Chain c's states are rows first[c]: of samples.
    first = np.concatenate([[0], np.cumsum(runs)])
    samples = np.empty((first[-1], n), dtype=SPIN_DTYPE)

    def collect(lo, hi):
        # Writes the states after sweeps lo..hi. Sample k (from 1) of chain
        # c is its state after sweep s = burn_in + k thinning, whose lag
        # class l is in the history of super-sweep s - 1 + l.
        k_lo = np.maximum(-((burn_in - lo) // thinning), 1)
        count = np.maximum(np.minimum((hi - burn_in) // thinning, runs) - k_lo + 1, 0)
        c = np.repeat(np.arange(columns), count)
        k = np.arange(len(c)) - np.repeat(np.cumsum(count) - count - k_lo, count)
        s = burn_in[c] + k * thinning[c]
        slot = ((s - 1)[:, None] + np.arange(top + 1)) % span * (n * columns) + c[:, None]
        index = slot.take(vertex_lag, axis=1)
        index += vertex_entry
        samples[first[c] + k - 1] = _SPINS.take(history.reshape(-1).take(index))

    # exp overflows to inf where x > 709, where the x > 700 guard decides.
    with np.errstate(over="ignore"):
        for T, u in enumerate(_sweep_uniforms(gens, totals, order, lag)):
            for rows, p_up, ends in steps:
                begun = slice(ends[min(T, top)])
                state[rows][begun] = (u[rows] < p_up())[begun]
            history[T % span] = state[:n]
            if (T + 1) % window == 0 or T + 1 == last:
                collect(T + 1 - top - T % window, T + 1 - top)
    return np.split(samples, first[1:-1])


def _gibbs_level(state, P, W, beta2):
    """A function that gives p_up of each site of a level in each column
    of ``state``, as a (level size, columns) array. A level of at most
    ``_TABLE_DEGREE`` neighbours reads it from a ``_gibbs_table`` of each
    chain, built once per call. A wider level sums its field at each step
    with ``_summed_field``, as the table does, and takes ``_heat_bath`` of
    2 beta f.
    """
    if len(P) - 1 > _TABLE_DEGREE:
        def summed():
            x = _summed_field(state, P, W)
            x *= beta2
            return _heat_bath(x)
        return summed
    return _table_reader(state, P[1:], _gibbs_table(W, beta2), np.arange(len(beta2)))


def _gibbs_table(W, beta2):
    """The (sites, chains, patterns) p_up table of sites whose terms ``W``
    are a step's of ``_level_tables``, h first, under each chain's 2 beta
    ``beta2``: the one p_up table of the Gibbs kernel. An index's bit k
    is the spin of term k + 1. Each field is summed as a step sums it
    (``_pattern_fields``), then times 2 beta into ``_heat_bath``."""
    # The sums are finite, as IsingProblem bounds them, but at a large
    # beta, 2 beta f overflows to inf, where the x > 700 guard decides.
    with np.errstate(over="ignore"):
        x = _pattern_fields(W)
        x *= np.reshape(beta2, (-1, 1))
        return _heat_bath(x)


def _heat_bath(x):
    """p_up = 1 / (1 + exp(x)) of each x = 2 beta f. Above x = 700 p_up is
    0.0, so no uniform sets the spin; below x = -700, 1 + exp(x) rounds to
    1.0, so p_up is already 1.0 and every uniform sets it."""
    p_up = np.exp(x)
    p_up += 1.0
    np.divide(1.0, p_up, out=p_up)
    p_up[x > 700.0] = 0.0
    return p_up


_BATCHED = {simulated_anneal: simulated_anneal_many, gibbs_sample: gibbs_sample_many}


def sample_many(sampler, jobs) -> list:
    """``sampler(problem, params, problem_id=problem_id)`` for each
    ``(problem, params, problem_id)`` job, as one batched call when
    ``sampler`` is ``simulated_anneal`` or ``gibbs_sample``; their
    problems must then share one graph."""
    batched = _BATCHED.get(sampler)
    if batched is not None:
        return batched(jobs)
    return [sampler(problem, params, problem_id=pid) for problem, params, pid in jobs]


def random_runs(problem: IsingProblem, count: int, seed: int,
                problem_id=None) -> RunSet:
    """Uniformly random spin vectors: run i is the initial state that
    ``simulated_anneal`` draws from child stream i of ``seed``."""
    if count < 1:
        raise ParameterError(f"count must be positive, got {count}")
    n = problem.vertex_count
    if n == 0:
        raise InputError("cannot sample a problem with no vertices")
    gens = child_generators(seed, count)
    spins = np.empty((count, n), dtype=SPIN_DTYPE)
    # Block by block, so only one block's generators are alive at once.
    for lo in range(0, count, _RUN_BLOCK):
        state = _initial_state(list(islice(gens, _RUN_BLOCK)), np.arange(n))
        spins[lo:lo + _RUN_BLOCK] = _SPINS[state[:n].T]
    return _wrap_runs(problem, spins, "random_runs",
                      {"count": count, "seed": seed}, seed, problem_id)


def exact_ground_state(problem: IsingProblem) -> SpinConfiguration:
    """Minimum-energy configuration by full enumeration.

    Refuses more than EXACT_VERTEX_CAP vertices. States are visited in
    lexicographic spin order (-1 before +1, vertex 0 most significant),
    and the first minimum wins, so ties resolve to the lexicographically
    smallest vector.
    """
    n = problem.vertex_count
    if n > EXACT_VERTEX_CAP:
        raise SizeError(
            f"exact enumeration capped at {EXACT_VERTEX_CAP} vertices, got {n}"
        )
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    best_energy = math.inf
    best_spins = None
    chunk = 1 << min(_EXACT_CHUNK_BITS, n)
    for start in range(0, 1 << n, chunk):
        codes = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint64)
        bits = (codes[:, None] >> shifts[None, :]) & np.uint64(1)
        spins = bits.astype(np.int8) * 2 - 1
        energies = problem.evaluate_many(spins)
        k = int(np.argmin(energies))
        if energies[k] < best_energy:
            best_energy = float(energies[k])
            best_spins = spins[k].copy()
    return SpinConfiguration(best_spins, best_energy)
