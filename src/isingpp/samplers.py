"""Seeded sample generators standing in for an annealer.

Every sampler returns its (runs, n) spin matrix as a RunSet whose
provenance records the sampler name, its parameters, and the seed, so a
runs file can be regenerated exactly. Energies come from one call of
``IsingProblem.evaluate_many``, the package's one energy kernel.
Per-run randomness comes from per-run child streams of the master seed
(see rng.child_sequences), which makes the output independent of how runs
are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import SPIN_DTYPE, IsingProblem, SpinConfiguration
from .errors import InputError, ParameterError, SizeError
from .rng import child_sequences, make_generator

EXACT_VERTEX_CAP = 25
_RUN_BLOCK = 256

DEFAULT_SWEEPS = 100
DEFAULT_BETA_START = 0.1
DEFAULT_BETA_END = 5.0
DEFAULT_BURN_IN = 1000
DEFAULT_THINNING = 10
# The beta spacing of each annealing interpolation.
INTERPOLATIONS = {"geometric": np.geomspace, "linear": np.linspace}
DEFAULT_INTERPOLATION = "geometric"


@dataclass(frozen=True, slots=True)
class BetaSchedule:
    """Inverse-temperature ramp for annealing, one value per sweep."""

    start: float
    end: float
    interpolation: str = DEFAULT_INTERPOLATION

    def __post_init__(self):
        if not (0 < self.start <= self.end):
            raise ParameterError(
                f"need 0 < start <= end, got start={self.start}, end={self.end}"
            )
        if self.interpolation not in INTERPOLATIONS:
            raise ParameterError(f"unknown interpolation {self.interpolation!r}")

    def betas(self, sweeps: int) -> np.ndarray:
        return INTERPOLATIONS[self.interpolation](self.start, self.end, sweeps)


@dataclass(frozen=True, slots=True)
class SamplerParams:
    """Knobs shared by the stochastic samplers.

    ``beta_schedule`` drives simulated annealing; ``fixed_beta`` plus
    ``burn_in``/``thinning`` drive the Gibbs chain.
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
        if self.sweeps < 1:
            raise ParameterError(f"sweeps must be positive, got {self.sweeps}")
        if self.fixed_beta is not None and self.fixed_beta <= 0:
            raise ParameterError(f"fixed_beta must be positive, got {self.fixed_beta}")
        if self.burn_in < 0:
            raise ParameterError(f"burn_in must be non-negative, got {self.burn_in}")
        if self.thinning < 1:
            raise ParameterError(f"thinning must be positive, got {self.thinning}")

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
        spins = np.array(spins, dtype=SPIN_DTYPE)
        energies = np.array(energies, dtype=np.float64)
        if spins.ndim != 2 or not len(spins) or energies.shape != spins.shape[:1]:
            raise InputError(f"a RunSet needs m >= 1 runs as an (m, n) spin matrix and m "
                             f"energies, got shapes {spins.shape} and {energies.shape}")
        bad = spins[(spins != 1) & (spins != -1)]
        if bad.size:
            raise ValueError(f"spins must be -1 or +1, found {np.unique(bad).tolist()}")
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
    return RunSet.from_matrix(
        spins_matrix, problem.evaluate_many(spins_matrix),
        problem_id if problem_id is not None else problem.content_hash(),
        Provenance(sampler=name, params=params_dict, seed=seed),
    )


def _sweep_levels(problem: IsingProblem):
    """Dependency levels of an index-order sweep, with neighbour tables.

    A vertex's level is 1 + the largest level among its lower-indexed
    neighbours, or 0 if it has none, so no edge joins two vertices of one
    level. Returns one ``(V, P, W, h)`` per level: its vertices ``V`` in
    ascending order; column j of ``P`` and ``W`` holds the neighbours of
    ``V[j]``, in ``_nbr`` order, and their couplings, padded with vertex 0
    and weight 0.0; ``h`` holds the linear coefficients of ``V`` as a
    column.
    """
    nbr = [a.tolist() for a in problem._nbr]
    groups = []
    level = []
    for a in range(problem.vertex_count):
        level.append(1 + max((level[b] for b in nbr[a] if b < a), default=-1))
        if level[a] == len(groups):
            groups.append([])
        groups[level[a]].append(a)
    levels = []
    for V in groups:
        width = max(1, max(len(nbr[v]) for v in V))
        P = np.zeros((width, len(V)), dtype=np.intp)
        W = np.zeros((width, len(V), 1), dtype=np.float64)
        for j, v in enumerate(V):
            P[:len(nbr[v]), j] = nbr[v]
            W[:len(nbr[v]), j, 0] = problem._nbr_w[v]
        levels.append((np.array(V), P, W, problem._h_vec[V, None]))
    return levels


def simulated_anneal(problem: IsingProblem, params: SamplerParams,
                     problem_id=None) -> RunSet:
    """Metropolis single-spin-flip annealing.

    Run i draws from child stream i of the seed: first n integers for the
    initial state, then n uniforms per sweep. Within a sweep vertices are
    visited in index order; flipping spin a changes the energy by
    dE = -2 s[a] (h[a] + sum_b J[a,b] s[b]) at O(degree) cost, the sum
    taken left to right over a's neighbours in ascending order, and the
    flip is accepted with probability min(1, exp(-beta dE)), uniform a of
    the sweep deciding.

    Up to ``_RUN_BLOCK`` runs advance together, one dependency level of
    vertices at a time (see ``_sweep_levels``). Vertices of one level
    share no edge, and each reads this sweep's spins of its lower-indexed
    neighbours and last sweep's spins of its higher-indexed ones, so
    updating a whole level at once gives exactly the index-order sweep.
    A level costs about twenty numpy calls, whatever its size and width,
    so paths and complete graphs, one vertex a level, pay that per vertex.
    """
    n = problem.vertex_count
    if n == 0:
        raise InputError("cannot sample a problem with no vertices")
    levels = _sweep_levels(problem)
    betas = params.beta_schedule.betas(params.sweeps)
    gens = [make_generator(s) for s in child_sequences(params.seed, params.num_runs)]
    spins = np.empty((params.num_runs, n), dtype=SPIN_DTYPE)
    # Runs are independent chains; annealing them in blocks bounds the
    # per-level temporaries to _RUN_BLOCK columns.
    for lo in range(0, params.num_runs, _RUN_BLOCK):
        spins[lo:lo + _RUN_BLOCK] = _anneal_block(levels, betas, gens[lo:lo + _RUN_BLOCK], n)
    return _wrap_runs(problem, spins, "simulated_anneal", params.to_dict(),
                      params.seed, problem_id)


def _anneal_block(levels, betas, gens, n):
    """(runs, n) spins of one simulated_anneal chain per generator."""
    runs = len(gens)
    # Row a of state is vertex a, column i run i. The last column holds
    # zero spins, which no flip changes; it keeps every row of a level's
    # terms at two or more entries, and add.reduce over axis 0 sums such
    # rows one after another, in the order of the sweep's neighbour sum.
    state = np.zeros((n, runs + 1), dtype=SPIN_DTYPE)
    for i, g in enumerate(gens):
        state[:, i] = g.integers(0, 2, n).astype(SPIN_DTYPE) * 2 - 1
    uniforms = np.ones((runs + 1, n), dtype=np.float64)
    # At a huge beta, beta * dE may overflow to inf; exp(-inf) = 0 is then
    # the right acceptance, so the overflow is not reported.
    with np.errstate(over="ignore"):
        for beta in betas:
            for i, g in enumerate(gens):
                g.random(n, out=uniforms[i])
            for V, P, W, h in levels:
                # terms[k, j] holds coupling k of vertex V[j] times its
                # neighbour's spin. In place, x becomes the field, dE,
                # -beta * max(dE, 0) and then the acceptance probability.
                terms = state[P].astype(np.float64)
                terms *= W
                x = np.add.reduce(terms, axis=0)
                x += h
                s = state[V]
                x *= -2.0 * s
                np.maximum(x, 0.0, out=x)
                x *= -beta
                accept = uniforms.T[V] < np.exp(x, out=x)
                state[V] = s * (1 - 2 * accept.view(np.int8))  # flip where accepted
    return state[:, :runs].T


def gibbs_sample(problem: IsingProblem, params: SamplerParams,
                 problem_id=None) -> RunSet:
    """States of a single-site Gibbs chain at fixed inverse temperature.

    The chain targets P(s) proportional to exp(-beta F(s)). One chain is
    seeded from the master seed, run for ``burn_in`` full sweeps, and then
    sampled every ``thinning`` sweeps until ``num_runs`` states have been
    collected. Site a is redrawn from its exact conditional,
    P(s[a] = +1 | rest) = 1 / (1 + exp(2 beta f_a)) with
    f_a = h[a] + sum_b J[a,b] s[b].
    """
    if params.fixed_beta is None:
        raise ParameterError("gibbs_sample requires fixed_beta")
    n = problem.vertex_count
    if n == 0:
        raise InputError("cannot sample a problem with no vertices")
    beta = params.fixed_beta
    rng = make_generator(params.seed)
    state = (rng.integers(0, 2, n) * 2 - 1).tolist()

    h_list = problem._h_vec.tolist()
    adj = [
        list(zip(problem._nbr[a].tolist(), problem._nbr_w[a].tolist()))
        for a in range(n)
    ]

    samples = np.empty((params.num_runs, n), dtype=SPIN_DTYPE)
    collected = 0
    total_sweeps = params.burn_in + params.num_runs * params.thinning
    exp = math.exp
    for sweep in range(total_sweeps):
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
                p_up = 1.0 / (1.0 + exp(x))
            state[a] = 1 if u[a] < p_up else -1
        done = sweep + 1 - params.burn_in
        if done > 0 and done % params.thinning == 0:
            samples[collected] = state
            collected += 1

    return _wrap_runs(problem, samples, "gibbs_sample", params.to_dict(),
                      params.seed, problem_id)


def random_runs(problem: IsingProblem, count: int, seed: int,
                problem_id=None) -> RunSet:
    """Uniformly random spin vectors; run i uses child stream i."""
    if count < 1:
        raise ParameterError(f"count must be positive, got {count}")
    n = problem.vertex_count
    if n == 0:
        raise InputError("cannot sample a problem with no vertices")
    spins = np.empty((count, n), dtype=SPIN_DTYPE)
    for i, s in enumerate(child_sequences(seed, count)):
        g = make_generator(s)
        spins[i] = g.integers(0, 2, n).astype(SPIN_DTYPE) * 2 - 1
    return _wrap_runs(problem, spins, "random_runs",
                      {"count": count, "seed": seed}, seed, problem_id)


def exact_ground_state(problem: IsingProblem, chunk_bits: int = 14) -> SpinConfiguration:
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
    if n == 0:
        return SpinConfiguration(np.empty(0, dtype=SPIN_DTYPE), 0.0)

    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    best_energy = math.inf
    best_spins = None
    chunk = 1 << min(chunk_bits, n)
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
