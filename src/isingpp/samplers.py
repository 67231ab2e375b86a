"""Seeded sample generators standing in for an annealer.

Every sampler returns its (runs, n) spin matrix as a RunSet, energies from
one ``evaluate_many`` call, whose provenance records the sampler name, its
parameters, and the seed, so a runs file can be regenerated exactly.
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

DEFAULT_BURN_IN = 1000
DEFAULT_THINNING = 10


@dataclass(frozen=True, slots=True)
class BetaSchedule:
    """Inverse-temperature ramp for annealing, one value per sweep."""

    start: float
    end: float
    interpolation: str = "geometric"

    def __post_init__(self):
        if not (0 < self.start <= self.end):
            raise ParameterError(
                f"need 0 < start <= end, got start={self.start}, end={self.end}"
            )
        if self.interpolation not in ("geometric", "linear"):
            raise ParameterError(f"unknown interpolation {self.interpolation!r}")

    def betas(self, sweeps: int) -> np.ndarray:
        if self.interpolation == "geometric":
            return np.geomspace(self.start, self.end, sweeps)
        return np.linspace(self.start, self.end, sweeps)


@dataclass(frozen=True, slots=True)
class SamplerParams:
    """Knobs shared by the stochastic samplers.

    ``beta_schedule`` drives simulated annealing; ``fixed_beta`` plus
    ``burn_in``/``thinning`` drive the Gibbs chain.
    """

    num_runs: int
    seed: int
    sweeps: int = 100
    beta_schedule: BetaSchedule = field(default_factory=lambda: BetaSchedule(0.1, 5.0))
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


def simulated_anneal(problem: IsingProblem, params: SamplerParams,
                     problem_id=None) -> RunSet:
    """Metropolis single-spin-flip annealing.

    Run i draws from child stream i of the seed: first n integers for the
    initial state, then n uniforms per sweep. Within a sweep vertices are
    visited in index order; flipping spin a changes the energy by
    dE = -2 s[a] (h[a] + sum_b J[a,b] s[b]) at O(degree) cost, and the
    flip is accepted with probability min(1, exp(-beta dE)). All runs
    advance together, one vertex at a time, which keeps per-run streams
    intact while letting the arithmetic vectorize across runs.
    """
    n = problem.vertex_count
    if n == 0:
        raise InputError("cannot sample a problem with no vertices")
    gens = [make_generator(s) for s in child_sequences(params.seed, params.num_runs)]
    spins = np.empty((params.num_runs, n), dtype=SPIN_DTYPE)
    for i, g in enumerate(gens):
        spins[i] = g.integers(0, 2, n).astype(SPIN_DTYPE) * 2 - 1

    betas = params.beta_schedule.betas(params.sweeps)
    uniforms = np.empty((params.num_runs, n), dtype=np.float64)
    h_vec = problem._h_vec
    nbr, nbr_w = problem._nbr, problem._nbr_w

    for t in range(params.sweeps):
        beta = betas[t]
        for i, g in enumerate(gens):
            uniforms[i] = g.random(n)
        for a in range(n):
            field = h_vec[a]
            if nbr[a].size:
                field = field + spins[:, nbr[a]].astype(np.float64) @ nbr_w[a]
            delta = -2.0 * spins[:, a] * field
            accept = uniforms[:, a] < np.exp(-beta * np.maximum(delta, 0.0))
            spins[accept, a] *= -1

    return _wrap_runs(problem, spins, "simulated_anneal", params.to_dict(),
                      params.seed, problem_id)


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
