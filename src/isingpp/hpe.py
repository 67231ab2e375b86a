"""High-precision emulation on a coarse coefficient grid.

Hardware exposes only a few discrete coefficient levels inside fixed
ranges. To recover precision, the problem is multiplied by several scale
factors, each scaled copy is clipped and snapped to the grid, and every
copy is sampled. Scaling up preserves the spin-spin structure
of the large coefficients while pushing fine detail above the grid's
resolution; clipping sacrifices the largest terms instead. Merging runs
across scales with full-precision tunnel arithmetic then combines the
complementary views. Group i, run i of every scale, is row i of one
(runs, scales, n) matrix, and ``mqc``'s level loop reduces all groups at
once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import IsingProblem, SpinConfiguration
from .errors import InputError, ParameterError
from .mqc import PairingStrategy, _reduce_levels, _strategy
from .rng import derive_seed
from .samplers import RunSet, SamplerParams, sample_many, simulated_anneal

DEFAULT_SCALES = (1.0, 2.0, 4.0, 8.0)
DEFAULT_LEVELS = 17


@dataclass(frozen=True, slots=True)
class PrecisionModel:
    """Coefficient ranges and grid resolution of the emulated hardware.

    Each range is discretized into ``levels`` evenly spaced values
    including both endpoints (and, for a symmetric range with odd levels,
    zero). Defaults: h in [-2, 2], J in [-1, 1], 17 levels.
    """

    h_clip: tuple = (-2.0, 2.0)
    j_clip: tuple = (-1.0, 1.0)
    levels: int = DEFAULT_LEVELS

    def __post_init__(self):
        for name in ("h_clip", "j_clip"):
            lo, hi = getattr(self, name)
            if not (lo < hi):
                raise ParameterError(f"{name} must be a nonempty interval, got [{lo}, {hi}]")
            object.__setattr__(self, name, (float(lo), float(hi)))
        if self.levels < 2:
            raise ParameterError(
                f"levels must be at least 2 to include both endpoints, got {self.levels}"
            )
        # A grid index is a float; above 2^53 not every index is one.
        if self.levels > 2**53:
            raise ParameterError(f"levels must be at most 2^53, got {self.levels}")


@dataclass(frozen=True, slots=True)
class ScaleSet:
    """Scale factors to emulate, ascending, plus the per-scale run count."""

    scales: tuple = DEFAULT_SCALES
    runs_per_scale: int = 16

    def __post_init__(self):
        scales = tuple(float(s) for s in self.scales)
        if not scales:
            raise ParameterError("at least one scale is required")
        if any(s <= 0 for s in scales):
            raise ParameterError(f"scales must be positive, got {scales}")
        if list(scales) != sorted(set(scales)):
            raise ParameterError(f"scales must be strictly ascending, got {scales}")
        object.__setattr__(self, "scales", scales)
        if self.runs_per_scale < 1:
            raise ParameterError(
                f"runs_per_scale must be positive, got {self.runs_per_scale}"
            )


def _snap(values, clip, levels):
    """``values`` clipped into ``clip`` and rounded to its ``levels``-point grid."""
    lo, hi = clip
    step = (hi - lo) / (levels - 1)
    return lo + np.rint((np.clip(values, lo, hi) - lo) / step) * step


def _copy(problem: IsingProblem, factor: float, model: PrecisionModel | None = None):
    """``problem`` with every coefficient times ``factor`` (> 0), then, if
    ``model`` is given, snapped to its grid, keeping every h entry and edge.
    Only the snapped values need to be finite."""
    if factor <= 0:
        raise ParameterError(f"scale factor must be positive, got {factor}")
    vertices = problem._h_vertices
    with np.errstate(over="ignore"):
        h, w = factor * problem._h_vec[vertices], factor * problem._edge_w
    if model is not None:
        h, w = _snap(h, model.h_clip, model.levels), _snap(w, model.j_clip, model.levels)
    return IsingProblem.from_entries(problem.vertex_count, vertices, h,
                                     np.column_stack((problem._edge_a, problem._edge_b)), w)


def scale_problem(problem: IsingProblem, factor: float) -> IsingProblem:
    """Multiply every coefficient by ``factor`` (> 0)."""
    return _copy(problem, factor)


def quantize_problem(problem: IsingProblem, model: PrecisionModel) -> IsingProblem:
    """Clip each coefficient into its range, then round to the grid."""
    return _copy(problem, 1.0, model)


@dataclass(frozen=True, slots=True)
class HpeReport:
    """Full-precision energies observed at each stage."""

    scales: tuple
    per_scale_best: tuple
    group_energies: tuple
    final_energy: float


def hpe_from_runsets(problem: IsingProblem, runsets,
                     scales=None,
                     strategy: PairingStrategy = PairingStrategy.SEQUENTIAL):
    """Merge pre-sampled per-scale run sets at full precision.

    Every runset must hold the same number of runs. Group i collects the
    i-th run of each scale; each group is reduced, then the group winners
    are reduced to the final configuration. All energies and tunnel
    decisions use the full-precision coefficients of ``problem``; every
    run is re-evaluated by ``problem.evaluate_many``. Each group ends as
    its own ``reduce_configs`` call would end it. ``scales``, if given,
    names the run sets' scales, one each. An unknown ``strategy`` raises
    InputError.
    """
    strategy = _strategy(strategy)
    runsets = list(runsets)
    if not runsets:
        raise InputError("no run sets to merge")
    if scales is not None and len(scales) != len(runsets):
        raise InputError(f"{len(scales)} scales given for {len(runsets)} run sets")
    counts = {len(rs) for rs in runsets}
    if len(counts) != 1:
        raise InputError(
            f"run sets must agree on run count, got sizes {sorted(counts)}"
        )
    energies = np.stack([problem.evaluate_many(rs.spins) for rs in runsets])
    # (scales, runs, n) -> groups of one run per scale: (runs, scales, n).
    spins = np.stack([rs.spins for rs in runsets])
    group_spins, group_energies, _ = _reduce_levels(
        problem, spins.transpose(1, 0, 2), energies.T, strategy)
    final_spins, final_energies, _ = _reduce_levels(
        problem, group_spins[None], group_energies[None], strategy)
    final = SpinConfiguration(final_spins[0], final_energies[0])

    report = HpeReport(
        scales=tuple(scales) if scales is not None else tuple(range(len(runsets))),
        per_scale_best=tuple(energies.min(axis=1).tolist()),
        group_energies=tuple(group_energies.tolist()),
        final_energy=final.energy,
    )
    return final, report


def emulate(problem: IsingProblem, scales, model: PrecisionModel) -> list:
    """The scaled-and-quantized copy of ``problem`` at each of ``scales``:
    ``quantize_problem(scale_problem(problem, s), model)`` made in one step,
    so a coefficient may overflow when scaled and still be clipped. The
    copies keep every edge, so ``sample_many`` samples them in one call.
    """
    return [_copy(problem, factor, model) for factor in scales]


def hpe_jobs(copies, runs_per_scale: int, params: SamplerParams) -> list:
    """The ``sample_many`` job ``(copy, params, None)`` of each emulated
    copy: copy k takes ``runs_per_scale`` runs, seeded with a sub-seed
    derived from (params.seed, "hpe_scale", k)."""
    return [(copy, replace(params, num_runs=runs_per_scale,
                           seed=derive_seed(params.seed, "hpe_scale", k)), None)
            for k, copy in enumerate(copies)]


def sample_scales(sampler, jobs) -> list:
    """``sample_many(sampler, jobs)`` of ``hpe_jobs``, except on a problem
    with no vertices: there each job's runs are the empty run at energy
    0.0, taken without sampling."""
    if jobs and not jobs[0][0].vertex_count:
        return [RunSet.from_matrix(np.zeros((q.num_runs, 0)), np.zeros(q.num_runs), pid, None)
                for _, q, pid in jobs]
    return sample_many(sampler, jobs)


def hpe(problem: IsingProblem, scaleset: ScaleSet, model: PrecisionModel,
        params: SamplerParams, sampler=simulated_anneal,
        strategy: PairingStrategy = PairingStrategy.SEQUENTIAL):
    """Sample every scaled-and-quantized copy, then merge at full precision.

    ``hpe_jobs`` of the ``emulate`` copies, sampled in one
    ``sample_scales`` call, then ``hpe_from_runsets``, so the whole
    procedure is reproducible from one seed. Returns (final configuration, HpeReport);
    the configuration's energy is computed against the unscaled,
    unquantized problem. An unknown ``strategy`` raises InputError
    before anything is sampled.
    """
    strategy = _strategy(strategy)
    jobs = hpe_jobs(emulate(problem, scaleset.scales, model), scaleset.runs_per_scale, params)
    return hpe_from_runsets(problem, sample_scales(sampler, jobs), scales=scaleset.scales,
                            strategy=strategy)
