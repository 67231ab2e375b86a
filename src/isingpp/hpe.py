"""High-precision emulation on a coarse coefficient grid.

Hardware exposes only a few discrete coefficient levels inside fixed
ranges. To recover precision, the problem is multiplied by several scale
factors, each scaled copy is clipped and snapped to the grid, and every
copy is sampled separately. Scaling up preserves the spin-spin structure
of the large coefficients while pushing fine detail above the grid's
resolution; clipping sacrifices the largest terms instead. Merging runs
across scales with full-precision tunnel arithmetic then combines the
complementary views. Group i, run i of every scale, is row i of one
(runs, scales, n) matrix, and ``mqc``'s level loop reduces all groups at
once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .core import IsingProblem
from .errors import InputError, ParameterError
from .mqc import PairingStrategy, _reduce_levels, _row_energies, mqc_reduce
from .rng import derive_seed
from .samplers import RunSet, SamplerParams, simulated_anneal

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


def scale_problem(problem: IsingProblem, factor: float) -> IsingProblem:
    """Multiply every coefficient by ``factor`` (> 0)."""
    if factor <= 0:
        raise ParameterError(f"scale factor must be positive, got {factor}")
    return IsingProblem(
        problem.vertex_count,
        {a: factor * v for a, v in problem.h.items()},
        {e: factor * w for e, w in problem.J.items()},
    )


def _snap(value, lo, hi, levels):
    step = (hi - lo) / (levels - 1)
    clipped = min(max(value, lo), hi)
    k = float(np.rint((clipped - lo) / step))
    return lo + k * step


def quantize_problem(problem: IsingProblem, model: PrecisionModel) -> IsingProblem:
    """Clip each coefficient into its range, then round to the grid."""
    h_lo, h_hi = model.h_clip
    j_lo, j_hi = model.j_clip
    return IsingProblem(
        problem.vertex_count,
        {a: _snap(v, h_lo, h_hi, model.levels) for a, v in problem.h.items()},
        {e: _snap(w, j_lo, j_hi, model.levels) for e, w in problem.J.items()},
    )


@dataclass(frozen=True, slots=True)
class HpeReport:
    """Full-precision energies observed at each stage."""

    scales: tuple
    per_scale_best: tuple
    group_energies: tuple
    final_energy: float

    def to_dict(self) -> dict:
        return asdict(self)


def hpe_from_runsets(problem: IsingProblem, runsets,
                     scales=None,
                     strategy: PairingStrategy = PairingStrategy.SEQUENTIAL):
    """Merge pre-sampled per-scale run sets at full precision.

    Every runset must hold the same number of runs. Group i collects the
    i-th run of each scale; each group is reduced, then the group winners
    are reduced to the final configuration. All energies and tunnel
    decisions use the full-precision coefficients of ``problem``. Each
    group ends as its own ``reduce_configs`` call would end it.
    """
    runsets = list(runsets)
    if not runsets:
        raise InputError("no run sets to merge")
    counts = {len(rs) for rs in runsets}
    if len(counts) != 1:
        raise InputError(
            f"run sets must agree on run count, got sizes {sorted(counts)}"
        )
    for rs in runsets:
        problem._check_length(rs.spins)
    # (scales, runs, n) -> groups of one run per scale: (runs, scales, n).
    spins = np.stack([rs.spins for rs in runsets])
    energies = np.stack([_row_energies(problem, rs.spins) for rs in runsets])
    group_spins, group_energies, _ = _reduce_levels(
        problem, spins.transpose(1, 0, 2), energies.T, PairingStrategy(strategy))
    final, _ = mqc_reduce(problem, RunSet.from_matrix(group_spins, group_energies, None, None),
                          strategy)

    report = HpeReport(
        scales=tuple(scales) if scales is not None else tuple(range(len(runsets))),
        per_scale_best=tuple(energies.min(axis=1).tolist()),
        group_energies=tuple(group_energies.tolist()),
        final_energy=final.energy,
    )
    return final, report


def hpe(problem: IsingProblem, scaleset: ScaleSet, model: PrecisionModel,
        params: SamplerParams, sampler=simulated_anneal,
        strategy: PairingStrategy = PairingStrategy.SEQUENTIAL):
    """Sample every scaled-and-quantized copy, then merge at full precision.

    Scale index k samples with a sub-seed derived from (params.seed,
    "hpe_scale", k), so the whole procedure is reproducible from one
    seed. Returns (final configuration, HpeReport); the configuration's
    energy is computed against the unscaled, unquantized problem.
    """
    runsets = []
    for k, factor in enumerate(scaleset.scales):
        emulated = quantize_problem(scale_problem(problem, factor), model)
        scale_params = replace(
            params,
            num_runs=scaleset.runs_per_scale,
            seed=derive_seed(params.seed, "hpe_scale", k),
        )
        runsets.append(sampler(emulated, scale_params))
    return hpe_from_runsets(problem, runsets, scales=scaleset.scales,
                            strategy=strategy)
