"""Classical post-processing for Ising-model optimizer outputs.

Multi-run merging (MQC), exact low-treewidth local optimization, sample
persistence, and precision emulation across coefficient scales, plus the
seeded samplers and experiment harness used to compare them.
"""

from .core import (
    ENERGY_ATOL,
    IsingProblem,
    SpinConfiguration,
    tunnel_contribution,
)
from .topology import (
    ChimeraSpec,
    ProblemGenSpec,
    chimera_graph,
    complete_graph,
    grid_graph,
    path_graph,
    random_problem,
)
from .samplers import (
    BetaSchedule,
    Provenance,
    RunSet,
    SamplerParams,
    exact_ground_state,
    gibbs_sample,
    gibbs_sample_many,
    random_runs,
    sample_many,
    simulated_anneal,
    simulated_anneal_many,
)
from .mqc import (
    PairingStrategy,
    ReductionTrace,
    disagreement_tunnels,
    mqc_pair,
    mqc_reduce,
    pair_runs,
    reduce_configs,
)
from .altpp import (
    FixedAssignment,
    Subgraph,
    builtin_opt_pp,
    decompose_low_treewidth,
    min_degree_elimination,
    optimize_subgraph,
    persistence_fix,
    sample_persistence,
)
from .hpe import (
    HpeReport,
    PrecisionModel,
    ScaleSet,
    hpe,
    hpe_from_runsets,
    quantize_problem,
    scale_problem,
)
from .serialize import load_problem, load_runset, save_problem, save_runset
from .harness import (
    ExperimentConfig,
    bench_reduce,
    run_experiment,
    sensitivity_report,
)

__version__ = "0.1.0"
