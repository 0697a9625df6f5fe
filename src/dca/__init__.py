"""Two-phase permutation optimisation over noisy objectives.

Phase 1 climbs by insertion sweeps while inducing ranking constraints from
statistically significant neighbouring comparisons; phase 2 anneals from the
climbing optimum with candidates steered into the constraint-satisfying
subspace.
"""

from .annealer import (
    InsertionProposer,
    Phase2Config,
    Phase2Result,
    ScriptedProposer,
    acceptance_probability,
    run_phase2,
)
from .climber import Phase1Config, Phase1Result, run_phase1
from .constraints import (
    AddOutcome,
    ConstraintGraph,
    RankConstraint,
    count_linear_extensions,
)
from .evaluation import (
    CachingEvaluator,
    ExactOracle,
    FitnessEstimate,
    HiddenTargetLandscape,
    PoolOracle,
    ReplayOracle,
    SubprocessOracle,
    SyntheticOracle,
)
from .harness import (
    ExperimentSummary,
    ReplayReport,
    RunConfig,
    brute_force_optimum,
    derive_seed,
    paper_replay_config,
    replay_verify,
    run_experiment,
)
from .perm import (
    Assignment,
    Move,
    as_assignment,
    enumerate_insertion_neighbors,
    format_assignment,
    insertion_move,
    parse_assignment,
    rank_of,
)
from .trace import RunContext, TraceRecord, read_trace

__version__ = "0.1.0"
