"""Label-efficient PAC active learning of noisy halfspaces.

The learner queries labels only inside a shrinking band around its current
direction and runs online gradient descent there; schedules for bandwidths
and iteration counts cover constant, polynomial, and margin-geometric label
noise. Oracles are simulated with exact query accounting, and a Monte Carlo
suite checks the analysis inequalities the schedules rely on.
"""

from .diagnostics import PsiEstimate, estimate_psi, excess_error, verify_lemma_suite
from .distributions import (
    WellBehavedDistribution,
    band_probability,
    certify_parameters,
    exact_disagreement,
    make_distribution,
    sample,
)
from .errors import (
    BandTooThinError,
    EmptyConstraintError,
    InvalidInputError,
    NumericalError,
    UnsupportedRegimeError,
)
from .geometry import angle, hard_threshold, normalize
from .learner import (
    LearnerConfig,
    LearnResult,
    erm_select,
    initialize,
    learn,
    optimize,
)
from .oracles import (
    BandSampler,
    GroundTruth,
    NoiseModel,
    QueryLedger,
    eta_of_margin,
    exact_tsybakov_A,
    geometric_tsybakov,
    make_ground_truth,
    massart,
    massart_band,
    query_label,
)
from .schedules import PROFILES, Profile, Schedule, make_schedule, schedule_for
from .sparse import bregman_step, project_intersection

__all__ = [
    "BandSampler",
    "BandTooThinError",
    "EmptyConstraintError",
    "GroundTruth",
    "InvalidInputError",
    "LearnResult",
    "LearnerConfig",
    "NoiseModel",
    "NumericalError",
    "PROFILES",
    "Profile",
    "PsiEstimate",
    "QueryLedger",
    "Schedule",
    "UnsupportedRegimeError",
    "WellBehavedDistribution",
    "angle",
    "band_probability",
    "bregman_step",
    "certify_parameters",
    "erm_select",
    "estimate_psi",
    "eta_of_margin",
    "exact_disagreement",
    "exact_tsybakov_A",
    "excess_error",
    "geometric_tsybakov",
    "hard_threshold",
    "initialize",
    "learn",
    "make_distribution",
    "make_ground_truth",
    "make_schedule",
    "massart",
    "massart_band",
    "normalize",
    "optimize",
    "project_intersection",
    "query_label",
    "sample",
    "schedule_for",
    "verify_lemma_suite",
]

__version__ = "0.1.0"
