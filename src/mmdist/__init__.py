"""Distances between finite metric-measure spaces.

Computes the box distance (smallest tolerance after discarding a
tolerance-proportional amount of mass, minimized over couplings) and the
observable distance (Hausdorff distance between pulled-back 1-Lipschitz
function sets), together with the machinery both rest on: couplings and
pullback pairs, the me distance on functions, matrix distributions with
reconstruction-based isomorphism testing, Prokhorov distance, almost-isometry
witnesses, empirical convergence experiments, Lipschitz domination and
homogeneity checks.
"""

from .box import (
    BoxResult,
    box_distance,
    box_pair,
    box_upper_from_witness,
)
from .core import (
    FiniteMMSpace,
    SemiDistancePair,
    ValidationReport,
    Witness,
    coupling_from_matrix,
    diagonal_coupling,
    metric_closure,
    mm_space,
    normalized,
    northwest_coupling,
    product_coupling,
    pullback_pair,
    random_coupling,
    read_space,
    scale_measure,
    semidist_pair,
    validate,
    write_space,
)
from .errors import (
    InternalInvariantError,
    InvalidSpaceError,
    MMDistError,
    SizeLimitError,
    SpaceFormatError,
)
from .limits import (
    ConvergenceReport,
    DominationCertificate,
    Me1Diagnostic,
    compose_domination,
    domination_search,
    empirical_convergence_experiment,
    empirical_space,
    is_homogeneous,
    isometry_group,
    lipschitz_up_to_check,
    me1_subsequence_diagnostic,
    prokhorov,
    witness_search,
)
from .lipschitz import (
    HliResult,
    Lip1Set,
    hli_lambda,
    lip_point_distance,
    me_lambda,
    me_lambda_maps,
    observable_distance,
    project_to_lip1,
)
from .matrixdist import (
    MatrixDistribution,
    ReconstructionReport,
    distributions_equal,
    exact_mu_r,
    isomorphism_search,
    parameter_invariance_check,
    reconstruction_check,
    sample_mu_r,
    total_variation,
)

__version__ = "0.1.0"
