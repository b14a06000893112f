"""shadowlab: exact counting and bound verification for Kruskal-Katona-type
extremal problems on colored hypergraphs, set families, subspace families,
and forbidding systems.
"""

from .entropy import (
    CoverSpec,
    ExactDistribution,
    check_cregular_corollary,
    check_key_inequality,
    check_lemma_disjoint_support,
    check_shearer,
    conditional_entropy,
    entropy,
)
from .errors import BoundViolationError, CapacityError, ValidationError
from .forbidding import (
    ForbiddingSystem,
    check_generalized_kk,
    is_compatible,
    qlinear_system,
    repeats_system,
    verify_forbidding_axioms,
)
from .hypergraph import (
    PROBLEMS,
    ColoredHypergraph,
    Problem,
    RatioReport,
    SetFamily,
    check_kruskal_katona,
    check_partial_shadow_bound,
    check_ratio,
    count_color_covering_subsets,
    count_good_4subsets_mixed,
    count_good_6subsets,
    count_partial_shadow_targets,
    count_rainbow_cliques,
    rainbow_cliques,
    shadow,
    spectral_trace_check,
    validate,
    weighted_joint_sum,
)
from .numkit import (
    CVector,
    gaussian_binom,
    invert_product,
    product_falling,
    shadow_bound,
)
from .qlinalg import (
    SubspaceFamily,
    check_q_kruskal_katona,
    enumerate_subspaces,
    rref,
    subspace_shadow,
)
from .reports import BoundReport, ValidationReport
from .search import random_probe, search_mixed_4subsets, search_rainbow_triangle

__version__ = "0.1.0"
