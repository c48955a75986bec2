"""boxagree: exact analysis of (2,3)-agreeable societies of axis-parallel
boxes: intersection graphs, agreement proportions, boxicity, exposed-box
splitting, closed-form bounds, and exhaustive verification searches."""

from .bounds import (
    BETA_2_3_1,
    ROOT_MAP_AT_HALF,
    RadicalExpression,
    beta_convex,
    comparison_table,
    edge_lower_bound,
    eta_quadratic_bound,
    gamma_lower,
    main_lower_bound,
    quadratic_min_root,
    root_map,
)
from .boxicity import (
    BoxicityDecision,
    BoxicityReport,
    adiga_lower_bound,
    boxicity_report,
    decide_boxicity_leq,
    roberts_upper_bound,
)
from .exposure import (
    ExposureCertificate,
    e_upper_closed,
    e_upper_recurrence,
    find_exposed,
    split,
    split_identity_failures,
    validate_exposure,
    verify_split_identity,
)
from .geometry import (
    Arrangement,
    FVector,
    agreement_number,
    agreement_proportion,
    f_vector,
    intersection_graph,
)
from .graphs import (
    DegreeProfile,
    Graph,
    canonical_form,
    clique_counts,
    clique_number,
    count_cliques_of_size,
    degree_profile,
    is_agreeable,
    is_interval_graph,
    strip_universal,
)
from .search import (
    EtaEntry,
    EtaTable,
    EtaUpperCertificate,
    MissingEtaError,
    ProportionResult,
    SearchCertificate,
    confirm_eta,
    default_eta_table,
    enumerate_agreeable,
    eta_upper,
    main_theorem_holds,
    min_agreement_proportion,
    verify_main_theorem,
)

__version__ = "0.1.0"
