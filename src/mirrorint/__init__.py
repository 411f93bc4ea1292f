"""Exact-arithmetic toolkit for integrality of mirror maps.

Decide the integrality dichotomy for factorial ratios of linear forms,
expand the attached canonical coordinates, mirror maps and mirror-type
maps as exact truncated power series, and verify the p-adic machinery
(valuation identities, the Dieudonne-Dwork test, formal congruences and
operator case studies) at desk scale.
"""

from .forms import (
    INFINITY,
    FormSystem,
    factorial_ratio,
    harmonic,
    is_prime,
    vp_of_rational,
    vp_ratio_legendre,
)
from .landau import (
    BudgetExceededError,
    CriterionVerdict,
    Tag,
    classify,
    delta_at,
    enumerate_weight_vectors,
    in_jump_region,
)
from .series import (
    MSeries,
    compose,
    invert_diagonal,
)
from .mirror import (
    MirrorBundle,
    ScanReport,
    build_bundle,
    build_F,
    build_Gk,
    build_GL,
    integrality_scan,
)
from .dwork import (
    CongruenceRanges,
    CongruenceReport,
    PadicContext,
    dieudonne_dwork_check,
    good_residues,
    harmonic_obstruction,
    landau_negative_witness,
    obstruction_ratio,
    q_ratio_congruence_sweep,
    verify_formal_congruences,
)
from .operators import (
    AnnihilationReport,
    CaseRecord,
    ThetaOperator,
    case30_record,
    verify_annihilation,
)
from .systems import BUNDLED, default_order

__version__ = "0.1.0"
