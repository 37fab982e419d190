"""Numerical verification toolkit for deformed Hermitian-Yang-Mills
Chern-number inequalities on Kaehler 3- and 4-folds.

The package joins two descriptions of the same geometry: pointwise
eigenvalue tuples with their Lagrangian phase, and cohomological
intersection profiles with their central-charge path.  Exact desk-scale
models (invariant forms on tori, the blow-up of P^3) tie the two together
so every identity, branch inequality and Khovanskii-Teissier chain can be
checked numerically with signed margins.
"""

from types import ModuleType as _ModuleType

from .charge import (
    IntersectionProfile,
    WindingReport,
    analytic_angle_from_integrals,
    check_chern_n3,
    check_chern_n4,
    general_kt,
    integrated_sigma_chain,
    intersection_number,
    kt_chain,
    path_polynomials,
    winding_report,
    winding_trace,
    z_of_t,
)
from .eigen import (
    Branch,
    EigenTuple,
    branch_check,
    branch_for_phase,
    elementary_all,
    factorization_identity,
    gamma_cone,
    lagrangian_phase,
    mixed_sigma,
    phase_components,
    sigma,
)
from .errors import (
    ConvergenceError,
    DegeneratePathError,
    DhymError,
    DomainError,
    InvalidPairError,
    PhaseOutsideBranchError,
    SamplingExhaustedError,
    UndefinedAngleError,
)
from .hermitian import (
    HermitianPair,
    eigensystem,
    phase_of_pair,
    relative_spectrum,
)
from .models import (
    ConsistencyReport,
    blowup_p3,
    constant_model,
    consistency_suite,
    weighted_model,
)
from .reports import InequalityEntry, InequalityReport, compare
from .sampling import complete_tuple, level_set_sample, sample_level_set_batch
from .suites import identity_suite, kt_suite, theorem_suite

__version__ = "0.1.0"

#: the public API is exactly the names imported above
__all__ = sorted(
    name
    for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
)
