"""eiszeta: critical Eisenstein points of the tame-level-1 eigencurve and the
Kubota-Leopoldt p-adic zeta function on weight space."""

from .padic import (
    PadicContext,
    PadicNumber,
    ContextMismatchError,
    PrecisionLossError,
    teichmuller,
    log_one_unit,
    exp_small,
    format_padic,
    agreement_precision,
)
from .characters import TeichCharacter
from .bernoulli import bernoulli_number, generalized_bernoulli
from .kubota import (
    AdmissibilityError,
    PoleError,
    IrregularScreenError,
    WeightPoint,
    LValue,
    lp_interpolation,
    lp_series,
    zeta_weight,
    irregular_branches,
    irregular_scan,
    ZeroWitness,
)
from .qexp import (
    QExpansion,
    eisenstein_critical,
    eisenstein_ordinary,
    theta_pow,
    verify_eigensystem,
    theta_twin_check,
    TwinConventionError,
)
from .archorders import arch_order, selmer_dims
from .analyzer import (
    CriticalPointReport,
    PrecisionBudgetError,
    analyze_point,
    scan_records,
    report_to_dict,
    render_text,
)

__version__ = "0.1.0"
