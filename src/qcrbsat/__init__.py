"""Single-copy saturability of the multiparameter quantum Cramér-Rao bound.

Computes symmetric logarithmic derivatives and the quantum Fisher
information matrix of a parameterized density-matrix family, evaluates the
necessary and sufficient saturability conditions at a parameter point,
constructs the optimal projective measurement when the sufficient
conditions certify, and verifies saturation both structurally and through
the classical Fisher information of the induced outcome distribution.
"""

__version__ = "0.1.0"

from .conditions import (
    Cond2PrimeWitness,
    ConditionReport,
    check_average_commutativity,
    check_condition1,
    check_condition3,
    check_full_commutativity,
    check_partial_commutativity,
    evaluate_conditions,
    find_w_condition4,
    verdict,
    verify_condition2prime,
)
from .errors import QcrbSatError
from .fisher import (
    FisherComparison,
    MeasurementDistribution,
    MonteCarloRecord,
    classical_fim,
    compare,
    empirical_fim,
    outcome_distribution,
    probabilities,
    sample_outcomes,
)
from .fixtures import get, get_witness, registry_names
from .model import (
    Box,
    StateAtPoint,
    StateModel,
    SupportDecomposition,
    decomposition_from_basis,
    evaluate,
    parse_numeric_model,
    state_at,
    support_decomposition,
)
from .numkernel import JointSpectrum, joint_eigenprojectors
from .povm import (
    POVM,
    SaturationCertificate,
    classify_elements,
    construct_optimal,
    validate,
    verify_saturation_structural,
)
from .sld import SLDSet, compute_sld, qfim

__all__ = [
    "__version__",
    "QcrbSatError",
    "Box",
    "StateModel",
    "StateAtPoint",
    "SupportDecomposition",
    "evaluate",
    "state_at",
    "support_decomposition",
    "decomposition_from_basis",
    "parse_numeric_model",
    "JointSpectrum",
    "joint_eigenprojectors",
    "SLDSet",
    "compute_sld",
    "qfim",
    "ConditionReport",
    "Cond2PrimeWitness",
    "check_full_commutativity",
    "check_average_commutativity",
    "check_partial_commutativity",
    "check_condition1",
    "check_condition3",
    "evaluate_conditions",
    "find_w_condition4",
    "verdict",
    "verify_condition2prime",
    "POVM",
    "SaturationCertificate",
    "validate",
    "classify_elements",
    "construct_optimal",
    "verify_saturation_structural",
    "MeasurementDistribution",
    "FisherComparison",
    "MonteCarloRecord",
    "outcome_distribution",
    "probabilities",
    "classical_fim",
    "compare",
    "sample_outcomes",
    "empirical_fim",
    "get",
    "get_witness",
    "registry_names",
]
