"""Fock-space simulator for parity-heralded optical protocols.

The library represents pure bosonic states in truncated photon-number bases
(one mode as a ``SingleModeState``, two modes as a complex matrix R[n, m]),
applies the fixed-convention 50/50 beamsplitter and phase shifts exactly, and
evaluates heralded teleportation and state-truncation (scissors) protocols by
exhaustive enumeration of photon-counting records.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateState,
    DegenerateSuperposition,
    InvalidMode,
    InvalidResource,
    NonRealOverlap,
    ParitySimError,
    SchemaError,
    TruncationTooSevere,
)
from .fock import (
    SingleModeState,
    TruncationReport,
    inner_product,
    normalize,
    tensor,
    truncation_check,
)
from .measurement import (
    CountDistribution,
    DetectorModel,
    count_distribution,
    lossy_count_distribution,
    odd_parity_probability,
    parity_flip_probability,
    sample_counts,
    thinned_distribution,
    total_variation_distance,
)
from .optics import (
    BipartiteCoefficients,
    beamsplitter_5050,
    bipartite_coefficients,
    phase_shift,
)
from .protocols import (
    OutcomeRecord,
    ProtocolReport,
    entanglement_entropy,
    fidelity,
    quantum_scissors,
    teleport_basic,
    teleport_enhanced,
)
from .scenario import (
    ResultsDocument,
    Scenario,
    ScenarioCheck,
    Tolerances,
    parse_scenario_text,
    run_scenario,
    scenario_to_wire,
    validate_scenario,
)
from .states import (
    EntangledResource,
    QubitAmplitudes,
    StateSpec,
    build_resource,
    build_state,
    coherent_spec,
    encode_qubit,
    explicit_spec,
    number_spec,
    opposite_phase_partner,
    plus_minus,
    resource_from_states,
    squeezed_spec,
)

__all__ = [
    # errors
    "DegenerateState", "DegenerateSuperposition", "InvalidMode", "InvalidResource",
    "NonRealOverlap", "ParitySimError", "SchemaError", "TruncationTooSevere",
    # fock
    "SingleModeState", "TruncationReport", "inner_product", "normalize", "tensor",
    "truncation_check",
    # measurement
    "CountDistribution", "DetectorModel", "count_distribution",
    "lossy_count_distribution", "odd_parity_probability", "parity_flip_probability",
    "sample_counts", "thinned_distribution", "total_variation_distance",
    # optics
    "BipartiteCoefficients", "beamsplitter_5050", "bipartite_coefficients",
    "phase_shift",
    # protocols
    "OutcomeRecord", "ProtocolReport", "entanglement_entropy", "fidelity",
    "quantum_scissors", "teleport_basic", "teleport_enhanced",
    # scenario
    "ResultsDocument", "Scenario", "ScenarioCheck", "Tolerances", "parse_scenario_text",
    "run_scenario", "scenario_to_wire", "validate_scenario",
    # states
    "EntangledResource", "QubitAmplitudes", "StateSpec", "build_resource",
    "build_state", "coherent_spec", "encode_qubit", "explicit_spec", "number_spec",
    "opposite_phase_partner", "plus_minus", "resource_from_states", "squeezed_spec",
]
