"""Multimode Fock-space simulator for parity-heralded optical protocols.

The library represents pure bosonic states in truncated photon-number bases,
applies the fixed-convention 50/50 beamsplitter and phase shifts exactly, and
evaluates heralded teleportation and state-truncation (scissors) protocols by
exhaustive enumeration of photon-counting records.
"""

__version__ = "0.1.0"

from .errors import (
    CutoffOverflow,
    DegenerateState,
    DegenerateSuperposition,
    InvalidMode,
    InvalidResource,
    NonRealOverlap,
    ParitySimError,
    SchemaError,
    TruncationTooSevere,
    ZeroProbabilityOutcome,
)
from .fock import (
    MultiModeState,
    SingleModeState,
    TruncationReport,
    inner_product,
    normalize,
    prepend_mode,
    tensor,
    truncation_check,
)
from .measurement import (
    CountDistribution,
    DetectorModel,
    HeraldedRecord,
    MeasurementOutcome,
    count_distribution,
    lossy_count_distribution,
    measure_modes,
    odd_parity_probability,
    parity_flip_probability,
    project_counts,
    sample_counts,
    split_and_count,
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
    split_with_phase_shifted,
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
    "CutoffOverflow", "DegenerateState", "DegenerateSuperposition", "InvalidMode",
    "InvalidResource", "NonRealOverlap", "ParitySimError", "SchemaError",
    "TruncationTooSevere", "ZeroProbabilityOutcome",
    # fock
    "MultiModeState", "SingleModeState", "TruncationReport", "inner_product",
    "normalize", "prepend_mode", "tensor", "truncation_check",
    # measurement
    "CountDistribution", "DetectorModel", "HeraldedRecord", "MeasurementOutcome",
    "count_distribution", "lossy_count_distribution", "measure_modes",
    "odd_parity_probability", "parity_flip_probability", "project_counts",
    "sample_counts", "split_and_count", "thinned_distribution",
    "total_variation_distance",
    # optics
    "BipartiteCoefficients", "beamsplitter_5050", "bipartite_coefficients",
    "phase_shift",
    # protocols
    "OutcomeRecord", "ProtocolReport", "entanglement_entropy", "fidelity",
    "quantum_scissors", "split_with_phase_shifted", "teleport_basic",
    "teleport_enhanced",
    # scenario
    "ResultsDocument", "Scenario", "ScenarioCheck", "Tolerances", "parse_scenario_text",
    "run_scenario", "scenario_to_wire", "validate_scenario",
    # states
    "EntangledResource", "QubitAmplitudes", "StateSpec", "build_resource",
    "build_state", "coherent_spec", "encode_qubit", "explicit_spec", "number_spec",
    "opposite_phase_partner", "plus_minus", "resource_from_states", "squeezed_spec",
]
