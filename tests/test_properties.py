"""Randomized checks of the protocols' laws over their parameter space."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from paritysim import (
    BipartiteCoefficients,
    CountDistribution,
    ParitySimError,
    ProtocolReport,
    QubitAmplitudes,
    SingleModeState,
    TruncationReport,
    TruncationTooSevere,
    beamsplitter_5050,
    bipartite_coefficients,
    build_state,
    coherent_spec,
    count_distribution,
    encode_qubit,
    entanglement_entropy,
    explicit_spec,
    fidelity,
    inner_product,
    normalize,
    odd_parity_probability,
    opposite_phase_partner,
    parse_scenario_text,
    phase_shift,
    plus_minus,
    quantum_scissors,
    resource_from_states,
    run_scenario,
    sample_counts,
    scenario_to_wire,
    squeezed_spec,
    teleport_basic,
    teleport_enhanced,
    tensor,
    truncation_check,
    validate_scenario,
)
from paritysim import measurement
from paritysim.scenario import _parity_columns

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def qubits(draw):
    parts = np.array([complex(draw(finite), draw(finite)) for _ in range(2)])
    norm = np.linalg.norm(parts)
    assume(norm > 0.1)
    parts = parts / norm
    return QubitAmplitudes(parts[0], parts[1])


@st.composite
def real_vectors(draw):
    size = draw(st.integers(2, 5))
    coeffs = np.array([draw(finite) for _ in range(size)])
    assume(np.linalg.norm(coeffs) > 0.1)
    return coeffs


@PROPERTY_SETTINGS
@given(q=qubits(), u=real_vectors(), v=real_vectors())
def test_real_overlap_pairs_give_quarter_success_with_unit_fidelity(q, u, v):
    u_spec, v_spec = explicit_spec(u), explicit_spec(v)
    # real amplitudes have a real overlap; keep the pair well away from parallel
    assume(abs(inner_product(build_state(u_spec), build_state(v_spec))) < 0.99)
    report = teleport_basic(q, u_spec, v_spec)
    assert report.success_probability == pytest.approx(0.25, abs=1e-10)
    assert report.min_success_fidelity() == pytest.approx(1.0, abs=1e-10)
    assert report.total_probability == pytest.approx(1.0, abs=1e-10)


@PROPERTY_SETTINGS
@given(q=qubits(), magnitude=st.floats(0.2, 2.5), phase=st.floats(0.0, 6.283185307179586))
def test_coherent_u_gives_half_enhanced_success(q, magnitude, phase):
    cutoff = int(magnitude * magnitude + 10 * magnitude + 20)
    report = teleport_enhanced(q, coherent_spec(cmath.rect(magnitude, phase), cutoff))
    assert report.success_probability == pytest.approx(0.5, abs=1e-10)
    assert report.min_success_fidelity() == pytest.approx(1.0, abs=1e-10)
    assert not any(o.counts[0] % 2 == 1 and o.counts[1] % 2 == 1 for o in report.outcomes)


@PROPERTY_SETTINGS
@given(q=qubits(), squeezed=st.booleans(), enhanced=st.booleans(), retilde=st.booleans(),
       magnitude=st.floats(0.05, 2.0), phase=st.floats(0.0, 6.283185307179586))
def test_aggregates_are_left_to_right_sums_over_the_records(q, squeezed, enhanced, retilde,
                                                            magnitude, phase):
    if squeezed:  # the pair (r, -r), squeezing r up to 1
        r = magnitude / 2
        report = teleport_basic(q, squeezed_spec(r, 96), squeezed_spec(-r, 96), retilde=retilde)
    else:  # the pair (alpha, -alpha)
        alpha = cmath.rect(magnitude, phase)
        u = coherent_spec(alpha, int(magnitude * magnitude + 10 * magnitude + 20))
        if enhanced:
            report = teleport_enhanced(q, u, retilde=retilde)
        else:
            report = teleport_basic(q, u, coherent_spec(-alpha, u.cutoff), retilde=retilde)
    total = success = weighted = 0.0
    for o in report.outcomes:
        total += o.probability
        if o.classification == "success":
            success += o.probability
            weighted += o.probability * o.fidelity_to_target
    assert report.total_probability == total
    assert report.success_probability == success
    assert report.mean_conditional_fidelity == weighted / success
    assert report.min_success_fidelity() == min(o.fidelity_to_target
                                                for o in report.success_outcomes())
    counts = [o.counts for o in report.outcomes]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def smallest_cutoff(spec_of, high: int) -> int:
    """The smallest cutoff up to ``high`` at which ``spec_of(cutoff)`` builds
    within its tail tolerance, by bisection: the tail falls as the cutoff
    rises."""
    low = 0
    while low < high:
        middle = (low + high) // 2
        try:
            build_state(spec_of(middle))
            high = middle
        except TruncationTooSevere:
            low = middle + 1
    return low


# the laws at large photon numbers, at the smallest cutoffs that hold the
# states, where the top levels and totals carry the most weight they can
LARGE_SETTINGS = settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@LARGE_SETTINGS
@given(q=qubits(), magnitude=st.floats(5.0, 9.0), phase=st.floats(0.0, 6.283185307179586))
def test_half_enhanced_success_at_large_coherent_amplitudes(q, magnitude, phase):
    alpha = cmath.rect(magnitude, phase)
    cutoff = smallest_cutoff(lambda c: coherent_spec(alpha, c), int(magnitude * magnitude + 12 * magnitude + 40))
    report = teleport_enhanced(q, coherent_spec(alpha, cutoff))
    assert abs(report.success_probability - 0.5) <= 1e-10
    assert report.min_success_fidelity() >= 1.0 - 1e-10


@LARGE_SETTINGS
@given(q=qubits(), r=st.floats(1.0, 1.4))
def test_quarter_basic_success_at_large_squeezing(q, r):
    cutoff = smallest_cutoff(lambda c: squeezed_spec(r, c), 400)
    report = teleport_basic(q, squeezed_spec(r, cutoff), squeezed_spec(-r, cutoff))
    assert abs(report.success_probability - 0.25) <= 1e-10
    assert report.min_success_fidelity() >= 1.0 - 1e-10


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(q=qubits(), magnitude=st.floats(0.05, 6.0), phase=st.floats(0.0, 6.283185307179586))
def test_forbidden_records_stay_at_rounding(q, magnitude, phase):
    # the records the parity arguments forbid, both counts odd in an enhanced
    # run and an odd count in A for parity fact 1, are rounding residues of
    # about 1e-33 or less; the floor is lowered to keep them, but not to 0,
    # since the kernel divides by the square root of each kept probability
    alpha = cmath.rect(magnitude, phase)
    spec = coherent_spec(alpha, smallest_cutoff(lambda c: coherent_spec(alpha, c),
                                                 int(magnitude * magnitude + 12 * magnitude + 40)))
    psi = build_state(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measurement, "OUTCOME_FLOOR", 1e-300)
        report = teleport_enhanced(q, spec)
        (counts, probabilities, *_), _ = _parity_columns(phase_shift(psi, math.pi / 2), psi)
    both_odd = (report.counts % 2 == 1).all(axis=1)
    assert report.probabilities[both_odd].max(initial=0.0) <= 1e-28
    odd_a = counts[:, 0] % 2 == 1
    assert odd_a.any()  # the lowered floor keeps the residues
    assert probabilities[odd_a].max() <= 1e-28


# log-uniform magnitudes, down to pairs that _check_pair refuses as parallel
small_to_large = st.floats(-7.0, 0.0).map(lambda exponent: 10.0 ** exponent)


@st.composite
def entropy_pairs(draw):
    """The wire states u and v of an entropy scenario: coherent +-alpha,
    squeezed +-r, number states, or explicit states with a common phase per
    level (a real overlap) or, now and then, different phases."""
    family = draw(st.sampled_from(["coherent", "squeezed", "number", "explicit"]))
    if family == "coherent":
        alpha = cmath.rect(6.0 * draw(small_to_large), draw(st.floats(0.0, 2.0 * math.pi)))
        cutoff = smallest_cutoff(lambda c: coherent_spec(alpha, c),
                                 int(abs(alpha) ** 2 + 12 * abs(alpha) + 40))
        return tuple({"kind": "coherent", "alpha_re": a.real, "alpha_im": a.imag, "cutoff": cutoff}
                     for a in (alpha, -alpha))
    if family == "squeezed":
        r = 1.2 * draw(small_to_large)
        cutoff = smallest_cutoff(lambda c: squeezed_spec(r, c), 400)
        return tuple({"kind": "squeezed_vacuum", "r": s, "cutoff": cutoff} for s in (r, -r))
    if family == "number":
        return tuple({"kind": "number", "n": draw(st.integers(0, 8)), "cutoff": draw(st.integers(8, 12))}
                     for _ in range(2))
    size = draw(st.integers(2, 6))
    a = np.array([draw(finite) for _ in range(size)])
    assume(np.linalg.norm(a) > 0.1)
    # b is a plus a small or large step, so near-parallel pairs come up
    b = a + draw(small_to_large) * np.array([draw(finite) for _ in range(size)])
    phases = np.exp(1j * np.array([draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(size)]))
    other = phases if draw(st.integers(0, 9)) else phases * np.exp(1j * np.arange(size))
    return tuple({"kind": "explicit", "coefficients": [[c.real, c.imag] for c in x],
                  "cutoff": size - 1} for x in (phases * a, other * b))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair=entropy_pairs(), kind=st.sampled_from(["phi_minus", "psi_minus"]))
def test_entropy_scenario_reads_one_ebit_off_the_factors(pair, kind):
    # the entropy scenario's weights, read off the resource's two factors,
    # give one ebit to 1e-15 and the SVD of the dense resource to 1e-14, and
    # it refuses the pairs that the dense path refuses, with the same error
    scenario = validate_scenario({"protocol": "entropy", "u": pair[0], "v": pair[1],
                                  "resource_kind": kind})
    try:
        u, v = build_state(scenario.u), build_state(scenario.v)
    except ParitySimError:
        assume(False)
    try:
        dense = entanglement_entropy(resource_from_states(u, v, kind))
    except Exception as error:
        event(f"refused: {type(error).__name__}")
        with pytest.raises(Exception) as refused:
            run_scenario(scenario)
        assert type(refused.value) is type(error)
        return
    entropy = run_scenario(scenario).aggregates["entanglement_entropy"]
    assert abs(entropy - 1.0) <= 1e-15
    assert abs(entropy - dense) <= 1e-14


def _with_entry(value: float) -> np.ndarray:
    matrix = np.full((3, 3), 1.0 / 3.0)
    matrix[1, 2] = value
    return matrix


#: Two-mode matrices that no caller should be able to turn into a raw numpy
#: error, a NaN or a negative entropy.
HOSTILE = {
    "empty axis": np.zeros((0, 3)),
    "zeros": np.zeros((3, 3)),
    "nan": _with_entry(np.nan),
    "+inf": _with_entry(np.inf),
    "-inf": _with_entry(-np.inf),
    "1e300": np.full((3, 3), 1e300),
    "1.7e308": np.full((3, 3), 1.7e308),
    "vector": np.full(4, 0.5),
    "three modes": np.full((2, 2, 2), 0.5**1.5),
    "unnormalized": np.full((3, 3), 2.0),
}

#: The two-mode entry points, each with the call that gives its value.
TWO_MODE_CALLS = {
    "beamsplitter_5050": lambda m: beamsplitter_5050(m, 0, 1),
    "bipartite_coefficients": bipartite_coefficients,
    "total_weight": lambda m: bipartite_coefficients(m).total_weight(),
    "symmetric_weight": lambda m: bipartite_coefficients(m).symmetric_weight(),
    "antisymmetric_weight": lambda m: bipartite_coefficients(m).antisymmetric_weight(),
    "coefficients odd_parity_probability": lambda m: bipartite_coefficients(m).odd_parity_probability(),
    "phase_shift": lambda m: phase_shift(m, 0.3, 1),
    "count_distribution": lambda m: count_distribution(m, 0),
    "odd_parity_probability": lambda m: odd_parity_probability(m, 1),
    "sample_counts": lambda m: sample_counts(m, (0,), np.random.default_rng(0), 8),
    "entanglement_entropy": entanglement_entropy,
}


def _finite_numbers(value) -> np.ndarray:
    """Every number an entry point returned, as one float array; a report's
    corrections are left out, since NaN there means no correction."""
    if isinstance(value, BipartiteCoefficients):
        parts = (value.matrix, value.symmetric_part, value.antisymmetric_part)
        return np.concatenate([np.abs(part).ravel() for part in parts])
    if isinstance(value, CountDistribution):
        return np.array(list(value.probabilities.values()), dtype=float)
    if isinstance(value, tuple):
        return np.concatenate([_finite_numbers(part) for part in value])
    if isinstance(value, SingleModeState):
        return np.append(np.abs(value.amplitudes), value.tail_mass)
    if isinstance(value, TruncationReport):
        return np.array([value.tail_mass])
    if isinstance(value, ProtocolReport):
        aggregates = [value.success_probability, value.total_probability,
                      value.mean_conditional_fidelity or 0.0]
        parts = (value.probabilities, value.fidelities, value.coordinates, value.receivers, aggregates)
        return np.concatenate([np.abs(np.asarray(part)).ravel() for part in parts])
    return np.abs(np.asarray(value, dtype=complex)).ravel()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("matrix", list(HOSTILE.values()), ids=list(HOSTILE))
@pytest.mark.parametrize("call", list(TWO_MODE_CALLS.values()), ids=list(TWO_MODE_CALLS))
def test_two_mode_entry_points_refuse_or_return_finite_values(call, matrix):
    # the README's Errors contract: a finite, documented value, or a
    # ParitySimError, or the ValueError the docstring names
    try:
        value = call(matrix.copy())
    except (ParitySimError, ValueError):
        return
    assert np.isfinite(_finite_numbers(value)).all()
    if call is entanglement_entropy:
        assert value >= 0.0


#: One-mode amplitudes, each with the phase of the partner state that the
#: two-state calls pair it with: a half cycle, which keeps the overlap real,
#: or NaN.
HOSTILE_ONE_MODE = {
    "zeros": ([0.0, 0.0, 0.0], math.pi),
    "1e-300": ([1e-300, 0.0, 1e-300], math.pi),
    "1e200": ([1e200, 1e200], math.pi),
    "1.7e308": ([1.7e308, 0.0], math.pi),
    "unnormalized": ([2.0, 1.0], math.pi),
    "normalized, 1e-300 on top": ([0.6, 0.8, 1e-300], math.pi),
    "nan phase": ([0.6, 0.8], math.nan),
}

#: The one-mode entry points, each with the call that gives its value from a
#: state u and a phase phi.
ONE_MODE_CALLS = {
    "normalize": lambda u, phi: normalize(u),
    "norm_squared": lambda u, phi: u.norm_squared(),
    "inner_product": lambda u, phi: inner_product(u, phase_shift(u, phi)),
    "fidelity": lambda u, phi: fidelity(u, phase_shift(u, phi)),
    "tensor": lambda u, phi: tensor(u, phase_shift(u, phi)),
    "phase_shift": lambda u, phi: phase_shift(u, phi),
    "truncation_check": lambda u, phi: truncation_check(u, 1e-12),
    "plus_minus": lambda u, phi: plus_minus(u, phase_shift(u, phi)),
    "encode_qubit": lambda u, phi: encode_qubit(QubitAmplitudes(0.6, 0.8j), u, phase_shift(u, phi)),
    "resource_from_states": lambda u, phi: resource_from_states(u, phase_shift(u, phi), "phi_minus"),
    "quantum_scissors": lambda u, phi: quantum_scissors(u, 0, 1),
    "opposite_phase_partner": lambda u, phi: opposite_phase_partner(u),
    "build_state explicit": lambda u, phi: build_state(explicit_spec(u.amplitudes)),
    "build_state coherent": lambda u, phi: build_state(coherent_spec(cmath.rect(1.0, phi), 20)),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("amplitudes, phi", list(HOSTILE_ONE_MODE.values()), ids=list(HOSTILE_ONE_MODE))
@pytest.mark.parametrize("call", list(ONE_MODE_CALLS.values()), ids=list(ONE_MODE_CALLS))
def test_one_mode_entry_points_refuse_or_return_finite_values(call, amplitudes, phi):
    # the same contract as for the two-mode entry points
    try:
        value = call(SingleModeState(np.array(amplitudes)), phi)
    except (ParitySimError, ValueError):
        return
    assert np.isfinite(_finite_numbers(value)).all()


#: Valid scenario documents, small enough to run, that the hostile documents
#: below are made from.
SCENARIO_BASES = (
    {"protocol": "teleport_basic", "u": {"kind": "squeezed_vacuum", "r": 0.3, "cutoff": 24},
     "v": {"kind": "squeezed_vacuum", "r": -0.3, "cutoff": 24}, "qubit": [0.6, 0.0, 0.0, 0.8],
     "retilde": True, "detector_efficiency": 0.9},
    {"protocol": "teleport_enhanced", "u": {"kind": "coherent", "alpha_re": 1.0, "alpha_im": 0.5,
                                            "cutoff": 25}, "qubit": [0.0, 0.6, 0.8, 0.0]},
    {"protocol": "quantum_scissors", "scissors_n": 0, "scissors_m": 2,
     "input_coefficients": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.5]],
     "detector_efficiency": 0.5},
    {"protocol": "facts_check", "u": {"kind": "number", "n": 0, "cutoff": 2},
     "v": {"kind": "explicit", "coefficients": [[0.0, 0.0], [0.0, 1.0]], "cutoff": 3},
     "detector_efficiency": 1.0, "tolerances": {"probability": 1e-12, "fidelity": 1e-9}},
    {"protocol": "entropy", "u": {"kind": "number", "n": 0, "cutoff": 1},
     "v": {"kind": "number", "n": 1, "cutoff": 1}, "resource_kind": "psi_minus"},
)

#: Numbers that sit on an edge of a field's range, or past the float range.
HOSTILE_NUMBERS = (0, 1, -1, 2, 401, 10 ** 30, -10 ** 400, 0.0, -0.0, 5e-324, 1e-300, 0.5, 2.5,
                   1e10, 1e200, 1.7e308, -1.7e308, math.nan, math.inf, -math.inf, True, False)

json_values = st.recursive(
    st.none() | st.booleans() | st.sampled_from(HOSTILE_NUMBERS) | st.integers()
    | st.floats() | st.text(max_size=4) | st.sampled_from(("coherent", "explicit", "phi_minus")),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8)

hostile_numbers = (st.sampled_from(HOSTILE_NUMBERS) | st.floats() | st.floats(-3.0, 3.0)
                   | st.integers(-3, 50))


def _slots(value):
    """Every (container, key) pair inside a JSON value."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        items = []
    for key, child in items:
        yield value, key
        yield from _slots(child)


@st.composite
def hostile_documents(draw):
    """A base scenario with one or two of its fields, or their entries,
    replaced by a hostile number or value, deleted, or joined by an unknown
    field; or any JSON value at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    doc = json.loads(json.dumps(draw(st.sampled_from(SCENARIO_BASES))))
    for _ in range(draw(st.integers(1, 2))):
        slots = list(_slots(doc))
        if not slots:
            break
        parent, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(("number", "number", "number", "value", "delete", "extra")))
        if action == "delete" and isinstance(parent, dict):
            del parent[key]
        elif action == "extra" and isinstance(parent, dict):
            parent["extra"] = draw(json_values)
        else:
            parent[key] = draw(json_values if action == "value" else hostile_numbers)
    return doc


def _cheap(scenario) -> bool:
    """Whether the scenario names photon numbers of at most 40, so that
    running it stays small: a legal scenario may name up to MAX_CUTOFF."""
    levels = [spec.cutoff for spec in (scenario.u, scenario.v) if spec is not None]
    levels += [level for level in (scenario.scissors_n, scenario.scissors_m) if level is not None]
    levels.append(len(scenario.input_coefficients or ()))
    return max(levels) <= 40


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=hostile_documents(), text=st.text(max_size=12) | st.integers(0, 3000).map(
    lambda depth: "[" * depth + "]" * depth))
def test_hostile_documents_raise_only_typed_errors(doc, text):
    # the scenario callables either return, or raise a ParitySimError (a
    # SchemaError for a malformed document) or a ValueError; a document
    # that validates also round-trips through scenario_to_wire, and, when
    # small, runs to a document laid out as the stdlib lays it out
    for source in (text, json.dumps(doc)):
        try:
            parse_scenario_text(source)
        except (ParitySimError, ValueError):
            pass
    try:
        scenario = validate_scenario(doc)
    except (ParitySimError, ValueError) as exc:
        event(f"refused: {type(exc).__name__}")
        return
    assert parse_scenario_text(json.dumps(doc)) == scenario
    wire = scenario_to_wire(scenario)
    assert validate_scenario(json.loads(json.dumps(wire))) == scenario
    if not _cheap(scenario):
        event("valid, not run")
        return
    try:
        results = run_scenario(scenario)
    except (ParitySimError, ValueError) as exc:
        event(f"run raised {type(exc).__name__}")
        return
    event(f"ran {scenario.protocol}")
    assert results.to_json() == json.dumps(results.to_dict(), indent=2, sort_keys=True) + "\n"
