"""Randomized checks of the protocols' laws over their parameter space."""

import cmath

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from paritysim import (
    BipartiteCoefficients,
    CountDistribution,
    ParitySimError,
    QubitAmplitudes,
    beamsplitter_5050,
    bipartite_coefficients,
    build_state,
    coherent_spec,
    count_distribution,
    entanglement_entropy,
    explicit_spec,
    inner_product,
    odd_parity_probability,
    phase_shift,
    sample_counts,
    squeezed_spec,
    teleport_basic,
    teleport_enhanced,
)

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
    """Every number a two-mode entry point returned, as one float array."""
    if isinstance(value, BipartiteCoefficients):
        parts = (value.matrix, value.symmetric_part, value.antisymmetric_part)
        return np.concatenate([np.abs(part).ravel() for part in parts])
    if isinstance(value, CountDistribution):
        return np.array(list(value.probabilities.values()), dtype=float)
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
