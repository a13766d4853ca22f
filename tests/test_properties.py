"""Randomized checks of the protocols' laws over their parameter space."""

import cmath

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from paritysim import (
    QubitAmplitudes,
    build_state,
    coherent_spec,
    explicit_spec,
    inner_product,
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
