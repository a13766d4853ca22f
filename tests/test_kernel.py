"""The block counting kernel against the sparse three-mode chain it replaces,
and its factored form against the dense one.

``split_and_count`` must give, record for record, what the public dict chain
``prepend_mode -> beamsplitter_5050 -> measure_modes`` gives on the same input
and resource: the same record set, probabilities to 1e-14 and receiver states
to 1e-12.

The chain drops three-mode amplitudes below its 1e-15 sparsity floor and the
kernel does not, so a receiver state normalized by a small probability p
carries the chain's floor error divided by sqrt(p).  Receiver states are
therefore compared to 1e-12 for records with p >= 1e-6, and for every record
as unnormalized amplitudes (sqrt(p) times the state) to 1e-14.

The protocols count through the same kernel with the resource as two rank-2
factors read off the orthonormal pair (u + v, u - v); ``split_and_count``
reads it as a dense matrix built from u and v.  The two must give the same
record set, probabilities to 1e-14 and receivers to 1e-12 for p >= 1e-6, also
for nearly parallel u and v, where factors taken from u and v themselves
would lose digits to cancellation.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_single
from paritysim import (
    InvalidMode,
    QubitAmplitudes,
    SingleModeState,
    beamsplitter_5050,
    build_state,
    coherent_spec,
    encode_qubit,
    explicit_spec,
    measure_modes,
    number_spec,
    phase_shift,
    prepend_mode,
    resource_from_states,
    split_and_count,
    squeezed_spec,
    tensor,
)
from paritysim.measurement import _count_factored
from paritysim.optics import _FORWARD, _block
from paritysim.states import _resource_factors, pi_shifted_spec


def dict_chain(sent, resource):
    after = beamsplitter_5050(prepend_mode(resource, sent), 0, 1)
    return {o.counts: o for o in measure_modes(after, (0, 1))}


def assert_same_records(sent, resource):
    records = split_and_count(sent, resource)
    expected = dict_chain(sent, resource)
    assert [r.counts for r in records] == sorted(expected)
    for record in records:
        want = expected[record.counts]
        assert abs(record.probability - want.probability) <= 1e-14
        post = want.post_state.as_single_mode()
        cutoff = max(post.cutoff, record.receiver.cutoff)
        got, ref = record.receiver.padded(cutoff), post.padded(cutoff)
        np.testing.assert_allclose(got * math.sqrt(record.probability),
                                   ref * math.sqrt(want.probability), rtol=0, atol=1e-14)
        if record.probability >= 1e-6:
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        assert record.receiver.norm_squared() == pytest.approx(1.0, abs=1e-12)
    return records


def teleport_inputs(u, v, q=QubitAmplitudes(0.6, 0.8j)):
    return encode_qubit(q, u, v, tilde=True), resource_from_states(u, v, "phi_minus")


class TestAgainstDictChain:
    @pytest.mark.parametrize("alpha, cutoff", [(0.08, 4), (cmath.rect(1.0, 0.4), 14),
                                               (cmath.rect(2.5, 2.1), 32)])
    def test_coherent_enhanced_pair(self, alpha, cutoff):
        spec = coherent_spec(alpha, cutoff)
        u, v = build_state(spec), build_state(pi_shifted_spec(spec))
        records = assert_same_records(*teleport_inputs(u, v))
        assert not any(na % 2 == 1 and nb % 2 == 1 for na, nb in (r.counts for r in records))

    @pytest.mark.parametrize("r, cutoff", [(0.01, 4), (0.4, 26), (0.8, 64)])
    def test_squeezed_even_only_support(self, r, cutoff):
        u, v = build_state(squeezed_spec(r, cutoff)), build_state(squeezed_spec(-r, cutoff))
        sent, resource = teleport_inputs(u, v)
        assert not np.any(sent.amplitudes[1::2])
        records = assert_same_records(sent, resource)
        # even-only inputs and resource: the photon total is always even
        assert all(sum(r.counts) % 2 == 0 for r in records)

    @pytest.mark.parametrize("low, high", [(0, 1), (0, 2), (1, 3), (2, 5)])
    def test_number_state_scissors_resource(self, rng, low, high):
        resource = resource_from_states(build_state(number_spec(low, high)),
                                        build_state(number_spec(high, high)), "phi_minus")
        sent = phase_shift(random_single(rng, 6), math.pi / 2)
        assert_same_records(sent, resource)

    def test_explicit_pair(self):
        u = build_state(explicit_spec([0.8, 0.5, 0.3, -0.1]))
        v = build_state(explicit_spec([0.2, -0.6, 0.75, 0.4, 0.1]))
        assert_same_records(*teleport_inputs(u, v))

    def test_short_input_long_resource(self):
        u, v = build_state(coherent_spec(1.0, 20)), build_state(coherent_spec(-1.0, 20))
        _, resource = teleport_inputs(u, v)
        assert_same_records(build_state(explicit_spec([0.6, 0.8j])), resource)


class TestKernelContract:
    def test_rejects_non_pair_resource(self):
        three = prepend_mode(tensor(build_state(number_spec(0, 1)),
                                    build_state(number_spec(1, 1))),
                             build_state(number_spec(0, 0)))
        with pytest.raises(InvalidMode):
            split_and_count(build_state(number_spec(1, 1)), three)

    def test_rejects_unnormalized_input(self):
        resource = tensor(build_state(number_spec(0, 1)), build_state(number_spec(1, 1)))
        with pytest.raises(ValueError):
            split_and_count(SingleModeState([0.5, 0.5]), resource)

    def test_records_sum_to_one(self):
        u, v = build_state(coherent_spec(1.5, 30)), build_state(coherent_spec(-1.5, 30))
        records = split_and_count(*teleport_inputs(u, v))
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)


def assert_factored_matches_dense(sent, u, v, kind):
    factored = {(a, total - a): (prob, receiver)
                for total, na, probs, receivers in _count_factored(
                    sent, *_resource_factors(u, v, kind))
                for a, prob, receiver in zip(na.tolist(), probs.tolist(), receivers)}
    dense = split_and_count(sent, resource_from_states(u, v, kind))
    assert sorted(factored) == [r.counts for r in dense]
    for record in dense:
        prob, receiver = factored[record.counts]
        assert abs(prob - record.probability) <= 1e-14, record.counts
        if record.probability >= 1e-6:
            np.testing.assert_allclose(receiver, record.receiver.amplitudes, rtol=0, atol=1e-12)


def coherent_pair(alpha, cutoff):
    spec = coherent_spec(alpha, cutoff)
    return build_state(spec), build_state(pi_shifted_spec(spec))


def squeezed_pair(r, cutoff):
    return build_state(squeezed_spec(r, cutoff)), build_state(squeezed_spec(-r, cutoff))


class TestFactoredAgainstDense:
    @pytest.mark.parametrize("kind", ["phi_minus", "psi_minus"])
    @pytest.mark.parametrize("pair, parameter, cutoff", [
        (squeezed_pair, 0.01, 4),  # <u|v> = 0.9999: nearly parallel
        (squeezed_pair, 1.0, 96),
        (coherent_pair, cmath.rect(0.08, 0.3), 4),
        (coherent_pair, cmath.rect(4.0, 2.2), 52),
    ], ids=["r=0.01", "r=1.0", "alpha=0.08", "alpha=4"])
    def test_teleport_pairs(self, pair, parameter, cutoff, kind):
        u, v = pair(parameter, cutoff)
        sent = encode_qubit(QubitAmplitudes(0.6, 0.8j), u, v, tilde=True)
        assert_factored_matches_dense(sent, u, v, kind)

    @pytest.mark.parametrize("kind", ["phi_minus", "psi_minus"])
    def test_scissors_number_pair(self, rng, kind):
        u, v = build_state(number_spec(1, 4)), build_state(number_spec(4, 4))
        sent = phase_shift(random_single(rng, 6), math.pi / 2)
        assert_factored_matches_dense(sent, u, v, kind)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(2, 8),
           closeness=st.floats(0.0, 4.0), sign=st.sampled_from([1.0, -1.0]),
           kind=st.sampled_from(["phi_minus", "psi_minus"]))
    def test_random_real_pairs(self, seed, size, closeness, sign, kind):
        # |<u|v>| = 1 - 10^-closeness, up to 0.9999: v = overlap u +
        # sqrt(1 - overlap^2) w with w a real unit vector orthogonal to u
        overlap = sign * (1.0 - 10.0 ** -closeness)
        gen = np.random.default_rng(seed)
        u = gen.normal(size=size)
        u /= np.linalg.norm(u)
        w = gen.normal(size=size)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        v = overlap * u + math.sqrt(1.0 - overlap * overlap) * w
        u, v = SingleModeState(u), SingleModeState(v / np.linalg.norm(v))
        qubit = gen.normal(size=2) + 1j * gen.normal(size=2)
        qubit /= np.linalg.norm(qubit)
        sent = encode_qubit(QubitAmplitudes(*qubit), u, v, tilde=True)
        assert_factored_matches_dense(sent, u, v, kind)


def test_every_block_up_to_120_is_unitary():
    worst = 0.0
    for total in range(121):
        block = _block(_FORWARD, total)
        worst = max(worst, float(np.max(np.abs(block.conj().T @ block - np.eye(total + 1)))))
    assert worst <= 1e-12
