"""The block counting kernel against the sparse three-mode chain it replaces.

``split_and_count`` must give, record for record, what the public dict chain
``prepend_mode -> beamsplitter_5050 -> measure_modes`` gives on the same input
and resource: the same record set, probabilities to 1e-14 and receiver states
to 1e-12.

The chain drops three-mode amplitudes below its 1e-15 sparsity floor and the
kernel does not, so a receiver state normalized by a small probability p
carries the chain's floor error divided by sqrt(p).  Receiver states are
therefore compared to 1e-12 for records with p >= 1e-6, and for every record
as unnormalized amplitudes (sqrt(p) times the state) to 1e-14.
"""

import cmath
import math

import numpy as np
import pytest

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
from paritysim.optics import _FORWARD, _block
from paritysim.states import pi_shifted_spec


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


def test_every_block_up_to_120_is_unitary():
    worst = 0.0
    for total in range(121):
        block = _block(_FORWARD, total)
        worst = max(worst, float(np.max(np.abs(block.conj().T @ block - np.eye(total + 1)))))
    assert worst <= 1e-12
