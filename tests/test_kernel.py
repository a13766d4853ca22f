"""The block counting kernel against the public two-mode beamsplitter, and
its factored form against the dense one.

The kernel mixes ``sent`` with the first mode of a two-mode resource R and
counts the two outputs.  The reference builds the same three-mode state one
receiver level k at a time: X_k = beamsplitter_5050(sent (x) R[:, k]), so
record (na, nb) has probability sum_k |X_k[na, nb]|^2 and receiver
X_k[na, nb] / sqrt(P).  Neither route drops any amplitude, so every record
must agree: the same record set, probabilities to 1e-14 and receiver states
to 1e-12, however small the record's probability.  Both routes turn their
photon totals through the same ``optics._turn``, so this checks the
kernel's three-mode input, phases and scoring, not the turn; the turn is
checked on its own against the spectral blocks in ``tests/test_optics.py``
(``TestTurnAgainstSpectral``, ``TestBlockRecurrence``).

The protocols count through the same kernel with the resource as two rank-2
factors read off the orthonormal pair (u + v, u - v); the dense form passes
the matrix built from u and v with the identity as its second factor.  The
kernel gives each record's receiver as its coordinates in the columns of
the second factor, so the receivers are rebuilt as ``coordinates @ right.T``
(the identity leaves them as they are).  The two must give the same record
set, probabilities to 1e-14 and receivers to 1e-12 for p >= 1e-6, also for
nearly parallel u and v, where factors taken from u and v themselves would
lose digits to cancellation.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import full_block, kernel_records, random_single, total_bounds
from paritysim import (
    InvalidMode,
    QubitAmplitudes,
    SingleModeState,
    beamsplitter_5050,
    build_state,
    coherent_spec,
    count_distribution,
    encode_qubit,
    explicit_spec,
    normalize,
    number_spec,
    phase_shift,
    resource_from_states,
    squeezed_spec,
    tensor,
)
from paritysim import optics
from paritysim.measurement import OUTCOME_FLOOR, _count_factored
from paritysim.states import _factors_on_pair, plus_minus


def dict_chain(sent, resource):
    """The records of ``sent`` mixed with the first mode of ``resource``, by
    counts: (probability, receiver) through the public beamsplitter, one
    receiver level at a time."""
    levels = [beamsplitter_5050(np.outer(sent.amplitudes, column), 0, 1)
              for column in resource.T]
    amplitudes = np.stack(levels, axis=-1)  # [na, nb, k]
    weights = np.sum(np.abs(amplitudes) ** 2, axis=-1)
    return {(na, nb): (weights[na, nb], amplitudes[na, nb] / math.sqrt(weights[na, nb]))
            for na, nb in np.argwhere(weights >= OUTCOME_FLOOR).tolist()}


def assert_same_records(sent, resource):
    records = kernel_records(sent, resource)
    expected = dict_chain(sent, resource)
    assert sorted(records) == sorted(expected)
    for counts, (prob, receiver) in records.items():
        want_prob, want_receiver = expected[counts]
        assert abs(prob - want_prob) <= 1e-14, counts
        np.testing.assert_allclose(receiver, want_receiver, rtol=0, atol=1e-12,
                                   err_msg=str(counts))
        assert np.sum(np.abs(receiver) ** 2) == pytest.approx(1.0, abs=1e-12)
    return records


def teleport_inputs(u, v, q=QubitAmplitudes(0.6, 0.8j)):
    return encode_qubit(q, u, v, tilde=True), resource_from_states(u, v, "phi_minus")


def coherent_pair(alpha, cutoff):
    u = build_state(coherent_spec(alpha, cutoff))
    return u, phase_shift(u, math.pi)


def squeezed_pair(r, cutoff):
    return build_state(squeezed_spec(r, cutoff)), build_state(squeezed_spec(-r, cutoff))


class TestAgainstDictChain:
    """Against ``dict_chain``: the records, keyed by counts, of the public
    chain outer product -> ``beamsplitter_5050`` -> |amplitude|^2."""

    @pytest.mark.parametrize("alpha, cutoff", [(0.08, 4), (cmath.rect(1.0, 0.4), 14),
                                               (cmath.rect(2.5, 2.1), 32)])
    def test_coherent_enhanced_pair(self, alpha, cutoff):
        u = build_state(coherent_spec(alpha, cutoff))
        v = phase_shift(u, math.pi)
        records = assert_same_records(*teleport_inputs(u, v))
        assert not any(na % 2 == 1 and nb % 2 == 1 for na, nb in records)

    @pytest.mark.parametrize("r, cutoff", [(0.01, 4), (0.4, 26), (0.8, 64)])
    def test_squeezed_even_only_support(self, r, cutoff):
        u, v = build_state(squeezed_spec(r, cutoff)), build_state(squeezed_spec(-r, cutoff))
        sent, resource = teleport_inputs(u, v)
        assert not np.any(sent.amplitudes[1::2])
        records = assert_same_records(sent, resource)
        # even-only inputs and resource: the photon total is always even
        assert all(sum(counts) % 2 == 0 for counts in records)

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
        # a resource of three modes is not a two-mode matrix
        three = np.zeros((2, 2, 1))
        three[0, 1, 0] = 1.0
        with pytest.raises(InvalidMode):
            beamsplitter_5050(three, 0, 1)
        with pytest.raises(InvalidMode):
            count_distribution(three, 0)

    def test_rejects_unnormalized_input(self):
        resource = tensor(build_state(number_spec(0, 1)), build_state(number_spec(1, 1)))
        with pytest.raises(ValueError, match="requires a normalized input state"):
            kernel_records(SingleModeState([0.5, 0.5]), resource)

    def test_records_sum_to_one(self):
        u, v = build_state(coherent_spec(1.5, 30)), build_state(coherent_spec(-1.5, 30))
        records = kernel_records(*teleport_inputs(u, v))
        assert sum(p for p, _ in records.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("pair, parameter, cutoff", [
        (coherent_pair, cmath.rect(2.0, 0.9), 25), (squeezed_pair, 0.8, 64)])
    def test_flat_records(self, pair, parameter, cutoff):
        u, v = pair(parameter, cutoff)
        sent = encode_qubit(QubitAmplitudes(0.6, 0.8j), u, v, tilde=True)
        left, right = _factors_on_pair(plus_minus(u, v))
        counts, probs, coordinates = _count_factored(sent, left, right)
        assert counts.shape == (probs.size, 2) and coordinates.shape == (probs.size, 2)
        receivers = coordinates @ right.T
        assert receivers.shape[1] == cutoff + 1
        # strictly ascending in counts order: by na, and by nb within an na
        pairs = [tuple(record) for record in counts.tolist()]
        assert pairs == sorted(set(pairs))
        assert np.all(counts >= 0)
        assert np.all(probs >= OUTCOME_FLOOR)
        np.testing.assert_allclose(np.sum(np.abs(receivers) ** 2, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_unreachable_resource_gives_empty_arrays(self):
        sent = build_state(number_spec(1, 3))
        right = np.ones((3, 2))
        counts, probs, coordinates = _count_factored(sent, np.zeros((4, 2)), right)
        assert counts.shape == (0, 2) and probs.size == 0
        assert coordinates.shape == (0, 2)
        assert (coordinates @ right.T).shape == (0, 3)


def assert_factored_matches_dense(sent, u, v, kind):
    left, right = _factors_on_pair(plus_minus(u, v))
    counts, probs, coordinates = _count_factored(sent, left, right)
    factored = {tuple(pair): (prob, receiver) for pair, prob, receiver
                in zip(counts.tolist(), probs.tolist(), coordinates @ right.T)}
    resource = resource_from_states(u, v, kind)
    dense = kernel_records(sent, resource)
    assert sorted(factored) == sorted(dense)
    for counts, (dense_prob, dense_receiver) in dense.items():
        prob, receiver = factored[counts]
        assert abs(prob - dense_prob) <= 1e-14, counts
        if dense_prob >= 1e-6:
            np.testing.assert_allclose(receiver, dense_receiver, rtol=0, atol=1e-12)


class TestFactoredAgainstDense:
    # the factors carry phi_minus only, so the dense side is built as that kind
    @pytest.mark.parametrize("kind", ["phi_minus"])
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

    @pytest.mark.parametrize("kind", ["phi_minus"])
    def test_scissors_number_pair(self, rng, kind):
        u, v = build_state(number_spec(1, 4)), build_state(number_spec(4, 4))
        sent = phase_shift(random_single(rng, 6), math.pi / 2)
        assert_factored_matches_dense(sent, u, v, kind)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(2, 8),
           closeness=st.floats(0.0, 4.0), sign=st.sampled_from([1.0, -1.0]))
    def test_random_real_pairs(self, seed, size, closeness, sign):
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
        assert_factored_matches_dense(sent, u, v, "phi_minus")


def test_every_block_up_to_120_is_unitary():
    worst = 0.0
    for total in range(121):
        block = full_block(total)
        worst = max(worst, float(np.max(np.abs(block.conj().T @ block - np.eye(total + 1)))))
    assert worst <= 1e-12


def full_turn(sent, left, right):
    """``(c, totals, out, probs)``: the kernel's turn with every reached
    total turned, no live totals passed to ``optics._turn``, and each row's
    probability as the kernel scores it."""
    gram = np.ascontiguousarray(right.T) @ right.conj()
    twisted = sent.amplitudes * optics._MINUS_I_POWERS[np.arange(sent.amplitudes.size) % 4].conj()
    c, totals, out = optics._turn(twisted[:, None, None], left)
    probs = np.einsum("ij,ij->i", (out @ gram).view(np.float64), out.view(np.float64))
    return c, totals, out, probs


def full_count(sent, left, right):
    """The counting kernel on ``full_turn``: the reference for the totals
    that ``_count_factored`` skips."""
    c, totals, out, probs = full_turn(sent, left, right)
    kept = np.flatnonzero((probs >= OUTCOME_FLOOR) & (c <= totals))
    na = c[kept]
    nb = totals[kept] - na
    order = np.lexsort((nb, na))
    kept, counts = kept[order], np.column_stack((na[order], nb[order])).astype(np.intp)
    probs = probs[kept]
    phases = optics._MINUS_I_POWERS[counts[:, 0] % 4]
    return counts, probs, out[kept] * (phases / np.sqrt(probs))[:, None]


def full_turn_rows(sent, left, right) -> tuple[np.ndarray, np.ndarray]:
    """``(totals, probabilities)`` of every record row of ``full_turn``,
    padding dropped."""
    c, totals, _, probs = full_turn(sent, left, right)
    rows = c <= totals
    return totals[rows].astype(np.intp), probs[rows]


def tiny_coefficients(gen, size: int) -> list:
    """``size`` coefficients of random phase and magnitudes from 1 down to
    1e-12, one of them of magnitude 1."""
    magnitudes = 10.0 ** -gen.uniform(0.0, 12.0, size=size)
    magnitudes[gen.integers(size)] = 1.0
    return [cmath.rect(m, gen.uniform(0.0, 2 * math.pi)) for m in magnitudes.tolist()]


@st.composite
def kernel_inputs(draw):
    """``(sent, left, right)`` as a protocol or the parity facts pass them:
    a qubit on a coherent or squeezed pair, an explicit input with
    coefficients down to 1e-12 on a number-state pair, or a coherent input
    on the facts' one-column resource psi (x) |0>.  Cutoffs run from a few
    levels, where the top totals are live, to past the minimal one."""
    kind = draw(st.sampled_from(["coherent", "squeezed", "explicit", "facts"]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    qubit = gen.normal(size=2) + 1j * gen.normal(size=2)
    q = QubitAmplitudes(*(qubit / np.linalg.norm(qubit)))
    if kind in ("coherent", "facts"):
        magnitude = draw(st.floats(0.05, 4.0))
        alpha = cmath.rect(magnitude, draw(st.floats(0.0, 2 * math.pi)))
        cutoff = draw(st.integers(max(2, int(magnitude * magnitude)),
                                  int(magnitude * magnitude + 8 * magnitude + 20)))
        u = normalize(build_state(coherent_spec(alpha, cutoff, 0.9)))
        if kind == "facts":
            return phase_shift(u, math.pi / 2), u.amplitudes[:, None], np.ones((1, 1))
        v = phase_shift(u, math.pi)
    elif kind == "squeezed":
        r = draw(st.floats(0.01, 1.2))
        cutoff = 2 * draw(st.integers(1, 50))
        u, v = (normalize(build_state(squeezed_spec(x, cutoff, 0.9))) for x in (r, -r))
    else:
        low, high = sorted(draw(st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True)))
        u, v = build_state(number_spec(low, high)), build_state(number_spec(high, high))
        sent = build_state(explicit_spec(tiny_coefficients(gen, draw(st.integers(2, 14)))))
        return (phase_shift(sent, math.pi / 2), *_factors_on_pair(plus_minus(u, v)))
    return encode_qubit(q, u, v, tilde=True), *_factors_on_pair(plus_minus(u, v))


class TestLiveTotals:
    """The kernel turns only the totals from the first to the last whose
    bound W_N reaches half of ``OUTCOME_FLOOR``, and so keeps the bits of
    the full turn."""

    # a kept slice in a shape of its own rather than its run's moved a last
    # bit in about 1 of 40 draws, so this takes many
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(inputs=kernel_inputs(), fresh=st.booleans())
    def test_skipping_keeps_the_bits_of_the_full_turn(self, inputs, fresh):
        # a fresh store sees the skipping path first, so its bands and plans
        # are those that the skip made
        saved = optics._STORE
        try:
            if fresh:
                optics._STORE = optics._Store()
            got = _count_factored(*inputs)
            expected = full_count(*inputs)
        finally:
            optics._STORE = saved
        for array, reference in zip(got, expected):
            assert array.dtype == reference.dtype and array.shape == reference.shape
            assert array.tobytes() == reference.tobytes()

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(inputs=kernel_inputs())
    def test_a_dropped_total_holds_no_record(self, inputs):
        bounds = total_bounds(*inputs)
        totals, probs = full_turn_rows(*inputs)
        dropped = bounds[totals] < OUTCOME_FLOOR / 2
        assert (probs[dropped] < OUTCOME_FLOOR).all()
        # each row within rounding of its total's bound
        assert (probs <= bounds[totals] * (1 + 1e-12) + 1e-300).all()

    @pytest.mark.parametrize("scale", [1.02, 0.98], ids=["just above", "just below"])
    def test_a_bound_near_half_the_floor(self, scale):
        # the vacuum resource keeps every photon in the sent state, so
        # W_N = |sent_N|^2: total 5 sits just above or just below half the
        # floor, with total 3 live below it and 7 dead above it
        weight = scale * OUTCOME_FLOOR / 2
        coefficients = np.zeros(8)
        coefficients[3], coefficients[5], coefficients[7] = math.sqrt(1.0 - weight - 1e-16), math.sqrt(weight), 1e-8
        sent = SingleModeState(coefficients)
        inputs = (sent, np.array([[1.0 + 0j]]), np.ones((1, 1)))
        bounds = total_bounds(*inputs)
        assert (bounds[5] >= OUTCOME_FLOOR / 2) == (scale > 1)
        totals, probs = full_turn_rows(*inputs)
        assert (probs[totals >= 5] < OUTCOME_FLOOR).all()
        got, expected = _count_factored(*inputs), full_count(*inputs)
        for array, reference in zip(got, expected):
            assert array.tobytes() == reference.tobytes()
        assert got[0].sum(axis=1).tolist() == [3] * 4

    def test_a_split_after_a_kernel_call_of_its_shape_gets_every_total(self):
        # the kernel on the one-column resource turns amplitudes of the shape
        # of the split of the same two states, but the plans differ by the
        # totals turned: the split still holds every total
        psi = build_state(coherent_spec(2.0, 30))
        sent = phase_shift(psi, math.pi / 2)
        bounds = total_bounds(sent, psi.amplitudes[:, None], np.ones((1, 1)))
        assert bounds[-1] < OUTCOME_FLOOR / 2  # the kernel skips the top totals
        saved = optics._STORE
        try:
            optics._STORE = optics._Store()
            expected = beamsplitter_5050(tensor(sent, psi), 0, 1)
            optics._STORE = optics._Store()
            _count_factored(sent, psi.amplitudes[:, None], np.ones((1, 1)))
            assert optics._STORE.built < 61
            split = beamsplitter_5050(tensor(sent, psi), 0, 1)
        finally:
            optics._STORE = saved
        assert split.tobytes() == expected.tobytes()
        # the top total, 60, holds the product of the two top levels
        assert split[:, ::-1].diagonal().any()
