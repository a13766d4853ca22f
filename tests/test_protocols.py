import dataclasses
import math
from functools import partial

import numpy as np
import pytest

from conftest import (
    half_cycle_spec,
    kernel_records,
    random_qubit,
    random_single,
    real_overlap_partner,
)
from oracle import dense_scissors, dense_teleport
from paritysim import (
    DegenerateState,
    DegenerateSuperposition,
    InvalidMode,
    InvalidResource,
    QubitAmplitudes,
    SingleModeState,
    beamsplitter_5050,
    build_state,
    coherent_spec,
    encode_qubit,
    entanglement_entropy,
    explicit_spec,
    fidelity,
    inner_product,
    normalize,
    number_spec,
    odd_parity_probability,
    phase_shift,
    plus_minus,
    quantum_scissors,
    resource_from_states,
    squeezed_spec,
    teleport_basic,
    teleport_enhanced,
    tensor,
)
from paritysim import protocols
from paritysim.optics import _phase_factors
from paritysim.protocols import _basic_rule, _enhanced_rule, _scissors_rule


def ipow(k: int) -> complex:
    return (1.0, 1j, -1.0, -1j)[k % 4]


def collapsed_receiver_state(alpha, na: int, nb: int) -> np.ndarray:
    """Receiver-mode state after counting (na, nb), for the (0, 2) resource.

    Independent evaluation of the four-term collapsed-state expression
    (binomials and factorials written out); unnormalized, so the squared norm
    is the outcome probability.
    """
    nt = na + nb

    def choose(n, k):
        return math.comb(n, k) if 0 <= k <= n else 0

    def a(n):
        return alpha[n] if 0 <= n < len(alpha) else 0.0

    pref = math.sqrt(math.factorial(nb) * math.factorial(na))
    out = np.zeros(3, dtype=complex)
    out[2] = (a(nt) * choose(nt, nb) * pref / math.sqrt(math.factorial(nt))
              * ipow(na) / math.sqrt(2.0) ** (nt + 1))
    if nt >= 2:
        common = pref / math.sqrt(math.factorial(nt - 2)) / math.sqrt(2.0) ** (nt + 2)
        out[0] += -a(nt - 2) * choose(nt - 2, nb - 2) * common * ipow(na)
        out[0] += a(nt - 2) * choose(nt - 2, nb) * common * ipow(na - 2)
        out[0] += 2j * a(nt - 2) * choose(nt - 2, nb - 1) * common * ipow(na - 1)
    return out


def report_invariants(report):
    assert report.total_probability == pytest.approx(1.0, abs=1e-9)
    assert report.success_probability == pytest.approx(
        sum(o.probability for o in report.success_outcomes()), abs=1e-15)
    for o in report.success_outcomes():
        assert o.fidelity_to_target >= 1 - 1e-9


class TestTeleportBasic:
    def test_finite_pair_exact(self):
        q = QubitAmplitudes(0.6, 0.8)
        report = teleport_basic(q, number_spec(0, 1), number_spec(1, 1))
        assert report.success_probability == pytest.approx(0.25, abs=1e-12)
        assert report.min_success_fidelity() == pytest.approx(1.0, abs=1e-12)
        report_invariants(report)

    def test_squeezed_opposite_phase_pair(self):
        q = QubitAmplitudes(1 / math.sqrt(2), 1j / math.sqrt(2))
        report = teleport_basic(q, squeezed_spec(0.4, 30), squeezed_spec(-0.4, 30))
        assert report.success_probability == pytest.approx(0.25, abs=1e-9)
        assert report.min_success_fidelity() >= 1 - 1e-9
        report_invariants(report)

    def test_success_rate_independent_of_inputs(self, rng):
        # 5 random qubits x 5 random finite-support pairs
        for _ in range(5):
            u = random_single(rng, 4)
            v = real_overlap_partner(rng, u)
            u_spec = explicit_spec(u.amplitudes)
            v_spec = explicit_spec(v.amplitudes)
            for _ in range(5):
                q = random_qubit(rng)
                report = teleport_basic(q, u_spec, v_spec)
                assert report.success_probability == pytest.approx(0.25, abs=1e-9)
                assert report.min_success_fidelity() >= 1 - 1e-9
                report_invariants(report)

    def test_matches_dense_oracle(self, rng):
        q = random_qubit(rng)
        u = normalize(SingleModeState([0.8, 0.1, 0.4]))
        v = normalize(SingleModeState([0.1, -0.7, 0.2]))
        report = teleport_basic(q, explicit_spec(u.amplitudes), explicit_spec(v.amplitudes))
        expected = dense_teleport(q, u.amplitudes, v.amplitudes, dim=6, enhanced=False)
        got = {o.counts: o for o in report.outcomes}
        assert set(got) == set(expected)
        for counts, (prob, classification, fid) in expected.items():
            assert got[counts].probability == pytest.approx(prob, abs=1e-12)
            assert got[counts].classification == classification
            assert got[counts].fidelity_to_target == pytest.approx(fid, abs=1e-12)

    def test_same_basis_combinations_never_odd_in_a(self, rng):
        # the two matched sender/resource basis combinations feed the
        # even-parity guarantee, outcome by outcome
        u = random_single(rng, 5)
        v = real_overlap_partner(rng, u)
        plus, minus = plus_minus(u, v)
        for basis in (plus, minus):
            shifted = phase_shift(basis, math.pi / 2)
            out = beamsplitter_5050(tensor(shifted, basis), 0, 1)
            assert odd_parity_probability(out, 0) <= 1e-12

    def test_odd_a_restriction_reproduces_logical_state(self, rng):
        # the antisymmetric-part argument, numerically: every odd-count-A
        # record leaves the receiver in the plain logical encoding
        for _ in range(3):
            u = random_single(rng, 4)
            v = real_overlap_partner(rng, u)
            q = random_qubit(rng)
            report = teleport_basic(q, explicit_spec(u.amplitudes), explicit_spec(v.amplitudes))
            target = encode_qubit(q, u, v, tilde=False)
            for o in report.outcomes:
                if o.counts[0] % 2 == 1:
                    assert fidelity(o.corrected_post_state, target) == pytest.approx(1.0, abs=1e-10)

    def test_odd_b_outcomes_recorded_as_failures(self):
        q = QubitAmplitudes(0.6, 0.8)
        report = teleport_basic(q, number_spec(0, 1), number_spec(1, 1))
        failures = [o for o in report.outcomes if o.classification == "failure"]
        assert failures and all(o.counts[1] % 2 == 1 for o in failures)
        assert all(o.fidelity_to_target is not None for o in failures)

    def test_retilde_restores_sent_encoding(self, rng):
        u = random_single(rng, 4)
        v = real_overlap_partner(rng, u)
        q = random_qubit(rng)
        report = teleport_basic(q, explicit_spec(u.amplitudes), explicit_spec(v.amplitudes),
                                retilde=True)
        sent = encode_qubit(q, u, v, tilde=True)
        for o in report.success_outcomes():
            assert fidelity(o.corrected_post_state, sent) == pytest.approx(1.0, abs=1e-10)


class TestTeleportEnhanced:
    def test_single_photon_resource_case(self):
        q = QubitAmplitudes(0.28, 0.96j)
        report = teleport_enhanced(q, explicit_spec([1.0, 1.0]))
        assert report.success_probability == pytest.approx(0.5, abs=1e-12)
        assert report.min_success_fidelity() == pytest.approx(1.0, abs=1e-12)
        report_invariants(report)

    def test_coherent(self):
        q = QubitAmplitudes(0.6, -0.8)
        report = teleport_enhanced(q, coherent_spec(1.0, 25))
        assert report.success_probability == pytest.approx(0.5, abs=1e-9)
        assert report.min_success_fidelity() >= 1 - 1e-9

    def test_vacuum_input_degenerate(self):
        with pytest.raises(DegenerateSuperposition):
            teleport_enhanced(QubitAmplitudes(1, 0), coherent_spec(0.0, 5))

    def test_builds_one_state(self, monkeypatch):
        built = []

        def counted(spec):
            built.append(spec)
            return build_state(spec)

        monkeypatch.setattr(protocols, "build_state", counted)
        spec = coherent_spec(1.0, 25)
        teleport_enhanced(QubitAmplitudes(0.6, 0.8j), spec)
        assert built == [spec]

    @pytest.mark.parametrize("spec", [squeezed_spec(0.4, 28), number_spec(2, 5)],
                             ids=["squeezed", "number"])
    def test_single_parity_input_degenerate(self, spec):
        # the half-cycle shift leaves a state of one parity as it is, so the
        # pair is u twice and the message names |<u|u>|
        u = build_state(spec)
        with pytest.raises(DegenerateSuperposition) as raised:
            teleport_enhanced(QubitAmplitudes(0.6, 0.8j), spec)
        overlap = abs(inner_product(u, u))
        assert str(raised.value) == f"|<u|v>| = {overlap} leaves no superposition direction"

    @pytest.mark.parametrize("spec", [
        coherent_spec(1.0, 25),
        coherent_spec(-2.5, 40),
        coherent_spec(3j, 50),
        coherent_spec(2.0 * np.exp(0.7j), 30),
        explicit_spec([complex(0.3, -0.0), complex(-0.0, 0.2), 0, 0.4], 6),
    ], ids=["alpha=1", "alpha=-2.5", "alpha=3j", "alpha=2", "explicit-signed-zeros"])
    @pytest.mark.parametrize("retilde", [False, True])
    def test_report_equals_the_negated_spec_run(self, spec, retilde):
        # the derived partner and the one built from the negated spec differ
        # at most in the signs of exact zeros (TestDerivedPartner in
        # test_states.py), which no sum keeps: the reports have the same bytes
        q = QubitAmplitudes(0.6, 0.8j)
        report = teleport_enhanced(q, spec, retilde=retilde)
        negated = protocols._run_teleport("teleport_enhanced", q, build_state(spec),
                                          build_state(half_cycle_spec(spec)), _enhanced_rule,
                                          retilde)
        for field in dataclasses.fields(report):
            mine, theirs = getattr(report, field.name), getattr(negated, field.name)
            if isinstance(mine, np.ndarray):
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), field.name
            else:
                assert mine == theirs, field.name
        assert report.receivers.tobytes() == negated.receivers.tobytes()

    def test_independence_sweep(self, rng):
        for _ in range(5):
            amps = rng.normal(size=5) + 1j * rng.normal(size=5)
            u_spec = explicit_spec(amps)
            for _ in range(5):
                q = random_qubit(rng)
                report = teleport_enhanced(q, u_spec)
                assert report.success_probability == pytest.approx(0.5, abs=1e-9)
                assert report.min_success_fidelity() >= 1 - 1e-9
                report_invariants(report)

    def test_exactly_one_odd_count_per_success(self, rng):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        report = teleport_enhanced(random_qubit(rng), explicit_spec(amps))
        for o in report.outcomes:
            odd_count = (o.counts[0] % 2) + (o.counts[1] % 2)
            assert odd_count != 2  # never both odd
            assert (o.classification == "success") == (odd_count == 1)

    def test_combination_parity_structure(self, rng):
        # for these pairs, matched sender/resource basis combinations produce
        # even counts at BOTH outputs; cross combinations produce an odd
        # total, split between exactly one of the two outputs
        amps = rng.normal(size=5) + 1j * rng.normal(size=5)
        u = normalize(SingleModeState(amps))
        v = phase_shift(u, math.pi)
        plus, minus = plus_minus(u, v)
        for a_basis, b_basis, expect_total_odd in (
            (plus, plus, False), (minus, minus, False),
            (plus, minus, True), (minus, plus, True),
        ):
            out = beamsplitter_5050(tensor(phase_shift(a_basis, math.pi / 2), b_basis), 0, 1)
            for na, nb in np.argwhere(np.abs(out) > 1e-12).tolist():
                assert ((na + nb) % 2 == 1) == expect_total_odd

    def test_half_cycle_correction_flips_only_odd_basis_state(self, rng):
        # the claimed correction: for these pairs the half-cycle shift leaves
        # the even-support basis state alone and negates the odd-support one
        amps = rng.normal(size=6) + 1j * rng.normal(size=6)
        u = normalize(SingleModeState(amps))
        v = phase_shift(u, math.pi)
        plus, minus = plus_minus(u, v)
        np.testing.assert_allclose(phase_shift(plus, math.pi).amplitudes, plus.amplitudes,
                                   atol=1e-14)
        np.testing.assert_allclose(phase_shift(minus, math.pi).amplitudes, -minus.amplitudes,
                                   atol=1e-14)

    def test_matches_dense_oracle(self, rng):
        q = random_qubit(rng)
        u = normalize(SingleModeState([0.7, 0.3, 0.5, 0.2]))
        report = teleport_enhanced(q, explicit_spec(u.amplitudes))
        v_amp = u.amplitudes * np.array([1, -1, 1, -1])
        expected = dense_teleport(q, u.amplitudes, v_amp, dim=8, enhanced=True)
        got = {o.counts: o for o in report.outcomes}
        assert set(got) == set(expected)
        for counts, (prob, classification, fid) in expected.items():
            assert got[counts].probability == pytest.approx(prob, abs=1e-12)
            assert got[counts].classification == classification
            assert got[counts].fidelity_to_target == pytest.approx(fid, abs=1e-12)


class TestQuantumScissors:
    def test_low_instance_probabilities(self):
        state = build_state(explicit_spec([0.5, 0.5, 0.5, 0.5]))
        report = quantum_scissors(state, 0, 2)
        by_counts = {o.counts: o for o in report.outcomes}
        assert by_counts[(1, 1)].probability == pytest.approx(0.125, abs=1e-12)
        joint = by_counts[(2, 0)].probability + by_counts[(0, 2)].probability
        assert joint == pytest.approx(0.125, abs=1e-12)
        assert report.success_probability == pytest.approx(0.25, abs=1e-12)
        for counts in ((1, 1), (2, 0), (0, 2)):
            assert by_counts[counts].fidelity_to_target == pytest.approx(1.0, abs=1e-12)
        report_invariants(report)

    def test_collapsed_state_formula_term_by_term(self):
        # every counting record of the (0, 2) instance must reproduce the
        # four-term expression, amplitude for amplitude (global phase included)
        alpha = np.array([0.5, -0.3 + 0.2j, 0.6, 0.1j, 0.35], dtype=complex)
        alpha = alpha / np.linalg.norm(alpha)
        report = quantum_scissors(SingleModeState(alpha), 0, 2)
        for o in report.outcomes:
            expected = collapsed_receiver_state(alpha, *o.counts)
            prob = float(np.sum(np.abs(expected) ** 2))
            assert o.probability == pytest.approx(prob, abs=1e-12)
            # compare the raw collapsed state, not the corrected one
            post = o.corrected_post_state
            if o.correction_phase:
                post = phase_shift(post, -o.correction_phase)
            got = post.padded(4)[:3] * math.sqrt(o.probability)
            np.testing.assert_allclose(got, expected, atol=1e-12)
        total_grid = sum(
            float(np.sum(np.abs(collapsed_receiver_state(alpha, na, nb)) ** 2))
            for na in range(8) for nb in range(8))
        assert total_grid == pytest.approx(1.0, abs=1e-9)

    def test_input_supported_on_kept_levels(self):
        state = build_state(explicit_spec([0.8, 0.0, 0.6]))
        report = quantum_scissors(state, 0, 2)
        assert report.success_probability == pytest.approx(0.5, abs=1e-12)
        assert report.min_success_fidelity() == pytest.approx(1.0, abs=1e-12)

    def test_general_pair_matches_dense_oracle(self):
        alpha = np.array([0.4, 0.3, 0.5, 0.2, 0.3, 0.1], dtype=complex)
        alpha = alpha / np.linalg.norm(alpha)
        report = quantum_scissors(SingleModeState(alpha), 1, 3)
        expected = dense_scissors(alpha, 1, 3, dim=10)
        got = {o.counts: o for o in report.outcomes}
        assert set(got) == set(expected)
        for counts, (prob, classification, fid) in expected.items():
            assert got[counts].probability == pytest.approx(prob, abs=1e-12)
            assert got[counts].classification == classification
            assert got[counts].fidelity_to_target == pytest.approx(fid, abs=1e-12)
        kept = abs(alpha[1]) ** 2 + abs(alpha[3]) ** 2
        assert report.success_probability == pytest.approx(kept / 2, abs=1e-12)

    def test_correction_depends_on_parity_of_a(self):
        state = build_state(explicit_spec([0.5, 0.5, 0.5, 0.5]))
        report = quantum_scissors(state, 0, 2)
        for o in report.success_outcomes():
            if o.counts[0] % 2 == 1:
                assert o.correction_phase == 0.0
            else:
                assert o.correction_phase == pytest.approx(math.pi / 2)

    def test_equal_kept_levels_rejected(self):
        state = build_state(explicit_spec([1.0, 1.0]))
        with pytest.raises(InvalidResource):
            quantum_scissors(state, 2, 2)

    def test_no_weight_on_kept_levels(self):
        state = build_state(explicit_spec([0.0, 1.0]))
        with pytest.raises(DegenerateState):
            quantum_scissors(state, 0, 2)


class TestFidelity:
    def test_identical(self, rng):
        s = random_single(rng, 5)
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal(self):
        assert fidelity(build_state(number_spec(0, 1)), build_state(number_spec(1, 1))) == 0.0

    def test_half_overlap(self):
        plus = build_state(explicit_spec([1.0, 1.0]))
        assert fidelity(plus, build_state(number_spec(0, 1))) == pytest.approx(0.5, abs=1e-14)


class TestEntanglementEntropy:
    def test_product_state(self):
        st = tensor(build_state(number_spec(0, 1)), build_state(number_spec(1, 1)))
        assert entanglement_entropy(st) == pytest.approx(0.0, abs=1e-12)

    def test_single_photon_pair(self):
        st = np.array([[0.0, 1.0], [-1.0, 0.0]]) / math.sqrt(2)
        assert entanglement_entropy(st) == pytest.approx(1.0, abs=1e-14)

    def test_coherent_resource(self):
        from paritysim import build_resource

        res = build_resource(coherent_spec(1.3, 26), coherent_spec(-1.3, 26), "phi_minus")
        assert entanglement_entropy(res.two_mode_state) == pytest.approx(1.0, abs=1e-9)

    def test_requires_two_modes(self):
        with pytest.raises(ValueError):
            entanglement_entropy(np.ones((1, 1, 1)))

    @pytest.mark.parametrize("matrix, error, message", [
        (np.zeros((0, 3)), InvalidMode, "at least one level in each mode"),
        (np.zeros((2, 2)), ValueError, "must be normalized"),
        (2 * np.eye(2), ValueError, "must be normalized"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), ValueError, "must be finite"),
        (np.diag([1e200, 1e200]), ValueError, "must be normalized"),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), None, None),
        # its one squared Schmidt coefficient rounds to just above 1
        (np.outer([0.1, 0.2, 0.3], [1.0, 2.0]) / math.sqrt(0.14 * 5.0), None, None),
    ], ids=["empty-axis", "zero", "unnormalized", "nan", "huge", "product", "product-rounding"])
    def test_refuses_or_is_non_negative(self, matrix, error, message):
        if error is None:
            entropy = entanglement_entropy(matrix)
            assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0
        else:
            with pytest.raises(error, match=message):
                entanglement_entropy(matrix)


# the rules as they read record by record, for the array rules to match
def reference_basic(quarter, na, nb):
    if na % 2:
        return "success", quarter
    return ("failure" if nb % 2 else "filtered"), None


def reference_enhanced(quarter, na, nb):
    if na % 2 == nb % 2:
        return ("failure" if na % 2 else "filtered"), None
    return "success", (math.pi if nb % 2 else 0.0) + quarter


def reference_scissors(herald_total, keep_low, keep_high, na, nb):
    if na + nb != herald_total:
        return "filtered", None
    return "success", (0.0 if na % 2 else math.pi / (keep_high - keep_low))


class TestRuleTables:
    """Classification and correction phase of every record, by count parity.

    Phases are compared exactly: results documents carry them bit for bit.
    """

    @pytest.mark.parametrize("retilde", [False, True])
    @pytest.mark.parametrize("enhanced", [False, True])
    def test_teleport_records(self, enhanced, retilde):
        quarter = math.pi / 2 if retilde else 0.0
        q = QubitAmplitudes(0.6, 0.8j)
        if enhanced:
            report = teleport_enhanced(q, coherent_spec(0.9, 16), retilde=retilde)
            table = {
                (1, 0): ("success", quarter),
                (0, 1): ("success", math.pi + quarter),
                (1, 1): ("failure", None),
                (0, 0): ("filtered", None),
            }
        else:
            report = teleport_basic(q, coherent_spec(0.9, 16), coherent_spec(0.3, 16),
                                    retilde=retilde)
            table = {
                (1, 0): ("success", quarter),
                (1, 1): ("success", quarter),
                (0, 1): ("failure", None),
                (0, 0): ("filtered", None),
            }
        seen = set()
        for o in report.outcomes:
            parity = (o.counts[0] % 2, o.counts[1] % 2)
            seen.add(parity)
            classification, phase = table[parity]
            assert o.classification == classification
            if phase is None:
                assert o.correction_phase is None
            else:
                assert type(o.correction_phase) is float
                assert o.correction_phase == phase
        # half-cycle pairs never give odd counts in both outputs
        assert seen == (set(table) - {(1, 1)} if enhanced else set(table))

    @pytest.mark.parametrize("retilde", [False, True])
    def test_enhanced_both_odd_is_failure(self, retilde):
        # no enhanced run produces this record, so the rule is asked directly
        classifications, corrections = _enhanced_rule(math.pi / 2 if retilde else 0.0)(
            np.array([3]), np.array([1]))
        assert classifications.tolist() == ["failure"]
        assert np.isnan(corrections).all()

    @pytest.mark.parametrize("rule, reference", [
        (_basic_rule(0.0), partial(reference_basic, 0.0)),
        (_basic_rule(math.pi / 2), partial(reference_basic, math.pi / 2)),
        (_enhanced_rule(0.0), partial(reference_enhanced, 0.0)),
        (_enhanced_rule(math.pi / 2), partial(reference_enhanced, math.pi / 2)),
        (_scissors_rule(1 + 3, math.pi / (3 - 1)), partial(reference_scissors, 1 + 3, 1, 3)),
        (_scissors_rule(0 + 5, math.pi / (5 - 0)), partial(reference_scissors, 0 + 5, 0, 5)),
    ], ids=["basic", "basic_retilde", "enhanced", "enhanced_retilde", "scissors_1_3",
            "scissors_0_5"])
    def test_every_count_up_to_12(self, rule, reference):
        na, nb = (grid.ravel() for grid in np.meshgrid(np.arange(13), np.arange(13)))
        classifications, corrections = rule(na, nb)
        for a, b, classification, phase in zip(na.tolist(), nb.tolist(),
                                               classifications.tolist(), corrections.tolist()):
            want_classification, want_phase = reference(a, b)
            assert classification == want_classification, (a, b)
            if want_phase is None:
                assert math.isnan(phase), (a, b)
            else:
                assert phase == want_phase, (a, b)


def _teleport_case(enhanced, retilde):
    q = QubitAmplitudes(0.6, 0.8j)
    if enhanced:
        spec = coherent_spec(2.0 * np.exp(0.7j), 25)
        u = build_state(spec)
        v = phase_shift(u, math.pi)
        report = teleport_enhanced(q, spec, retilde=retilde)
    else:
        u, v = build_state(squeezed_spec(0.6, 42)), build_state(squeezed_spec(-0.6, 42))
        report = teleport_basic(q, squeezed_spec(0.6, 42), squeezed_spec(-0.6, 42),
                                retilde=retilde)
    sent = encode_qubit(q, u, v, tilde=True)
    return report, kernel_records(sent, resource_from_states(u, v, "phi_minus"))


def _scissors_case():
    state = build_state(explicit_spec([0.3, 0.5j, -0.4, 0.2 + 0.3j, 0.5, -0.3j]))
    report = quantum_scissors(state, 1, 3)
    resource = resource_from_states(build_state(number_spec(1, 3)),
                                    build_state(number_spec(3, 3)), "phi_minus")
    return report, kernel_records(phase_shift(state, math.pi / 2), resource)


RECEIVER_CASES = {
    "basic": lambda: _teleport_case(False, False),
    "basic_retilde": lambda: _teleport_case(False, True),
    "enhanced": lambda: _teleport_case(True, False),
    "enhanced_retilde": lambda: _teleport_case(True, True),
    "scissors": _scissors_case,
}


class TestReceiverContract:
    """Each record's corrected receiver is its own finite, normalized,
    read-only state: its kernel receiver shifted by its own correction."""

    @pytest.mark.parametrize("name", sorted(RECEIVER_CASES))
    def test_finite_normalized_read_only(self, name):
        report, _ = RECEIVER_CASES[name]()
        for o in report.outcomes:
            amps = o.corrected_post_state.amplitudes
            assert np.all(np.isfinite(amps))
            assert o.corrected_post_state.norm_squared() == pytest.approx(1.0, abs=1e-12)
            assert not amps.flags.writeable
            with pytest.raises(ValueError):
                amps[0] = 0.0

    @pytest.mark.parametrize("name", sorted(RECEIVER_CASES))
    def test_each_row_carries_its_own_correction(self, name):
        report, reference = RECEIVER_CASES[name]()
        assert [o.counts for o in report.outcomes] == sorted(reference)
        phases_by_total = {}
        for o in report.outcomes:
            phases_by_total.setdefault(sum(o.counts), set()).add(o.correction_phase)
            back = o.corrected_post_state
            if o.correction_phase is not None:
                back = phase_shift(back, -o.correction_phase)
            _, want = reference[o.counts]
            scale = math.sqrt(o.probability)
            np.testing.assert_allclose(back.amplitudes * scale, want * scale, rtol=0, atol=1e-14)
            if o.probability >= 1e-6:
                np.testing.assert_allclose(back.amplitudes, want, rtol=0, atol=1e-12)
        # some photon total mixes records of different correction phases
        assert max(len(phases) for phases in phases_by_total.values()) >= 2


class TestColumnarReport:
    """A report stores its records as read-only columns in counts order, and
    ``outcomes`` is one cached view of the same records."""

    @pytest.mark.parametrize("name", sorted(RECEIVER_CASES))
    def test_records_are_the_columns(self, name):
        report, _ = RECEIVER_CASES[name]()
        assert report.outcomes is report.outcomes
        columns = (report.counts, report.probabilities, report.classifications,
                   report.fidelities, report.corrections, report.coordinates)
        for column in columns:
            assert column.shape[0] == len(report.outcomes)
            assert not column.flags.writeable
        assert report.coordinates.shape[1] == report.basis.shape[1] == 2
        assert not report.basis.flags.writeable
        for i, o in enumerate(report.outcomes):
            assert o.counts == tuple(report.counts[i].tolist())
            assert [type(n) for n in o.counts] == [int, int]
            assert type(o.probability) is float and o.probability == report.probabilities[i]
            assert type(o.classification) is str
            assert o.classification == report.classifications[i]
            assert type(o.fidelity_to_target) is float
            assert o.fidelity_to_target == report.fidelities[i]
            if o.correction_phase is None:
                assert np.isnan(report.corrections[i])
            else:
                assert type(o.correction_phase) is float
                assert o.correction_phase == report.corrections[i]
            amplitudes = o.corrected_post_state.amplitudes
            assert np.shares_memory(amplitudes, report.receivers)
            assert np.array_equal(amplitudes, report.receivers[i])
        counts = [o.counts for o in report.outcomes]
        assert counts == sorted(set(counts))

    def test_replace_keeps_edited_records(self):
        report, _ = RECEIVER_CASES["enhanced"]()
        edited = list(report.outcomes)
        edited[0] = dataclasses.replace(edited[0], probability=0.5)
        assert dataclasses.replace(report, outcomes=edited).outcomes == tuple(edited)
        rebuilt = dataclasses.replace(report, success_probability=0.0)
        assert rebuilt.outcomes == report.outcomes and rebuilt.outcomes[0].probability != 0.5


class TestLazyReceivers:
    """A report keeps each receiver as its coordinates in the resource's
    second-mode factor ``basis``; the receiver vectors are built on first
    read.  A run scores each fidelity from its record's two coordinates and
    the target projected on ``basis`` for the record's correction, so a
    record's fidelity does not depend on the other records."""

    @pytest.mark.parametrize("name", sorted(RECEIVER_CASES))
    def test_built_on_first_read_as_one_product(self, name):
        report, _ = RECEIVER_CASES[name]()
        assert "receivers" not in report.__dict__
        # one product over all rows, then each row shifted by its correction
        expected = report.coordinates @ np.ascontiguousarray(report.basis.T)
        for phase in set(report.corrections[~np.isnan(report.corrections)].tolist()) - {0.0}:
            expected[report.corrections == phase] *= _phase_factors(phase, expected.shape[1])
        receivers = report.receivers
        assert receivers is report.receivers
        assert receivers.shape == expected.shape and receivers.tobytes() == expected.tobytes()
        assert not receivers.flags.writeable
        with pytest.raises(ValueError):
            receivers[0, 0] = 0.0
        for i, o in enumerate(report.outcomes):
            assert np.shares_memory(o.corrected_post_state.amplitudes, receivers)
            assert np.array_equal(o.corrected_post_state.amplitudes, receivers[i])

    @staticmethod
    def _scored(enhanced: bool, retilde: bool):
        """A report of many records and the conjugate of its target's amplitudes."""
        q = QubitAmplitudes(0.6, 0.8j)
        if enhanced:
            u_spec = coherent_spec(4.0 * np.exp(2.2j), 52)
            u = build_state(u_spec)
            v = phase_shift(u, math.pi)
            report = teleport_enhanced(q, u_spec, retilde=retilde)
        else:
            u_spec, v_spec = squeezed_spec(1.0, 96), squeezed_spec(-1.0, 96)
            u, v = build_state(u_spec), build_state(v_spec)
            report = teleport_basic(q, u_spec, v_spec, retilde=retilde)
        target = encode_qubit(q, u, v, tilde=retilde)
        return report, target.padded(report.basis.shape[0] - 1).conj()

    @pytest.mark.parametrize("enhanced", [False, True], ids=["squeezed", "coherent"])
    @pytest.mark.parametrize("retilde", [False, True])
    def test_each_record_scored_alone(self, enhanced, retilde):
        report, conj_target = self._scored(enhanced, retilde)
        coordinates, corrections = report.coordinates, report.corrections
        shifted = ~np.isnan(corrections) & (corrections != 0.0)
        groups = [(~shifted, conj_target)] + [
            (corrections == phase, _phase_factors(phase, conj_target.size) * conj_target)
            for phase in set(corrections[shifted].tolist())]
        # the rows of one correction phase as a subset, then each row alone,
        # scored by the run's own formula
        for rows, weights in groups:
            projection = report.basis.T @ weights
            scored = protocols._overlaps(coordinates[rows], projection)
            assert scored.tobytes() == report.fidelities[rows].tobytes()
            for i in np.flatnonzero(rows).tolist():
                alone = protocols._overlaps(coordinates[i : i + 1], projection)
                assert alone.tobytes() == report.fidelities[i : i + 1].tobytes()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double is no wider than float64 here")
    @pytest.mark.parametrize("enhanced", [False, True], ids=["squeezed", "coherent"])
    @pytest.mark.parametrize("retilde", [False, True])
    def test_fidelities_match_long_double(self, enhanced, retilde):
        report, conj_target = self._scored(enhanced, retilde)
        overlaps = report.receivers.astype(np.clongdouble) @ conj_target.astype(np.clongdouble)
        errors = np.abs(report.fidelities.astype(np.longdouble) - np.abs(overlaps) ** 2)
        assert float(errors.max()) <= 1e-15
