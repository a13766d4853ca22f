import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import half_cycle_spec, random_single, real_overlap_partner
from paritysim import (
    DegenerateState,
    DegenerateSuperposition,
    NonRealOverlap,
    QubitAmplitudes,
    SingleModeState,
    StateSpec,
    TruncationTooSevere,
    build_resource,
    build_state,
    coherent_spec,
    encode_qubit,
    entanglement_entropy,
    explicit_spec,
    fidelity,
    inner_product,
    normalize,
    number_spec,
    opposite_phase_partner,
    phase_shift,
    plus_minus,
    resource_from_states,
    squeezed_spec,
    states,
)


class TestStateSpec:
    def test_requires_matching_parameter(self):
        with pytest.raises(ValueError):
            StateSpec(kind="coherent", cutoff=10)  # alpha missing
        with pytest.raises(ValueError):
            StateSpec(kind="number", cutoff=10, n=3, r=0.1)  # extra parameter

    def test_number_needs_room(self):
        with pytest.raises(ValueError):
            StateSpec(kind="number", cutoff=2, n=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StateSpec(kind="thermal", cutoff=5)


class TestBuildState:
    def test_coherent_vacuum_limit(self):
        state = build_state(coherent_spec(0.0, 5))
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0, 0, 0])

    def test_coherent_known_amplitude(self):
        # amplitude at n=2 is e^{-1/2}/sqrt(2); norm is 1 up to the audited tail
        state = build_state(coherent_spec(1.0, 20))
        assert state.amplitudes[2] == pytest.approx(math.exp(-0.5) / math.sqrt(2), abs=1e-15)
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-13)

    def test_squeezed_even_support(self):
        state = build_state(squeezed_spec(0.4, 20, tail_tolerance=1e-9))
        odd = state.amplitudes[1::2]
        assert np.all(odd == 0)

    def test_squeezed_alternating_signs(self):
        state = build_state(squeezed_spec(0.4, 12, tail_tolerance=1e-4))
        even = state.amplitudes[0::2].real
        assert even[0] > 0
        assert all(even[k] * even[k + 1] < 0 for k in range(len(even) - 1))

    def test_squeezed_negative_r_is_quarter_shift(self):
        # the opposite-phase partner equals the r -> -r factory output
        u = build_state(squeezed_spec(0.4, 30))
        v = build_state(squeezed_spec(-0.4, 30))
        np.testing.assert_allclose(
            opposite_phase_partner(u).amplitudes, v.amplitudes, atol=1e-14)

    def test_truncation_refusal(self):
        with pytest.raises(TruncationTooSevere):
            build_state(coherent_spec(4.0, 5))

    def test_explicit_normalizes_silently(self):
        state = build_state(explicit_spec([2.0, 2.0]))
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-14)

    def test_explicit_all_zero(self):
        with pytest.raises(DegenerateState):
            build_state(explicit_spec([0.0, 0.0]))

    def test_number(self):
        state = build_state(number_spec(3, 6))
        assert state.amplitudes[3] == 1
        assert state.norm_squared() == 1


class TestPlusMinus:
    def test_orthogonal_inputs(self):
        plus, minus = plus_minus(build_state(number_spec(0, 1)), build_state(number_spec(1, 1)))
        np.testing.assert_allclose(plus.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-15)
        np.testing.assert_allclose(minus.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-15)

    def test_identical_inputs_degenerate(self):
        zero = build_state(number_spec(0, 1))
        with pytest.raises(DegenerateSuperposition):
            plus_minus(zero, zero)

    def test_opposite_coherent(self):
        # construct numerically; verify orthogonality and norms by direct summation
        u = build_state(coherent_spec(1.0, 25))
        v = build_state(coherent_spec(-1.0, 25))
        plus, minus = plus_minus(u, v)
        overlap = np.sum(np.conj(plus.amplitudes) * minus.amplitudes)
        assert abs(overlap) < 1e-10
        assert np.sum(np.abs(plus.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(np.abs(minus.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_non_real_overlap_rejected(self):
        u = build_state(number_spec(0, 1))
        v = normalize(SingleModeState([1j, 1.0]))
        with pytest.raises(NonRealOverlap):
            plus_minus(u, v)

    def test_squeezed_half_cycle_shift_is_degenerate(self):
        # even-support states are invariant under the half-cycle shift, so
        # that construction cannot define a pair (regression for the r -> -r
        # convention choice)
        u = build_state(squeezed_spec(0.4, 28))
        with pytest.raises(DegenerateSuperposition):
            plus_minus(u, phase_shift(u, math.pi))

    def test_randomized_orthonormality(self, rng):
        for _ in range(10):
            u = random_single(rng, 8)
            v = real_overlap_partner(rng, u)
            if abs(inner_product(u, v)) > 0.99:
                continue
            plus, minus = plus_minus(u, v)
            assert abs(inner_product(plus, minus)) < 1e-10
            assert plus.norm_squared() == pytest.approx(1.0, abs=1e-12)
            assert minus.norm_squared() == pytest.approx(1.0, abs=1e-12)


class TestParityStructure:
    def test_even_odd_split_for_half_cycle_pairs(self):
        # v = half-cycle shift of u: the sum keeps only even levels, the
        # difference only odd ones; assert amplitude-wise
        u = build_state(coherent_spec(1.2, 25))
        v = phase_shift(u, math.pi)
        plus, minus = plus_minus(u, v)
        assert np.all(plus.amplitudes[1::2] == 0)
        assert np.all(minus.amplitudes[0::2] == 0)


class TestDerivedPartner:
    """``phase_shift(u, pi)``, the partner that ``teleport_enhanced`` derives,
    is the state built from the negated spec.  Every nonzero amplitude has
    the same bits, and so has the tail.  An exact zero can carry the other
    sign (alpha on an axis, or amplitudes that underflow on the exponent
    path), since the shift multiplies by the complex factors +-1 where the
    negated spec's recursion multiplies by -alpha.  Adding +0.0 turns -0.0
    into +0.0 and leaves every other float as it is, so the bytes are
    compared after it."""

    @pytest.mark.parametrize("spec", [
        coherent_spec(0.0, 4),
        coherent_spec(0.08 * np.exp(0.4j), 4),
        coherent_spec(1.0, 25),
        coherent_spec(-2.5, 40),
        coherent_spec(3j, 50),
        coherent_spec(2.0 * np.exp(0.7j), 30),
        coherent_spec(4.0 * np.exp(2.2j), 52),
        coherent_spec(39.0 * np.exp(0.3j), 1900),
        explicit_spec([0.5, 0, -0.3j, 0, 0.2 + 0.1j], 8),
        explicit_spec([0, 1, 0, 0, 0.5j], 10),
        explicit_spec([complex(0.3, -0.0), complex(-0.0, 0.2), 0, 0.4], 6),
    ], ids=["alpha=0", "alpha=0.08", "alpha=1", "alpha=-2.5", "alpha=3j", "alpha=2",
            "alpha=4", "alpha=39", "explicit-zeros", "explicit-odd", "explicit-signed-zeros"])
    def test_half_cycle_shift_is_the_negated_spec(self, spec):
        shifted = phase_shift(build_state(spec), math.pi)
        built = build_state(half_cycle_spec(spec))
        assert (shifted.amplitudes + 0.0).tobytes() == (built.amplitudes + 0.0).tobytes()
        assert shifted.tail_mass == built.tail_mass


class TestEncodeQubit:
    def test_basis_encoding(self):
        q = QubitAmplitudes(1, 0)
        state = encode_qubit(q, build_state(number_spec(0, 1)), build_state(number_spec(1, 1)))
        np.testing.assert_allclose(state.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_tilde_encoding(self):
        q = QubitAmplitudes(1, 0)
        state = encode_qubit(q, build_state(number_spec(0, 1)), build_state(number_spec(1, 1)),
                             tilde=True)
        np.testing.assert_allclose(state.amplitudes, [1 / math.sqrt(2), 1j / math.sqrt(2)], atol=1e-15)

    def test_equal_weights_reproduce_u(self):
        q = QubitAmplitudes(1 / math.sqrt(2), 1 / math.sqrt(2))
        u = build_state(number_spec(0, 1))
        v = build_state(number_spec(1, 1))
        state = encode_qubit(q, u, v)
        assert fidelity(state, u) == pytest.approx(1.0, abs=1e-12)

    def test_basis_states_orthogonal(self, rng):
        u = random_single(rng, 6)
        v = real_overlap_partner(rng, u)
        a = encode_qubit(QubitAmplitudes(1, 0), u, v)
        b = encode_qubit(QubitAmplitudes(0, 1), u, v)
        assert abs(inner_product(a, b)) < 1e-10

    def test_qubit_normalization_enforced(self):
        with pytest.raises(ValueError):
            QubitAmplitudes(1.0, 1.0)


class TestResources:
    def test_single_photon_resource(self):
        res = build_resource(number_spec(0, 1), number_spec(1, 1), "phi_minus")
        st = res.two_mode_state
        assert st[0, 1] == pytest.approx(1 / math.sqrt(2))
        assert st[1, 0] == pytest.approx(-1 / math.sqrt(2))
        assert np.count_nonzero(st) == 2
        assert not st.flags.writeable

    def test_two_photon_scissors_resource(self):
        res = build_resource(number_spec(0, 2), number_spec(2, 2), "phi_minus")
        st = res.two_mode_state
        assert st[0, 2] == pytest.approx(1 / math.sqrt(2))
        assert st[2, 0] == pytest.approx(-1 / math.sqrt(2))

    def test_coherent_resource_entropy(self):
        res = build_resource(coherent_spec(0.8, 20), coherent_spec(-0.8, 20), "phi_minus")
        assert entanglement_entropy(res.two_mode_state) == pytest.approx(1.0, abs=1e-9)

    def test_label_correspondence(self, rng):
        # normalized |u>|u> - |v>|v> must equal (|+>|-> + |->|+>)/sqrt(2) and
        # normalized |u>|v> - |v>|u> must equal (|->|+> - |+>|->)/sqrt(2),
        # amplitude for amplitude
        for _ in range(5):
            u = random_single(rng, 6)
            v = real_overlap_partner(rng, u)
            if abs(inner_product(u, v)) > 0.99:
                continue
            plus, minus = plus_minus(u, v)
            p, m = plus.amplitudes, minus.amplitudes
            psi = resource_from_states(u, v, "psi_minus")
            phi = resource_from_states(u, v, "phi_minus")
            expected_psi = (np.outer(p, m) + np.outer(m, p)) / math.sqrt(2)
            expected_phi = (np.outer(m, p) - np.outer(p, m)) / math.sqrt(2)
            np.testing.assert_allclose(psi, expected_psi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(phi, expected_phi, rtol=0, atol=1e-12)

    def test_one_ebit_whenever_distinct(self, rng):
        for _ in range(8):
            u = random_single(rng, 7)
            v = real_overlap_partner(rng, u)
            if abs(inner_product(u, v)) > 1 - 1e-9:
                continue
            for kind in ("psi_minus", "phi_minus"):
                st = resource_from_states(u, v, kind)
                assert entanglement_entropy(st) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_pair_rejected(self):
        u = build_state(coherent_spec(0.5, 15))
        with pytest.raises(DegenerateSuperposition):
            resource_from_states(u, u, "phi_minus")


def poisson_remainder(mean: float, cutoff: int) -> float:
    """sum_{n > cutoff} exp(-mean) mean^n / n!, each term in log space."""
    total, n = 0.0, cutoff + 1
    while True:
        term = math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))
        total += term
        if n > mean and term < total * 1e-20:
            return total
        n += 1


class TestLargePhotonNumbers:
    def test_coherent_beyond_prefactor_underflow(self):
        # exp(-|alpha|^2/2) underflows to 0 here; the state must still build
        state = build_state(coherent_spec(40, 2000))
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert state.tail_mass < 1e-12
        n = np.arange(2000 + 1)
        log_expected = n * math.log(40.0) - 800.0 - np.array([math.lgamma(k + 1) for k in n]) / 2
        peak = slice(1400, 1800)
        np.testing.assert_allclose(np.log(np.abs(state.amplitudes[peak])), log_expected[peak],
                                   rtol=0, atol=1e-10)

    def test_large_alpha_partner_is_exact_mirror(self):
        alpha = 39.0 * np.exp(0.7j)
        u = build_state(coherent_spec(alpha, 1900))
        v = build_state(coherent_spec(-alpha, 1900))
        signs = (-1.0) ** np.arange(1900 + 1)
        assert np.array_equal(v.amplitudes, u.amplitudes * signs)

    @pytest.mark.parametrize("magnitude", [0.5, 3.0, 12.0, 30.0])
    def test_moderate_alpha_keeps_the_plain_recursion(self, magnitude):
        alpha = magnitude * np.exp(1.3j)
        cutoff = int(magnitude ** 2 + 12 * magnitude + 40)
        plain = np.zeros(cutoff + 1, dtype=complex)
        plain[0] = math.exp(-magnitude ** 2 / 2.0)
        for n in range(cutoff):
            plain[n + 1] = plain[n] * alpha / math.sqrt(n + 1)
        got = build_state(coherent_spec(alpha, cutoff)).amplitudes
        nonzero = plain != 0
        np.testing.assert_allclose(got[nonzero], plain[nonzero], rtol=1e-12, atol=0)
        assert not np.any(got[~nonzero])

    def test_cutoff_below_mean_still_refused(self):
        with pytest.raises(TruncationTooSevere):
            build_state(coherent_spec(40, 1000))

    @pytest.mark.parametrize("r", [400.0, 800.0, -800.0])
    def test_squeezing_beyond_cosh_overflow_is_refused(self, r):
        # cosh r overflows above |r| ~ 710; the refusal must stay typed
        with pytest.raises(TruncationTooSevere):
            build_state(squeezed_spec(r, 10))

    @pytest.mark.parametrize("alpha", [1e10, -1e10j, 3.1e9, 1e155, complex(1.5e308, 1.5e308)])
    def test_coherent_beyond_any_basis_names_alpha(self, alpha):
        # |alpha|^2 exceeds every array index; the binary exponent once
        # overflowed int64 above |alpha| ~ 3.7e9 and |alpha|^2 itself
        # overflows above ~1.34e154, both as raw OverflowErrors
        with pytest.raises(TruncationTooSevere) as info:
            build_state(coherent_spec(alpha, 10))
        message = str(info.value)
        assert f"alpha = {complex(alpha)!r}" in message
        assert "too large for any truncated basis" in message
        assert "raise the cutoff" not in message

    def test_coherent_below_the_bound_keeps_the_cutoff_advice(self):
        with pytest.raises(TruncationTooSevere, match="raise the cutoff"):
            build_state(coherent_spec(3e9, 10))

    @pytest.mark.parametrize("r", [19.1, 20.0, -20.0, 800.0])
    def test_squeezing_beyond_any_basis_names_r(self, r):
        # tanh r rounds to 1: raising the cutoff cannot help, and the
        # message must not advise it
        with pytest.raises(TruncationTooSevere) as info:
            build_state(squeezed_spec(r, 400))
        message = str(info.value)
        assert f"r = {r!r}" in message and "too large for any truncated basis" in message
        assert "raise the cutoff" not in message

    @pytest.mark.parametrize("r", [1e-8, 0.01, 0.5, -1.5])
    def test_squeezed_vacuum_amplitude_is_sech_root(self, r):
        amp = build_state(squeezed_spec(r, 400)).amplitudes[0]
        assert amp == pytest.approx(1.0 / math.sqrt(math.cosh(r)), rel=1e-15, abs=0)


class TestTailBelowRounding:
    def test_coherent_tail_matches_log_space_poisson_remainder(self):
        state = build_state(coherent_spec(1, 25))
        expected = poisson_remainder(1.0, 25)
        assert expected == pytest.approx(9.47e-28, rel=1e-2, abs=0)
        assert state.tail_mass == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("alpha, cutoff", [(0.3, 10), (2.0, 40), (5.0, 90), (12.0, 260)])
    def test_coherent_tails_across_magnitudes(self, alpha, cutoff):
        tail = build_state(coherent_spec(alpha, cutoff)).tail_mass
        assert tail == pytest.approx(poisson_remainder(alpha * alpha, cutoff), rel=1e-10, abs=0)

    def test_squeezed_tail_sums_even_levels(self):
        r, cutoff = 0.4, 60
        t2 = math.tanh(r) ** 2
        expected = sum(
            math.exp(k * math.log(t2) + math.lgamma(2 * k + 1) - k * math.log(4.0)
                     - 2.0 * math.lgamma(k + 1) - math.log(math.cosh(r)))
            for k in range(cutoff // 2 + 1, 400))
        tail = build_state(squeezed_spec(r, cutoff)).tail_mass
        assert 0.0 < expected < 1e-16
        assert tail == pytest.approx(expected, rel=1e-12, abs=0)
        # the odd cutoff has the same even-level remainder
        assert build_state(squeezed_spec(r, cutoff + 1)).tail_mass == tail


NAN, INF = float("nan"), float("inf")


class TestNonFiniteParameters:
    # build_state is never called on these: before the check it looped
    # forever on a NaN parameter
    @pytest.mark.parametrize("make", [
        lambda: coherent_spec(NAN, 30),
        lambda: coherent_spec(complex(1.0, NAN), 30),
        lambda: coherent_spec(INF, 30),
        lambda: coherent_spec(complex(0.0, -INF), 30),
        lambda: squeezed_spec(NAN, 30),
        lambda: squeezed_spec(INF, 30),
        lambda: squeezed_spec(-INF, 30),
        lambda: explicit_spec([1.0, NAN]),
        lambda: explicit_spec([complex(0.6, INF), 0.8]),
    ], ids=["coherent-nan", "coherent-nan-imag", "coherent-inf", "coherent-inf-imag",
            "squeezed-nan", "squeezed-inf", "squeezed-minus-inf", "explicit-nan",
            "explicit-inf"])
    def test_spec_rejects(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    @pytest.mark.parametrize("plus, minus", [(NAN, 0.8), (0.6, complex(NAN, 0.8)),
                                             (INF, 0.0)])
    def test_qubit_rejects(self, plus, minus):
        with pytest.raises(ValueError, match="finite"):
            QubitAmplitudes(plus, minus)


class TestHugeAmplitudes:
    # squaring amplitudes above ~1.34e154 overflows: qubit amplitudes must
    # still be refused as unnormalized, and explicit coefficients normalized

    @pytest.mark.parametrize("plus, minus", [(1e200, 0.0), (0.0, 1e155j),
                                             (complex(1.5e308, 1.5e308), 0.0)])
    def test_qubit_is_not_normalized(self, plus, minus):
        with pytest.raises(ValueError, match="must be normalized"):
            QubitAmplitudes(plus, minus)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_explicit_normalizes(self, scale):
        state = build_state(explicit_spec([scale, 0.0]))
        np.testing.assert_array_equal(state.amplitudes, [1.0, 0.0])
        mixed = build_state(explicit_spec([scale, 1j * scale]))
        np.testing.assert_allclose(mixed.amplitudes, [1 / math.sqrt(2), 1j / math.sqrt(2)],
                                   rtol=0, atol=1e-16)

    def test_power_of_two_scaling_is_exact(self):
        plain = build_state(explicit_spec([3.0, 4.0j])).amplitudes
        for shift in (1000, 900, 100, -20):
            scaled = build_state(explicit_spec([math.ldexp(3.0, shift), math.ldexp(4.0, shift) * 1j]))
            np.testing.assert_array_equal(scaled.amplitudes, plain)

    def test_same_bits_as_unscaled_normalization(self, rng):
        for _ in range(200):
            size = int(rng.integers(1, 40))
            coeffs = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** rng.uniform(-6, 6)
            amps = coeffs.astype(np.complex128)
            amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
            np.testing.assert_array_equal(build_state(explicit_spec(coeffs)).amplitudes, amps)

    def test_degenerate_threshold_is_unscaled_norm(self, rng):
        # refused exactly when the unscaled sum of squares is at most 1e-14
        for _ in range(500):
            size = int(rng.integers(1, 6))
            coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
            coeffs *= 1e-7 * rng.uniform(0.99, 1.01) / np.sqrt(np.sum(np.abs(coeffs) ** 2))
            degenerate = np.sum(np.abs(coeffs) ** 2) <= 1e-14
            try:
                build_state(explicit_spec(coeffs))
                refused = False
            except DegenerateState:
                refused = True
            assert refused == degenerate
        for tiny in (1e-8, 1e-200, 5e-324):
            with pytest.raises(DegenerateState):
                build_state(explicit_spec([tiny, 0.0]))


def loop_coherent(alpha: complex, cutoff: int) -> np.ndarray:
    """The coherent series as one complex128 recursion step per level, the
    reference for ``states._coherent_amplitudes``: c_(n+1) = c_n alpha /
    sqrt(n + 1) on w_n = c_n 2^-e_n, e_n folded back towards 0 by exact
    rescalings."""
    log_c0 = -abs(alpha) ** 2 / 2.0
    exponent = 0
    if log_c0 < math.log(sys.float_info.min):
        exponent = math.floor(log_c0 / math.log(2.0))
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    exponents = np.zeros(cutoff + 1, dtype=np.int64)
    amps[0] = math.exp(log_c0 - exponent * math.log(2.0))
    exponents[0] = exponent
    for n in range(cutoff):
        w = amps[n] * alpha / math.sqrt(n + 1)
        if exponent < 0 and abs(w) >= 1.0:
            shift = min(-exponent, math.frexp(abs(w))[1])
            w = w * 2.0 ** -shift
            exponent += shift
        amps[n + 1] = w
        exponents[n + 1] = exponent
    if exponents[0] < 0:
        amps.real = np.ldexp(amps.real, exponents)
        amps.imag = np.ldexp(amps.imag, exponents)
    return amps


def loop_squeezed(t: float, log_cosh: float, cutoff: int) -> np.ndarray:
    """The squeezed series as one complex128 step per even level, the
    reference for ``states._squeezed_levels``."""
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    amps[0] = math.exp(-0.5 * log_cosh)
    for k in range(cutoff // 2):
        amps[2 * k + 2] = amps[2 * k] * (-t) * math.sqrt(2 * k + 1) / math.sqrt(2 * k + 2)
    return amps


def loop_remainder(amps: np.ndarray, log_weight, ratio_bound, first: int) -> float:
    """The reference for ``states._remainder``: 1 minus the kept weight when
    that is at least 1e-3, else the weights from ``first`` on, one
    ``math.exp`` of a log weight at a time, until the geometric bound on
    the rest is below rounding."""
    kept = float(np.sum(np.abs(amps) ** 2))
    if kept < 1.0 - 1e-3:
        return 1.0 - kept
    total = 0.0
    j = first
    while True:
        weight = math.exp(log_weight(j))
        total += weight
        q = ratio_bound(j)
        if weight == 0.0 or (q < 1.0 and weight * q <= (1.0 - q) * total * 2.0 ** -60):
            return total
        j += 1


def loop_state(spec) -> tuple[np.ndarray, float]:
    """``(amplitudes, tail)`` of a coherent or squeezed spec from the loops."""
    if spec.kind == "coherent":
        amps = loop_coherent(spec.alpha, spec.cutoff)
        mean = abs(spec.alpha) ** 2
        tail = 0.0 if mean == 0.0 else loop_remainder(
            amps, lambda n: n * math.log(mean) - mean - math.lgamma(n + 1),
            lambda n: mean / (n + 1), spec.cutoff + 1)
        return amps, tail
    t = math.tanh(spec.r)
    log_cosh = abs(spec.r) - math.log(2.0) + math.log1p(math.exp(-2.0 * abs(spec.r)))
    amps = loop_squeezed(t, log_cosh, spec.cutoff)
    t2 = t * t
    tail = 0.0 if t2 == 0.0 else loop_remainder(
        amps,
        lambda k: (k * math.log(t2) + math.lgamma(2 * k + 1) - k * math.log(4.0)
                   - 2.0 * math.lgamma(k + 1) - log_cosh),
        lambda k: t2,
        spec.cutoff // 2 + 1)
    return amps, tail


class TestSeriesAgainstTheLoops:
    """``build_state`` gives the bits of the per-level loops, amplitudes
    (signs of zeros included) and tail mass, or refuses where their tail
    reaches the tolerance: over squeezing from 1e-9 to 5 (where the series
    underflows at large cutoffs), coherent amplitudes up to 45 (past 37.6,
    where the prefactor is no normal float) and cutoffs from 0 to about
    |alpha|^2 + 12 |alpha| + 600."""

    def check(self, spec):
        amps, tail = loop_state(spec)
        if tail >= spec.tail_tolerance:
            with pytest.raises(TruncationTooSevere):
                build_state(spec)
            return
        state = build_state(spec)
        assert state.amplitudes.tobytes() == amps.tobytes()
        assert state.tail_mass.hex() == tail.hex()
        assert not state.amplitudes.flags.writeable

    @settings(max_examples=150, deadline=None)
    @given(r=st.floats(1e-9, 5.0), sign=st.sampled_from((1.0, -1.0)),
           cutoff=st.integers(0, 700), tolerance=st.sampled_from((1e-12, 0.5, 0.999)))
    def test_squeezed(self, r, sign, cutoff, tolerance):
        self.check(squeezed_spec(sign * r, cutoff, tolerance))

    @settings(max_examples=150, deadline=None)
    @given(magnitude=st.one_of(st.floats(0.0, 12.0), st.floats(37.0, 45.0)),
           phase=st.floats(0.0, 2 * math.pi), extra=st.integers(0, 600),
           tolerance=st.sampled_from((1e-12, 0.5, 0.999)))
    def test_coherent(self, magnitude, phase, extra, tolerance):
        alpha = magnitude * complex(math.cos(phase), math.sin(phase))
        cutoff = int(magnitude * magnitude + 12 * magnitude) * (extra % 2) + extra
        self.check(coherent_spec(alpha, cutoff, tolerance))

    @pytest.mark.parametrize("spec", [squeezed_spec(0.01, 4), squeezed_spec(-1.0, 96),
                                      squeezed_spec(1e-6, 2000, 0.5), coherent_spec(0.08, 4),
                                      coherent_spec(4.0, 52), coherent_spec(40.0, 2000),
                                      # the memory guard's cap states, the longest sums a gate runs
                                      squeezed_spec(1.7, 390), squeezed_spec(-1.7, 390),
                                      coherent_spec(14, 400),
                                      # mean photon numbers whose ratio bound underflows
                                      coherent_spec(1e-161, 1000), coherent_spec(2e-162, 10**5)],
                             ids=str)
    def test_benchmark_and_edge_sizes(self, spec):
        self.check(spec)

    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("spec", [squeezed_spec(0.01, 4), coherent_spec(0.08, 4),
                                      squeezed_spec(0.4, 26), coherent_spec(4.0, 52)], ids=str)
    def test_a_sum_that_outruns_the_bound_goes_on_in_blocks(self, spec, size, monkeypatch):
        # blocks of a forced size end before the sum is done, so it carries
        # its total from block to block; that gives the same bits
        monkeypatch.setattr(states, "_terms_needed", lambda q: size)
        self.check(spec)
