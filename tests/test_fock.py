import math

import numpy as np
import pytest

from conftest import random_single
from paritysim import (
    DegenerateState,
    InvalidMode,
    QubitAmplitudes,
    SingleModeState,
    bipartite_coefficients,
    build_resource,
    build_state,
    coherent_spec,
    count_distribution,
    fidelity,
    inner_product,
    normalize,
    number_spec,
    plus_minus,
    quantum_scissors,
    teleport_enhanced,
    tensor,
    truncation_check,
)


def coherent_series(alpha, cutoff):
    """Independent evaluation of the coherent-state series."""
    return np.array(
        [math.exp(-abs(alpha) ** 2 / 2) * alpha ** n / math.sqrt(math.factorial(n))
         for n in range(cutoff + 1)],
        dtype=complex,
    )


class TestNormalize:
    def test_scaling(self):
        out = normalize(SingleModeState([2, 0]))
        np.testing.assert_allclose(out.amplitudes, [1, 0])

    def test_symmetry(self):
        out = normalize(SingleModeState([1, 1]))
        np.testing.assert_allclose(out.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateState):
            normalize(SingleModeState([0, 0, 0]))

    def test_idempotent(self, rng):
        for _ in range(10):
            s = SingleModeState(rng.normal(size=8) + 1j * rng.normal(size=8))
            once = normalize(s)
            twice = normalize(once)
            np.testing.assert_allclose(twice.amplitudes, once.amplitudes, atol=1e-14)

    def test_multimode(self):
        # normalize takes single modes only; a two-mode matrix is refused
        with pytest.raises(TypeError):
            normalize(np.array([[0.0, 2.0], [-2.0, 0.0]]))


class TestInnerProduct:
    def test_vacuum_identity(self):
        zero = SingleModeState([1, 0])
        assert inner_product(zero, zero) == pytest.approx(1)

    def test_orthogonal_number_states(self):
        zero = SingleModeState([1, 0])
        one = SingleModeState([0, 1])
        assert inner_product(zero, one) == pytest.approx(0)

    def test_opposite_coherent(self):
        # <alpha|-alpha> for real alpha=1 is exp(-2); check against an
        # independent evaluation of the series sum_n (-1)^n e^{-1}/n!
        plus = SingleModeState(coherent_series(1.0, 30))
        minus = SingleModeState(coherent_series(-1.0, 30))
        series = sum((-1) ** n * math.exp(-1) / math.factorial(n) for n in range(31))
        got = inner_product(plus, minus)
        assert got == pytest.approx(series, abs=1e-14)
        assert got == pytest.approx(math.exp(-2), abs=1e-12)

    def test_conjugate_symmetry(self, rng):
        a = random_single(rng, 6)
        b = random_single(rng, 6)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-14)

    def test_self_product_is_real_norm(self, rng):
        for _ in range(10):
            s = random_single(rng, 9)
            ip = inner_product(s, s)
            assert abs(ip.imag) < 1e-14
            assert ip.real == pytest.approx(s.norm_squared(), abs=1e-14)

    def test_zero_padding(self):
        short = SingleModeState([1, 0])
        long = SingleModeState([1, 0, 0, 0, 0])
        assert inner_product(short, long) == pytest.approx(1)


class TestTensor:
    def test_vacuum(self):
        st = tensor(SingleModeState([1, 0]), SingleModeState([1, 0]))
        assert st[0, 0] == pytest.approx(1)
        assert np.count_nonzero(st) == 1

    def test_basis_case(self):
        st = tensor(SingleModeState([0, 1]), SingleModeState([1, 0]))
        assert st[1, 0] == pytest.approx(1)

    def test_distributivity(self):
        plus = normalize(SingleModeState([1, 1]))
        st = tensor(plus, SingleModeState([0, 1]))
        assert st[0, 1] == pytest.approx(1 / math.sqrt(2))
        assert st[1, 1] == pytest.approx(1 / math.sqrt(2))

    def test_norm_multiplicative(self, rng):
        for _ in range(10):
            a = random_single(rng, 5)
            b = random_single(rng, 7)
            st = tensor(a, b)
            assert st.shape == (6, 8)
            assert np.sum(np.abs(st) ** 2) == pytest.approx(
                a.norm_squared() * b.norm_squared(), abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            tensor(SingleModeState([2, 0]), SingleModeState([1, 0]))

    def test_keeps_every_amplitude_read_only(self):
        # no amplitude is dropped, however small, and the matrix cannot be written
        st = tensor(normalize(SingleModeState([1.0, 1e-17])), SingleModeState([1.0]))
        assert st[1, 0] == pytest.approx(1e-17, rel=1e-15)
        with pytest.raises(ValueError):
            st[0, 0] = 0.0


class TestTruncationCheck:
    def test_finite_support(self):
        state = build_state(number_spec(3, 10))
        report = truncation_check(state, 0.5)
        assert report.tail_mass == 0.0
        assert report.within_tolerance

    def test_coherent_tail_within(self):
        state = build_state(coherent_spec(1.0, 20))
        # independent Poisson-tail oracle: sum_{n>20} e^{-1}/n!
        tail = sum(math.exp(-1) / math.factorial(n) for n in range(21, 60))
        report = truncation_check(state, 1e-12)
        assert report.within_tolerance
        assert report.tail_mass == pytest.approx(tail, abs=1e-15)

    def test_coherent_tail_exceeds(self):
        # factory must be given a loose budget to build this severe truncation
        state = build_state(coherent_spec(4.0, 5, tail_tolerance=0.999))
        tail = sum(math.exp(-16) * 16.0 ** n / math.factorial(n) for n in range(6, 120))
        report = truncation_check(state, 1e-12)
        assert not report.within_tolerance
        assert report.tail_mass == pytest.approx(tail, rel=1e-10)

    def test_tolerance_domain(self):
        state = build_state(coherent_spec(0.5, 15))
        with pytest.raises(ValueError):
            truncation_check(state, 0.0)
        with pytest.raises(ValueError):
            truncation_check(state, 1.0)


class TestStateValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SingleModeState([float("nan"), 0])

    def test_rejects_bad_tuple_length(self):
        # a two-mode state has exactly two indices per amplitude
        with pytest.raises(InvalidMode):
            count_distribution(np.ones((2, 2, 2)) / math.sqrt(8), 0)


class TestOverflowingAmplitudes:
    """A state whose amplitudes are finite but whose squares overflow: every
    call on it raises ``ValueError`` rather than warn or return inf."""

    HUGE = SingleModeState(np.array([1e200, 1e200], dtype=complex))
    ONE = SingleModeState([0.0, 1.0])

    @pytest.mark.parametrize("call", [
        lambda s, one: s.norm_squared(),
        lambda s, one: normalize(s),
        lambda s, one: tensor(s, one),
        lambda s, one: plus_minus(s, one),
        lambda s, one: quantum_scissors(s, 0, 1),
        lambda s, one: inner_product(s, s),
        lambda s, one: fidelity(s, s),
    ], ids=["norm_squared", "normalize", "tensor", "plus_minus", "quantum_scissors",
            "inner_product", "fidelity"])
    def test_refused(self, call):
        with pytest.raises(ValueError, match="overflows"):
            call(self.HUGE, self.ONE)

    def test_fidelity_whose_square_overflows(self):
        # the overlap, 1e200, is finite; its square is not
        assert inner_product(self.HUGE, self.ONE) == 1e200
        with pytest.raises(ValueError, match="overflows"):
            fidelity(self.HUGE, self.ONE)


class TestEquality:
    """Values that hold arrays compare by their arrays' contents."""

    def test_single_mode_states(self):
        state = build_state(number_spec(1, 2))
        assert state == build_state(number_spec(1, 2))
        assert state != build_state(number_spec(0, 2))
        assert state != build_state(number_spec(1, 3))  # same photon, longer basis
        assert state != SingleModeState([0, 1, 0], tail_mass=1e-3)

    def test_resources_and_coefficients(self):
        u, v = number_spec(0, 2), number_spec(1, 2)
        resource = build_resource(u, v, "phi_minus")
        assert resource == build_resource(u, v, "phi_minus")
        assert resource != build_resource(u, v, "psi_minus")
        coefficients = bipartite_coefficients(resource.two_mode_state)
        assert coefficients == bipartite_coefficients(resource.two_mode_state)
        assert coefficients != bipartite_coefficients(
            build_resource(u, v, "psi_minus").two_mode_state)

    def test_reports_compare_through_their_records(self):
        q = QubitAmplitudes(0.6, 0.8)
        report = teleport_enhanced(q, coherent_spec(1.0, 14))
        assert np.isnan(report.corrections).any()  # NaN marks records without a correction
        assert report == teleport_enhanced(q, coherent_spec(1.0, 14))
        assert report.outcomes[0] == teleport_enhanced(q, coherent_spec(1.0, 14)).outcomes[0]
        assert report.outcomes[0] != report.outcomes[1]
        assert report != teleport_enhanced(QubitAmplitudes(0.8, 0.6), coherent_spec(1.0, 14))
