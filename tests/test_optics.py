import math

import numpy as np
import pytest

from conftest import random_multimode, random_single
from oracle import DenseSpace, exact_block_matrix
from paritysim import (
    CutoffOverflow,
    InvalidMode,
    MultiModeState,
    SingleModeState,
    beamsplitter_5050,
    bipartite_coefficients,
    build_state,
    coherent_spec,
    odd_parity_probability,
    phase_shift,
    split_with_phase_shifted,
    tensor,
)
from paritysim.optics import _FORWARD, _INVERSE, _block


def max_amplitude_diff(a: MultiModeState, b: MultiModeState) -> float:
    keys = set(a.amplitudes) | set(b.amplitudes)
    return max((abs(a.amplitude(k) - b.amplitude(k)) for k in keys), default=0.0)


class TestPhaseShift:
    def test_zero_is_identity(self, rng):
        s = random_single(rng, 6)
        np.testing.assert_array_equal(phase_shift(s, 0.0).amplitudes, s.amplitudes)

    def test_half_cycle_on_coherent_flips_sign(self):
        u = build_state(coherent_spec(1.0, 20))
        v = build_state(coherent_spec(-1.0, 20))
        np.testing.assert_allclose(phase_shift(u, math.pi).amplitudes, v.amplitudes, atol=1e-12)

    def test_quarter_cycle_on_single_photon(self):
        one = SingleModeState([0, 1])
        out = phase_shift(one, math.pi / 2)
        assert out.amplitudes[1] == 1j

    def test_norm_exactly_preserved(self, rng):
        st = random_multimode(rng, 2, 6, 12)
        out = phase_shift(st, 0.7321, mode=1)
        assert out.norm_squared() == pytest.approx(st.norm_squared(), abs=1e-15)

    def test_invalid_mode(self, rng):
        with pytest.raises(InvalidMode):
            phase_shift(random_multimode(rng, 2, 4, 5), 0.3, mode=2)


class TestBeamsplitter:
    def test_vacuum_invariance(self):
        st = MultiModeState(2, 2, {(0, 0): 1.0})
        out = beamsplitter_5050(st, 0, 1)
        assert out.amplitude((0, 0)) == pytest.approx(1.0)
        assert len(out.amplitudes) == 1

    def test_single_photon_split(self):
        # frozen from inverting the output-port operator relations by hand
        st = MultiModeState(2, 1, {(1, 0): 1.0})
        out = beamsplitter_5050(st, 0, 1)
        assert out.amplitude((1, 0)) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert out.amplitude((0, 1)) == pytest.approx(-1j / math.sqrt(2), abs=1e-15)

    def test_even_parity_for_shifted_pair(self):
        psi = build_state(coherent_spec(1.0, 16))
        out = split_with_phase_shifted(psi)
        assert odd_parity_probability(out, 0) <= 1e-12

    def test_unitarity_randomized(self, rng):
        for _ in range(10):
            st = random_multimode(rng, 2, 12, 25, max_total=12)
            out = beamsplitter_5050(st, 0, 1)
            assert out.norm_squared() == pytest.approx(st.norm_squared(), abs=1e-12)

    def test_total_photon_conservation(self, rng):
        st = random_multimode(rng, 3, 8, 20, max_total=8)
        out = beamsplitter_5050(st, 0, 2)
        totals_in = {occ[0] + occ[2] for occ in st.amplitudes}
        for occ in out.amplitudes:
            assert occ[0] + occ[2] in totals_in

    def test_block_sectors_do_not_mix(self, rng):
        # amplitude entering the N-sector stays in the N-sector
        st = random_multimode(rng, 2, 10, 15, max_total=10)
        out = beamsplitter_5050(st, 0, 1)
        weight_in = {}
        for occ, amp in st.items():
            weight_in[sum(occ)] = weight_in.get(sum(occ), 0.0) + abs(amp) ** 2
        weight_out = {}
        for occ, amp in out.items():
            weight_out[sum(occ)] = weight_out.get(sum(occ), 0.0) + abs(amp) ** 2
        for total, w in weight_in.items():
            assert weight_out.get(total, 0.0) == pytest.approx(w, abs=1e-12)

    def test_swap_ports_is_argument_swap(self, rng):
        st = random_multimode(rng, 2, 8, 15, max_total=8)
        lhs = beamsplitter_5050(st, 0, 1, swap_ports=True)
        rhs = beamsplitter_5050(st, 1, 0)
        assert max_amplitude_diff(lhs, rhs) == 0.0

    def test_parity_moves_to_second_port_when_inputs_interchanged(self, rng):
        # with the shifted state fed to port 2 instead of port 1, the
        # even-count guarantee attaches to output B
        psi = random_single(rng, 6)
        shifted = phase_shift(psi, math.pi / 2)
        out = beamsplitter_5050(tensor(psi, shifted), 0, 1)
        assert odd_parity_probability(out, 1) <= 1e-12
        assert odd_parity_probability(out, 0) > 1e-3  # generic state: no accident

    def test_cutoff_overflow(self):
        st = MultiModeState(2, 2, {(2, 2): 1.0})
        with pytest.raises(CutoffOverflow):
            beamsplitter_5050(st, 0, 1)

    def test_invalid_modes(self, rng):
        st = random_multimode(rng, 2, 4, 5)
        with pytest.raises(InvalidMode):
            beamsplitter_5050(st, 0, 0)
        with pytest.raises(InvalidMode):
            beamsplitter_5050(st, 0, 2)


class TestBlockMatrices:
    def test_against_exact_integer_expansion(self):
        # the spectral construction must reproduce the exact binomial
        # expansion (evaluated in integer arithmetic) entry for entry
        for total in (1, 2, 3, 5, 8, 13, 21, 34, 40):
            spectral = np.asarray(_block(_FORWARD, total))
            exact = exact_block_matrix(total)
            assert np.max(np.abs(spectral - exact)) < 1e-13

    def test_unitary_at_large_sizes(self):
        for total in (60, 90, 120):
            T = np.asarray(_block(_FORWARD, total))
            assert np.max(np.abs(T.conj().T @ T - np.eye(total + 1))) < 1e-13


class TestDoubleApplication:
    def test_composition_matches_dense_oracle(self, rng):
        # applying the splitter twice: unitary, photon conserving, and equal
        # to the dense matrix-exponential oracle on low photon numbers
        dim = 5
        space = DenseSpace(2, dim)
        U = space.beamsplitter(0, 1)
        for _ in range(5):
            st = random_multimode(rng, 2, 4, 8, max_total=4)
            twice = beamsplitter_5050(beamsplitter_5050(st, 0, 1), 0, 1)
            assert twice.norm_squared() == pytest.approx(st.norm_squared(), abs=1e-12)
            expected = U @ (U @ space.vector(st))
            got = space.vector(twice)
            assert np.max(np.abs(got - expected)) < 1e-12


class TestBipartiteCoefficients:
    def test_product_input_gives_rank_one_symmetric(self, rng):
        psi = random_single(rng, 5)
        out = split_with_phase_shifted(psi)
        K = bipartite_coefficients(out, 0, 1)
        p = psi.amplitudes
        size = K.matrix.shape[0]
        padded = np.zeros(size, dtype=complex)
        padded[: p.size] = p
        assert np.max(np.abs(K.matrix - np.outer(padded, padded))) < 1e-12
        assert K.antisymmetric_weight() < 1e-24

    def test_orthogonal_pair_balances_parts(self, rng):
        from conftest import orthogonal_partner

        psi = random_single(rng, 6)
        phi = orthogonal_partner(rng, psi)
        out = split_with_phase_shifted(psi, phi)
        K = bipartite_coefficients(out, 0, 1)
        assert K.antisymmetric_weight() == pytest.approx(K.symmetric_weight(), abs=1e-12)

    def test_purely_antisymmetric_matrix(self):
        # build the state from a given K, then recover it
        amps = {(0, 1): 1.0, (1, 0): -1.0 * 1j}  # K01=1, K10=-1, each twisted by i^n
        pre = MultiModeState(2, 2, {occ: amp / math.sqrt(2) for occ, amp in amps.items()})
        st = beamsplitter_5050(pre, 0, 1)
        K = bipartite_coefficients(st, 0, 1)
        assert K.symmetric_weight() < 1e-24
        assert K.matrix[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert K.matrix[1, 0] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)

    def test_weight_decomposition(self, rng):
        for _ in range(5):
            st = random_multimode(rng, 2, 9, 20, max_total=9)
            K = bipartite_coefficients(st, 0, 1)
            assert K.total_weight() == pytest.approx(
                K.symmetric_weight() + K.antisymmetric_weight(), abs=1e-12)
            sym, antisym = K.symmetric_part, K.antisymmetric_part
            assert np.max(np.abs(K.matrix - sym - antisym)) < 1e-14
            assert np.max(np.abs(sym - sym.T)) == 0.0
            assert np.max(np.abs(antisym + antisym.T)) == 0.0

    def test_ratio_equals_counting(self, rng):
        for _ in range(10):
            st = random_multimode(rng, 2, 10, 25, max_total=10)
            K = bipartite_coefficients(st, 0, 1)
            assert K.odd_parity_probability() == pytest.approx(
                odd_parity_probability(st, 0), abs=1e-12)

    def test_requires_two_modes(self, rng):
        with pytest.raises(InvalidMode):
            bipartite_coefficients(random_multimode(rng, 3, 4, 5), 0, 1)


def spectral_block(total: int) -> np.ndarray:
    """The forward block as exp(-i pi/4 G) through the eigendecomposition of
    the photon-exchange generator G, an independent route to the recurrence."""
    coupling = np.sqrt(np.arange(1.0, total + 1) * np.arange(float(total), 0.0, -1.0))
    generator = np.diag(coupling, 1) + np.diag(coupling, -1)
    eigenvalues, eigenvectors = np.linalg.eigh(generator)
    phases = np.exp(-1j * math.pi / 4 * np.round(eigenvalues))  # exact spectrum is integer
    return (eigenvectors * phases) @ eigenvectors.T


class TestBlockRecurrence:
    # totals to 220 occur at alpha = 6 with cutoff 110
    def test_agrees_with_spectral_construction(self):
        for total in range(251):
            block = np.asarray(_block(_FORWARD, total))
            assert np.max(np.abs(block - spectral_block(total))) <= 5e-14, total

    def test_unitary_up_to_250(self):
        for total in range(251):
            block = np.asarray(_block(_FORWARD, total))
            assert np.max(np.abs(block.conj().T @ block - np.eye(total + 1))) <= 1e-13, total

    def test_inverse_is_exact_adjoint(self):
        for total in range(251):
            assert np.array_equal(_block(_INVERSE, total), _block(_FORWARD, total).conj().T)
