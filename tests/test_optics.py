import math

import numpy as np
import pytest

from conftest import full_block, random_single, random_two_mode, shifted_split
from oracle import DenseSpace, exact_block_matrix
from paritysim import (
    DegenerateState,
    InvalidMode,
    QubitAmplitudes,
    SingleModeState,
    beamsplitter_5050,
    bipartite_coefficients,
    build_state,
    coherent_spec,
    count_distribution,
    odd_parity_probability,
    phase_shift,
    sample_counts,
    teleport_enhanced,
    tensor,
)
from paritysim import optics

#: a finite two-mode matrix whose squared entries overflow
HUGE = np.diag([1e200, 1e200])


def weight(state) -> float:
    return float(np.sum(np.abs(state) ** 2))


def weight_by_total(state) -> dict:
    """Squared norm of each anti-diagonal n + m = N of a two-mode matrix."""
    out = {}
    for (n, m), amp in np.ndenumerate(state):
        out[n + m] = out.get(n + m, 0.0) + abs(amp) ** 2
    return out


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
        st = random_two_mode(rng, 7, 7, 12)
        for mode in (0, 1):
            out = phase_shift(st, 0.7321, mode=mode)
            assert weight(out) == pytest.approx(weight(st), abs=1e-15)
            assert not out.flags.writeable
        factors = np.exp(0.7321j * np.arange(7))
        np.testing.assert_allclose(phase_shift(st, 0.7321, mode=1), st * factors, atol=1e-15)

    def test_invalid_mode(self, rng):
        with pytest.raises(InvalidMode):
            phase_shift(random_two_mode(rng, 5, 5, 5), 0.3, mode=2)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("multimode", [False, True])
    def test_non_finite_phase_refused(self, rng, phi, multimode):
        state = random_two_mode(rng, 5, 5, 5) if multimode else random_single(rng, 4)
        with pytest.raises(ValueError, match="phi must be finite"):
            phase_shift(state, phi)


class TestBeamsplitter:
    def test_vacuum_invariance(self):
        out = beamsplitter_5050(np.ones((1, 1)), 0, 1)
        assert out[0, 0] == pytest.approx(1.0)
        assert np.count_nonzero(out) == 1

    def test_single_photon_split(self):
        # frozen from inverting the output-port operator relations by hand
        out = beamsplitter_5050(np.array([[0.0], [1.0]]), 0, 1)
        assert out[1, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert out[0, 1] == pytest.approx(-1j / math.sqrt(2), abs=1e-15)

    def test_even_parity_for_shifted_pair(self):
        psi = build_state(coherent_spec(1.0, 16))
        out = shifted_split(psi)
        assert odd_parity_probability(out, 0) <= 1e-12

    def test_unitarity_randomized(self, rng):
        for _ in range(10):
            st = random_two_mode(rng, 13, 13, 25, max_total=12)
            out = beamsplitter_5050(st, 0, 1)
            assert weight(out) == pytest.approx(weight(st), abs=1e-12)

    def test_total_photon_conservation(self, rng):
        st = random_two_mode(rng, 9, 9, 20, max_total=8)
        totals_in = {n + m for n, m in np.argwhere(st)}
        for mode_a, mode_b in ((0, 1), (1, 0)):
            out = beamsplitter_5050(st, mode_a, mode_b)
            for n, m in np.argwhere(np.abs(out) > 1e-15):
                assert n + m in totals_in

    def test_block_sectors_do_not_mix(self, rng):
        # amplitude entering the N-sector stays in the N-sector
        st = random_two_mode(rng, 11, 11, 15, max_total=10)
        weight_in = weight_by_total(st)
        weight_out = weight_by_total(beamsplitter_5050(st, 0, 1))
        for total, w in weight_out.items():
            assert w == pytest.approx(weight_in.get(total, 0.0), abs=1e-12)

    def test_parity_moves_to_second_port_when_inputs_interchanged(self, rng):
        # with the shifted state fed to port 2 instead of port 1, the
        # even-count guarantee attaches to output B
        psi = random_single(rng, 6)
        shifted = phase_shift(psi, math.pi / 2)
        out = beamsplitter_5050(tensor(psi, shifted), 0, 1)
        assert odd_parity_probability(out, 1) <= 1e-12
        assert odd_parity_probability(out, 0) > 1e-3  # generic state: no accident
        # naming the ports the other way round is the transposed split
        swapped = beamsplitter_5050(tensor(shifted, psi), 1, 0)
        np.testing.assert_allclose(swapped, out.T, rtol=0, atol=1e-15)

    def test_output_holds_every_total(self):
        # |2, 2> has total 4, which a 3 x 3 matrix cannot hold everywhere;
        # the output grows to 5 x 5 and keeps the whole norm
        st = np.zeros((3, 3))
        st[2, 2] = 1.0
        out = beamsplitter_5050(st, 0, 1)
        assert out.shape == (5, 5)
        assert weight(out) == pytest.approx(1.0, abs=1e-15)
        assert abs(out[4, 0]) > 0.1 and abs(out[0, 4]) > 0.1
        assert not out.flags.writeable

    @pytest.mark.parametrize("state, error, message", [
        (np.zeros((0, 3)), InvalidMode, "at least one level in each mode"),
        (np.zeros((3, 0)), InvalidMode, "at least one level in each mode"),
        (np.zeros((0, 0)), InvalidMode, "at least one level in each mode"),
        (np.array([[0.6, np.nan], [0.0, 0.8]]), ValueError, "must be finite"),
        (np.array([[0.6, 0.0], [np.inf, 0.8]]), ValueError, "must be finite"),
        (np.array([[0.6, 0.0], [0.0, complex(0.0, -np.inf)]]), ValueError, "must be finite"),
        (HUGE, ValueError, r"must lie in \[0, 1\]"),
    ], ids=["shape0", "shape1", "shape2", "nan", "inf", "-inf", "huge"])
    @pytest.mark.parametrize("call, linear", [
        (lambda st: beamsplitter_5050(st, 0, 1), True),
        (lambda st: bipartite_coefficients(st, 0, 1).matrix, True),
        (lambda st: phase_shift(st, 0.3, 1), True),
        (lambda st: count_distribution(st, 0), False),
        (lambda st: sample_counts(st, (1,), np.random.default_rng(0), 3), False),
    ], ids=["beamsplitter_5050", "bipartite_coefficients", "phase_shift",
            "count_distribution", "sample_counts"])
    def test_empty_axis_refused(self, call, linear, state, error, message):
        # a non-finite matrix is refused like an empty one; a finite one whose
        # weights overflow is refused where a normalized state is needed, and
        # the linear maps keep it finite
        if linear and state is HUGE:
            assert np.isfinite(call(state)).all()
            return
        with pytest.raises(error, match=message):
            call(state)

    def test_invalid_modes(self, rng):
        st = random_two_mode(rng, 5, 5, 5)
        with pytest.raises(InvalidMode):
            beamsplitter_5050(st, 0, 0)
        with pytest.raises(InvalidMode):
            beamsplitter_5050(st, 0, 2)


class TestBlockMatrices:
    def test_against_exact_integer_expansion(self):
        # the spectral construction must reproduce the exact binomial
        # expansion (evaluated in integer arithmetic) entry for entry
        for total in (1, 2, 3, 5, 8, 13, 21, 34, 40):
            spectral = full_block(total)
            exact = exact_block_matrix(total)
            assert np.max(np.abs(spectral - exact)) < 1e-13

    def test_unitary_at_large_sizes(self):
        for total in (60, 90, 120):
            T = full_block(total)
            assert np.max(np.abs(T.conj().T @ T - np.eye(total + 1))) < 1e-13


class TestDoubleApplication:
    def test_composition_matches_dense_oracle(self, rng):
        # applying the splitter twice: unitary, photon conserving, and equal
        # to the dense matrix-exponential oracle on low photon numbers
        dim = 5
        space = DenseSpace(2, dim)
        U = space.beamsplitter(0, 1)
        for _ in range(5):
            st = random_two_mode(rng, 5, 5, 8, max_total=4)
            twice = beamsplitter_5050(beamsplitter_5050(st, 0, 1), 0, 1)
            assert weight(twice) == pytest.approx(weight(st), abs=1e-12)
            expected = U @ (U @ space.vector(st))
            got = space.vector(twice)
            assert np.max(np.abs(got - expected)) < 1e-12


class TestBipartiteCoefficients:
    def test_product_input_gives_rank_one_symmetric(self, rng):
        psi = random_single(rng, 5)
        out = shifted_split(psi)
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
        out = shifted_split(psi, phi)
        K = bipartite_coefficients(out, 0, 1)
        assert K.antisymmetric_weight() == pytest.approx(K.symmetric_weight(), abs=1e-12)

    def test_purely_antisymmetric_matrix(self):
        # build the state from a given K, then recover it
        pre = np.array([[0.0, 1.0], [-1.0 * 1j, 0.0]]) / math.sqrt(2)  # K01=1, K10=-1, twisted by i^n
        st = beamsplitter_5050(pre, 0, 1)
        K = bipartite_coefficients(st, 0, 1)
        assert K.symmetric_weight() < 1e-24
        assert K.matrix[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert K.matrix[1, 0] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)

    def test_weight_decomposition(self, rng):
        for _ in range(5):
            st = random_two_mode(rng, 10, 10, 20, max_total=9)
            K = bipartite_coefficients(st, 0, 1)
            assert K.total_weight() == pytest.approx(
                K.symmetric_weight() + K.antisymmetric_weight(), abs=1e-12)
            sym, antisym = K.symmetric_part, K.antisymmetric_part
            assert np.max(np.abs(K.matrix - sym - antisym)) < 1e-14
            assert np.max(np.abs(sym - sym.T)) == 0.0
            assert np.max(np.abs(antisym + antisym.T)) == 0.0

    def test_ratio_equals_counting(self, rng):
        for _ in range(10):
            st = random_two_mode(rng, 11, 11, 25, max_total=10)
            K = bipartite_coefficients(st, 0, 1)
            assert K.odd_parity_probability() == pytest.approx(
                odd_parity_probability(st, 0), abs=1e-12)

    def test_zero_state_has_no_parity_split(self):
        with pytest.raises(DegenerateState):
            bipartite_coefficients(np.zeros((2, 2))).odd_parity_probability()

    def test_huge_state_keeps_its_ratio(self):
        # the ratio does not depend on the scale, and squaring the 1e200 entries does not overflow
        ratio = bipartite_coefficients(HUGE).odd_parity_probability()
        assert ratio == pytest.approx(bipartite_coefficients(HUGE / 1e200).odd_parity_probability(),
                                      rel=0, abs=1e-15)
        assert ratio == pytest.approx(0.5, rel=0, abs=1e-15)

    def test_requires_two_modes(self, rng):
        with pytest.raises(InvalidMode):
            bipartite_coefficients(np.ones((2, 2, 2)), 0, 1)

    @pytest.mark.parametrize("weight_of", ["total_weight", "symmetric_weight",
                                           "antisymmetric_weight"])
    def test_huge_weights_are_refused(self, weight_of):
        # each weight of HUGE is 1e400, which no float holds; one of HUGE / 1e200 is exact
        with pytest.raises(ValueError, match="overflows"):
            getattr(bipartite_coefficients(HUGE), weight_of)()
        assert math.isfinite(getattr(bipartite_coefficients(HUGE / 1e200), weight_of)())


class TestUnreachedTotals:
    """Photon totals that no nonzero amplitude reaches are not turned, so
    their entries are the output's own exact +0.0."""

    @pytest.mark.parametrize("transform", ["beamsplitter_5050", "bipartite_coefficients"])
    def test_only_the_reached_total_is_written(self, transform):
        state = np.array([[0.0, 0.0], [0.0, 1.0]])  # one photon in each port: total 2
        block = exact_block_matrix(2)[:, 1]  # column a = 1 of the oracle block
        c = np.arange(3)
        if transform == "beamsplitter_5050":
            out, expected = beamsplitter_5050(state, 0, 1), block
        else:
            # the inverse block is the conjugate one; K strips the twist (-i)^c
            out, expected = bipartite_coefficients(state).matrix, (-1j) ** c * block.conj()
        unreached = np.add.outer(np.arange(3), np.arange(3)) != 2
        parts = out[unreached].view(np.float64)
        assert np.all(parts == 0.0) and not np.any(np.signbit(parts))
        np.testing.assert_allclose(out[c, 2 - c], expected, rtol=0, atol=1e-15)


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
            block = full_block(total)
            assert np.max(np.abs(block - spectral_block(total))) <= 5e-14, total

    def test_unitary_up_to_250(self):
        for total in range(251):
            block = full_block(total)
            assert np.max(np.abs(block.conj().T @ block - np.eye(total + 1))) <= 1e-13, total

    def test_inverse_is_exact_adjoint(self, rng):
        # bipartite_coefficients turns back with the conjugate block, which is
        # the adjoint because each block is symmetric: a state split and
        # recovered is the state itself, twisted by i^n
        for total in range(251):
            block = full_block(total)
            assert np.max(np.abs(block - block.T)) <= 1e-15, total
        for size, entries in ((2, 3), (9, 20), (40, 120)):
            pre = random_two_mode(rng, size, size, entries)
            K = bipartite_coefficients(beamsplitter_5050(pre, 0, 1), 0, 1).matrix
            twisted = np.zeros_like(K)
            twisted[:size, :size] = pre * (-1j) ** np.arange(size)[:, None]
            np.testing.assert_allclose(K, twisted, rtol=0, atol=1e-14)


class TestTurnAgainstSpectral:
    """``beamsplitter_5050`` one photon total at a time against
    ``spectral_block``, which shares no code with the band store or the turn
    that the counting kernel also goes through."""

    @pytest.mark.parametrize("rows, cols", [(61, 60), (90, 31), (17, 104)])
    def test_each_anti_diagonal(self, rng, rows, cols):
        state = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        state /= np.linalg.norm(state)
        # port 1 is fed by mode_a, and output A lands in mode_a's slot
        pairs = [(state, beamsplitter_5050(state, 0, 1)),
                 (state.T, beamsplitter_5050(state, 1, 0).T)]
        for total in range(rows + cols - 1):
            block = spectral_block(total)
            a = np.arange(total + 1)
            for entering, leaving in pairs:
                inside = (a < entering.shape[0]) & (total - a < entering.shape[1])
                diagonal = np.zeros(total + 1, dtype=complex)
                diagonal[inside] = entering[a[inside], total - a[inside]]
                np.testing.assert_allclose(leaving[a, total - a], block @ diagonal,
                                           rtol=0, atol=1e-13, err_msg=str(total))


def full_recurrence(top: int) -> list:
    """Full-width D_0..D_top straight from the module docstring's recurrence,
    with the products grouped as in ``optics._real_band``: sqrt(c) and
    sqrt(N - c) times D_(N-1) first, then sqrt(a) / (N sqrt 2) and
    sqrt(N - a) / (N sqrt 2) times their sum and difference."""
    blocks = [np.ones((1, 1))]
    for n in range(1, top + 1):
        prev = blocks[-1]
        roots = np.sqrt(np.arange(n + 1.0))
        raised = np.zeros((n + 1, n))  # sqrt(c) D[c-1, a]
        raised[1:] = prev * roots[1:, None]
        kept = np.zeros((n + 1, n))  # sqrt(N-c) D[c, a]
        kept[:-1] = prev * roots[:0:-1, None]
        weights = roots * (1.0 / (n * math.sqrt(2.0)))
        block = np.zeros((n + 1, n + 1))
        block[:, 1:] = (raised - kept) * weights[1:]  # the a - 1 terms, none at a = 0
        block[:, :-1] += (raised + kept) * weights[:0:-1]  # the a terms, none at a = N
        blocks.append(block)
    return blocks


REFERENCE = full_recurrence(200)


@pytest.fixture
def fresh_bands(monkeypatch):
    """An empty band store with both caps at 0, the process's own restored after."""
    monkeypatch.setattr(optics, "_BANDS", optics._BANDS[:1])
    monkeypatch.setattr(optics, "_CAPS", [0, 0])


def band_entries(c: int) -> int:
    """Entries of the bands of every total to 2 c with both caps at c:
    sum over N of (ceil(N/2) + 1) (min(N, c) - max(0, N - c) + 1), which is
    ceil((c + 2)^2 (2 c + 1) / 4)."""
    return -(-(c + 2) ** 2 * (2 * c + 1) // 4)


class TestBandStore:
    def test_full_recurrence_has_the_row_reflection(self):
        # D_N[N - c, a] = (-1)^a D_N[c, a]: by value everywhere, bit for bit on
        # every nonzero entry, and with the signs of zeros too on row N/2 + 1 of
        # even N > 0, the mirrored row that _real_band reads to grow D_(N+1).  The
        # signs of other zeros do not follow it (D_6[5, 3] is -0.0 and
        # -D_6[1, 3] is +0.0), and a zero's sign cannot reach a nonzero product
        for n, block in enumerate(REFERENCE):
            mirrored = block[::-1] * (-1.0) ** (np.arange(n + 1) % 2)
            np.testing.assert_array_equal(mirrored, block)
            nonzero = block != 0
            assert mirrored[nonzero].tobytes() == block[nonzero].tobytes(), n
            if n % 2 == 0 and n > 0:
                read = n // 2 + 1
                np.testing.assert_array_equal(np.signbit(mirrored[read]),
                                              np.signbit(block[read]))

    def test_bands_equal_the_full_recurrence_under_any_history(self, rng, fresh_bands):
        for _ in range(25):
            optics._BANDS[1:] = []
            optics._CAPS[:] = [0, 0]
            for _ in range(6):
                rows_top, cols_top = (int(k) for k in rng.integers(0, 80, size=2))
                total = int(rng.integers(0, rows_top + cols_top + 1))
                if rng.random() < 0.25:  # what full_block asks for
                    rows_top = cols_top = total
                lo, band = optics._real_band(total, rows_top, cols_top)
                # the band covers the columns the counting kernel slices out
                assert lo <= max(0, total - rows_top)
                assert lo + band.shape[1] - 1 >= min(total, cols_top)
                for n, (band_lo, stored) in enumerate(optics._BANDS):
                    # rows 0..ceil(N/2) of the band's columns
                    columns = REFERENCE[n][: n - n // 2 + 1, band_lo : band_lo + stored.shape[1]]
                    assert stored.tobytes() == columns.tobytes(), n
                    assert not stored.flags.writeable

    def test_block_stays_the_full_unitary(self, fresh_bands):
        optics._real_band(140, 20, 120)
        optics._real_band(150, 100, 50)
        for total in (0, 1, 37, 70, 101, 150, 160):
            block = full_block(total)
            counts = np.arange(total + 1)
            phases = (-1j) ** ((counts[:, None] - counts[None, :]) % 4)
            np.testing.assert_array_equal(block, phases * REFERENCE[total])
            assert np.max(np.abs(block.conj().T @ block - np.eye(total + 1))) <= 1e-13

    @pytest.mark.parametrize("cutoff", [20, 40])
    def test_store_after_an_enhanced_run_holds_the_band_count(self, fresh_bands, cutoff):
        teleport_enhanced(QubitAmplitudes(0.6, 0.8), coherent_spec(1.0, cutoff))
        assert optics._CAPS == [cutoff, cutoff]
        assert len(optics._BANDS) == 2 * cutoff + 1
        assert sum(band.nbytes for _, band in optics._BANDS) == 8 * band_entries(cutoff)
        direct = sum((n - n // 2 + 1) * (min(n, cutoff) - max(0, n - cutoff) + 1)
                     for n in range(2 * cutoff + 1))
        assert band_entries(cutoff) == direct

    def test_beamsplitter_keeps_the_caps_of_its_state(self, fresh_bands):
        # a split of two cutoff-40 states reads only the bands an enhanced
        # run at cutoff 40 already built, so the store does not grow
        teleport_enhanced(QubitAmplitudes(0.6, 0.8), coherent_spec(1.0, 40))
        before = sum(band.nbytes for _, band in optics._BANDS)
        s40 = build_state(coherent_spec(1.0, 40))
        t40 = build_state(coherent_spec(-0.5, 40))
        beamsplitter_5050(tensor(s40, t40), 0, 1)
        assert optics._CAPS == [40, 40]
        assert sum(band.nbytes for _, band in optics._BANDS) == before == 8 * band_entries(40)
