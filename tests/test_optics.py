import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from conftest import (full_block, random_single, random_two_mode, shifted_split, store_band,
                      total_bounds)
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
    encode_qubit,
    odd_parity_probability,
    phase_shift,
    plus_minus,
    sample_counts,
    squeezed_spec,
    teleport_basic,
    teleport_enhanced,
    tensor,
)
from paritysim import optics
from paritysim.measurement import OUTCOME_FLOOR
from paritysim.states import _factors_on_pair

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

    def test_single_mode_result_is_read_only_and_finite(self):
        state = SingleModeState([0.6, 0.8], tail_mass=1e-13)
        out = phase_shift(state, 0.3)
        assert not out.amplitudes.flags.writeable and out.tail_mass == 1e-13
        # a finite amplitude near the largest float leaves it off the quarter cycle
        with pytest.raises(ValueError, match="must be finite"):
            phase_shift(SingleModeState([0.0, complex(1.5e308, 1.5e308)]), math.pi / 4)

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

    def test_turn_that_overflows_is_refused(self):
        # every amplitude near the largest float: some turned ones exceed it
        with pytest.raises(ValueError, match="overflows a float"):
            beamsplitter_5050(np.full((3, 3), 1.7e308), 0, 1)

    @pytest.mark.parametrize("call", [lambda st: beamsplitter_5050(st, 0, 1), bipartite_coefficients],
                             ids=["beamsplitter_5050", "bipartite_coefficients"])
    def test_overflow_is_read_from_the_values(self, call, monkeypatch):
        # products of up to 128 x 128 band entries, which BLAS may share among threads
        with pytest.raises(ValueError, match="overflows a float"):
            call(np.full((128, 128), 1.7e308))
        # an inf that no floating-point flag announces, as a worker thread's would not
        turn = optics._turn

        def turn_to_inf(first, second):
            c, totals, out = turn(first, second)
            out[:] = np.inf
            return c, totals, out

        monkeypatch.setattr(optics, "_turn", turn_to_inf)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="overflows a float"):
            call(np.eye(4))

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


    def test_parts_of_a_matrix_near_the_largest_float_are_finite(self, rng):
        # the turn of 1.5e308 everywhere is finite, but K + K^T overflows:
        # each part is then K / 2 +- K^T / 2, the halves exact at that size
        coefficients = bipartite_coefficients(np.full((2, 2), 1.5e308))
        matrix = coefficients.matrix
        assert np.isfinite(matrix).all()
        assert coefficients.symmetric_part.tobytes() == (matrix / 2.0 + matrix.T / 2.0).tobytes()
        assert coefficients.antisymmetric_part.tobytes() == (matrix / 2.0 - matrix.T / 2.0).tobytes()
        # a finite sum keeps the parent's (K +- K^T) / 2, subnormal amplitudes included
        for state in (rng.normal(size=(4, 3)), np.full((2, 2), 5e-324)):
            matrix = bipartite_coefficients(state).matrix
            assert (bipartite_coefficients(state).symmetric_part.tobytes()
                    == ((matrix + matrix.T) / 2.0).tobytes())
            assert (bipartite_coefficients(state).antisymmetric_part.tobytes()
                    == ((matrix - matrix.T) / 2.0).tobytes())


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
    with the products grouped as in ``optics._Store.band``: sqrt(c) and
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
    """An empty band store with both caps at 0, the process's own store
    restored after."""
    monkeypatch.setattr(optics, "_STORE", optics._Store())


def store_entries(c: int, parities=(0, 1)) -> int:
    """Entries of the group blocks of the totals of ``parities`` to 2 c with
    both caps at c, for c a multiple of 2 G: (c^3 + (3 G + 1) c^2 +
    2 (G^2 + 2) c + 4) / 4 for the even ones and c (c + 2 G)(c + G + 2) / 4
    for the odd ones.  Together they are the bands' ceil((c + 2)^2 (2 c + 1) / 4)
    plus (G - 1) c (3 c + 2 G + 4) / 2 of padding, which is
    (2 c^3 + (6 G + 3) c^2 + 4 (G^2 + G + 1) c + 4) / 4."""
    g = optics._GROUP
    assert c % (2 * g) == 0
    per_parity = ((c**3 + (3 * g + 1) * c**2 + 2 * (g * g + 2) * c + 4) // 4,
                  c * (c + 2 * g) * (c + g + 2) // 4)
    return sum(per_parity[parity] for parity in parities)


def block_entries(c: int, parities=(0, 1)) -> int:
    """The same entries summed block by block from the layout: a group of
    totals first, first + 2, .. up to 2 c has a slot per total, the rows of
    its last total and the columns of its bands' union, c + 1 - max(0, first - c)
    when it reaches c and last + 1 below it."""
    g, entries = optics._GROUP, 0
    for first in range(2 * c + 1):
        if first % (2 * g) < 2 and first % 2 in parities:
            last = min(first + 2 * g - 2, 2 * c - (2 * c - first) % 2)
            width = min(last, c) - max(0, first - c) + 1
            entries += ((last - first) // 2 + 1) * (last - last // 2 + 1) * width
    return entries


def stored_bytes(store) -> int:
    """Bytes of the group blocks of the parities ``store`` keeps."""
    return sum(block.nbytes for block in store.blocks if block is not None)


def slot_mask(store, block: np.ndarray, first: int) -> np.ndarray:
    """True on the entries of ``block`` that hold a band, for the group whose
    first total is ``first``, under the caps of ``store``."""
    mask = np.zeros(block.shape, dtype=bool)
    for j in range(min(block.shape[0], (store.built - first + 1) // 2)):
        _, band = store.band(first + 2 * j)
        mask[j, : band.shape[0], : band.shape[1]] = True
    return mask


class TestBandStore:
    def test_full_recurrence_has_the_row_reflection(self):
        # D_N[N - c, a] = (-1)^a D_N[c, a]: by value everywhere, bit for bit on
        # every nonzero entry, and with the signs of zeros too on row N/2 + 1 of
        # even N > 0, the mirrored row that a store reads to grow D_(N+1).  The
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

    def test_bands_equal_the_full_recurrence_under_any_history(self, rng):
        # each step keeps the even, the odd or both parities, and reads a band
        # of a kept parity; the checks read only kept bands, so that no read
        # fills the other parity before it is checked
        for _ in range(25):
            store = optics._Store()
            for _ in range(6):
                rows_top, cols_top = (int(k) for k in rng.integers(0, 80, size=2))
                total = int(rng.integers(0, rows_top + cols_top + 1))
                if rng.random() < 0.25:  # what full_block asks for
                    rows_top = cols_top = total
                parities = ({total % 2}, {0, 1})[int(rng.integers(0, 2))]
                store = store.raised(rows_top, cols_top)
                store.keep(parities)
                lo, band = store.band(total)
                assert parities <= store.kept
                # the band covers the columns the counting kernel slices out
                assert lo <= max(0, total - rows_top)
                assert lo + band.shape[1] - 1 >= min(total, cols_top)
                for n in range(store.built):
                    if n % 2 not in store.kept:
                        continue
                    # rows 0..ceil(N/2) of the band's columns, a view of its slot
                    band_lo, stored = store.band(n)
                    columns = REFERENCE[n][: n - n // 2 + 1, band_lo : band_lo + stored.shape[1]]
                    assert stored.tobytes() == columns.tobytes(), n
                    assert np.shares_memory(stored, store.blocks[2 * (n // (2 * optics._GROUP)) + n % 2])
                # a group of a parity not kept has no block; the padding that
                # _turn's views read of a kept one is an exact +0.0
                for k, block in enumerate(store.blocks):
                    assert (block is None) == (k % 2 not in store.kept), k
                    if block is not None:
                        padding = block[~slot_mask(store, block, 2 * optics._GROUP * (k // 2) + k % 2)]
                        assert not padding.any() and not np.signbit(padding).any(), k

    def test_block_stays_the_full_unitary(self, fresh_bands):
        store_band(140, 20, 120)
        store_band(150, 100, 50)
        for total in (0, 1, 37, 70, 101, 150, 160):
            block = full_block(total)
            counts = np.arange(total + 1)
            phases = (-1j) ** ((counts[:, None] - counts[None, :]) % 4)
            np.testing.assert_array_equal(block, phases * REFERENCE[total])
            assert np.max(np.abs(block.conj().T @ block - np.eye(total + 1))) <= 1e-13

    @pytest.mark.parametrize("cutoff", [16, 20, 40, 48])
    def test_store_after_a_full_split_holds_the_band_count(self, fresh_bands, cutoff):
        # a split of two coherent states reaches every total of both parities,
        # and beamsplitter_5050 turns each of them
        full_split(cutoff)
        store = optics._STORE
        assert store.caps == (cutoff, cutoff)
        assert store.built == 2 * cutoff + 1
        assert stored_bytes(store) == 8 * block_entries(cutoff)
        bands = sum((n - n // 2 + 1) * (min(n, cutoff) - max(0, n - cutoff) + 1)
                    for n in range(2 * cutoff + 1))
        span = 2 * optics._GROUP
        if cutoff % span == 0:
            padding = (optics._GROUP - 1) * cutoff * (3 * cutoff + 2 * optics._GROUP + 4) // 2
            assert block_entries(cutoff) == store_entries(cutoff) == bands + padding
        else:  # no more than the closed form at the next multiple of 2 G
            assert bands < block_entries(cutoff) <= store_entries(-(-cutoff // span) * span)

    def test_beamsplitter_keeps_the_caps_of_its_state(self, fresh_bands):
        # a split of two cutoff-40 states reads only the bands that the store
        # already holds at caps 40, so it does not grow: the odd bands to 79,
        # then the even ones, grown from them, to 80
        store_band(79, 40, 40)
        store_band(80, 40, 40)
        store = optics._STORE
        before = stored_bytes(store)
        s40 = build_state(coherent_spec(1.0, 40))
        t40 = build_state(coherent_spec(-0.5, 40))
        beamsplitter_5050(tensor(s40, t40), 0, 1)
        assert optics._STORE is store and store.caps == (40, 40)
        assert stored_bytes(store) == before == 8 * block_entries(40)

    @pytest.mark.parametrize("cutoff", [32, 48])
    def test_an_even_split_keeps_only_the_even_bands(self, fresh_bands, cutoff):
        # squeezed vacuum holds even photon numbers only, so a split of two
        # squeezed states reaches even totals only and keeps only their groups
        split = tensor(build_state(squeezed_spec(0.4, cutoff)),
                       build_state(squeezed_spec(-0.4, cutoff)))
        beamsplitter_5050(split, 0, 1)
        store = optics._STORE
        assert store.caps == (cutoff, cutoff) and store.kept == {0}
        assert all((block is None) == (k % 2 == 1) for k, block in enumerate(store.blocks))
        assert stored_bytes(store) == 8 * block_entries(cutoff, (0,)) == 8 * store_entries(cutoff, (0,))
        # a split of coherent states at the same caps fills the odd groups
        # from the even bands, to the bytes of a store that kept both
        # parities from empty
        full_split(cutoff)
        assert optics._STORE is store and store.kept == {0, 1}
        optics._STORE = optics._Store()
        full_split(cutoff)
        mixed = optics._STORE
        assert (store.caps, store.built) == (mixed.caps, mixed.built)
        assert len(store.blocks) == len(mixed.blocks)
        for k, (block, expected) in enumerate(zip(store.blocks, mixed.blocks)):
            assert block.shape == expected.shape and block.tobytes() == expected.tobytes(), k
        assert stored_bytes(store) == 8 * store_entries(cutoff)

    @pytest.mark.parametrize("spec", [coherent_spec(1.0, 40), coherent_spec(3.0, 48)], ids=str)
    def test_a_heralded_run_grows_the_store_to_its_last_live_total(self, fresh_bands, spec):
        # the kernel turns no total above the last whose weight bound reaches
        # half the floor, so the store holds fewer bands than a full split of
        # the same caps, and no record lies above that total
        q = QubitAmplitudes(0.6, 0.8)
        report = teleport_enhanced(q, spec)
        u = build_state(spec)
        v = phase_shift(u, math.pi)
        last = last_live_total(encode_qubit(q, u, v, tilde=True), *_factors_on_pair(plus_minus(u, v)))
        store = optics._STORE
        assert store.caps == (spec.cutoff, spec.cutoff)
        assert store.built == last + 1 < 2 * spec.cutoff + 1
        assert int(report.counts.sum(axis=1).max()) <= last
        assert stored_bytes(store) < 8 * block_entries(spec.cutoff)


def full_split(cutoff: int) -> np.ndarray:
    """The split of two coherent states of ``cutoff``, which reaches every
    total 0..2 ``cutoff`` of both parities."""
    state = tensor(build_state(coherent_spec(1.0, cutoff)), build_state(coherent_spec(-0.5, cutoff)))
    return beamsplitter_5050(state, 0, 1)


def last_live_total(sent, left, right) -> int:
    """The largest photon total whose bound W_N reaches half the outcome floor."""
    return int(np.flatnonzero(total_bounds(sent, left, right) >= OUTCOME_FLOOR / 2)[-1])


def turn_per_total(amplitudes: np.ndarray) -> dict:
    """``{(c, N): row}``, the reference for ``optics._turn``: rows 0..N of D_N
    times each reached anti-diagonal, a 2-D product of each total's
    ``store_band`` columns lo..hi and its slab, then the same with the odd-a
    rows of the slab negated for rows c > N/2, reversed."""
    rows, cols = amplitudes.shape[:2]
    floats = np.ascontiguousarray(amplitudes).reshape(rows, cols, -1).view(np.float64)
    nonzero = floats != 0.0
    reached = np.flatnonzero(np.convolve(nonzero.any(axis=(1, 2)), nonzero.any(axis=(0, 2))))
    out = {}
    for total in reached.tolist():
        lo, hi = max(0, total - cols + 1), min(total, rows - 1)
        band_lo, band = store_band(total, cols - 1, rows - 1)
        columns = band[:, lo - band_lo : hi - band_lo + 1]
        a = np.arange(lo, hi + 1)
        slab = floats[a, total - a]
        top = columns @ slab
        slab[a % 2 == 1] *= -1.0
        bottom = columns @ slab
        for c in range(total // 2 + 1):
            out[c, total] = top[c]
        for i in range(total - total // 2):
            out[total - i, total] = bottom[i]
    return out


def support(rng, rows: int, cols: int, trailing: tuple, a_set=None, b_set=None) -> np.ndarray:
    """A normalized random array of shape (rows, cols, *trailing), zero off the
    rows ``a_set`` and the columns ``b_set`` (all of them when None)."""
    shape = (rows, cols, *trailing)
    amplitudes = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if a_set is not None:
        amplitudes[np.setdiff1d(np.arange(rows), a_set)] = 0.0
    if b_set is not None:
        amplitudes[:, np.setdiff1d(np.arange(cols), b_set)] = 0.0
    return amplitudes / np.linalg.norm(amplitudes)


SUPPORTS = {
    "gaps": dict(rows=10, cols=10, a_set=[0], b_set=[0, 3, 4, 9]),  # totals {0, 3, 4, 9}
    "gaps_transposed": dict(rows=10, cols=10, a_set=[0, 3, 4, 9], b_set=[0]),
    "even_only": dict(rows=41, cols=33, a_set=np.arange(0, 41, 2), b_set=np.arange(0, 33, 2)),
    "odd_only": dict(rows=33, cols=41, a_set=np.arange(0, 33, 2), b_set=np.arange(1, 41, 2)),
    "one_row": dict(rows=1, cols=23),
    "one_column": dict(rows=23, cols=1),
    "dense_square": dict(rows=53, cols=53),
    "dense_wide": dict(rows=17, cols=60),
}


def two_product_turn(amplitudes: np.ndarray, products: list) -> np.ndarray:
    """The reference for ``optics._turn``'s output on ``amplitudes``, from
    the ``products`` of its plan: every run's product made twice, on the
    zero-padded amplitudes and then with their odd-a rows negated, into a
    fresh output."""
    rows = amplitudes.shape[0]
    padded = np.zeros((rows + 2 * optics._GROUP - 2, *amplitudes.shape[1:]), dtype=complex)
    padded[:rows] = amplitudes
    width = 2 * math.prod(amplitudes.shape[2:])
    half = sum(rows_out.stop - rows_out.start for _, _, rows_out in products)
    out = np.full((2, half, width), np.nan)
    for sign in (0, 1):
        if sign:
            padded[1:rows:2] *= -1.0
        for band, (shape, offset, strides), rows_out in products:
            slab = np.ndarray(shape, buffer=padded, offset=offset, strides=strides)
            np.matmul(band, slab, out=out[sign, rows_out].reshape(*band.shape[:2], width))
    return out.reshape(-1, width)


class TestGroupedTurn:
    """``optics._turn`` against ``turn_per_total``, on every reached total.

    The grouped products add zero rows below a band and zero columns past
    its hi, and BLAS picks its kernel by the product's shape, so a turned
    row can differ from the per-total product in its last bits.  Measured
    on 20 seeds of each case below: the gap supports and the supports of
    one row or one column gave every row bit for bit (their runs add no
    column); in the others a quarter to a half of the rows moved, by at
    most 2.1e-17 at unit norm.  Over 400 random supports of up to 59 x 59,
    fresh and raised caps, about a third gave every row bit for bit and no
    row moved by more than 1.3e-15 at unit-variance amplitudes.  In scratch
    products, zero rows below a band moved bits only with 2 floats, zero
    columns past hi with either width."""

    @pytest.mark.parametrize("name", sorted(SUPPORTS))
    @pytest.mark.parametrize("trailing", [(), (2,)], ids=["2 floats", "4 floats"])
    @pytest.mark.parametrize("raised", [False, True], ids=["fresh caps", "raised caps"])
    def test_matches_the_per_total_turn(self, rng, fresh_bands, name, trailing, raised):
        spec = SUPPORTS[name]
        amplitudes = support(rng, spec["rows"], spec["cols"], trailing,
                             spec.get("a_set"), spec.get("b_set"))
        if raised:  # caps above the input's own: the store's lo and hi differ from the input's
            store_band(0, spec["cols"] + 30, spec["rows"] + 11)
        c, totals, out = optics._turn(amplitudes, 1.0)
        rows = out.view(np.float64)
        turned = {(ci, ti): rows[k] for k, (ci, ti) in enumerate(zip(c.tolist(), totals.tolist()))
                  if ci <= ti}
        reference = turn_per_total(amplitudes)
        assert turned.keys() == reference.keys()
        # each pair (c, N) once: a padding row has c > N
        assert len(turned) == int(np.count_nonzero(c <= totals))
        for key, row in reference.items():
            if name.startswith("gaps") or spec["rows"] == 1 or spec["cols"] == 1:
                assert turned[key].tobytes() == row.tobytes(), key
            else:
                np.testing.assert_allclose(turned[key], row, rtol=0, atol=1e-16, err_msg=str(key))
        padding = rows[c > totals]
        assert np.isfinite(padding).all()

    @pytest.mark.parametrize("name", ["dense_wide", "even_only", "odd_only"])
    def test_rows_do_not_depend_on_the_caps(self, rng, fresh_bands, name):
        # a run is cut where the input's lo turns, never where the store's
        # does, so each total's product has the same shape under any caps
        spec = SUPPORTS[name]
        amplitudes = support(rng, spec["rows"], spec["cols"], (2,), spec.get("a_set"), spec.get("b_set"))
        fresh = optics._turn(amplitudes, 1.0)
        store_band(0, spec["cols"] + 7, spec["rows"] + 30)
        raised = optics._turn(amplitudes, 1.0)
        for got, expected in zip(raised, fresh):
            assert got.tobytes() == expected.tobytes()

    def test_a_plan_is_made_once_and_dropped_when_a_cap_rises(self, rng, fresh_bands):
        limit = 32  # plans kept
        amplitudes = support(rng, 17, 60, (2,))
        first = optics._turn(amplitudes, 1.0)
        store = optics._STORE
        assert len(store.plans) == 1
        # the same support with other amplitudes takes the same plan
        again = optics._turn(support(rng, 17, 60, (2,)), 1.0)
        assert optics._STORE is store and len(store.plans) == 1
        assert again[0] is first[0] and again[1] is first[1]
        assert not first[0].flags.writeable and not first[1].flags.writeable
        # its band views read the blocks of these caps: a higher cap swaps in
        # a store of its own blocks, with none of the old store's plans
        store_band(0, 70, 20)
        assert optics._STORE is not store and not optics._STORE.plans
        store = optics._STORE
        # within the caps no plan is dropped for a cap, but past the limit the
        # plan used longest ago goes: a plan used again stays
        kept = optics._turn(amplitudes, 1.0)
        made = {}
        for cols in range(1, limit + 5):
            made[cols] = optics._turn(support(rng, 3, cols, ()), 1.0)[0]
            assert optics._turn(amplitudes, 1.0)[0] is kept[0]
            assert len(store.plans) <= limit
        assert optics._STORE is store and len(store.plans) == limit
        # the last of the small plans is kept; the first went
        assert optics._turn(support(rng, 3, limit + 4, ()), 1.0)[0] is made[limit + 4]
        assert optics._turn(support(rng, 3, 1, ()), 1.0)[0] is not made[1]
        assert len(store.plans) == limit

    def test_a_cap_rise_frees_the_dropped_blocks_without_the_collector(self, rng, fresh_bands):
        # the store and the blocks a cap rise drops are freed by reference
        # counting once no plan of theirs is held: no cycle holds them
        gc.disable()
        try:
            optics._turn(support(rng, 40, 40, ()), 1.0)
            old = weakref.ref(optics._STORE)
            dropped = weakref.ref(optics._STORE.blocks[-1])
            (plan,) = optics._STORE.plans.values()
            store_band(0, 100, 100)
            assert old() is None and dropped() is not None
            del plan
            assert dropped() is None
        finally:
            gc.enable()

    # where no odd-a or no even-a amplitude is nonzero, the second half of
    # the output is a copy or the negation of the first, not a product
    @pytest.mark.parametrize("a_set", [np.arange(0, 41, 2), np.arange(1, 41, 2), None],
                             ids=["even a", "odd a", "mixed"])
    @pytest.mark.parametrize("trailing", [(), (2,)], ids=["2 floats", "4 floats"])
    def test_one_parity_of_a_gives_the_bits_of_two_products(self, rng, fresh_bands, a_set,
                                                              trailing):
        amplitudes = support(rng, 41, 33, trailing, a_set)
        c, totals, out = optics._turn(amplitudes, 1.0)
        (products, _, _), = optics._STORE.plans.values()
        reference = two_product_turn(amplitudes, products)
        got = out.view(np.float64)
        assert got.shape == reference.shape
        nonzero = reference != 0.0
        assert got[nonzero].tobytes() == reference[nonzero].tobytes()
        assert (got[~nonzero] == 0.0).all()


class TestTurnBuffers:
    """``_turn`` writes into buffers that each thread keeps and reuses."""

    def test_a_report_keeps_its_columns_after_other_turns(self, fresh_bands):
        # the kernel copies what it keeps out of the thread's buffers, so a
        # report's columns hold after later turns, smaller or larger, write them
        q = QubitAmplitudes(0.6, 0.8)

        def columns(report):
            return [np.asarray(column).tobytes() for column in (
                report.counts, report.probabilities, report.classifications,
                report.fidelities, report.corrections, report.coordinates, report.receivers)]

        report = teleport_basic(q, squeezed_spec(0.8, 64), squeezed_spec(-0.8, 64))
        kept = columns(report)
        for protocol, specs in ((teleport_enhanced, (coherent_spec(1.0, 14),)),
                                (teleport_basic, (squeezed_spec(0.4, 26), squeezed_spec(-0.4, 26))),
                                (teleport_enhanced, (coherent_spec(6.0, 90),))):
            protocol(q, *specs)
            assert columns(report) == kept
        assert columns(teleport_basic(q, squeezed_spec(0.8, 64), squeezed_spec(-0.8, 64))) == kept
        state = tensor(build_state(squeezed_spec(0.4, 26)), build_state(squeezed_spec(-0.4, 26)))
        split = beamsplitter_5050(state, 0, 1)
        for buffer in (optics._BUFFERS.amplitudes, optics._BUFFERS.out):
            assert not np.shares_memory(split, buffer)
            assert not np.shares_memory(report.coordinates, buffer)

    def test_each_thread_grows_its_own_buffers_to_the_size_a_call_needs(self, rng, fresh_bands):
        amplitudes = support(rng, 20, 20, (2,))
        _, _, out = optics._turn(amplitudes, 1.0)
        mine = (optics._BUFFERS.amplitudes, optics._BUFFERS.out)
        expected = out.tobytes()
        seen = {}

        def other():
            sizes = []
            for shape in ((12, 9), (30, 25, 2), (5, 5)):
                _, _, theirs = optics._turn(support(np.random.default_rng(1), *shape[:2],
                                                    shape[2:]), 1.0)
                sizes.append(optics._BUFFERS.out.size)
                # exactly what the call needed, kept when a smaller call follows
                assert sizes[-1] == max(sizes[:-1] + [theirs.view(np.float64).size])
            seen["buffers"] = (optics._BUFFERS.amplitudes, optics._BUFFERS.out)
            seen["shares"] = any(np.shares_memory(buffer, mine_one)
                                 for buffer in seen["buffers"] for mine_one in mine)

        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and set(seen) == {"buffers", "shares"}
        assert not seen["shares"]
        assert out.tobytes() == expected
        assert optics._BUFFERS.amplitudes is mine[0] and optics._BUFFERS.out is mine[1]


    def test_a_thread_keeps_no_buffer_above_the_limit(self, rng, fresh_bands, monkeypatch):
        # a call that needs more than _KEPT_BYTES turns in arrays of its own
        # and leaves the thread's smaller buffers as they were
        small, large = support(rng, 6, 6, ()), support(rng, 30, 30, (2,))
        monkeypatch.setattr(optics, "_KEPT_BYTES", 8 * 2000)
        seen = {}

        def run():
            optics._turn(small, 1.0)
            kept = (optics._BUFFERS.amplitudes, optics._BUFFERS.out)
            _, _, out = optics._turn(large, 1.0)
            seen["large"] = out.view(np.float64).nbytes
            seen["kept"] = optics._BUFFERS.amplitudes is kept[0] and optics._BUFFERS.out is kept[1]
            seen["shares"] = any(np.shares_memory(out, buffer) for buffer in kept)
            seen["sizes"] = [buffer.nbytes for buffer in kept]

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert seen["large"] > optics._KEPT_BYTES and max(seen["sizes"]) <= optics._KEPT_BYTES
        assert seen["kept"] and not seen["shares"]


class TestConcurrentCallers:
    def test_threads_on_one_store_give_the_single_threaded_bytes(self, fresh_bands):
        # five threads of distinct cutoffs grow and raise one store at once,
        # with the interpreter switching threads as often as it can, each
        # turning in buffers of its own.  The squeezed runs reach even
        # totals only, so their turns copy the first half of each output to
        # the second; every other round starts from
        # the even bands of a smaller squeezed run, so that the first coherent
        # run to plan fills the odd groups while the others grow or raise
        q = QubitAmplitudes(0.6, 0.8)
        specs = {"coherent 14": (coherent_spec(1.0, 14),),
                 "coherent 40": (coherent_spec(3.0, 40),),
                 "squeezed 64": (squeezed_spec(0.8, 64), squeezed_spec(-0.8, 64)),
                 "coherent 90": (coherent_spec(6.0, 90),),
                 "squeezed 96": (squeezed_spec(1.0, 96), squeezed_spec(-1.0, 96))}

        def columns(name):
            protocol = teleport_enhanced if len(specs[name]) == 1 else teleport_basic
            report = protocol(q, *specs[name])
            return [np.asarray(column).tobytes() for column in (
                report.counts, report.probabilities, report.classifications,
                report.fidelities, report.corrections, report.coordinates)]

        expected = {}
        for name in specs:
            optics._STORE = optics._Store()
            expected[name] = columns(name)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(10):
                optics._STORE = optics._Store()
                if attempt % 2:
                    teleport_basic(q, squeezed_spec(0.4, 26), squeezed_spec(-0.4, 26))
                    assert optics._STORE.kept == {0}
                barrier = threading.Barrier(len(specs))
                got = {}

                def run(name):
                    barrier.wait(timeout=60)
                    try:
                        got[name] = columns(name)
                    except Exception as error:  # reported by the comparison below
                        got[name] = error

                threads = [threading.Thread(target=run, args=(name,)) for name in specs]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                assert got == expected
        finally:
            sys.setswitchinterval(interval)
