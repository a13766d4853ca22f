import math

import numpy as np
import pytest

from conftest import kernel_records, random_single, random_two_mode, shifted_split
from paritysim import (
    CountDistribution,
    DetectorModel,
    InvalidMode,
    SingleModeState,
    build_state,
    coherent_spec,
    count_distribution,
    explicit_spec,
    lossy_count_distribution,
    number_spec,
    odd_parity_probability,
    parity_flip_probability,
    phase_shift,
    resource_from_states,
    sample_counts,
    tensor,
    thinned_distribution,
    total_variation_distance,
)
from paritysim import measurement
from paritysim.measurement import OUTCOME_FLOOR, _lossy_parities


def single_photon_pair():
    return np.array([[0.0, 1.0], [-1.0, 0.0]]) / math.sqrt(2)


class TestCountDistribution:
    def test_entangled_pair(self):
        dist = count_distribution(single_photon_pair(), 0)
        assert dist.probability(0) == pytest.approx(0.5)
        assert dist.probability(1) == pytest.approx(0.5)

    def test_vacuum(self):
        dist = count_distribution(np.array([[1.0, 0.0], [0.0, 0.0]]), 0)
        assert dist.probabilities == {0: pytest.approx(1.0)}

    def test_coherent_marginal_is_poisson(self):
        st = tensor(build_state(coherent_spec(1.0, 20)), build_state(number_spec(0, 0)))
        dist = count_distribution(st, 0)
        for n in range(15):
            poisson = math.exp(-1.0) / math.factorial(n)  # independent series
            assert dist.probability(n) == pytest.approx(poisson, abs=1e-13)

    def test_invalid_mode(self):
        with pytest.raises(InvalidMode):
            count_distribution(single_photon_pair(), 2)

    def test_rejects_unnormalized(self):
        st = np.array([[0.5]])
        with pytest.raises(ValueError):
            count_distribution(st, 0)


class TestOddParity:
    def test_vacuum_is_even(self):
        assert odd_parity_probability(np.array([[1.0, 0.0], [0.0, 0.0]]), 0) == 0.0

    def test_shifted_pair_gives_zero(self):
        for spec in (coherent_spec(0.9, 16), explicit_spec([0.2, 0.4, 0.1, 0.7])):
            out = shifted_split(build_state(spec))
            assert odd_parity_probability(out, 0) <= 1e-12

    def test_orthogonal_pair_gives_half(self):
        out = shifted_split(build_state(number_spec(0, 2)), build_state(number_spec(1, 2)))
        assert odd_parity_probability(out, 0) == pytest.approx(0.5, abs=1e-12)


class TestProjectCounts:
    """Conditioning on counts, through the counting kernel: ``sent`` mixed
    with the first mode of a two-mode resource, both outputs counted."""

    def test_schmidt_form(self):
        # vacuum sent: a count of zero photons in both outputs finds the
        # pair's first mode empty and leaves its second with one photon
        records = kernel_records(SingleModeState([1.0]), single_photon_pair())
        prob, receiver = records[(0, 0)]
        assert prob == pytest.approx(0.5)
        assert abs(receiver[1]) == pytest.approx(1.0)

    def test_scissors_pre_measurement_state(self):
        # the truncation protocol's state right before counting, projected
        # onto one photon at each splitter output
        alpha = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        sent = phase_shift(SingleModeState(alpha), math.pi / 2)
        resource = resource_from_states(
            build_state(number_spec(0, 2)), build_state(number_spec(2, 2)), "phi_minus")
        prob, receiver = kernel_records(sent, resource)[(1, 1)]
        expected_prob = (abs(alpha[0]) ** 2 + abs(alpha[2]) ** 2) / 4
        assert prob == pytest.approx(expected_prob, abs=1e-12)
        expected = np.zeros(3, dtype=complex)
        expected[0], expected[2] = alpha[0], alpha[2]
        expected /= np.linalg.norm(expected)
        overlap = abs(np.vdot(expected, receiver))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_impossible_outcome(self):
        # vacuum in, vacuum resource: the only record is (0, 0)
        records = kernel_records(SingleModeState([1.0, 0.0]), np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert list(records) == [(0, 0)]

    def test_all_outcomes_sum_to_one(self, rng):
        for _ in range(5):
            resource = random_two_mode(rng, 6, 6, 20)
            records = kernel_records(random_single(rng, 5), resource)
            assert sum(p for p, _ in records.values()) == pytest.approx(1.0, abs=1e-10)
            for p, receiver in records.values():
                assert p >= OUTCOME_FLOOR
                assert np.sum(np.abs(receiver) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestLossyDetector:
    def test_perfect_detector_is_identity(self):
        st = tensor(build_state(coherent_spec(1.0, 18)), build_state(number_spec(0, 0)))
        ideal = count_distribution(st, 0)
        lossy = lossy_count_distribution(st, 0, DetectorModel(1.0))
        assert total_variation_distance(ideal, lossy) < 1e-14

    def test_blind_detector_sees_vacuum(self):
        st = tensor(build_state(coherent_spec(1.0, 18)), build_state(number_spec(0, 0)))
        lossy = lossy_count_distribution(st, 0, DetectorModel(0.0))
        assert lossy.probability(0) == pytest.approx(1.0)

    def test_single_photon_thinning_by_hand(self):
        st = tensor(build_state(number_spec(1, 1)), build_state(number_spec(0, 0)))
        lossy = lossy_count_distribution(st, 0, DetectorModel(0.85))
        assert lossy.probability(1) == pytest.approx(0.85)
        assert lossy.probability(0) == pytest.approx(0.15)

    def test_coherent_thinning_is_poisson(self):
        # thinned Poisson(mu) is Poisson(eta*mu): check against the series
        st = tensor(build_state(coherent_spec(1.0, 22)), build_state(number_spec(0, 0)))
        lossy = lossy_count_distribution(st, 0, DetectorModel(0.85))
        for n in range(10):
            expected = math.exp(-0.85) * 0.85 ** n / math.factorial(n)
            assert lossy.probability(n) == pytest.approx(expected, abs=1e-12)

    def test_efficiency_domain(self):
        with pytest.raises(ValueError):
            DetectorModel(1.2)

    def test_count_tvd_grows_with_mean_photon_number(self):
        det = DetectorModel(0.85)
        tvds = []
        flips = []
        for mean in (0.5, 1.0, 2.0, 4.0):
            st = tensor(build_state(coherent_spec(math.sqrt(mean), 30)),
                        build_state(number_spec(0, 0)))
            ideal = count_distribution(st, 0)
            lossy = thinned_distribution(ideal, det)
            tvds.append(total_variation_distance(ideal, lossy))
            flips.append(parity_flip_probability(ideal, det))
        assert all(b >= a for a, b in zip(tvds, tvds[1:]))
        # the parity-misreading probability behind the "low photon numbers"
        # caveat grows as well
        assert all(b >= a for a, b in zip(flips, flips[1:]))

    def test_binary_parity_marginal_tvd_shrinks(self):
        # the even/odd marginals of lossy and ideal counting actually move
        # closer together as the mean grows (both approach 1/2); kept as a
        # regression against reading the monotonicity claim that way
        det = DetectorModel(0.85)
        gaps = []
        for mean in (0.5, 1.0, 2.0, 4.0):
            st = tensor(build_state(coherent_spec(math.sqrt(mean), 30)),
                        build_state(number_spec(0, 0)))
            ideal = count_distribution(st, 0)
            lossy = thinned_distribution(ideal, det)
            gaps.append(abs(ideal.odd_probability() - lossy.odd_probability()))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestSampler:
    def test_reproducible_and_consistent(self, rng):
        st = random_two_mode(rng, 5, 5, 8)
        draws1 = sample_counts(st, (0,), np.random.default_rng(5), 2000)
        draws2 = sample_counts(st, (0,), np.random.default_rng(5), 2000)
        assert draws1 == draws2
        freq = {c: draws1.count(c) / 2000 for c in set(draws1)}
        dist = count_distribution(st, 0)
        for counts, f in freq.items():
            assert abs(f - dist.probability(counts[0])) < 0.06

    def test_one_mode_at_a_time(self, rng):
        st = random_two_mode(rng, 3, 4, 6)
        draws = sample_counts(st, (1,), np.random.default_rng(9), 200)
        assert draws == sample_counts(st.T, (0,), np.random.default_rng(9), 200)
        assert all(count_distribution(st, 1).probability(n) > 0 for (n,) in draws)
        for modes in ((0, 1), (0, 0), ()):
            with pytest.raises(InvalidMode):
                sample_counts(st, modes, np.random.default_rng(9), 1)

    @pytest.mark.parametrize("state, message", [
        (2 * np.eye(2), r"must lie in \[0, 1\]"),
        (0.1 * np.eye(2), "sum to 0.020000000000000004, not 1"),
    ], ids=["over", "under"])
    def test_refuses_what_count_distribution_refuses(self, state, message):
        with pytest.raises(ValueError, match=message):
            count_distribution(state, 0)
        with pytest.raises(ValueError, match=message):
            sample_counts(state, (0,), np.random.default_rng(9), 3)


class TestSampleShots:
    @pytest.mark.parametrize("shots", [-1, 1.5, 2.0, True, False, None, "3"])
    def test_refuses_shots_that_are_not_a_non_negative_integer(self, shots):
        state = np.eye(2) / math.sqrt(2)
        with pytest.raises(ValueError, match="shots must be a non-negative integer"):
            sample_counts(state, (0,), np.random.default_rng(9), shots)

    def test_zero_shots_and_numpy_integers(self):
        state = np.eye(2) / math.sqrt(2)
        assert sample_counts(state, (0,), np.random.default_rng(9), 0) == []
        draws = sample_counts(state, (0,), np.random.default_rng(9), np.int64(5))
        assert draws == sample_counts(state, (0,), np.random.default_rng(9), 5)


class TestCountDistributionType:
    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            CountDistribution({0: 0.5, 1: 0.4})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CountDistribution({0: 1.5, 1: -0.5})

    @pytest.mark.parametrize("probs", [
        {-3: 1.0},
        {0: 0.5, -3: 0.5},
        {1.5: 1.0},
        {2.0: 1.0},
        {True: 1.0},
        {"1": 1.0},
    ], ids=["negative", "negative_among_others", "fraction", "integral_float", "bool", "string"])
    def test_rejects_counts_that_are_not_non_negative_integers(self, probs):
        # a negative count used to give odd_probability() 1.0, max_count() -3,
        # a raw ZeroDivisionError from parity_flip_probability and a raw
        # IndexError from thinned_distribution; 1.5 used to become count 1
        with pytest.raises(ValueError, match="non-negative integers"):
            CountDistribution(probs)

    def test_accepts_numpy_integer_counts(self):
        dist = CountDistribution({np.int64(2): 0.25, np.uint8(3): 0.75})
        assert dist.probabilities == {2: 0.25, 3: 0.75}
        assert all(type(n) is int for n in dist.probabilities)


class TestLossyLargeCounts:
    def test_no_overflow_beyond_a_thousand_photons(self):
        dist = CountDistribution({1100: 1.0})
        det = DetectorModel(0.9)
        expected_flip = (1.0 - 0.8 ** 1100) / 2.0
        assert parity_flip_probability(dist, det) == pytest.approx(expected_flip, abs=1e-15)
        thinned = thinned_distribution(dist, det)
        for k in (900, 990, 1050, 1100):
            log_pmf = (math.lgamma(1101) - math.lgamma(k + 1) - math.lgamma(1101 - k)
                       + k * math.log(0.9) + (1100 - k) * math.log(0.1))
            assert thinned.probability(k) == pytest.approx(math.exp(log_pmf), rel=1e-10)
        # an even count: the observed parity flips exactly when the count is odd
        assert thinned.odd_probability() == pytest.approx(expected_flip, abs=1e-12)

    def test_flip_closed_form_matches_binomial_sum(self):
        dist = CountDistribution({0: 0.1, 3: 0.2, 8: 0.3, 21: 0.4})
        det = DetectorModel(0.7)
        direct = sum(
            p * sum(math.comb(n, k) * 0.7 ** k * 0.3 ** (n - k)
                    for k in range(n + 1) if (n - k) % 2 == 1)
            for n, p in dist.probabilities.items())
        assert parity_flip_probability(dist, det) == pytest.approx(direct, abs=1e-15)

    def test_thinning_matches_binomial_sum(self):
        # the comb-times-powers sum, exact up to rounding below ~1000 photons
        dist = CountDistribution({0: 0.05, 1: 0.15, 4: 0.2, 9: 0.25, 40: 0.35})
        for eta in (0.0, 0.3, 0.5, 0.85, 1.0):
            expected = {}
            for n, p in dist.probabilities.items():
                for k in range(n + 1):
                    w = math.comb(n, k) * eta ** k * (1.0 - eta) ** (n - k)
                    if w:
                        expected[k] = expected.get(k, 0.0) + p * w
            got = thinned_distribution(dist, DetectorModel(eta)).probabilities
            assert set(got) == set(expected)
            for k, p in expected.items():
                assert got[k] == pytest.approx(p, rel=1e-13, abs=1e-17)


class TestCountDistributionRange:
    @pytest.mark.parametrize("probs", [
        {0: 1.0, 1: -1e-11},
        {0: 1.0, 1: float("nan")},
        {0: 1.0, 1: -0.2, 2: 0.2},
    ], ids=["tiny_negative", "nan", "negative_with_offsetting_excess"])
    def test_rejects_values_outside_unit_interval(self, probs):
        # the range check sees the raw values, before non-positive ones are dropped
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            CountDistribution(probs)

    def test_drops_zeros_after_range_check(self):
        assert CountDistribution({0: 0.0, 1: 1.0, 2: 0.0}).probabilities == {1: 1.0}


def loop_thinned(dist: CountDistribution, det: DetectorModel) -> CountDistribution:
    """The reference for ``thinned_distribution``: the binomial weights of n
    photons grown from those of n - 1 in a loop over the counts, and each
    count's weights times its probability added to the sum in turn."""
    eta = det.efficiency
    top = dist.max_count()
    weights = np.zeros(top + 1)  # B_n(k), zero beyond k = n
    weights[0] = 1.0
    out = np.zeros(top + 1)
    for n in range(top + 1):
        if n:
            weights[1 : n + 1] = (1.0 - eta) * weights[1 : n + 1] + eta * weights[:n]
            weights[0] *= 1.0 - eta
        p = dist.probability(n)
        if p:
            out += p * weights
    return CountDistribution(dict(enumerate(out.tolist())))


class TestThinningAgainstTheLoop:
    """The row-wise thinning gives the loop's bits, in one block of rows or
    in many."""

    @pytest.mark.parametrize("block_floats", [None, 1, 7, 40], ids=lambda f: f"block {f}")
    def test_random_distributions(self, rng, monkeypatch, block_floats):
        if block_floats is not None:
            monkeypatch.setattr(measurement, "_THINNING_FLOATS", block_floats)
        for _ in range(60):
            size = int(rng.integers(1, 50))
            probs = rng.random(size) * (rng.random(size) < 0.6)
            probs[-1] += 0.1
            dist = CountDistribution(dict(enumerate((probs / probs.sum()).tolist())))
            for eta in (0.0, 1.0, float(rng.random())):
                det = DetectorModel(eta)
                got, expected = thinned_distribution(dist, det), loop_thinned(dist, det)
                assert repr(got.probabilities) == repr(expected.probabilities)

    @pytest.mark.parametrize("block_floats", [None, 300_000], ids=["one block", "three blocks"])
    def test_large_counts(self, monkeypatch, block_floats):
        if block_floats is not None:
            monkeypatch.setattr(measurement, "_THINNING_FLOATS", block_floats)
        for probs in ({1100: 1.0}, {3: 0.25, 700: 0.5, 1100: 0.25}):
            dist = CountDistribution(probs)
            det = DetectorModel(0.9)
            assert repr(thinned_distribution(dist, det).probabilities) == repr(
                loop_thinned(dist, det).probabilities)

    def test_detector_block_reads_the_distributions(self, rng):
        # the detector block's arrays give the bits of the dict path, an odd
        # probability of 0.0 where no count is odd included
        for size in (1, 2, 3, 30):
            probs = rng.random(size)
            probs[1::2] *= rng.random() < 0.5
            probs /= probs.sum()
            for eta in (0.0, 0.65, 1.0):
                det = DetectorModel(eta)
                ideal = CountDistribution(dict(enumerate(probs.tolist())))
                lossy = thinned_distribution(ideal, det)
                expected = (ideal.odd_probability(), lossy.odd_probability(),
                            total_variation_distance(ideal, lossy))
                assert repr(_lossy_parities(probs, det)) == repr(expected)

    @pytest.mark.parametrize("probs, message", [([0.5, 0.6], "sum to"), ([1.5, -0.5], "lie in")])
    def test_detector_block_refuses_what_count_distribution_refuses(self, probs, message):
        with pytest.raises(ValueError, match=message):
            CountDistribution(dict(enumerate(probs)))
        with pytest.raises(ValueError, match=message):
            _lossy_parities(np.array(probs), DetectorModel(0.5))

    def test_odd_probability_is_a_float_without_odd_counts(self):
        probability = CountDistribution({0: 0.5, 2: 0.5}).odd_probability()
        assert type(probability) is float and probability == 0.0
