"""Projective photon counting, parity statistics, and the lossy-detector model.

Probabilities are computed exactly from amplitudes by exhaustive enumeration;
the seeded sampler on top of the exact joint distribution is a convenience,
never the source of any reported number.

``split_and_count`` is the counting kernel of the heralded protocols: it
mixes an input mode with the first half of a two-mode resource on the 50/50
beamsplitter and enumerates the joint records of the two outputs one
photon-total block at a time, without building the three-mode state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMode, ZeroProbabilityOutcome
from .fock import MultiModeState, SingleModeState
from .optics import _MINUS_I_POWERS, _check_mode, _real_block

#: Outcomes with probability below this are treated as impossible.
OUTCOME_FLOOR = 1e-14


@dataclass(frozen=True)
class CountDistribution:
    """Exact photon-count probabilities for one mode."""

    probabilities: dict

    def __post_init__(self):
        raw = {int(n): float(p) for n, p in self.probabilities.items()}
        # the negated test also rejects NaN, which fails every comparison
        if not all(0.0 <= p <= 1.0 + 1e-12 for p in raw.values()):
            raise ValueError("probabilities must lie in [0, 1]")
        probs = {n: p for n, p in raw.items() if p > 0.0}
        total = sum(probs.values())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probabilities", probs)

    def probability(self, n: int) -> float:
        return self.probabilities.get(n, 0.0)

    def odd_probability(self) -> float:
        return sum(p for n, p in self.probabilities.items() if n % 2 == 1)

    def even_probability(self) -> float:
        return sum(p for n, p in self.probabilities.items() if n % 2 == 0)

    def max_count(self) -> int:
        return max(self.probabilities, default=0)


@dataclass(frozen=True)
class MeasurementOutcome:
    """One photon-counting record with its probability and the collapsed state."""

    counts: tuple
    probability: float
    post_state: MultiModeState


@dataclass(frozen=True)
class HeraldedRecord:
    """One joint counting record of the two beamsplitter outputs, with the
    normalized state it leaves on the resource's second mode."""

    counts: tuple
    probability: float
    receiver: SingleModeState


@dataclass(frozen=True)
class DetectorModel:
    """Number-resolving detector that registers each photon with probability
    ``efficiency``; no dark counts."""

    efficiency: float

    def __post_init__(self):
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError("efficiency must lie in [0, 1]")


def count_distribution(state: MultiModeState, mode: int) -> CountDistribution:
    """Marginal photon-count distribution of one mode."""
    _check_mode(state, mode)
    probs: dict[int, float] = {}
    for occ, amp in state.items():
        n = occ[mode]
        probs[n] = probs.get(n, 0.0) + abs(amp) ** 2
    return CountDistribution(probs)


def odd_parity_probability(state: MultiModeState, mode: int) -> float:
    """Probability of finding an odd photon number in ``mode``."""
    return count_distribution(state, mode).odd_probability()


def _split_occupation(occ, measured: tuple[int, ...]):
    counts = tuple(occ[i] for i in measured)
    rest = tuple(occ[i] for i in range(len(occ)) if i not in measured)
    return counts, rest


def project_counts(
    state: MultiModeState, measured_modes, counts
) -> MeasurementOutcome:
    """Condition on specific photon counts in the measured modes.

    The post-state lives on the remaining modes, renormalized.  Raises
    ZeroProbabilityOutcome when the requested record has probability below
    1e-14 (the post-state would be meaningless noise).  The state's own
    amplitudes were cut at ``SPARSITY_FLOOR`` (1e-15), so a post-state of
    probability P carries an error up to about 1e-15 / sqrt(P) per amplitude,
    some 1e-8 near the 1e-14 floor; ``split_and_count`` keeps every amplitude
    and its receivers carry no such error.
    """
    measured = tuple(measured_modes)
    wanted = tuple(int(c) for c in counts)
    if len(set(measured)) != len(measured):
        raise InvalidMode("measured modes must be distinct")
    for m in measured:
        _check_mode(state, m)
    if len(measured) >= state.mode_count:
        raise InvalidMode("at least one mode must remain unmeasured")
    if len(wanted) != len(measured):
        raise ValueError("one count per measured mode is required")
    if any(c < 0 or c > state.per_mode_cutoff for c in wanted):
        raise ValueError(f"counts {wanted} outside 0..{state.per_mode_cutoff}")

    post: dict[tuple[int, ...], complex] = {}
    prob = 0.0
    for occ, amp in state.items():
        got, rest = _split_occupation(occ, measured)
        if got != wanted:
            continue
        prob += abs(amp) ** 2
        post[rest] = amp
    if prob < OUTCOME_FLOOR:
        raise ZeroProbabilityOutcome(f"counts {wanted} occur with probability {prob:.3e}")
    scale = 1.0 / math.sqrt(prob)
    post = {occ: amp * scale for occ, amp in post.items()}
    return MeasurementOutcome(
        counts=wanted,
        probability=prob,
        post_state=MultiModeState(state.mode_count - len(measured), state.per_mode_cutoff, post),
    )


def measure_modes(state: MultiModeState, modes) -> list[MeasurementOutcome]:
    """Exhaustively enumerate every joint counting record on ``modes``.

    Returns outcomes sorted by counts, each with its exact probability and
    normalized post-state; records below the 1e-14 probability floor are
    dropped as rounding noise.  As in ``project_counts``, post-states of
    records near that floor carry the 1e-15 sparsity-floor error divided by
    sqrt(P); ``split_and_count``'s receivers do not.
    """
    measured = tuple(modes)
    if len(set(measured)) != len(measured):
        raise InvalidMode("measured modes must be distinct")
    for m in measured:
        _check_mode(state, m)
    if len(measured) >= state.mode_count:
        raise InvalidMode("at least one mode must remain unmeasured")

    buckets: dict[tuple, dict] = {}
    weights: dict[tuple, float] = {}
    for occ, amp in state.items():
        got, rest = _split_occupation(occ, measured)
        buckets.setdefault(got, {})[rest] = amp
        weights[got] = weights.get(got, 0.0) + abs(amp) ** 2

    outcomes = []
    remaining = state.mode_count - len(measured)
    for got in sorted(weights):
        prob = weights[got]
        if prob < OUTCOME_FLOOR:
            continue
        scale = 1.0 / math.sqrt(prob)
        post = {occ: amp * scale for occ, amp in buckets[got].items()}
        outcomes.append(MeasurementOutcome(
            counts=got,
            probability=prob,
            post_state=MultiModeState(remaining, state.per_mode_cutoff, post),
        ))
    return outcomes


def split_and_count(sent: SingleModeState, resource: MultiModeState) -> list[HeraldedRecord]:
    """Mix ``sent`` with the first mode of ``resource`` on the 50/50
    beamsplitter and enumerate every joint count (na, nb) of the two outputs.

    The result is what ``measure_modes(beamsplitter_5050(prepend_mode(resource,
    sent), 0, 1), (0, 1))`` gives, with each post-state read as a single mode,
    but the three-mode state is never built.  The beamsplitter conserves the
    photon total N = na + nb of the pair, so with the resource as a matrix
    R[m, k] (k the receiver's count), the amplitudes of total N are the slab
    X[i, k] = sent[i] R[N - i, k] turned by the block unitary of N, whose
    entries are (-i)^(c-a) D_N[c, a] with D_N real (``optics._real_block``).
    The column phases i^a are folded into ``sent`` once, the real D_N then
    acts on the real and imaginary parts of X in one real product, and row
    na of the result, times (-i)^na, is the unnormalized receiver state of
    record (na, N - na).  Levels that are exactly zero in ``sent`` or ``R``
    are skipped, which is what keeps even-only (squeezed) supports cheap.

    Records are sorted by counts; those below the 1e-14 probability floor are
    dropped as rounding noise.
    """
    if resource.mode_count != 2:
        raise InvalidMode(f"the resource must have two modes, got {resource.mode_count}")
    if abs(sent.norm_squared() - 1.0) > 1e-9:
        raise ValueError("split_and_count requires a normalized input state")

    size = resource.per_mode_cutoff + 1
    matrix = np.zeros((size, size), dtype=np.complex128)
    if resource.amplitudes:
        occ = np.array(list(resource.amplitudes), dtype=np.intp)
        matrix[occ[:, 0], occ[:, 1]] = list(resource.amplitudes.values())
    receiver_levels = np.flatnonzero(np.any(matrix, axis=0))
    matrix = matrix[:, receiver_levels]
    has_row = np.any(matrix, axis=1)
    sent_amps = sent.amplitudes
    sent_levels = np.flatnonzero(sent_amps)
    # the totals i + m reachable from a nonzero sent[i] and a nonzero row m of R
    totals = np.flatnonzero(np.convolve(sent_amps != 0, has_row))
    # the blocks' column phases i^a = conj((-i)^a), folded into the input once
    twisted = sent_amps * _MINUS_I_POWERS[np.arange(sent_amps.size) % 4].conj()

    records = []
    for total in totals.tolist():
        levels = sent_levels[sent_levels <= total]
        levels = levels[total - levels < size]
        levels = levels[has_row[total - levels]]
        slab = twisted[levels, None] * matrix[total - levels]
        # a real product on the interleaved (re, im) columns: D Re X + i D Im X
        out = (_real_block(total)[:, levels] @ slab.view(np.float64)).view(np.complex128)
        probs = np.sum(out.real ** 2 + out.imag ** 2, axis=1)
        kept = np.flatnonzero(probs >= OUTCOME_FLOOR)
        receivers = np.zeros((kept.size, size), dtype=np.complex128)
        receivers[:, receiver_levels] = (
            out[kept] / np.sqrt(probs[kept, None]) * _MINUS_I_POWERS[kept % 4, None])
        for na, prob, receiver in zip(kept.tolist(), probs[kept].tolist(), receivers):
            records.append(HeraldedRecord((na, total - na), prob, SingleModeState(receiver)))
    records.sort(key=lambda r: r.counts)
    return records


def thinned_distribution(dist: CountDistribution, det: DetectorModel) -> CountDistribution:
    """Binomial thinning of an exact count distribution by detector efficiency.

    The binomial weights of n photons come from those of n - 1 by
    B_n(k) = eta B_{n-1}(k-1) + (1-eta) B_{n-1}(k), a convex combination of
    non-negative numbers, so they neither overflow nor cancel at any count.
    """
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


def lossy_count_distribution(
    state: MultiModeState, mode: int, det: DetectorModel
) -> CountDistribution:
    """Observed-count distribution for a detector of efficiency eta:
    P(k) = sum_{n >= k} P(n) C(n, k) eta^k (1-eta)^(n-k)."""
    return thinned_distribution(count_distribution(state, mode), det)


def parity_flip_probability(dist: CountDistribution, det: DetectorModel) -> float:
    """Probability that the observed parity differs from the true parity,
    i.e. that an odd number of photons goes undetected: (1 - (2 eta - 1)^n)/2
    for n photons."""
    eta = det.efficiency
    return sum(p * (1.0 - (2.0 * eta - 1.0) ** n) / 2.0 for n, p in dist.probabilities.items())


def total_variation_distance(d1: CountDistribution, d2: CountDistribution) -> float:
    counts = set(d1.probabilities) | set(d2.probabilities)
    return 0.5 * sum(abs(d1.probability(n) - d2.probability(n)) for n in counts)


def sample_counts(
    state: MultiModeState, modes, rng: np.random.Generator, shots: int
) -> list[tuple]:
    """Draw joint counting records from the exact distribution.

    Purely a convenience for simulated experiments; takes the caller's seeded
    generator so there is no hidden randomness.
    """
    outcomes = measure_modes(state, modes)
    probs = np.array([o.probability for o in outcomes])
    probs = probs / probs.sum()
    picks = rng.choice(len(outcomes), size=shots, p=probs)
    return [outcomes[i].counts for i in picks]
