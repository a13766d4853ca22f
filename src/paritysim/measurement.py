"""Projective photon counting, parity statistics, and the lossy-detector model.

Probabilities are computed exactly from amplitudes by exhaustive enumeration;
the seeded sampler on top of the exact joint distribution is a convenience,
never the source of any reported number.

``_count_factored`` is the counting kernel of the heralded protocols: it
mixes an input mode with the first half of a two-mode resource, given as two
narrow factors, on the 50/50 beamsplitter and enumerates the joint records of
the two outputs through optics' grouped turn, without building the
three-mode state.  The public functions here count a two-mode state, the
matrix R[n, m] of ``fock``, from its weights |R|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMode
from .fock import INPUT_NORM_TOL, SingleModeState
from .optics import _MINUS_I_POWERS, _turn, _two_mode

#: Outcomes with probability below this are treated as impossible.
OUTCOME_FLOOR = 1e-14


@dataclass(frozen=True)
class CountDistribution:
    """Exact photon-count probabilities for one mode, keyed by count.

    Raises ``ValueError`` for a count that is not a non-negative integer (a
    Python or numpy int, not a bool) and for probabilities that are not a
    distribution.
    """

    probabilities: dict

    def __post_init__(self):
        if not all(_is_count(n) for n in self.probabilities):
            raise ValueError("photon counts must be non-negative integers")
        raw = {int(n): float(p) for n, p in self.probabilities.items()}
        _check_probabilities(raw.values())
        object.__setattr__(self, "probabilities", {n: p for n, p in raw.items() if p > 0.0})

    def probability(self, n: int) -> float:
        return self.probabilities.get(n, 0.0)

    def odd_probability(self) -> float:
        return sum((p for n, p in self.probabilities.items() if n % 2 == 1), 0.0)

    def max_count(self) -> int:
        return max(self.probabilities, default=0)


def _is_count(n) -> bool:
    """Whether ``n`` is a non-negative Python or numpy int, and not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0


def _check_probabilities(values) -> None:
    """Raise ``ValueError`` unless each of the floats ``values`` lies in
    [0, 1 + 1e-12] and the positive ones, added in their order, sum to 1
    within 1e-10."""
    values = list(values)
    # the negated test also rejects NaN, which fails every comparison
    if not all(0.0 <= p <= 1.0 + 1e-12 for p in values):
        raise ValueError("probabilities must lie in [0, 1]")
    total = sum(p for p in values if p > 0.0)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class DetectorModel:
    """Number-resolving detector that registers each photon with probability
    ``efficiency``; no dark counts."""

    efficiency: float

    def __post_init__(self):
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError("efficiency must lie in [0, 1]")


def _marginal(state, mode: int) -> np.ndarray:
    """Sum over the other mode of |R|^2, for a two-mode matrix R.  A weight
    that overflows is inf, which ``CountDistribution`` refuses as it refuses
    every weight above 1."""
    matrix = _two_mode(state, mode)
    with np.errstate(over="ignore"):
        return (np.abs(matrix) ** 2).sum(axis=1 - mode)


def count_distribution(state, mode: int) -> CountDistribution:
    """Marginal photon-count distribution of one mode of a two-mode matrix.
    Raises ``ValueError`` for a matrix that is not a finite, normalized state."""
    return CountDistribution(dict(enumerate(_marginal(state, mode).tolist())))


def odd_parity_probability(state, mode: int) -> float:
    """Probability of finding an odd photon number in ``mode``."""
    return count_distribution(state, mode).odd_probability()


def _count_factored(sent: SingleModeState, left: np.ndarray, right: np.ndarray):
    """The counting kernel: ``sent`` mixed with the first mode of the two-mode
    resource R[m, k] = sum_j left[m, j] right[k, j] on the 50/50 beamsplitter.

    Returns three arrays, one row per record (na, nb) at or above
    ``OUTCOME_FLOOR``: the counts as an integer matrix of two columns, the
    probabilities and the records' ``coordinates``, a records x r matrix.
    The normalized state a record leaves on the resource's second mode is
    its row of ``coordinates @ right.T``: it lies in the span of the r
    columns of ``right``, so the kernel keeps its r coordinates and builds
    no receiver vector.  Records are in counts order, by na and then by nb;
    a resource that reaches no record gives three empty arrays.

    The beamsplitter conserves the total N = na + nb and turns each total's
    amplitudes by the block unitary (-i)^(c-a) D_N[c, a], D_N real.  With R
    factored, the three-mode amplitudes are X Q^T for the narrow
    X[i, m, j] = sent[i] left[m, j] and Q = ``right``, so the blocks act on
    the r columns of X only: the column phases i^a are folded into ``sent``
    once, and ``optics._turn`` gives Y, the real turns of X, one row per
    pair (c, N - c) plus the padding rows of its stacked products, in the
    order of those products.  It skips the totals that no nonzero level of
    ``sent`` and row of ``left`` reach, which is what keeps even-only
    (squeezed) supports cheap.

    It also skips the totals that cannot hold a record.  Each block is
    unitary, so the probabilities of the records of total N sum to
    W_N = sum_(a + m = N) |sent_a|^2 l_m, with l_m = Re(left_m G left_m^H)
    >= 0 the weight of resource row m, and none exceeds it: W is one
    convolution of two short non-negative vectors.  A total with W_N below
    half of ``OUTCOME_FLOOR`` is dead; the factor 2 leaves room for the
    rounding of W_N and of a record's computed probability, each many
    orders smaller.  ``_turn`` turns the totals from the first to the last
    live one, with the bits a turn of every total gives them, so the records
    kept are the same to the last bit.

    All rows of Y are then scored together, as they come, padding included.
    Record (na, nb)'s amplitudes are its row of Y Q^T times (-i)^na, so its
    probability is Re sum (Y G) * conj(Y) over that row, with the r x r
    Gram matrix G = Q^T conj(Q); padding rows and rows below the floor are
    dropped, and only the kept rows are gathered, in counts order, and
    scaled by (-i)^na / sqrt(p) into coordinates.
    """
    if abs(sent.norm_squared() - 1.0) > INPUT_NORM_TOL:
        raise ValueError("the counting kernel requires a normalized input state")
    gram = np.ascontiguousarray(right.T) @ right.conj()
    # the blocks' column phases i^a = conj((-i)^a), folded into the input once
    twisted = sent.amplitudes * _MINUS_I_POWERS[np.arange(sent.amplitudes.size) % 4].conj()
    # the bound W of the docstring: l is summed from the (re, im) floats, and
    # the convolution runs on complex numbers with zero imaginary parts, since
    # numpy's float convolution would fault in about 90 KB of library code
    # that no other step of a run reads, and a complex einsum another 60 KB
    factor = np.ascontiguousarray(left, dtype=np.complex128)
    weights = np.multiply(np.dot(factor, gram).view(np.float64), factor.view(np.float64)).sum(axis=1)
    bounds = np.convolve(sent.amplitudes * sent.amplitudes.conj(), weights).real
    c, totals, out = _turn(twisted[:, None, None], left, bounds >= OUTCOME_FLOOR / 2)
    # Re(a conj(b)) = Re a Re b + Im a Im b, summed over the (re, im) pairs
    probs = np.einsum("ij,ij->i", (out @ gram).view(np.float64), out.view(np.float64))
    kept = np.flatnonzero((probs >= OUTCOME_FLOOR) & (c <= totals))  # c > N: padding
    na = c[kept]
    nb = totals[kept] - na
    # the turn keeps c in the fewest bytes, which numpy sorts by radix in any
    # row order; counts are intp
    order = np.lexsort((nb, na))
    kept, counts = kept[order], np.column_stack((na[order], nb[order])).astype(np.intp)
    probs = probs[kept]
    # each kept row scaled to the coordinates of a unit-norm receiver, with its (-i)^na phase
    return counts, probs, out[kept] * (_MINUS_I_POWERS[counts[:, 0] % 4] / np.sqrt(probs))[:, None]


def thinned_distribution(dist: CountDistribution, det: DetectorModel) -> CountDistribution:
    """Binomial thinning of an exact count distribution by detector efficiency."""
    probs = np.zeros(dist.max_count() + 1)
    probs[list(dist.probabilities)] = list(dist.probabilities.values())
    return CountDistribution(dict(enumerate(_thinned(probs, det.efficiency).tolist())))


#: Floats in one block of ``_thinned``'s binomial rows, 8 MiB.
_THINNING_FLOATS = 1 << 20


def _thinned(probs: np.ndarray, eta: float) -> np.ndarray:
    """sum_n probs[n] B_n: ``probs`` holds the probabilities of counts
    0..top, and B_n(k) = C(n, k) eta^k (1-eta)^(n-k) is the chance that k of
    n photons are seen.

    B_n comes from B_(n-1) row by row, as B_n(k) = (1-eta) B_(n-1)(k) + eta
    B_(n-1)(k-1), a convex combination of non-negative numbers, so the
    weights neither overflow nor cancel at any count.  Each block of rows is
    scaled by its probabilities and added to the sum so far by
    ``np.add.reduce`` over its first axis, which adds them in ascending count
    order, one after the other, for every k.  A block holds at most
    ``_THINNING_FLOATS`` floats, so a count near 10^5 needs no square matrix.
    """
    size = probs.size
    height = min(size, max(1, _THINNING_FLOATS // size))
    rows = np.zeros((height + 1, size))  # row 0 holds the sum so far
    keep = 1.0 - eta
    for start in range(0, size, height):
        block = rows[1 : 1 + min(height, size - start)]
        for n, row in enumerate(block, start):
            if n:
                np.multiply(last, keep, out=row)
                row[1:] += eta * last[:-1]
            else:
                row[0] = 1.0
            last = row
        last = last.copy()  # the next block grows from it
        block *= probs[start : start + len(block), None]
        rows[0] = np.add.reduce(rows[: len(block) + 1], axis=0)
    return rows[0]


def _lossy_parities(probs: np.ndarray, det: DetectorModel) -> tuple[float, float, float]:
    """``(odd ideal, odd lossy, tvd)`` for the count distribution whose count
    n has probability ``probs[n]``: the probability of an odd count before
    and after ``thinned_distribution`` by ``det``, and the total-variation
    distance between the two, each added in ascending count order.  Both
    distributions are checked as ``CountDistribution`` checks them."""
    lossy = _thinned(probs, det.efficiency)
    ideal_values, lossy_values = probs.tolist(), lossy.tolist()
    _check_probabilities(ideal_values)
    _check_probabilities(lossy_values)
    return (sum(ideal_values[1::2], 0.0), sum(lossy_values[1::2], 0.0),
            0.5 * sum(np.abs(probs - lossy).tolist()))


def lossy_count_distribution(state, mode: int, det: DetectorModel) -> CountDistribution:
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
    """Half the sum of |d1(n) - d2(n)| over the counts of either, in
    ascending order."""
    counts = sorted(set(d1.probabilities) | set(d2.probabilities))
    return 0.5 * sum(abs(d1.probability(n) - d2.probability(n)) for n in counts)


def sample_counts(state, modes, rng: np.random.Generator, shots: int) -> list[tuple]:
    """Draw counting records of one mode of a two-mode matrix, named by the
    1-tuple ``modes``, from the exact distribution: each record is the
    1-tuple of that mode's count.

    Counts are drawn from those at or above the 1e-14 probability floor.
    Raises ``ValueError``, as ``count_distribution`` does, for a matrix that
    is not a finite, normalized state, and for ``shots`` that is not a
    non-negative integer (a Python or numpy int, not a bool).  Purely a
    convenience for simulated experiments; takes the caller's seeded
    generator so there is no hidden randomness.
    """
    if not _is_count(shots):
        raise ValueError(f"shots must be a non-negative integer, got {shots!r}")
    measured = tuple(modes)
    if len(measured) != 1:
        raise InvalidMode(f"one mode is counted and the other remains, got modes {measured}")
    probs = _marginal(state, measured[0])
    # refuses what count_distribution refuses: a state that is not normalized
    CountDistribution(dict(enumerate(probs.tolist())))
    counts = np.flatnonzero(probs >= OUTCOME_FLOOR)
    picks = rng.choice(counts.size, size=shots, p=probs[counts] / probs[counts].sum())
    return [(n,) for n in counts[picks].tolist()]
