"""End-to-end heralded teleportation and state-truncation protocols.

All three protocols are one heralded scheme, run by ``_run_heralded``: mix
the input mode with one half of a two-mode entangled resource on the 50/50
beamsplitter and exhaustively enumerate the joint photon-count records on
the two beamsplitter outputs.  Every resource here has rank 2, so it is
passed as two narrow factors read off the orthonormal pair
(``states._factors_on_pair``), and ``measurement._count_factored`` does
both steps in one pass, one photon-total block at a time, so neither the
resource matrix nor the three-mode state is built.  Each record leaves the
receiver mode in the span of the resource's two second-mode factors, so the
kernel gives its two coordinates there rather than a Fock vector.  All
records are then scored as columns, and the report keeps the columns.  The
protocols differ in the resource and in the rule that maps the counts
(na, nb) to a classification and a correction phase for the receiver
(``_basic_rule``, ``_enhanced_rule`` and ``_scissors_rule``, each applied to
whole arrays):

* basic: any pair (u, v) with real overlap; success iff the count in output
  A is odd; no correction needed; success probability 1/4.
* enhanced: v is the half-cycle phase shift of u; success iff exactly one of
  the two counts is odd (the two cases are exclusive for such pairs); an odd
  count in B needs a half-cycle phase shift on the receiver mode, which flips
  the sign of the odd-support basis state; success probability 1/2.
* scissors: resource built from two number states N != M; success iff the
  two counts total N + M; the receiver mode then holds the input truncated to
  its N- and M-photon components, with a relative sign that is positive for
  odd counts in A and needs a phase-shift correction for even ones.

With ``retilde`` the two teleportation rules add a quarter-cycle shift to
every success's correction, so the receiver reproduces the sent encoding.

Heralded non-successes are classified ``filtered`` and kept in the report
with their probabilities, so every report sums to one.  Outcomes that herald
neither success nor the protocol's designed filter (odd counts in B for the
basic protocol) are classified ``failure``; their fidelities are recorded
for inspection but nothing is claimed about them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DegenerateState, InvalidResource
from .fock import (
    DEGENERACY_FLOOR,
    INPUT_NORM_TOL,
    SingleModeState,
    _fields_equal,
    inner_product,
    normalize,
)
from .measurement import _count_factored
from .optics import _phase_factors, _two_mode, phase_shift
from .states import (
    QubitAmplitudes,
    StateSpec,
    build_state,
    number_spec,
    plus_minus,
    _encode_on_pair,
    _factors_on_pair,
)

SUCCESS = "success"
FAILURE = "failure"
FILTERED = "filtered"


@dataclass(frozen=True)
class OutcomeRecord:
    """One joint counting record of the two beamsplitter outputs."""

    counts: tuple
    probability: float
    classification: str
    corrected_post_state: SingleModeState
    fidelity_to_target: float
    correction_phase: float | None


@dataclass(frozen=True)
class ProtocolReport:
    """Full accounting of one protocol run, its records stored as columns.

    Row i of each column belongs to one counting record, and rows are in
    counts order (by na, then by nb): ``counts`` holds (na, nb), then come
    the record's ``probabilities``, ``classifications``, ``fidelities`` to
    the target, ``corrections`` (the phase shift applied to the receiver, NaN
    where none is defined) and ``coordinates``, the receiver state before its
    correction in the columns of ``basis``, the resource's second-mode
    factor.  Every column is read-only.  ``receivers``, whose rows are the
    corrected receiver states, and ``outcomes``, the same records as
    ``OutcomeRecord``s, are built on first read.

    ``state_audits`` records the cutoff and truncation tail of every
    single-mode state that entered the run, so reports stay auditable.
    """

    protocol: str
    counts: np.ndarray
    probabilities: np.ndarray
    classifications: np.ndarray
    fidelities: np.ndarray
    corrections: np.ndarray
    coordinates: np.ndarray
    basis: np.ndarray
    success_probability: float
    mean_conditional_fidelity: float | None
    total_probability: float
    state_audits: dict

    __eq__ = _fields_equal

    def __init__(self, protocol, counts, probabilities, classifications, fidelities,
                 corrections, coordinates, basis, success_probability, mean_conditional_fidelity,
                 total_probability, state_audits, outcomes=None):
        """The fields in order; ``outcomes``, when given, is kept as the
        records as it is, which is how ``dataclasses.replace`` makes a copy
        with edited records."""
        values = locals()
        for field in fields(self):
            object.__setattr__(self, field.name, values[field.name])
        if outcomes is not None:
            self.__dict__["outcomes"] = tuple(outcomes)

    @cached_property
    def receivers(self) -> np.ndarray:
        """The corrected receiver states as the rows of a read-only matrix:
        ``coordinates @ basis.T``, each row shifted by its correction."""
        receivers = self.coordinates @ np.ascontiguousarray(self.basis.T)
        for factors, mask in _phase_rows(self.corrections, self.basis.shape[0]):
            np.multiply(receivers, factors, out=receivers, where=mask[:, None])
        receivers.flags.writeable = False
        return receivers

    @cached_property
    def outcomes(self) -> tuple:
        """One ``OutcomeRecord`` per row, in counts order, with a correction
        phase of None where none is defined; each corrected state wraps its
        row of ``receivers``."""
        phases = [None if math.isnan(phase) else phase for phase in self.corrections.tolist()]
        return tuple(
            OutcomeRecord(tuple(counts), probability, classification,
                          SingleModeState._trusted(receiver), fid, phase)
            for counts, probability, classification, fid, phase, receiver in zip(
                self.counts.tolist(), self.probabilities.tolist(),
                self.classifications.tolist(), self.fidelities.tolist(), phases, self.receivers))

    def success_outcomes(self) -> list[OutcomeRecord]:
        return [o for o in self.outcomes if o.classification == SUCCESS]

    def min_success_fidelity(self) -> float:
        fids = self.fidelities[self.classifications == SUCCESS]
        return float(fids.min()) if fids.size else float("nan")


def fidelity(actual: SingleModeState, target: SingleModeState) -> float:
    """|<target|actual>|^2 for normalized single-mode states.  Raises
    ``ValueError`` if the overlap or its square overflows a float."""
    overlap = inner_product(target, actual)
    try:
        return abs(overlap) ** 2
    except OverflowError:
        raise ValueError("the fidelity overflows a float") from None


def entanglement_entropy(state) -> float:
    """Entropy of entanglement (base 2) across the bipartition of a
    normalized two-mode matrix, from its singular values; raises
    ``ValueError`` for a matrix that is not finite and normalized.

    Squared Schmidt coefficients below 1e-14 are excluded to avoid 0*log 0
    noise from truncation residue.  A product state gives +0.0: rounding of
    its one weight just above 1 would make the sum a tiny negative number.
    """
    if np.ndim(state) != 2:
        raise ValueError("entanglement entropy is defined here for two-mode states")
    matrix = _two_mode(state)
    # a norm that overflows is inf, which the check below refuses
    with np.errstate(over="ignore"):
        norm_squared = float(np.sum(np.abs(matrix) ** 2))
    if abs(norm_squared - 1.0) > INPUT_NORM_TOL:
        raise ValueError(f"the state must be normalized (got |R|^2 = {norm_squared})")
    weights = np.linalg.svd(matrix, compute_uv=False) ** 2
    weights = weights[weights > 1e-14]
    return max(0.0, float(-np.sum(weights * np.log2(weights))))


def _phase_rows(corrections: np.ndarray, size: int):
    """For each distinct non-zero correction phase, its factors exp(i phase n)
    for n < ``size`` and the mask of the rows it corrects."""
    for phase in set(corrections[~np.isnan(corrections) & (corrections != 0.0)].tolist()):
        yield _phase_factors(phase, size), corrections == phase


def _overlaps(coordinates: np.ndarray, projection: np.ndarray) -> np.ndarray:
    """|c_0 w_0 + c_1 w_1|^2 for each row c of ``coordinates`` and w =
    ``projection``, summed elementwise: a matrix-vector product picks its
    kernel by the row count, so a row's last bits would depend on the others."""
    return np.abs(coordinates[:, 0] * projection[0] + coordinates[:, 1] * projection[1]) ** 2


def _sum_in_order(values: np.ndarray) -> float:
    """values[0] + values[1] + ..., added left to right (0.0 for none)."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _run_heralded(protocol: str, sent: SingleModeState, factors: tuple,
                  target: SingleModeState, rule, audits: dict) -> ProtocolReport:
    """Count every record of ``sent`` mixed with the resource of ``factors``
    (``left``, ``right``; see ``measurement._count_factored``) and score it.

    ``rule(na, nb)`` maps the arrays of counts to the arrays of the records'
    classifications and of the phase shifts that correct their receivers,
    NaN where no correction is defined.  No step works record by record.
    The kernel's coordinates are checked finite once.  A record of
    coordinates c and correction phi has the receiver exp(i phi n) * (basis c),
    so its fidelity |<target|receiver>|^2 is |c . w|^2 with
    w = basis^T (exp(i phi n) * conj(target)), one w for each distinct phase:
    no receiver vector is built, and a run holds O(records * r) numbers
    rather than O(records * cutoff).  The aggregates add the columns left to
    right in counts order.  ``audits`` names the single-mode states
    whose cutoff and tail the report records.
    """
    basis = factors[1]
    size = basis.shape[0]
    counts, probabilities, coordinates = _count_factored(sent, *factors)
    classifications, corrections = rule(counts[:, 0], counts[:, 1])
    if not np.isfinite(coordinates).all():
        raise ValueError("amplitudes must be finite (no NaN/Inf)")

    conj_target = target.padded(size - 1).conj()
    fidelities = _overlaps(coordinates, basis.T @ conj_target)
    for factors, mask in _phase_rows(corrections, size):
        fidelities[mask] = _overlaps(coordinates[mask], basis.T @ (factors * conj_target))

    success = classifications == SUCCESS
    success_probs = probabilities[success]
    success_prob = _sum_in_order(success_probs)
    weighted_fidelity = _sum_in_order(success_probs * fidelities[success])
    columns = (counts, probabilities, classifications, fidelities, corrections, coordinates, basis)
    for column in columns:
        column.flags.writeable = False
    return ProtocolReport(
        protocol,
        *columns,
        success_probability=success_prob,
        mean_conditional_fidelity=(weighted_fidelity / success_prob) if success_prob > 0 else None,
        total_probability=_sum_in_order(probabilities),
        state_audits=_state_audits(audits),
    )


def _state_audits(states: dict) -> dict:
    """The cutoff and truncation tail of each named single-mode state."""
    return {name: {"cutoff": state.cutoff, "tail_mass": state.tail_mass}
            for name, state in states.items()}


def _basic_rule(quarter: float):
    def rule(na: np.ndarray, nb: np.ndarray):
        odd_a = na % 2 == 1
        classifications = np.where(odd_a, SUCCESS, np.where(nb % 2 == 1, FAILURE, FILTERED))
        return classifications, np.where(odd_a, quarter, np.nan)
    return rule


def _enhanced_rule(quarter: float):
    def rule(na: np.ndarray, nb: np.ndarray):
        odd_a, odd_b = na % 2 == 1, nb % 2 == 1
        success = odd_a != odd_b
        classifications = np.where(success, SUCCESS, np.where(odd_a, FAILURE, FILTERED))
        # an odd count in B leaves the receiver with the odd-support basis
        # state negated; a half-cycle shift undoes exactly that sign
        return classifications, np.where(success, np.where(odd_b, math.pi, 0.0) + quarter, np.nan)
    return rule


def _scissors_rule(herald_total: int, correction_even_a: float):
    def rule(na: np.ndarray, nb: np.ndarray):
        success = na + nb == herald_total
        corrections = np.where(na % 2 == 1, 0.0, correction_even_a)
        return np.where(success, SUCCESS, FILTERED), np.where(success, corrections, np.nan)
    return rule


def _run_teleport(
    protocol: str,
    q: QubitAmplitudes,
    u: SingleModeState,
    v: SingleModeState,
    rule,
    retilde: bool,
) -> ProtocolReport:
    pair = plus_minus(u, v)
    encoded = _encode_on_pair(q, pair)
    sent = phase_shift(encoded, math.pi / 2)
    return _run_heralded(
        protocol,
        sent,
        _factors_on_pair(pair),
        sent if retilde else encoded,
        rule(math.pi / 2 if retilde else 0.0),
        {"u": u, "v": v, "input": sent},
    )


def teleport_basic(
    q: QubitAmplitudes,
    u_spec: StateSpec,
    v_spec: StateSpec,
    retilde: bool = False,
) -> ProtocolReport:
    """Teleport a qubit encoded on an arbitrary real-overlap pair (u, v).

    Success is heralded by an odd photon count in output A and needs no
    correction; with ``retilde`` the receiver mode is additionally shifted by
    a quarter cycle so it reproduces the sent encoding rather than the plain
    one.  The heralding probability is 1/4 regardless of q, u, v.
    """
    u = build_state(u_spec)
    v = build_state(v_spec)
    return _run_teleport("teleport_basic", q, u, v, _basic_rule, retilde)


def teleport_enhanced(
    q: QubitAmplitudes,
    u_spec: StateSpec,
    retilde: bool = False,
) -> ProtocolReport:
    """Teleportation with the partner state chosen as the half-cycle shift of u.

    For such pairs an odd count can appear in output A or B but never both;
    either heralds success (B-odd records get a half-cycle correction), so
    the success probability doubles to 1/2, independent of q and u.
    """
    u = build_state(u_spec)
    v = phase_shift(u, math.pi)
    return _run_teleport("teleport_enhanced", q, u, v, _enhanced_rule, retilde)


def quantum_scissors(
    input_state: SingleModeState, keep_low: int, keep_high: int
) -> ProtocolReport:
    """Truncate an arbitrary state to its ``keep_low``- and ``keep_high``-photon
    components by teleporting through a two-number-state resource.

    The caller supplies the bare amplitudes; the protocol inserts the
    quarter-cycle phase factors itself before the beamsplitter, so do not
    pre-shift the input.  Success is heralded by a total count of
    keep_low + keep_high across the two outputs and occurs with probability
    (|a_low|^2 + |a_high|^2)/2.  Records with an even count in output A carry
    a relative sign on the kept components; the correction is the phase shift
    by pi/(keep_high - keep_low) recorded on the outcome.
    """
    n_lo, n_hi = sorted((int(keep_low), int(keep_high)))  # order is immaterial
    if n_lo == n_hi:
        raise InvalidResource("the two kept photon numbers must differ")
    if n_lo < 0:
        raise InvalidResource("kept photon numbers must be non-negative")
    if abs(input_state.norm_squared() - 1.0) > INPUT_NORM_TOL:
        raise ValueError("scissors input must be normalized")

    top = max(n_lo, n_hi)
    amp_lo = input_state.amplitudes[n_lo] if n_lo <= input_state.cutoff else 0.0
    amp_hi = input_state.amplitudes[n_hi] if n_hi <= input_state.cutoff else 0.0
    kept_weight = abs(amp_lo) ** 2 + abs(amp_hi) ** 2
    if kept_weight <= DEGENERACY_FLOOR:
        raise DegenerateState("input has no weight on the kept photon numbers")
    raw_target = np.zeros(top + 1, dtype=np.complex128)
    raw_target[n_lo] = amp_lo
    raw_target[n_hi] = amp_hi
    target = normalize(SingleModeState(raw_target))

    factors = _factors_on_pair(
        plus_minus(build_state(number_spec(n_lo, top)), build_state(number_spec(n_hi, top))))
    sent = phase_shift(input_state, math.pi / 2)

    return _run_heralded(
        "quantum_scissors",
        sent,
        factors,
        target,
        _scissors_rule(n_lo + n_hi, math.pi / (n_hi - n_lo)),
        {"input": input_state},
    )
