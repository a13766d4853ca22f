"""End-to-end heralded teleportation and state-truncation protocols.

All three protocols are one heralded scheme, run by ``_run_heralded``: mix
the input mode with one half of a two-mode entangled resource on the 50/50
beamsplitter and exhaustively enumerate the joint photon-count records on
the two beamsplitter outputs.  ``measurement.split_and_count`` does both in
one pass, one photon-total block at a time, so the three-mode state is never
built.  The protocols differ in the resource and in the rule that maps the
counts (na, nb) to a classification and a correction phase for the receiver
(``_basic_rule``, ``_enhanced_rule`` and ``_scissors_rule``):

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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState, InvalidResource
from .fock import (
    MultiModeState,
    SingleModeState,
    inner_product,
    normalize,
    tensor,
)
from .measurement import split_and_count
from .optics import beamsplitter_5050, phase_shift
from .states import (
    QubitAmplitudes,
    StateSpec,
    build_state,
    encode_qubit,
    number_spec,
    pi_shifted_spec,
    resource_from_states,
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
    """Full accounting of one protocol run.

    ``state_audits`` records the cutoff and truncation tail of every
    single-mode state that entered the run, so reports stay auditable.
    """

    protocol: str
    outcomes: tuple
    success_probability: float
    mean_conditional_fidelity: float | None
    total_probability: float
    state_audits: dict

    def success_outcomes(self) -> list[OutcomeRecord]:
        return [o for o in self.outcomes if o.classification == SUCCESS]

    def min_success_fidelity(self) -> float:
        fids = [o.fidelity_to_target for o in self.success_outcomes()]
        return min(fids) if fids else float("nan")


def fidelity(actual: SingleModeState, target: SingleModeState) -> float:
    """|<target|actual>|^2 for normalized single-mode states."""
    return abs(inner_product(target, actual)) ** 2


def entanglement_entropy(state: MultiModeState) -> float:
    """Entropy of entanglement (base 2) across the bipartition of a two-mode state.

    Squared Schmidt coefficients below 1e-14 are excluded to avoid 0*log 0
    noise from truncation residue.
    """
    if state.mode_count != 2:
        raise ValueError("entanglement entropy is defined here for two-mode states")
    top = max((max(occ) for occ in state.amplitudes), default=0)
    matrix = np.zeros((top + 1, top + 1), dtype=np.complex128)
    for occ, amp in state.items():
        matrix[occ[0], occ[1]] = amp
    weights = np.linalg.svd(matrix, compute_uv=False) ** 2
    weights = weights[weights > 1e-14]
    return float(-np.sum(weights * np.log2(weights)))


def split_with_phase_shifted(
    psi: SingleModeState, phi: SingleModeState | None = None
) -> MultiModeState:
    """Send a quarter-cycle-shifted state and a plain state through the beamsplitter.

    The shifted copy of ``phi`` (or of ``psi`` itself when ``phi`` is omitted)
    feeds port 1, ``psi`` feeds port 2.  With ``phi`` omitted the odd-count
    probability in output A is exactly zero; with ``phi`` orthogonal to
    ``psi`` it is exactly one half.  The sparse result keeps amplitudes down
    to ``SPARSITY_FLOOR``; the facts scenarios count the same split with
    ``split_and_count``, and the tests keep this as the sparse reference.
    """
    shifted = phase_shift(phi if phi is not None else psi, math.pi / 2)
    return beamsplitter_5050(tensor(shifted, psi), 0, 1)


def _run_heralded(protocol: str, sent: SingleModeState, resource: MultiModeState,
                  target: SingleModeState, rule, audits: dict) -> ProtocolReport:
    """Count every record of ``sent`` mixed with ``resource`` and score it.

    ``rule(na, nb)`` gives the record's classification and the phase shift
    that corrects the receiver, or None when no correction is defined; the
    receiver is shifted only when that phase is non-zero.  ``audits`` names
    the single-mode states whose cutoff and tail the report records.
    """
    outcomes = []
    success_prob = 0.0
    weighted_fidelity = 0.0
    total = 0.0
    for record in split_and_count(sent, resource):
        classification, correction = rule(*record.counts)
        corrected = phase_shift(record.receiver, correction) if correction else record.receiver
        fid = fidelity(corrected, target)
        outcomes.append(OutcomeRecord(
            counts=record.counts,
            probability=record.probability,
            classification=classification,
            corrected_post_state=corrected,
            fidelity_to_target=fid,
            correction_phase=correction,
        ))
        total += record.probability
        if classification == SUCCESS:
            success_prob += record.probability
            weighted_fidelity += record.probability * fid

    return ProtocolReport(
        protocol=protocol,
        outcomes=tuple(outcomes),
        success_probability=success_prob,
        mean_conditional_fidelity=(weighted_fidelity / success_prob) if success_prob > 0 else None,
        total_probability=total,
        state_audits={name: {"cutoff": state.cutoff, "tail_mass": state.tail_mass}
                      for name, state in audits.items()},
    )


def _basic_rule(quarter: float):
    def rule(na: int, nb: int):
        if na % 2:
            return SUCCESS, quarter
        return (FAILURE if nb % 2 else FILTERED), None
    return rule


def _enhanced_rule(quarter: float):
    def rule(na: int, nb: int):
        if na % 2 == nb % 2:
            return (FAILURE if na % 2 else FILTERED), None
        # an odd count in B leaves the receiver with the odd-support basis
        # state negated; a half-cycle shift undoes exactly that sign
        return SUCCESS, (math.pi if nb % 2 else 0.0) + quarter
    return rule


def _scissors_rule(herald_total: int, correction_even_a: float):
    def rule(na: int, nb: int):
        if na + nb != herald_total:
            return FILTERED, None
        return SUCCESS, (0.0 if na % 2 else correction_even_a)
    return rule


def _run_teleport(
    protocol: str,
    q: QubitAmplitudes,
    u: SingleModeState,
    v: SingleModeState,
    rule,
    retilde: bool,
) -> ProtocolReport:
    sent = encode_qubit(q, u, v, tilde=True)
    return _run_heralded(
        protocol,
        sent,
        resource_from_states(u, v, "phi_minus"),
        encode_qubit(q, u, v, tilde=retilde),
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
    v = build_state(pi_shifted_spec(u_spec))
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
    if abs(input_state.norm_squared() - 1.0) > 1e-9:
        raise ValueError("scissors input must be normalized")

    top = max(n_lo, n_hi)
    amp_lo = input_state.amplitudes[n_lo] if n_lo <= input_state.cutoff else 0.0
    amp_hi = input_state.amplitudes[n_hi] if n_hi <= input_state.cutoff else 0.0
    kept_weight = abs(amp_lo) ** 2 + abs(amp_hi) ** 2
    if kept_weight <= 1e-14:
        raise DegenerateState("input has no weight on the kept photon numbers")
    raw_target = np.zeros(top + 1, dtype=np.complex128)
    raw_target[n_lo] = amp_lo
    raw_target[n_hi] = amp_hi
    target = normalize(SingleModeState(raw_target))

    resource = resource_from_states(
        build_state(number_spec(n_lo, top)), build_state(number_spec(n_hi, top)), "phi_minus"
    )
    sent = phase_shift(input_state, math.pi / 2)

    return _run_heralded(
        "quantum_scissors",
        sent,
        resource,
        target,
        _scissors_rule(n_lo + n_hi, math.pi / (n_hi - n_lo)),
        {"input": input_state},
    )
