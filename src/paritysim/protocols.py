"""End-to-end heralded teleportation and state-truncation protocols.

All three protocols share the same skeleton: mix the input mode with one
half of a two-mode entangled resource on the 50/50 beamsplitter and
exhaustively enumerate the joint photon-count records on the two
beamsplitter outputs.  ``measurement.split_and_count`` does both in one
pass, one photon-total block at a time, so the three-mode state is never
built.  The protocols differ in the resource, in which records count as
heralded successes, and in the conditional correction:

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
    psi: SingleModeState,
    phi: SingleModeState | None = None,
    swap_ports: bool = False,
) -> MultiModeState:
    """Send a quarter-cycle-shifted state and a plain state through the beamsplitter.

    The shifted copy of ``phi`` (or of ``psi`` itself when ``phi`` is omitted)
    feeds port 1, ``psi`` feeds port 2.  With ``phi`` omitted the odd-count
    probability in output A is exactly zero; with ``phi`` orthogonal to
    ``psi`` it is exactly one half.
    """
    shifted = phase_shift(phi if phi is not None else psi, math.pi / 2)
    return beamsplitter_5050(tensor(shifted, psi), 0, 1, swap_ports=swap_ports)


def _audit(name: str, state: SingleModeState) -> tuple[str, dict]:
    return name, {"cutoff": state.cutoff, "tail_mass": state.tail_mass}


def _run_teleport(
    protocol: str,
    q: QubitAmplitudes,
    u: SingleModeState,
    v: SingleModeState,
    enhanced: bool,
    retilde: bool,
) -> ProtocolReport:
    sent = encode_qubit(q, u, v, tilde=True)
    resource = resource_from_states(u, v, "phi_minus")
    target = encode_qubit(q, u, v, tilde=retilde)

    outcomes = []
    success_prob = 0.0
    weighted_fidelity = 0.0
    total = 0.0
    for record in split_and_count(sent, resource):
        na, nb = record.counts
        post = record.receiver
        a_odd, b_odd = na % 2 == 1, nb % 2 == 1
        if enhanced:
            is_success = a_odd != b_odd
            classification = SUCCESS if is_success else (FILTERED if not (a_odd or b_odd) else FAILURE)
        else:
            is_success = a_odd
            classification = SUCCESS if is_success else (FAILURE if b_odd else FILTERED)

        correction: float | None = None
        corrected = post
        if is_success:
            correction = 0.0
            if enhanced and b_odd:
                # the receiver holds the qubit with the odd-support basis state
                # negated; a half-cycle shift undoes exactly that sign
                correction += math.pi
            if retilde:
                correction += math.pi / 2
            if correction:
                corrected = phase_shift(post, correction)
        fid = fidelity(corrected, target)

        outcomes.append(OutcomeRecord(
            counts=(na, nb),
            probability=record.probability,
            classification=classification,
            corrected_post_state=corrected,
            fidelity_to_target=fid,
            correction_phase=correction,
        ))
        total += record.probability
        if is_success:
            success_prob += record.probability
            weighted_fidelity += record.probability * fid

    return ProtocolReport(
        protocol=protocol,
        outcomes=tuple(outcomes),
        success_probability=success_prob,
        mean_conditional_fidelity=(weighted_fidelity / success_prob) if success_prob > 0 else None,
        total_probability=total,
        state_audits=dict([_audit("u", u), _audit("v", v), _audit("input", sent)]),
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
    return _run_teleport("teleport_basic", q, u, v, enhanced=False, retilde=retilde)


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
    return _run_teleport("teleport_enhanced", q, u, v, enhanced=True, retilde=retilde)


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

    herald_total = n_lo + n_hi
    correction_even_a = math.pi / (n_hi - n_lo)
    outcomes = []
    success_prob = 0.0
    weighted_fidelity = 0.0
    total = 0.0
    for record in split_and_count(sent, resource):
        na, nb = record.counts
        post = record.receiver
        is_success = na + nb == herald_total
        correction: float | None = None
        corrected = post
        if is_success:
            correction = 0.0 if na % 2 == 1 else correction_even_a
            if correction:
                corrected = phase_shift(post, correction)
        fid = fidelity(corrected, target)
        outcomes.append(OutcomeRecord(
            counts=(na, nb),
            probability=record.probability,
            classification=SUCCESS if is_success else FILTERED,
            corrected_post_state=corrected,
            fidelity_to_target=fid,
            correction_phase=correction,
        ))
        total += record.probability
        if is_success:
            success_prob += record.probability
            weighted_fidelity += record.probability * fid

    return ProtocolReport(
        protocol="quantum_scissors",
        outcomes=tuple(outcomes),
        success_probability=success_prob,
        mean_conditional_fidelity=(weighted_fidelity / success_prob) if success_prob > 0 else None,
        total_probability=total,
        state_audits=dict([_audit("input", input_state)]),
    )
