"""Factories for the states the protocols consume.

Covers coherent states, squeezed vacuum, number states, explicit amplitude
lists, the orthonormal superposition pair built from any two states with real
overlap, logical-qubit encodings in that pair, and the two-mode entangled
resource states.

Conventions fixed here:

* Squeezed vacuum with parameter r > 0 has real even-level amplitudes whose
  sign alternates from level to level; r < 0 gives the opposite-phase partner
  (the same state passed through a quarter-cycle phase shift).
* The resource states are assembled directly from the defining difference of
  product states and normalized numerically.  For any pair with real overlap
  the result coincides exactly with the orthonormal-superposition form:
  normalized ``|u>|u> - |v>|v>`` equals ``(|+>|-> + |->|+>)/sqrt(2)`` and
  normalized ``|u>|v> - |v>|u>`` equals ``(|->|+> - |+>|->)/sqrt(2)``, because
  the norms of u+v and u-v absorb any non-orthogonality.  Tests pin this
  correspondence amplitude-wise.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateState,
    DegenerateSuperposition,
    NonRealOverlap,
    TruncationTooSevere,
)
from .fock import (
    SPARSITY_FLOOR,
    MultiModeState,
    SingleModeState,
    combined_tail,
    inner_product,
)
from .optics import phase_shift

#: Imaginary residue allowed in <u|v> before the pair is rejected.
REAL_OVERLAP_TOL = 1e-10

#: |<u|v>| at or above 1 - this means u and v coincide up to sign.
PARALLEL_TOL = 1e-12

#: A truncation tail at least this large is 1 minus the kept weight; below it
#: that difference cancels, so the remainder series is summed directly.
_CANCELLATION_FREE_TAIL = 1e-3

_LN2 = math.log(2.0)

#: log of the smallest normal float: exp() below this loses precision, then underflows.
_LOG_MIN_NORMAL = math.log(sys.float_info.min)

STATE_KINDS = ("coherent", "squeezed_vacuum", "number", "explicit")
RESOURCE_KINDS = ("psi_minus", "phi_minus")


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of a single-mode state.

    Exactly the parameter matching ``kind`` must be supplied: ``alpha`` for
    coherent, ``r`` for squeezed_vacuum, ``n`` for number, ``coefficients``
    for explicit.
    """

    kind: str
    cutoff: int
    tail_tolerance: float = 1e-12
    alpha: complex | None = None
    r: float | None = None
    n: int | None = None
    coefficients: tuple | None = None

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}")
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        if not (0.0 < self.tail_tolerance < 1.0):
            raise ValueError("tail_tolerance must lie in (0, 1)")
        required = {"coherent": "alpha", "squeezed_vacuum": "r",
                    "number": "n", "explicit": "coefficients"}[self.kind]
        for name in ("alpha", "r", "n", "coefficients"):
            value = getattr(self, name)
            if name == required and value is None:
                raise ValueError(f"kind {self.kind!r} requires {name}")
            if name != required and value is not None:
                raise ValueError(f"kind {self.kind!r} does not take {name}")
        if self.kind == "number":
            if self.n < 0:
                raise ValueError("photon number must be non-negative")
            if self.cutoff < self.n:
                raise ValueError("cutoff must be at least n for number states")
        if self.kind == "explicit":
            coeffs = tuple(complex(c) for c in self.coefficients)
            if len(coeffs) == 0 or len(coeffs) > self.cutoff + 1:
                raise ValueError("coefficients must be non-empty and fit within cutoff+1")
            if not all(cmath.isfinite(c) for c in coeffs):
                raise ValueError("coefficients must be finite")
            object.__setattr__(self, "coefficients", coeffs)
        if self.kind == "coherent":
            object.__setattr__(self, "alpha", complex(self.alpha))
            if not cmath.isfinite(self.alpha):
                raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.kind == "squeezed_vacuum":
            object.__setattr__(self, "r", float(self.r))
            if not math.isfinite(self.r):
                raise ValueError(f"r must be finite, got {self.r}")


def coherent_spec(alpha: complex, cutoff: int, tail_tolerance: float = 1e-12) -> StateSpec:
    return StateSpec(kind="coherent", cutoff=cutoff, tail_tolerance=tail_tolerance, alpha=alpha)


def squeezed_spec(r: float, cutoff: int, tail_tolerance: float = 1e-12) -> StateSpec:
    return StateSpec(kind="squeezed_vacuum", cutoff=cutoff, tail_tolerance=tail_tolerance, r=r)


def number_spec(n: int, cutoff: int | None = None) -> StateSpec:
    return StateSpec(kind="number", cutoff=n if cutoff is None else cutoff, n=n)


def explicit_spec(coefficients, cutoff: int | None = None) -> StateSpec:
    coeffs = tuple(complex(c) for c in coefficients)
    if cutoff is None:
        cutoff = len(coeffs) - 1
    return StateSpec(kind="explicit", cutoff=cutoff, coefficients=coeffs)


@dataclass(frozen=True)
class QubitAmplitudes:
    """The two logical amplitudes of the qubit to be teleported."""

    eps_plus: complex
    eps_minus: complex

    def __post_init__(self):
        object.__setattr__(self, "eps_plus", complex(self.eps_plus))
        object.__setattr__(self, "eps_minus", complex(self.eps_minus))
        if not (cmath.isfinite(self.eps_plus) and cmath.isfinite(self.eps_minus)):
            raise ValueError("qubit amplitudes must be finite")
        total = abs(self.eps_plus) ** 2 + abs(self.eps_minus) ** 2
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"qubit amplitudes must be normalized (got |.|^2 = {total})")


@dataclass(frozen=True)
class EntangledResource:
    """A normalized two-mode resource state carrying one ebit."""

    two_mode_state: MultiModeState
    kind: str
    u_spec: StateSpec | None = None
    v_spec: StateSpec | None = None


def build_state(spec: StateSpec) -> SingleModeState:
    """Materialize a spec as amplitudes over 0..cutoff.

    Coherent and squeezed amplitudes are the exact truncated series (no
    renormalization), with the series remainder recorded as the tail mass.
    Raises TruncationTooSevere if that remainder reaches the spec's
    tail tolerance, so truncation error stays auditable.
    """
    amps = np.zeros(spec.cutoff + 1, dtype=np.complex128)
    if spec.kind == "number":
        amps[spec.n] = 1.0
        tail = 0.0
    elif spec.kind == "explicit":
        amps[: len(spec.coefficients)] = spec.coefficients
        if np.sum(np.abs(amps) ** 2) <= 1e-14:
            raise DegenerateState("explicit coefficients are all (near) zero")
        amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
        tail = 0.0
    elif spec.kind == "coherent":
        amps = _coherent_amplitudes(spec.alpha, spec.cutoff)
        # level n has the Poisson weight exp(-mean) mean^n / n!
        mean = abs(spec.alpha) ** 2
        tail = 0.0 if mean == 0.0 else _remainder(
            amps,
            lambda n: n * math.log(mean) - mean - math.lgamma(n + 1),
            lambda n: mean / (n + 1),
            spec.cutoff + 1,
        )
    else:  # squeezed_vacuum
        # support on even levels only; amplitude ratio between consecutive
        # even levels is -tanh(r) sqrt(2k+1)/sqrt(2k+2)
        amps[0] = 1.0 / math.sqrt(math.cosh(spec.r))
        t = math.tanh(spec.r)
        for k in range(spec.cutoff // 2):
            if 2 * k + 2 > spec.cutoff:
                break
            amps[2 * k + 2] = amps[2 * k] * (-t) * math.sqrt(2 * k + 1) / math.sqrt(2 * k + 2)
        # level 2k has weight t^(2k) (2k)! / (4^k k!^2 cosh r); the ratio of
        # consecutive weights, t^2 (2k+1)/(2k+2), stays below t^2
        t2 = t * t
        tail = 0.0 if t2 == 0.0 else _remainder(
            amps,
            lambda k: (k * math.log(t2) + math.lgamma(2 * k + 1) - k * math.log(4.0)
                       - 2.0 * math.lgamma(k + 1) - math.log(math.cosh(spec.r))),
            lambda k: t2,
            spec.cutoff // 2 + 1,
        )
    if tail >= spec.tail_tolerance:
        raise TruncationTooSevere(
            f"tail mass {tail:.3e} at cutoff {spec.cutoff} exceeds tolerance "
            f"{spec.tail_tolerance:.3e}; raise the cutoff"
        )
    return SingleModeState(amps, tail_mass=tail)


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!) for n = 0..cutoff.

    The stable recursion c_{n+1} = c_n alpha / sqrt(n+1) starts from a prefactor
    that is subnormal for |alpha| >~ 37.6 and 0 beyond ~38.6, so the recursion
    runs on w_n with c_n = w_n 2^e_n.  The binary exponent starts negative only
    when the prefactor is not a normal float, and is folded back towards 0 by
    exact power-of-two rescalings as w grows; otherwise e_n = 0 and this is the
    plain recursion.  Either way the alpha -> -alpha partner is the exact
    (-1)^n mirror, since every step only negates.
    """
    log_c0 = -abs(alpha) ** 2 / 2.0
    exponent = 0
    if log_c0 < _LOG_MIN_NORMAL:
        exponent = math.floor(log_c0 / _LN2)
    amps = np.zeros(cutoff + 1, dtype=np.complex128)
    exponents = np.zeros(cutoff + 1, dtype=np.int64)
    amps[0] = math.exp(log_c0 - exponent * _LN2)
    exponents[0] = exponent
    for n in range(cutoff):
        w = amps[n] * alpha / math.sqrt(n + 1)
        if exponent < 0 and abs(w) >= 1.0:
            shift = min(-exponent, math.frexp(abs(w))[1])
            w = w * 2.0 ** -shift
            exponent += shift
        amps[n + 1] = w
        exponents[n + 1] = exponent
    if exponents[0] < 0:
        amps.real = np.ldexp(amps.real, exponents)
        amps.imag = np.ldexp(amps.imag, exponents)
    return amps


def _remainder(amps: np.ndarray, log_weight, ratio_bound, first: int) -> float:
    """Weight of a series beyond the amplitudes kept in ``amps``.

    ``log_weight(j)`` is the log of the series' j-th weight and
    ``ratio_bound(j)`` bounds every ratio of consecutive weights from j on.
    A large remainder is 1 minus the kept weight.  A small one, which that
    difference would cancel, is summed weight by weight from index ``first``
    until the geometric bound on the rest is below rounding.
    """
    kept = float(np.sum(np.abs(amps) ** 2))
    if kept < 1.0 - _CANCELLATION_FREE_TAIL:
        return 1.0 - kept
    total = 0.0
    j = first
    while True:
        weight = math.exp(log_weight(j))
        total += weight
        q = ratio_bound(j)
        if weight == 0.0 or (q < 1.0 and weight * q <= (1.0 - q) * total * 2.0 ** -60):
            return total
        j += 1


def _check_pair(u: SingleModeState, v: SingleModeState) -> complex:
    for s in (u, v):
        if abs(s.norm_squared() - 1.0) > 1e-9:
            raise ValueError("superposition inputs must be normalized")
    ip = inner_product(u, v)
    if abs(ip.imag) > REAL_OVERLAP_TOL:
        raise NonRealOverlap(f"<u|v> = {ip} has imaginary part beyond {REAL_OVERLAP_TOL}")
    if abs(ip) >= 1.0 - PARALLEL_TOL:
        raise DegenerateSuperposition(f"|<u|v>| = {abs(ip)} leaves no superposition direction")
    return ip


def plus_minus(u: SingleModeState, v: SingleModeState) -> tuple[SingleModeState, SingleModeState]:
    """The orthonormal pair proportional to u + v and u - v.

    Requires a real inner product (to within rounding of the truncated
    series); that condition is exactly what makes the two outputs orthogonal.
    """
    _check_pair(u, v)
    cutoff = max(u.cutoff, v.cutoff)
    ua, va = u.padded(cutoff), v.padded(cutoff)
    out = []
    for sign in (+1.0, -1.0):
        raw = ua + sign * va
        ns = float(np.sum(np.abs(raw) ** 2))
        if ns <= 1e-14:
            raise DegenerateSuperposition("u and v coincide up to sign")
        out.append(SingleModeState(
            raw / np.sqrt(ns),
            tail_mass=combined_tail(u.tail_mass, v.tail_mass, ns),
        ))
    return out[0], out[1]


def encode_qubit(
    q: QubitAmplitudes,
    u: SingleModeState,
    v: SingleModeState,
    tilde: bool = False,
) -> SingleModeState:
    """Logical qubit in the superposition basis of (u, v).

    With ``tilde`` the encoding is done in the quarter-cycle-shifted basis,
    i.e. the whole state is passed through a pi/2 phase shift.
    """
    plus, minus = plus_minus(u, v)
    cutoff = max(plus.cutoff, minus.cutoff)
    raw = q.eps_plus * plus.padded(cutoff) + q.eps_minus * minus.padded(cutoff)
    ns = float(np.sum(np.abs(raw) ** 2))
    state = SingleModeState(
        raw / np.sqrt(ns),
        tail_mass=combined_tail(plus.tail_mass, minus.tail_mass, ns),
    )
    if tilde:
        state = phase_shift(state, math.pi / 2)
    return state


def resource_from_states(u: SingleModeState, v: SingleModeState, kind: str) -> MultiModeState:
    """Normalized two-mode resource built directly from the product-state difference."""
    if kind not in RESOURCE_KINDS:
        raise ValueError(f"unknown resource kind {kind!r}")
    _check_pair(u, v)
    cutoff = max(u.cutoff, v.cutoff)
    ua, va = u.padded(cutoff), v.padded(cutoff)
    if kind == "psi_minus":
        matrix = np.outer(ua, ua) - np.outer(va, va)
    else:
        matrix = np.outer(ua, va) - np.outer(va, ua)
    ns = float(np.sum(np.abs(matrix) ** 2))
    if ns <= 1e-14:
        raise DegenerateSuperposition("resource state vanishes; u and v coincide up to sign")
    matrix /= np.sqrt(ns)
    amps = {
        (n, m): matrix[n, m]
        for n in range(cutoff + 1)
        for m in range(cutoff + 1)
        if abs(matrix[n, m]) >= SPARSITY_FLOOR
    }
    return MultiModeState(2, cutoff, amps)


def build_resource(u_spec: StateSpec, v_spec: StateSpec, kind: str) -> EntangledResource:
    """Build the entangled resource for a pair of state specs."""
    u = build_state(u_spec)
    v = build_state(v_spec)
    return EntangledResource(
        two_mode_state=resource_from_states(u, v, kind),
        kind=kind,
        u_spec=u_spec,
        v_spec=v_spec,
    )


def opposite_phase_partner(state: SingleModeState) -> SingleModeState:
    """The state with every amplitude's phase advanced by a quarter cycle per photon.

    For squeezed vacuum this is the opposite-phase squeezed state (the r -> -r
    factory output); a half-cycle shift would act as the identity there, since
    the support is even.
    """
    return phase_shift(state, math.pi / 2)


def pi_shifted_spec(spec: StateSpec) -> StateSpec:
    """The spec whose built state is the half-cycle phase shift of ``spec``'s.

    Used by the enhanced protocol, which derives its second basis state this
    way.  Note the result is physically identical to the input for
    single-parity states (number states, squeezed vacuum), which downstream
    code rejects as a degenerate superposition.
    """
    if spec.kind == "coherent":
        return StateSpec(kind="coherent", cutoff=spec.cutoff,
                         tail_tolerance=spec.tail_tolerance, alpha=-spec.alpha)
    if spec.kind == "explicit":
        flipped = tuple(c * (-1) ** n for n, c in enumerate(spec.coefficients))
        return StateSpec(kind="explicit", cutoff=spec.cutoff,
                         tail_tolerance=spec.tail_tolerance, coefficients=flipped)
    # even or single-level support: the half-cycle shift is the identity
    return spec

