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
  correspondence amplitude-wise.  The package takes each resource in the
  second form, as two rank-2 factors (``_factors_on_pair``), which keeps
  the digits that the difference of products loses when u and v are nearly
  parallel: the protocols count phi_minus through them, and the entropy
  scenario reads the Schmidt weights of either kind off them.  No internal
  path builds the two-mode matrix; ``resource_from_states`` and
  ``build_resource`` build it for callers.
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
    DEGENERACY_FLOOR,
    INPUT_NORM_TOL,
    SingleModeState,
    _binary_exponent,
    _fields_equal,
    _ldexp,
    _read_only,
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

#: The most weights ``_remainder`` takes in one block.
_REMAINDER_BLOCK = 4096

#: log n! for n = 0, 1, .., grown by ``_log_factorials``.
_LOG_FACTORIAL_TABLE = []

#: log of the smallest normal float: exp() below this loses precision, then underflows.
_LOG_MIN_NORMAL = math.log(sys.float_info.min)

#: |alpha| beyond which a coherent state's mean photon number |alpha|^2 exceeds
#: every array index (~3.04e9), so no truncated basis can hold the state.
_MAX_COHERENT_ABS = math.sqrt(sys.maxsize)

#: Each state kind and the StateSpec field that is its one parameter.
_SPEC_PARAMETER = {"coherent": "alpha", "squeezed_vacuum": "r", "number": "n",
                   "explicit": "coefficients"}

STATE_KINDS = tuple(_SPEC_PARAMETER)
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
        required = _SPEC_PARAMETER[self.kind]
        for name in _SPEC_PARAMETER.values():
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
        # hypot and a product, not abs() ** 2, which raises OverflowError
        # above ~1.34e154: a huge amplitude gives inf, which is not normalized
        plus = math.hypot(self.eps_plus.real, self.eps_plus.imag)
        minus = math.hypot(self.eps_minus.real, self.eps_minus.imag)
        total = plus * plus + minus * minus
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"qubit amplitudes must be normalized (got |.|^2 = {total})")


@dataclass(frozen=True)
class EntangledResource:
    """A normalized two-mode resource state carrying one ebit."""

    two_mode_state: np.ndarray
    kind: str
    u_spec: StateSpec | None = None
    v_spec: StateSpec | None = None

    __eq__ = _fields_equal


def build_state(spec: StateSpec) -> SingleModeState:
    """Materialize a spec as amplitudes over 0..cutoff.

    Coherent and squeezed amplitudes are the exact truncated series (no
    renormalization), with the series remainder recorded as the tail mass:
    1 minus the kept weight where that is large, else the weights past the
    cutoff, which ``_remainder`` adds one at a time in one loop from the
    lists of their logs and ratio bounds that the callbacks here build.
    Raises TruncationTooSevere if that remainder reaches the spec's
    tail tolerance, so truncation error stays auditable.  The state wraps
    its freshly built, read-only amplitudes without the copy and checks of
    ``SingleModeState``'s constructor: each branch builds finite amplitudes
    and a tail mass in [0, 1).
    """
    amps = np.zeros(spec.cutoff + 1, dtype=np.complex128)
    if spec.kind == "number":
        amps[spec.n] = 1.0
        tail = 0.0
    elif spec.kind == "explicit":
        amps[: len(spec.coefficients)] = spec.coefficients
        # scaled exactly, so that coefficients near 1e300 cannot overflow and
        # coefficients of ordinary size normalize to the bits of unscaled ones
        exponent = _binary_exponent(amps)
        amps = _ldexp(amps, -exponent)
        weight = float(np.sum(np.abs(amps) ** 2))  # norm^2 / 4^exponent
        # norm^2 <= DEGENERACY_FLOOR as unscaled; with a positive exponent, norm^2 >= weight >= 1/4
        if math.ldexp(weight, 2 * min(exponent, 0)) <= DEGENERACY_FLOOR:
            raise DegenerateState("explicit coefficients are all (near) zero")
        amps /= np.sqrt(weight)
        tail = 0.0
    elif spec.kind == "coherent":
        # hypot, not abs(): abs() of a complex raises OverflowError near 1e308
        if math.hypot(spec.alpha.real, spec.alpha.imag) > _MAX_COHERENT_ABS:
            raise TruncationTooSevere(
                f"coherent amplitude alpha = {spec.alpha!r} is too large for any truncated "
                f"basis: the mean photon number |alpha|^2 exceeds every array index, so no "
                f"cutoff holds the state"
            )
        amps = _coherent_amplitudes(spec.alpha, spec.cutoff)
        # level n has the Poisson weight exp(-mean) mean^n / n!
        mean = abs(spec.alpha) ** 2
        if mean == 0.0:
            tail = 0.0
        else:
            log_mean = math.log(mean)
            tail = _remainder(amps, lambda ns, fact: [n * log_mean - mean - fact[n] for n in ns],
                              lambda ns: [mean / (n + 1) for n in ns], spec.cutoff + 1)
    else:  # squeezed_vacuum
        # support on even levels only; amplitude ratio between consecutive
        # even levels is -tanh(r) sqrt(2k+1)/sqrt(2k+2)
        t = math.tanh(spec.r)
        if abs(t) == 1.0:
            # |r| >~ 19.1: the weight ratio t^2 (2k+1)/(2k+2) tends to 1, the
            # kept weight grows only like sqrt(cutoff) sech r
            raise TruncationTooSevere(
                f"squeezing r = {spec.r!r} is too large for any truncated basis: "
                f"tanh r rounds to 1, so no cutoff holds the state"
            )
        log_cosh = _log_cosh(spec.r)
        amps[::2] = _squeezed_levels(t, log_cosh, spec.cutoff // 2)
        # level 2k has weight t^(2k) (2k)! / (4^k k!^2 cosh r); the ratio of
        # consecutive weights, t^2 (2k+1)/(2k+2), stays below t^2
        t2 = t * t
        if t2 == 0.0:
            tail = 0.0
        else:
            log_t2, log_4 = math.log(t2), math.log(4.0)
            tail = _remainder(
                amps,
                lambda ks, fact: [k * log_t2 + fact[2 * k] - k * log_4 - 2.0 * fact[k] - log_cosh
                                  for k in ks],
                lambda ks: [t2] * len(ks),
                spec.cutoff // 2 + 1,
            )
    if tail >= spec.tail_tolerance:
        raise TruncationTooSevere(
            f"tail mass {tail:.3e} at cutoff {spec.cutoff} exceeds tolerance "
            f"{spec.tail_tolerance:.3e}; raise the cutoff"
        )
    amps.flags.writeable = False
    return SingleModeState._trusted(amps, tail)


def _squeezed_levels(t: float, log_cosh: float, count: int) -> list:
    """The amplitudes of levels 0, 2, .., 2 ``count`` of squeezed vacuum with
    tanh r = ``t``: c_0 = exp(-log_cosh / 2), and the ratio of consecutive
    levels -t sqrt(2k+1)/sqrt(2k+2).

    The levels are real, and each step rounds as the complex128 step
    c (-t) sqrt(2k+1) / sqrt(2k+2) rounds its real part: numpy's complex
    division multiplies by the reciprocal, after adding the imaginary part
    times the divisor's zero imaginary part, +0.0, which turns a -0.0 into
    +0.0 once the series has underflowed.  So each level has the bits of
    the complex128 recursion that results documents were made with.
    """
    level = math.exp(-0.5 * log_cosh)
    levels = [level]
    for k in range(count):
        level = (level * (-t) * math.sqrt(2 * k + 1) + 0.0) * (1.0 / math.sqrt(2 * k + 2))
        levels.append(level)
    return levels


def _log_cosh(r: float) -> float:
    """log cosh r = |r| - log 2 + log1p(exp(-2|r|)), with no overflow where
    cosh r itself overflows (|r| > ~710); the absolute error stays at
    rounding for every r, which is what exp() of it needs."""
    r = abs(r)
    return r - _LN2 + math.log1p(math.exp(-2.0 * r))


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!) for n = 0..cutoff.

    The stable recursion c_{n+1} = c_n alpha / sqrt(n+1) starts from a prefactor
    that is subnormal for |alpha| >~ 37.6 and 0 beyond ~38.6, so the recursion
    runs on w_n with c_n = w_n 2^e_n.  The binary exponent starts negative only
    when the prefactor is not a normal float, and is folded back towards 0 by
    exact power-of-two rescalings as w grows; otherwise e_n = 0 and this is the
    plain recursion.  Either way the alpha -> -alpha partner is the exact
    (-1)^n mirror, since every step only negates.

    The recursion runs on Python floats, a complex step as the real and
    imaginary parts of the products and sums that complex128 arithmetic
    makes, in the same order, so each level, and each zero's sign, has the
    bits of the complex128 recursion that results documents were made with.
    """
    log_c0 = -abs(alpha) ** 2 / 2.0
    exponent = 0
    if log_c0 < _LOG_MIN_NORMAL:
        exponent = math.floor(log_c0 / _LN2)
    re, im, ar, ai = math.exp(log_c0 - exponent * _LN2), 0.0, alpha.real, alpha.imag
    parts, exponents = [re, im], [exponent]
    for n in range(cutoff):
        # w = c alpha / sqrt(n + 1) on the real and imaginary parts, rounded
        # as complex128 rounds it: numpy divides by a real as by a complex
        # with zero imaginary part, multiplying by the reciprocal
        re, im = re * ar - im * ai, re * ai + im * ar
        scale = 1.0 / math.sqrt(n + 1)
        re, im = (re + im * 0.0) * scale, (im - re * 0.0) * scale
        if exponent < 0 and abs(complex(re, im)) >= 1.0:
            shift = min(-exponent, math.frexp(abs(complex(re, im)))[1])
            factor = 2.0 ** -shift
            re, im = re * factor - im * 0.0, re * 0.0 + im * factor
            exponent += shift
        parts += (re, im)
        exponents.append(exponent)
    amps = np.array(parts).view(np.complex128)
    if exponents[0] < 0:
        amps.real = np.ldexp(amps.real, exponents)
        amps.imag = np.ldexp(amps.imag, exponents)
    return amps


def _remainder(amps: np.ndarray, log_weights, ratio_bounds, first: int) -> float:
    """Weight of a series beyond the amplitudes kept in ``amps``.

    ``log_weights(js, fact)`` lists the logs of the series' weights at the
    indices of the range js, given ``fact``, the list of log n! from
    ``_log_factorials`` up to n = 2 max(js) at least.  ``ratio_bounds(js)``
    lists, for each j in js, a bound on every ratio of consecutive weights
    from j on, which does not grow with j.  A large remainder is 1 minus the
    kept weight.  A small one, which that difference would cancel, is summed
    from index ``first`` on, ``math.exp`` of one log weight at a time from
    left to right, until the geometric bound on the rest is below rounding.
    The logs are taken in blocks as long as the bound at a block's first
    index says the sum needs; a sum that rounding carries past its block
    goes on with the next.
    """
    kept = float(np.sum(np.abs(amps) ** 2))
    if kept < 1.0 - _CANCELLATION_FREE_TAIL:
        return 1.0 - kept
    total, j = 0.0, first
    while True:
        size = _terms_needed(ratio_bounds(range(j, j + 1))[0])
        block = range(j, j + size)
        for log_weight, q in zip(log_weights(block, _log_factorials(2 * block.stop)),
                                 ratio_bounds(block)):
            weight = math.exp(log_weight)
            total += weight
            if weight == 0.0 or (q < 1.0 and weight * q <= (1.0 - q) * total * 2.0 ** -60):
                return total
        j = block.stop


def _terms_needed(q: float) -> int:
    """How many weights, each at most q times the one before, a remainder
    sum takes until the rest, at most q / (1 - q) times the last weight, is
    below 2^-60 of the sum: ``_REMAINDER_BLOCK`` at most, and where q is not
    below 1."""
    if q >= 1.0:
        return _REMAINDER_BLOCK
    if q == 0.0:  # a ratio bound that underflows: the next weight is 0
        return 1
    return min(_REMAINDER_BLOCK, max(1, math.ceil((math.log1p(-q) - 60.0 * _LN2) / math.log(q))))


def _log_factorials(count: int) -> list:
    """log n! = ``math.lgamma(n + 1)`` for n = 0..``count`` - 1 at least,
    from a list that is swapped for one at least twice as long when a call
    needs more: it keeps a few floats for each level of the largest cutoff
    built so far.  A list once stored is never changed, and every list holds
    the same value at an index, so a thread that reads a shorter one than
    another thread has just stored reads the same numbers."""
    global _LOG_FACTORIAL_TABLE
    table = _LOG_FACTORIAL_TABLE
    if len(table) < count:
        table = table + [math.lgamma(n + 1) for n in range(len(table), max(count, 2 * len(table)))]
        _LOG_FACTORIAL_TABLE = table
    return table


def _check_pair(u: SingleModeState, v: SingleModeState) -> complex:
    for s in (u, v):
        if abs(s.norm_squared() - 1.0) > INPUT_NORM_TOL:
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
    return _superpose(None, u, +1.0, v), _superpose(None, u, -1.0, v)


def _superpose(a, x: SingleModeState, b, y: SingleModeState) -> SingleModeState:
    """a x + b y over the larger of the two cutoffs, normalized, with the
    tail bound of ``combined_tail``.

    ``a`` of None takes x as it is rather than as 1 x: a complex product by
    1 turns an imaginary -0.0 into +0.0 where the real part is not negative,
    so the pair that ``plus_minus`` returns would lose the zeros' signs.
    """
    cutoff = max(x.cutoff, y.cutoff)
    xa = x.padded(cutoff)
    raw = (xa if a is None else a * xa) + b * y.padded(cutoff)
    ns = float(np.sum(np.abs(raw) ** 2))
    if ns <= DEGENERACY_FLOOR:
        raise DegenerateSuperposition("u and v coincide up to sign")
    amps = raw / np.sqrt(ns)
    amps.flags.writeable = False
    return SingleModeState._trusted(amps, combined_tail(x.tail_mass, y.tail_mass, ns))


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
    state = _encode_on_pair(q, plus_minus(u, v))
    return phase_shift(state, math.pi / 2) if tilde else state


def _encode_on_pair(q: QubitAmplitudes, pair: tuple) -> SingleModeState:
    """The qubit ``q`` on the orthonormal ``pair`` that ``plus_minus`` returns."""
    return _superpose(q.eps_plus, pair[0], q.eps_minus, pair[1])


def resource_from_states(u: SingleModeState, v: SingleModeState, kind: str) -> np.ndarray:
    """Normalized two-mode resource built directly from the product-state
    difference: a read-only (cutoff + 1) x (cutoff + 1) matrix."""
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
    if ns <= DEGENERACY_FLOOR:
        raise DegenerateSuperposition("resource state vanishes; u and v coincide up to sign")
    matrix /= np.sqrt(ns)
    return _read_only(matrix)


def _factors_on_pair(pair: tuple, kind: str = "phi_minus") -> tuple[np.ndarray, np.ndarray]:
    """The resource of ``resource_from_states`` as two factors, read off the
    orthonormal ``pair`` that ``plus_minus`` returns.

    ``left`` and ``right`` are (cutoff+1) x 2 with amplitude (m, k) equal to
    sum_j left[m, j] right[k, j].  They are read off the pair's forms of the
    module docstring, ``(|->|+> - |+>|->)`` for phi_minus and
    ``(|+>|-> + |->|+>)`` for psi_minus, not off u and v themselves: for
    nearly parallel u and v, ``u v^T - v u^T`` is a small difference of
    large products and loses digits that u + v and u - v keep.  The
    normalization is the Frobenius norm of the product, from the two 2x2
    Gram matrices.
    """
    p, m = (state.amplitudes for state in pair)
    if kind == "psi_minus":
        left, right = np.stack([p, m], axis=1), np.stack([m, p], axis=1)
    else:
        left, right = np.stack([m, -p], axis=1), np.stack([p, m], axis=1)
    ns = float(np.sum(left.T @ left.conj() * (right.T @ right.conj())).real)
    return left / np.sqrt(ns), right


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
