"""Single-mode phase shift and the 50/50 beamsplitter, plus coefficient analysis.

The beamsplitter convention is frozen: the two output-port creation operators
are (in1 + i*in2)/sqrt(2) and (i*in1 + in2)/sqrt(2).  Equivalently, the
operation substitutes

    in1^dag -> (out1^dag - i*out2^dag)/sqrt(2)
    in2^dag -> (-i*out1^dag + out2^dag)/sqrt(2)

in the creation-operator polynomial of the input state.  Output port 1
("mode A", the parity-carrying port in all protocols here) lands in the slot
of ``mode_a``; port 2 ("mode B") in the slot of ``mode_b``.  The even/odd
photon-count structure the protocols rely on holds in exactly this
convention; changing the phases breaks it.

The per-total-photon-number block matrices are NOT built by expanding the
binomials of the operator substitution: those expansions contain alternating
Krawtchouk-type sums whose cancellation costs about 14 digits near total
photon number 100, far beyond the 1e-12 tolerances this package guarantees.
Each block is the spin-N/2 rotation exp(-i pi/2 Jx), and it factors exactly
as ``_block(_FORWARD, N)[c, a] = (-i)^(c-a) D_N[c, a]`` with D_N real
(c photons leave port 1, a enter it).  Writing
|a, N-a> = (sqrt(a) in1^dag |a-1, N-a> + sqrt(N-a) in2^dag |a, N-a-1>)/N and
substituting one creation operator grows D_N from D_(N-1):

    D_N[c, a] = [ sqrt(a)   (sqrt(c) D[c-1, a-1] - sqrt(N-c) D[c, a-1])
                + sqrt(N-a) (sqrt(c) D[c-1, a]   + sqrt(N-c) D[c, a]) ] / (N sqrt(2))

with D = D_(N-1) and D_0 = [[1]].  Each entry takes four entries of the
previous block rather than a long alternating sum, so rounding stays small:
against the spectral decomposition of the photon-exchange generator (the
reference in tests/test_optics.py) the blocks agree to 1e-14 entrywise and
are unitary to 5e-14 for every N up to 300.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffOverflow, InvalidMode
from .fock import SPARSITY_FLOOR, MultiModeState, SingleModeState

_SQ2 = math.sqrt(2.0)

# substitution matrices: in1^dag -> m00*out1^dag + m01*out2^dag, etc.
_FORWARD = (1 / _SQ2, -1j / _SQ2, -1j / _SQ2, 1 / _SQ2)
_INVERSE = (1 / _SQ2, 1j / _SQ2, 1j / _SQ2, 1 / _SQ2)


#: D_N for N = 0, 1, ..., len - 1; ``_real_block`` grows it on demand.
_REAL_BLOCKS: list[np.ndarray] = [np.ones((1, 1))]
_REAL_BLOCKS[0].flags.writeable = False

#: (-i)^k for k mod 4, exact.
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])


def _real_block(total: int) -> np.ndarray:
    """The real matrix D_N of the module docstring, rows/cols indexed by the
    photon count in the first mode (0..total); read-only."""
    while len(_REAL_BLOCKS) <= total:
        n = len(_REAL_BLOCKS)
        prev = _REAL_BLOCKS[-1]
        roots = np.sqrt(np.arange(n + 1.0))  # sqrt(c) and, reversed, sqrt(N - c)
        raised = np.zeros((n + 1, n))  # sqrt(c) D[c-1, :]
        np.multiply(prev, roots[1:, None], out=raised[1:])
        kept = np.zeros((n + 1, n))  # sqrt(N-c) D[c, :]
        np.multiply(prev, roots[:0:-1, None], out=kept[:-1])
        scale = 1.0 / (n * _SQ2)
        block = np.empty((n + 1, n + 1))
        block[:, 0] = 0.0
        np.multiply(raised - kept, roots[1:] * scale, out=block[:, 1:])
        block[:, :-1] += (raised + kept) * (roots[:0:-1] * scale)
        block.flags.writeable = False
        _REAL_BLOCKS.append(block)
    return _REAL_BLOCKS[total]


def _block(key: tuple, total: int) -> np.ndarray:
    """Unitary on the total-photon-number block, rows/cols indexed by the
    photon count in the first mode (0..total), built from ``_real_block`` on
    every call: ``_REAL_BLOCKS`` is the only store of beamsplitter blocks."""
    if key not in (_FORWARD, _INVERSE):
        raise ValueError("unsupported substitution convention")
    real = _real_block(total)
    counts = np.arange(total + 1)
    phases = _MINUS_I_POWERS[(counts[:, None] - counts[None, :]) % 4]
    # the inverse is the adjoint: (-i)^(c-a) D[a, c]
    return phases * (real if key == _FORWARD else real.T)


def _check_mode(state, mode: int):
    if isinstance(state, SingleModeState):
        if mode != 0:
            raise InvalidMode(f"single-mode state has only mode 0, got {mode}")
        return
    if not (0 <= mode < state.mode_count):
        raise InvalidMode(f"mode {mode} out of range for {state.mode_count} modes")


def _phase_factors(phi: float, count: int) -> np.ndarray:
    """exp(i*phi*n) for n = 0..count-1, exact for quarter-cycle multiples.

    Quarter- and half-cycle shifts carry the parity structure the protocols
    rely on, so those factors must be exactly +-1, +-i rather than carry the
    rounding of exp(); everything else goes through exp as usual.
    """
    quarter_turns = phi / (math.pi / 2)
    k = round(quarter_turns)
    if abs(quarter_turns - k) < 1e-12:
        base = (1j) ** (k % 4)
        cycle = np.array([1.0 + 0j, base, base * base, base * base * base])
        return cycle[np.arange(count) % 4]
    return np.exp(1j * phi * np.arange(count))


def phase_shift(state, phi: float, mode: int = 0):
    """Multiply the amplitude at photon number n (in ``mode``) by exp(i*phi*n)."""
    _check_mode(state, mode)
    if isinstance(state, SingleModeState):
        factors = _phase_factors(phi, state.amplitudes.size)
        return SingleModeState(state.amplitudes * factors, tail_mass=state.tail_mass)
    factors = _phase_factors(phi, state.per_mode_cutoff + 1)
    amps = {occ: amp * factors[occ[mode]] for occ, amp in state.items()}
    return MultiModeState(state.mode_count, state.per_mode_cutoff, amps)


def _two_mode_substitution(
    state: MultiModeState, mode_a: int, mode_b: int, key: tuple
) -> MultiModeState:
    if mode_a == mode_b:
        raise InvalidMode("mode_a and mode_b must differ")
    _check_mode(state, mode_a)
    _check_mode(state, mode_b)

    # group amplitudes by (total photons in the pair, spectator occupations)
    groups: dict[tuple, np.ndarray] = {}
    spectator_slots = [i for i in range(state.mode_count) if i not in (mode_a, mode_b)]
    for occ, amp in state.items():
        na, nb = occ[mode_a], occ[mode_b]
        total = na + nb
        rest = tuple(occ[i] for i in spectator_slots)
        vec = groups.get((total, rest))
        if vec is None:
            vec = np.zeros(total + 1, dtype=np.complex128)
            groups[(total, rest)] = vec
        vec[na] += amp

    out: dict[tuple[int, ...], complex] = {}
    # _block builds its matrix on every call, so build each total's once here
    blocks = {total: _block(key, total) for total, _ in groups if total <= state.per_mode_cutoff}
    template = [0] * state.mode_count
    for (total, rest), vec in groups.items():
        if total > state.per_mode_cutoff:
            raise CutoffOverflow(
                f"total photon number {total} across modes ({mode_a}, {mode_b}) "
                f"exceeds per-mode cutoff {state.per_mode_cutoff}"
            )
        result = blocks[total] @ vec
        for i, slot in enumerate(spectator_slots):
            template[slot] = rest[i]
        for j in range(total + 1):
            val = result[j]
            if abs(val) < SPARSITY_FLOOR:
                continue
            template[mode_a] = j
            template[mode_b] = total - j
            occ_out = tuple(template)
            prev_amp = out.get(occ_out)
            out[occ_out] = val if prev_amp is None else prev_amp + val
    return MultiModeState(state.mode_count, state.per_mode_cutoff, out)


def beamsplitter_5050(
    state: MultiModeState, mode_a: int, mode_b: int, swap_ports: bool = False
) -> MultiModeState:
    """Apply the fixed-convention 50/50 beamsplitter to two modes.

    ``mode_a`` feeds input port 1 and receives output port A; ``mode_b``
    feeds port 2 and receives B.  ``swap_ports`` interchanges the two roles
    (the parity guarantees then attach to the other slot).  Norm and the
    total photon number in the pair are preserved; CutoffOverflow is raised
    instead of silently truncating when the output would not fit.
    """
    if swap_ports:
        mode_a, mode_b = mode_b, mode_a
    return _two_mode_substitution(state, mode_a, mode_b, _FORWARD)


@dataclass(frozen=True)
class BipartiteCoefficients:
    """Coefficient matrix of a two-mode state in the port-combination form,
    split into its symmetric and antisymmetric parts.

    The odd-photon-count probability in mode A equals the antisymmetric
    weight fraction; tests cross-check this against direct counting.
    """

    matrix: np.ndarray
    symmetric_part: np.ndarray
    antisymmetric_part: np.ndarray

    def total_weight(self) -> float:
        return float(np.sum(np.abs(self.matrix) ** 2))

    def symmetric_weight(self) -> float:
        return float(np.sum(np.abs(self.symmetric_part) ** 2))

    def antisymmetric_weight(self) -> float:
        return float(np.sum(np.abs(self.antisymmetric_part) ** 2))

    def odd_parity_probability(self) -> float:
        """Antisymmetric weight over total weight."""
        return self.antisymmetric_weight() / self.total_weight()


def bipartite_coefficients(
    state: MultiModeState, mode_a: int = 0, mode_b: int = 1
) -> BipartiteCoefficients:
    """Extract the coefficient matrix K of a two-mode state.

    K is defined so that feeding sum_{n,m} K[n,m] * i^n |n, m> through the
    beamsplitter reproduces ``state`` (mode_a as port A).  Computed by
    applying the inverse beamsplitter and stripping the i^n twist.
    """
    if state.mode_count != 2:
        raise InvalidMode("coefficient extraction requires exactly two modes")
    if {mode_a, mode_b} != {0, 1}:
        raise InvalidMode("mode_a and mode_b must be the two modes of the state")
    pre = _two_mode_substitution(state, mode_a, mode_b, _INVERSE)
    top = max((max(occ) for occ in pre.amplitudes), default=0)
    matrix = np.zeros((top + 1, top + 1), dtype=np.complex128)
    for occ, amp in pre.items():
        n, m = occ[mode_a], occ[mode_b]
        matrix[n, m] = amp * (-1j) ** n
    return BipartiteCoefficients(
        matrix=matrix,
        symmetric_part=(matrix + matrix.T) / 2.0,
        antisymmetric_part=(matrix - matrix.T) / 2.0,
    )
