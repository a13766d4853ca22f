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

Column a of D_N reads only columns a - 1 and a of D_(N-1), so a band of
columns grows from a band.  The counting kernel reads columns
max(0, N - rows_top)..min(N, cols_top) of D_N, rows_top being the resource's
largest row index and cols_top the largest sent level; the same range for
N - 1 holds every column that this band reads.  So ``_real_band`` keeps
only that band of each block, for caps ``rows_top`` and ``cols_top`` that
only grow: the largest any caller has asked for.  Raising a cap drops the blocks
above the smaller old cap (those below it are full width) and rebuilds them
on demand.  Each kept entry is computed by the same operations, in the same
order, as in the full block, so a band holds the same bits whatever the
caps were when it was built.  Held for every N up to 2 c with both caps at
c, the bands take 8 (c + 1)^3 bytes, against about 8 (2 c)^3 / 3 for full
blocks.
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


#: ``_BANDS[N]`` is ``(lo, D_N[:, lo : hi + 1])`` with lo = max(0, N - rows_top)
#: and hi = min(N, cols_top) for the caps below; read-only.
_BANDS: list[tuple[int, np.ndarray]] = [(0, np.ones((1, 1)))]
_BANDS[0][1].flags.writeable = False

#: [rows_top, cols_top]: the largest resource row index and sent level asked for.
_CAPS = [0, 0]

#: (-i)^k for k mod 4, exact.
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])


def _real_band(total: int, rows_top: int, cols_top: int) -> tuple[int, np.ndarray]:
    """``(lo, band)``: columns lo.. of the real matrix D_N of the module
    docstring for N = ``total``, rows indexed by the photon count in the first
    mode (0..total); the band covers at least columns
    max(0, total - rows_top)..min(total, cols_top) and is read-only."""
    if rows_top > _CAPS[0] or cols_top > _CAPS[1]:
        del _BANDS[min(_CAPS) + 1 :]  # blocks up to the smaller cap are full width
        _CAPS[:] = max(rows_top, _CAPS[0]), max(cols_top, _CAPS[1])
    while len(_BANDS) <= total:
        n = len(_BANDS)
        lo, hi = max(0, n - _CAPS[0]), min(n, _CAPS[1])
        # columns first..hi have an a - 1 term and lo..last an a term
        first, last = max(lo, 1), min(hi, n - 1)
        _, prev = _BANDS[-1]  # exactly columns first - 1..last of D_(N-1)
        roots = np.sqrt(np.arange(n + 1.0))  # sqrt(c) and, reversed, sqrt(N - c)
        raised = np.zeros((n + 1, prev.shape[1]))  # sqrt(c) D[c-1, :]
        np.multiply(prev, roots[1:, None], out=raised[1:])
        kept = np.zeros((n + 1, prev.shape[1]))  # sqrt(N-c) D[c, :]
        np.multiply(prev, roots[:0:-1, None], out=kept[:-1])
        weights = roots * (1.0 / (n * _SQ2))  # sqrt(a) / (N sqrt 2)
        band = np.empty((n + 1, hi - lo + 1))
        band[:, : first - lo] = 0.0
        np.multiply((raised - kept)[:, : hi - first + 1], weights[first : hi + 1],
                    out=band[:, first - lo :])
        # column N has no a term, so nothing is added there: not even a 0.0,
        # which would turn a -0.0 into +0.0
        band[:, : last - lo + 1] += ((raised + kept)[:, lo - first + 1 :]
                                     * weights[::-1][lo : last + 1])
        band.flags.writeable = False
        _BANDS.append((lo, band))
    return _BANDS[total]


def _block(key: tuple, total: int) -> np.ndarray:
    """Unitary on the total-photon-number block, rows/cols indexed by the
    photon count in the first mode (0..total), built from the full band of
    ``_real_band`` on every call: the bands are the only store of
    beamsplitter blocks."""
    if key not in (_FORWARD, _INVERSE):
        raise ValueError("unsupported substitution convention")
    _, real = _real_band(total, total, total)  # lo = 0: all of D_N
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
    rounding of exp(); everything else goes through exp as usual.  A NaN or
    infinite ``phi`` is refused, since no phase factor corresponds to it.
    """
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
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


def beamsplitter_5050(state: MultiModeState, mode_a: int, mode_b: int) -> MultiModeState:
    """Apply the fixed-convention 50/50 beamsplitter to two modes.

    ``mode_a`` feeds input port 1 and receives output port A; ``mode_b``
    feeds port 2 and receives B.  Norm and the total photon number in the
    pair are preserved; CutoffOverflow is raised instead of silently
    truncating when the output would not fit.
    """
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
