"""Phase shifts and the 50/50 beamsplitter, plus coefficient analysis.

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
as ``B_N[c, a] = (-i)^(c-a) D_N[c, a]`` with D_N real (c photons leave
port 1, a enter it).  Writing
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
columns grows from a band.  ``_turn``, the one loop over photon totals, hands
each total's anti-diagonal to ``_turn_total``, which reads columns
max(0, N - rows_top)..min(N, cols_top) of D_N, cols_top being the largest
photon number entering port 1 and rows_top the largest entering port 2 (in
the kernel, the largest sent level and the resource's largest row index);
the same range for N - 1 holds every column that this band reads.  So
``_real_band`` keeps only that band of each block, for caps ``rows_top``
and ``cols_top`` that only grow: the largest any caller has asked for.
Raising a cap drops the blocks above the smaller old cap (those below it
are full width) and rebuilds them on demand.

Each block also carries the parity structure exactly, as the row reflection

    D_N[N - c, a] = (-1)^a D_N[c, a]

(a Wigner-d reflection of the rotation by pi/2).  The recurrence preserves
it, since mirrored entries are the same products summed in the same order up
to exact negations, so it holds bit for bit on every nonzero entry.  Only the
signs of some exact zeros do not follow it (D_6[5, 3] is -0.0 where
-D_6[1, 3] is +0.0), and a zero's sign cannot reach a nonzero sum.  The
store therefore keeps only rows 0..ceil(N/2) of each band, and
``_turn_total`` gets row c > ceil(N/2) as (-1)^a times row N - c.  Rows 0..ceil(N/2) of D_N
read rows 0..ceil(N/2) of D_(N-1); at odd N the last of those is row
(N+1)/2, past the stored half, and is (-1)^a times row (N-3)/2 (a zero row
at N = 1).  ceil(N/2) rather than floor(N/2) keeps two rows at N = 1 and 2,
so no product on a band of N >= 1 has a single row, which BLAS would route
through another code path and so round differently.  Each kept entry is
computed by the same operations, in the same order, as in the full block,
so a band holds the same bits whatever the caps were when it was built.
Held for every N up to 2 c with both caps at c, the bands take
8 ceil((c + 2)^2 (2 c + 1) / 4) bytes, about 4 c^3, against 8 (c + 1)^3
for full-height bands and about 8 (2 c)^3 / 3 for full blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState, InvalidMode
from .fock import (
    DEGENERACY_FLOOR,
    SingleModeState,
    _binary_exponent,
    _fields_equal,
    _ldexp,
    _read_only,
)

_SQ2 = math.sqrt(2.0)

#: ``_BANDS[N]`` is ``(lo, D_N[: N - N // 2 + 1, lo : hi + 1])``, rows 0..ceil(N/2),
#: with lo = max(0, N - rows_top) and hi = min(N, cols_top) for the caps
#: below; read-only.
_BANDS: list[tuple[int, np.ndarray]] = [(0, np.ones((1, 1)))]
_BANDS[0][1].flags.writeable = False

#: [rows_top, cols_top]: the largest port-2 and port-1 photon numbers asked for.
_CAPS = [0, 0]

#: (-i)^k for k mod 4, exact.
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])

#: (-1)^k for k mod 2: the signs of the row reflection.
_SIGNS = np.array([1.0, -1.0])


def _real_band(total: int, rows_top: int, cols_top: int) -> tuple[int, np.ndarray]:
    """``(lo, band)``: rows 0..ceil(N/2) and columns lo.. of the real matrix
    D_N of the module docstring for N = ``total``, rows indexed by the photon
    count in the first mode; the band covers at least columns
    max(0, total - rows_top)..min(total, cols_top) and is read-only.  Row
    c > ceil(N/2) is (-1)^a times row N - c."""
    if rows_top > _CAPS[0] or cols_top > _CAPS[1]:
        del _BANDS[min(_CAPS) + 1 :]  # blocks up to the smaller cap are full width
        _CAPS[:] = max(rows_top, _CAPS[0]), max(cols_top, _CAPS[1])
    while len(_BANDS) <= total:
        n = len(_BANDS)
        half = n - n // 2  # ceil(N/2): rows 0..half are kept
        lo, hi = max(0, n - _CAPS[0]), min(n, _CAPS[1])
        # columns first..hi have an a - 1 term and lo..last an a term
        first, last = max(lo, 1), min(hi, n - 1)
        _, prev = _BANDS[-1]  # rows 0..ceil((N-1)/2), columns first - 1..last of D_(N-1)
        if n % 2:  # row (N+1)/2 of D_(N-1) is (-1)^a times its row (N-3)/2
            mirrored = (prev[half - 2] * _SIGNS[np.arange(first - 1, last + 1) % 2]
                        if n > 1 else np.zeros(prev.shape[1]))
            prev = np.vstack([prev, mirrored])
        roots = np.sqrt(np.arange(n + 1.0))  # sqrt(c) and, reversed, sqrt(N - c)
        raised = np.zeros((half + 1, prev.shape[1]))  # sqrt(c) D[c-1, :]
        np.multiply(prev[:half], roots[1 : half + 1, None], out=raised[1:])
        kept = prev * roots[::-1][: half + 1, None]  # sqrt(N-c) D[c, :]
        weights = roots * (1.0 / (n * _SQ2))  # sqrt(a) / (N sqrt 2)
        band = np.empty((half + 1, hi - lo + 1))
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


def _two_mode(state, *modes: int) -> np.ndarray:
    """``state`` as a complex matrix, after checking that it is a finite
    two-mode state and that each of ``modes`` is one of its modes."""
    if isinstance(state, SingleModeState) or np.ndim(state) != 2:
        raise InvalidMode("a two-mode state is a matrix R[n, m]")
    if 0 in np.shape(state):
        raise InvalidMode("a two-mode state needs at least one level in each mode")
    for mode in modes:
        if mode not in (0, 1):
            raise InvalidMode(f"mode {mode} out of range for 2 modes")
    matrix = np.asarray(state, dtype=np.complex128)
    if not np.isfinite(matrix).all():
        raise ValueError("amplitudes must be finite (no NaN/Inf)")
    return matrix


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
    if isinstance(state, SingleModeState):
        if mode != 0:
            raise InvalidMode(f"single-mode state has only mode 0, got {mode}")
        factors = _phase_factors(phi, state.amplitudes.size)
        return SingleModeState(state.amplitudes * factors, tail_mass=state.tail_mass)
    matrix = _two_mode(state, mode)
    factors = _phase_factors(phi, matrix.shape[mode])
    return _read_only(matrix * (factors[:, None] if mode == 0 else factors))


def _pair(state, mode_a: int, mode_b: int) -> np.ndarray:
    """``state`` as a complex matrix with ``mode_a`` as its first index."""
    if mode_a == mode_b:
        raise InvalidMode("mode_a and mode_b must differ")
    matrix = _two_mode(state, mode_a, mode_b)
    return matrix if mode_a == 0 else matrix.T


def _turn_total(total: int, rows_top: int, cols_top: int, lo: int,
                slab: np.ndarray, out: np.ndarray) -> None:
    """Rows 0..N of D_N X into ``out``, N = ``total``, for the slab X whose
    row k belongs to column a = lo + k of D_N, read from the band that
    ``_real_band(total, rows_top, cols_top)`` keeps.  Row c > N/2 of D_N is
    (-1)^a times row N - c, so those rows, reversed, are the stored half
    times X with its odd-a rows negated: ``slab`` is negated in place."""
    band_lo, band = _real_band(total, rows_top, cols_top)
    columns = band[:, lo - band_lo : lo - band_lo + slab.shape[0]]
    middle = total // 2 + 1
    out[:middle] = (columns @ slab)[:middle]
    slab[lo % 2 ^ 1 :: 2] *= -1.0
    out[middle:] = (columns @ slab)[: total + 1 - middle][::-1]


def _turn(twisted: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D_N times anti-diagonal N of ``twisted``, one photon total N at a time.

    ``twisted[a, b, ...]`` is the amplitude of a photons entering port 1 and
    b entering port 2, times the blocks' column phases, with any trailing
    axes; it is overwritten.  Only totals that a nonzero row and column
    reach are turned, and of each only the columns a that meet a row and a
    column, so the band caps never exceed the input's own photon numbers.
    Returns ``(c, totals, out)``: row k of the complex ``out`` (trailing axes
    flattened) has c[k] photons leaving port 1 and totals[k] - c[k] leaving
    port 2, before the blocks' row phases; rows go total by total.
    """
    rows, cols = twisted.shape[:2]
    parts = twisted.reshape(rows * cols, -1).view(np.float64)  # (re, im) interleaved
    nonzero = parts.reshape(rows, -1) != 0.0  # by a, then by b and the trailing axes
    totals = np.flatnonzero(np.convolve(nonzero.any(axis=1),
                                        nonzero.any(axis=0).reshape(cols, -1).any(axis=1)))
    sizes = totals + 1
    ends = np.cumsum(sizes)
    out = np.empty((int(sizes.sum()), parts.shape[1]))
    # photon numbers in the fewest bytes that hold them: there is one of each per row of out
    levels = np.arange(rows + cols - 1, dtype=np.min_scalar_type(rows + cols))
    c = np.empty(out.shape[0], dtype=levels.dtype)
    step = cols - 1 or 1  # one column: each anti-diagonal is one entry
    for total, end in zip(totals.tolist(), ends.tolist()):
        lo, hi = max(0, total - cols + 1), min(total, rows - 1)
        start = total + lo * (cols - 1)  # row-major index of (lo, total - lo)
        slab = parts[start : start + (hi - lo) * step + 1 : step]
        _turn_total(total, cols - 1, rows - 1, lo, slab, out[end - total - 1 : end])
        c[end - total - 1 : end] = levels[: total + 1]
    return c, np.repeat(totals.astype(levels.dtype), sizes), out.view(np.complex128)


def beamsplitter_5050(state, mode_a: int, mode_b: int) -> np.ndarray:
    """Apply the fixed-convention 50/50 beamsplitter to a two-mode matrix.

    ``mode_a`` feeds input port 1 and receives output port A; ``mode_b``
    feeds port 2 and receives B.  Norm and every photon total are
    preserved: the read-only output is square with side rows + cols - 1.
    """
    pair = _pair(state, mode_a, mode_b)
    # B_N[c, a] = (-i)^c D_N[c, a] i^a, with i^a = conj((-i)^a)
    c, totals, turned = _turn(pair * _MINUS_I_POWERS[np.arange(pair.shape[0]) % 4, None].conj())
    out = np.zeros((sum(pair.shape) - 1,) * 2, dtype=np.complex128)
    out[c, totals - c] = _MINUS_I_POWERS[c % 4] * turned[:, 0]
    return _read_only(out if mode_a == 0 else out.T)


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

    __eq__ = _fields_equal

    def _scaled_weights(self, *parts: np.ndarray) -> tuple[int, list[float]]:
        """``(e, weights)``: each weight is sum |part|^2 / 4^e, the part first
        scaled by the power of two 2^-e that puts the largest part of
        ``matrix`` in [1/2, 1), so amplitudes near 1e200 cannot overflow a
        square and ordinary ones keep the bits of every ratio."""
        exponent = _binary_exponent(self.matrix)
        return exponent, [float(np.sum(np.abs(_ldexp(part, -exponent)) ** 2)) for part in parts]

    def _weight(self, part: np.ndarray) -> float:
        exponent, (weight,) = self._scaled_weights(part)
        try:
            return math.ldexp(weight, 2 * exponent)
        except OverflowError:
            raise ValueError("the weight overflows a float") from None

    def total_weight(self) -> float:
        """sum |matrix|^2; raises ``ValueError`` if it overflows a float."""
        return self._weight(self.matrix)

    def symmetric_weight(self) -> float:
        """sum |symmetric_part|^2; raises ``ValueError`` if it overflows a float."""
        return self._weight(self.symmetric_part)

    def antisymmetric_weight(self) -> float:
        """sum |antisymmetric_part|^2; raises ``ValueError`` if it overflows a float."""
        return self._weight(self.antisymmetric_part)

    def odd_parity_probability(self) -> float:
        """Antisymmetric weight over total weight, from the scaled weights, so
        amplitudes near 1e200 give their ratio rather than an overflow."""
        exponent, (total, odd) = self._scaled_weights(self.matrix, self.antisymmetric_part)
        # total is the weight / 4^exponent; with a positive exponent, the weight is above 1/4
        if math.ldexp(total, 2 * min(exponent, 0)) <= DEGENERACY_FLOOR:
            raise DegenerateState("a state of (near) zero weight has no parity split")
        return odd / total


def bipartite_coefficients(state, mode_a: int = 0, mode_b: int = 1) -> BipartiteCoefficients:
    """Extract the coefficient matrix K of a two-mode state.

    K is defined so that feeding sum_{n,m} K[n,m] * i^n |n, m> through the
    beamsplitter reproduces ``state`` (mode_a as port A).  Computed by
    applying the inverse beamsplitter and stripping the i^n twist.  Each
    block unitary is symmetric (the exponential of a symmetric generator),
    so its inverse is its complex conjugate, i^(c-a) D_N[c, a]; stripping
    the twist (-i)^c leaves D_N[c, a] (-i)^a, so K is the real turn of the
    state times (-i)^a, with no row phases.
    """
    pair = _pair(state, mode_a, mode_b)
    c, totals, turned = _turn(pair * _MINUS_I_POWERS[np.arange(pair.shape[0]) % 4, None])
    matrix = np.zeros((sum(pair.shape) - 1,) * 2, dtype=np.complex128)
    matrix[c, totals - c] = turned[:, 0]
    return BipartiteCoefficients(
        matrix=matrix,
        symmetric_part=(matrix + matrix.T) / 2.0,
        antisymmetric_part=(matrix - matrix.T) / 2.0,
    )
