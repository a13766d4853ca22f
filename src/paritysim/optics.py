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
columns grows from a band.  ``_turn``, the one pass over photon totals,
reads columns max(0, N - rows_top)..min(N, cols_top) of D_N, cols_top being
the largest photon number entering port 1 and rows_top the largest entering
port 2 (in the kernel, the largest sent level and the resource's largest
row index); the same range for N - 1 holds every column that this band
reads.  So ``_real_band`` keeps only that band of each block, for caps
``rows_top`` and ``cols_top`` that only grow: the largest any caller has
asked for.  Raising a cap drops the groups (below) above the smaller old
cap, since those below it are full width, and rebuilds them on demand.

Each block also carries the parity structure exactly, as the row reflection

    D_N[N - c, a] = (-1)^a D_N[c, a]

(a Wigner-d reflection of the rotation by pi/2).  The recurrence preserves
it, since mirrored entries are the same products summed in the same order up
to exact negations, so it holds bit for bit on every nonzero entry.  Only the
signs of some exact zeros do not follow it (D_6[5, 3] is -0.0 where
-D_6[1, 3] is +0.0), and a zero's sign cannot reach a nonzero sum.  The
store therefore keeps only rows 0..ceil(N/2) of each band, and ``_turn``
gets row c > ceil(N/2) as (-1)^a times row N - c.  Rows 0..ceil(N/2) of D_N
read rows 0..ceil(N/2) of D_(N-1); at odd N the last of those is row
(N+1)/2, past the stored half, and is (-1)^a times row (N-3)/2 (a zero row
at N = 1).  ceil(N/2) rather than floor(N/2) keeps two rows at N = 1 and 2,
so no product on a band of N >= 1 has a single row, which BLAS would route
through another code path and so round differently.  Each kept entry is
computed by the same operations, in the same order, as in the full block,
so a band holds the same bits whatever the caps were when it was built.

The bands are stored in groups, so that ``_turn`` makes one stacked product
for many totals rather than a Python call for each.  A group holds the G =
``_GROUP`` totals 2 G s + p + 2 j, j = 0..G-1, of one span s and parity p,
as one zero-padded block of G slots; even-only supports read only even
groups.  Each slot holds its band's rows 0..ceil(N/2) from row 0 and its
first column, a = lo, at column 0, with zeros below its last row and past
its hi, up to the rows of the group's last total and the columns that
``_turn`` reads of any slot.  A run of reached totals in a group is turned
by one product whose rows and columns are the most any of its totals has,
so each slot's extra rows and columns are zeros at the end of the product,
never before its first term; zeros there can still move a last bit, since
BLAS picks its kernel by the product's shape, and the shape depends on the
input alone, never on the caps.  With both caps at c, a multiple of 2 G,
the blocks take

    8 (2 c^3 + (6 G + 3) c^2 + 4 (G^2 + G + 1) c + 4) / 4

bytes, the bands' 8 (c + 2)^2 (2 c + 1) / 4 plus 4 (G - 1) c (3 c + 2 G + 4)
of padding; other caps up to c take no more.  At G = 8 that is about 4 c^3
+ 102 c^2, against 8 (c + 1)^3 for full-height bands and about
8 (2 c)^3 / 3 for full blocks: 272 553 608 bytes at c = 400, 5.3 % above
the bands alone.
"""

from __future__ import annotations

import functools
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

#: Totals per group, G.  Timed with the counting kernel on the benchmark's
#: teleport case sizes (best of many passes), G = 4 was 5-10 % slower than 8,
#: and G = 12 and 16 no faster, with 1.6 and 2.1 times its padding.
_GROUP = 8

#: ``_BLOCKS[2 s + p]`` is the group of span s and parity p: one zero-padded
#: array of shape (slots, rows, columns).  Slot j holds rows 0..ceil(N/2) and
#: columns lo..hi of D_N, N = 2 G s + p + 2 j, from row 0 and column 0, with
#: lo = max(0, N - rows_top) and hi = min(N, cols_top) for the caps below;
#: every other entry of the block is an exact +0.0.
_BLOCKS: list[np.ndarray] = []

#: [built]: ``_BLOCKS`` holds the bands of the totals 0..built - 1.
_BUILT = [0]

#: [rows_top, cols_top]: the largest port-2 and port-1 photon numbers asked for.
_CAPS = [0, 0]

#: (-i)^k for k mod 4, exact.
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])

#: (-1)^k for k mod 2: the signs of the row reflection.
_SIGNS = np.array([1.0, -1.0])


def _slot(total: int) -> tuple[int, np.ndarray]:
    """``(lo, band)``: the band of ``total`` in its group's block, writeable."""
    block = _BLOCKS[2 * (total // (2 * _GROUP)) + total % 2]
    lo, hi = max(0, total - _CAPS[0]), min(total, _CAPS[1])
    return lo, block[(total // 2) % _GROUP, : total - total // 2 + 1, : hi - lo + 1]


def _new_block(first: int) -> np.ndarray:
    """The zero block of the group whose first total is ``first``: a slot for
    each of its totals up to rows_top + cols_top, as many rows as the last
    one keeps, and as many columns as ``_turn`` reads of any slot.  Its view
    of slot j reads band columns lo..min(N, cols_top + 2 j) at most: a run
    ending at slot j starts at most j slots earlier, on a total that meets
    no a above cols_top."""
    rows_top, cols_top = _CAPS
    totals = range(first, min(first + 2 * _GROUP - 1, rows_top + cols_top + 1), 2)
    width = max(min(n, cols_top + 2 * j) - max(0, n - rows_top) + 1
                for j, n in enumerate(totals))
    return np.zeros((len(totals), totals[-1] - totals[-1] // 2 + 1, width))


def _real_band(total: int, rows_top: int, cols_top: int) -> tuple[int, np.ndarray]:
    """``(lo, band)``: rows 0..ceil(N/2) and columns lo.. of the real matrix
    D_N of the module docstring for N = ``total``, rows indexed by the photon
    count in the first mode; the band covers at least columns
    max(0, total - rows_top)..min(total, cols_top) and is a read-only view of
    its slot.  Row c > ceil(N/2) is (-1)^a times row N - c."""
    if rows_top > _CAPS[0] or cols_top > _CAPS[1]:
        # groups whose totals are all up to the smaller cap are full width
        spans = (min(_CAPS) + 1) // (2 * _GROUP)
        del _BLOCKS[2 * spans :]
        _BUILT[0] = min(_BUILT[0], 2 * _GROUP * spans)
        _plan.cache_clear()
        _CAPS[:] = max(rows_top, _CAPS[0]), max(cols_top, _CAPS[1])
    while _BUILT[0] <= total:
        n = _BUILT[0]
        if n % (2 * _GROUP) < 2:
            _BLOCKS.append(_new_block(n))
        lo, band = _slot(n)
        _BUILT[0] += 1
        if n == 0:
            band[0, 0] = 1.0
            continue
        half = n - n // 2  # ceil(N/2): rows 0..half are kept
        hi = lo + band.shape[1] - 1
        # columns first..hi have an a - 1 term and lo..last an a term; the
        # block is +0.0 in the columns before first
        first, last = max(lo, 1), min(hi, n - 1)
        _, prev = _slot(n - 1)  # rows 0..ceil((N-1)/2), columns first - 1..last of D_(N-1)
        if n % 2:  # row (N+1)/2 of D_(N-1) is (-1)^a times its row (N-3)/2
            mirrored = (prev[half - 2] * _SIGNS[np.arange(first - 1, last + 1) % 2]
                        if n > 1 else np.zeros(prev.shape[1]))
            prev = np.vstack([prev, mirrored])
        roots = np.sqrt(np.arange(n + 1.0))  # sqrt(c) and, reversed, sqrt(N - c)
        raised = np.zeros((half + 1, prev.shape[1]))  # sqrt(c) D[c-1, :]
        np.multiply(prev[:half], roots[1 : half + 1, None], out=raised[1:])
        kept = prev * roots[::-1][: half + 1, None]  # sqrt(N-c) D[c, :]
        weights = roots * (1.0 / (n * _SQ2))  # sqrt(a) / (N sqrt 2)
        np.multiply((raised - kept)[:, : hi - first + 1], weights[first : hi + 1],
                    out=band[:, first - lo :])
        # column N has no a term, so nothing is added there: not even a 0.0,
        # which would turn a -0.0 into +0.0
        band[:, : last - lo + 1] += ((raised + kept)[:, lo - first + 1 :]
                                     * weights[::-1][lo : last + 1])
    lo, band = _slot(total)
    band = band.view()
    band.flags.writeable = False
    return lo, band


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


def _turn(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D_N times anti-diagonal N of the amplitudes ``first * second``, a run
    of totals of one group at a time.

    The amplitudes, ``first`` times ``second`` broadcast to a shape
    (rows, cols, ...), are those of a photons entering port 1 and b entering
    port 2, times the blocks' column phases, with any trailing axes.  Only
    totals that a nonzero row and column reach are turned, and of each only
    the columns a that meet a row and a column, so the band caps never
    exceed the input's own photon numbers.  A run is the reached totals two
    apart in one group along which the input's first column,
    lo = max(0, N - cols + 1), has one slope.  Each run is one stacked
    product of strided views, no copies: of each band, rows 0..ceil(N/2)
    from column lo on, and of the amplitudes, anti-diagonal N from a = lo
    on, element N + a (cols - 1) of the flattened rows.  The product has
    the rows of the run's last total and the most columns a of any of its
    totals; a slot's extra columns are the block's zeros, or meet the zero
    rows that pad the amplitudes past a = rows - 1.  The same views with the
    odd-a rows of the amplitudes negated give rows c > N/2 of D_N.  All but
    the products depends on the input's shape and reached totals alone, and
    ``_plan`` works it out once for each of the inputs it keeps.

    Returns ``(c, totals, out)``: row k of the complex ``out`` (trailing
    axes flattened) has c[k] photons leaving port 1 and totals[k] - c[k]
    leaving port 2, before the blocks' row phases.  Rows go run by run,
    first c = 0, 1, .. and then c = N, N - 1, .. for each total; a row whose
    c exceeds its total is padding, zeros or a copy of another row, for the
    caller to skip.
    """
    shape = np.broadcast_shapes(np.shape(first), np.shape(second))
    rows, cols = shape[:2]
    # a run's views read at most 2 (G - 1) rows past a = rows - 1
    amplitudes = np.empty((rows + 2 * _GROUP - 2, *shape[1:]), dtype=np.complex128)
    np.multiply(first, second, out=amplitudes[:rows])
    amplitudes[rows:] = 0.0
    parts = amplitudes.reshape(len(amplitudes), cols, -1).view(np.float64)  # (re, im) interleaved
    width = parts.shape[2]  # floats per (a, b)
    nonzero = parts[:rows].reshape(rows, -1) != 0.0  # by a, then by b and the trailing axes
    totals = np.flatnonzero(np.convolve(nonzero.any(axis=1),
                                        nonzero.any(axis=0).reshape(cols, -1).any(axis=1)))
    if totals.size == 0:
        empty = np.empty(0, dtype=np.min_scalar_type(rows + cols))
        return empty, empty, np.empty((0, width // 2), dtype=np.complex128)
    products, c, totals = _plan(rows, cols, width, totals.tobytes())
    slabs = [np.ndarray(shape, buffer=amplitudes, offset=offset, strides=strides)
             for _, (shape, offset, strides), _ in products]
    # out[0] takes the products with rows c = i, out[1] those with c = N - i
    out = np.empty((2, c.size // 2, width))
    for sign in (0, 1):
        if sign:
            amplitudes[1:rows:2] *= -1.0
        for (band, _, rows_out), slab in zip(products, slabs):
            np.matmul(band, slab, out=out[sign, rows_out].reshape(*band.shape[:2], width))
    return c, totals, out.reshape(-1, width).view(np.complex128)


#: The cache keeps the plans of the 32 inputs used last.  A plan holds views
#: of the blocks, no bands, so raising a cap, which drops blocks, empties it;
#: a miss that raises a cap does so before it makes its views, so the plan
#: it stores reads the new blocks.  Plans pay off for callers that turn the
#: same shapes again, as a run of many scenarios does: a warm pass of 29
#: scenarios turns 16 distinct keys, a teleport sweep 5.  Planning takes 0.2
#: to 1.4 times a planned call, and a plan's (c, N) take 1.3 MB at 401 x 401
#: levels.
@functools.lru_cache(maxsize=32)
def _plan(rows: int, cols: int, width: int, reached: bytes) -> tuple[list, np.ndarray, np.ndarray]:
    """``(products, c, totals)`` for ``_turn`` on amplitudes of ``rows`` x
    ``cols`` levels and ``width`` floats each that reach the totals whose
    bytes are ``reached``, with the bands of those totals built: for each
    stacked product its band view, the (shape, offset, strides) of its view
    of the padded amplitudes and its slice of rows in each half of the
    output; and the read-only (c, N) of every output row."""
    totals = np.frombuffer(reached, dtype=np.intp)
    _real_band(int(totals[-1]), cols - 1, rows - 1)
    rows_top = _CAPS[0]
    # runs of totals two apart in one group, with lo = max(0, N - cols + 1)
    # linear along the run
    ordered = np.concatenate((totals[totals % 2 == 0], totals[totals % 2 == 1]))
    key = (ordered // (2 * _GROUP)) * 2 + (ordered >= cols)
    breaks = np.flatnonzero((np.diff(key) != 0) | (np.diff(ordered) != 2)) + 1
    item, step = 8, width * 8  # bytes per float and per (a, b)
    products, runs, start = [], [], 0
    for begin, end in zip([0, *breaks.tolist()], [*breaks.tolist(), ordered.size]):
        n0, count = int(ordered[begin]), end - begin
        n1 = n0 + 2 * (count - 1)
        # the product's shape, from the input alone: the rows of the run's
        # last total, and the most columns a of any of its totals
        height = n1 - n1 // 2 + 1
        depth = min(n1, rows - 1) + 1 if n0 < cols else cols - max(0, n0 - rows + 1)
        lo_step = 2 if n0 >= cols else 0
        block = _BLOCKS[2 * (n0 // (2 * _GROUP)) + n0 % 2]
        # the store's own lo, max(0, N - rows_top), turns at rows_top: a run
        # across it is read as two views of the same shape
        below = min(count, max(0, (rows_top - n0) // 2 + 1))
        for first, size in ((n0, below), (n0 + 2 * below, count - below)):
            if not size:
                continue
            lo = max(0, first - cols + 1)
            store_lo, store_step = (first - rows_top, 2) if first > rows_top else (0, 0)
            band = np.ndarray((size, height, depth), buffer=block,
                              offset=block.strides[0] * ((first // 2) % _GROUP) + item * (lo - store_lo),
                              strides=(block.strides[0] + item * (lo_step - store_step),
                                       block.strides[1], item))
            slab = ((size, depth, width), step * (first + lo * (cols - 1)),
                    (step * (2 + lo_step * (cols - 1)), step * max(cols - 1, 1), item))
            products.append((band, slab, slice(start, start + size * height)))
            runs.append((first, size * height, height, start))
            start += size * height
    # each row's total N and its index i among its slot's rows: row k of a
    # product is row i of its slot j, k = j height + i, and slot j has N = first + 2 j
    levels = np.min_scalar_type(rows + cols)  # c = N + 1 marks padding
    firsts, spans, heights, starts = np.array(runs).T
    j, i = np.divmod(np.arange(start) - np.repeat(starts, spans), np.repeat(heights, spans))
    totals = (np.repeat(firsts, spans) + 2 * j).astype(levels)
    i = i.astype(levels)
    padding = totals + 1
    # rows c = 0..N/2 from the first products, and c = N..N/2 + 1 from the second
    c = np.concatenate((np.where(i <= totals // 2, i, padding),
                        np.where(i < padding // 2, totals - i, padding)))
    totals = np.concatenate((totals, totals))
    c.flags.writeable = totals.flags.writeable = False
    return products, c, totals


def _turned(pair: np.ndarray, phases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(c, b, values)``: the real turn of ``pair`` with row a times
    ``phases[a % 4]``, one value for each pair of c photons leaving port 1
    and b leaving port 2 that a nonzero amplitude reaches.  Raises
    ``ValueError`` if a value overflows a float.  That is read from the
    values, not from the floating-point flags, which a BLAS worker thread
    would set in its own thread."""
    with np.errstate(over="ignore", invalid="ignore"):
        c, totals, turned = _turn(pair, phases[np.arange(pair.shape[0]) % 4, None])
    rows = c <= totals
    c, values = c[rows], turned[rows, 0]
    if not np.isfinite(values).all():
        raise ValueError("a turned amplitude overflows a float")
    return c, totals[rows] - c, values


def beamsplitter_5050(state, mode_a: int, mode_b: int) -> np.ndarray:
    """Apply the fixed-convention 50/50 beamsplitter to a two-mode matrix.

    ``mode_a`` feeds input port 1 and receives output port A; ``mode_b``
    feeds port 2 and receives B.  Norm and every photon total are
    preserved: the read-only output is square with side rows + cols - 1.
    Raises ``ValueError`` if an output amplitude would overflow a float.
    """
    pair = _pair(state, mode_a, mode_b)
    # B_N[c, a] = (-i)^c D_N[c, a] i^a, with i^a = conj((-i)^a)
    c, b, turned = _turned(pair, _MINUS_I_POWERS.conj())
    out = np.zeros((sum(pair.shape) - 1,) * 2, dtype=np.complex128)
    out[c, b] = _MINUS_I_POWERS[c % 4] * turned
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
    state times (-i)^a, with no row phases.  Raises ``ValueError`` if an
    entry of K would overflow a float; the parts (K +- K^T) / 2 stay finite.
    """
    pair = _pair(state, mode_a, mode_b)
    c, b, turned = _turned(pair, _MINUS_I_POWERS)
    matrix = np.zeros((sum(pair.shape) - 1,) * 2, dtype=np.complex128)
    matrix[c, b] = turned
    return BipartiteCoefficients(
        matrix=matrix,
        symmetric_part=_half_sum(matrix, matrix.T),
        antisymmetric_part=_half_sum(matrix, -matrix.T),
    )


def _half_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x + y) / 2 entrywise, or x / 2 + y / 2 if a sum overflows: an
    overflowing sum has both terms at least 2^970, where halving is exact, so
    those entries round as the unbounded sum would."""
    with np.errstate(over="ignore", invalid="ignore"):
        half = (x + y) / 2.0
    if not np.isfinite(half).all():
        half = x / 2.0 + y / 2.0
    return half
