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
reads.  So a band store, ``_Store``, keeps only that band of each block,
for caps ``rows_top`` and ``cols_top`` that never change: an input above
them swaps in a store with the larger caps, the groups (below) up to the
smaller old cap, which are full width, and plans of its own.

A store keeps the bands of a parity of N only once a turn reaches a total
of that parity.  Squeezed vacuum holds even photon numbers only, so a
teleport on a squeezed pair reaches even totals only, and its store keeps
the even bands alone, about half of them.  The bands grow in one loop,
``_Store._grow``, that carries the previous band along, since D_N reads
only D_(N-1): a band of a kept parity is grown into its slot, and one of the
other parity into a zero array that is dropped once the next band has read
it.  ``_Store.plan`` keeps every parity that a turn reaches before it grows,
so a mixed-parity input grows once.  A parity first kept below the totals
already built has each of its slots grown in one step, by the same loop,
from the stored band of the other parity just below it.  Either way a band
comes from the same operations on the same inputs, so it holds the same
bits.

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
the bands alone.  Of these the even groups take

    8 (c^3 + (3 G + 1) c^2 + 2 (G^2 + 2) c + 4) / 4

bytes and the odd ones 8 c (c + 2 G) (c + G + 2) / 4: 136 105 608 and
136 448 000 bytes at c = 400, so a store that keeps one parity takes half.

A caller may name the totals it reads, ``_turn``'s ``live``: the counting
kernel names those whose records can reach its outcome floor.  Then only
the reached totals from the first to the last live one are turned, and the
store grows only to that last one, so its top is the last live total, not
rows_top + cols_top: 551 of 800 in the coherent run at cutoff 400, 456 of
780 in the squeezed one.  The runs are still cut from every reached total,
and a live total is turned by a slice of its run's product, fewer slots in
the run's own shape: the rows of its last reached total and the most
columns of any.  The shape keeps the bits: slices with only the rows of
their own last live total moved a last bit in 37 of 1500 random kernel
inputs, by up to 2.2e-19 in a probability and 2.5e-16 in a coordinate,
where slices in the whole run's shape moved none.  Totals below the first
live one are built, as every band below the store's top is, but not turned.

``_turn`` gets rows c > N/2 from the same products with the odd-a rows of
the amplitudes negated.  Where no odd-a amplitude is nonzero, that negation
changes no nonzero term, so the second half of its output is a copy of the
first; where no even-a amplitude is nonzero, it negates every nonzero term,
so the second half is the first negated.  Either way each product is made
once: a teleport on a squeezed pair, whose sent state holds even levels
only, is one such input.  Every nonzero value keeps the bits of the second
product; only the sign of an exact zero can differ from it.

``_turn`` writes its zero-padded amplitudes and its output into scratch
arrays that each thread keeps, ``_BUFFERS``: each grows to exactly the size
of the largest call so far, up to ``_KEPT_BYTES``, and is reused after, so
a warm call allocates neither, and whether it faults fresh pages in does
not depend on the heap's history.  A call that needs more turns in arrays
of its own, freed with it.  The output that ``_turn`` returns is a view of
the calling thread's buffer, valid until that thread's next ``_turn``; its
callers copy what they keep.  A thread holds its buffers until it ends.
"""

from __future__ import annotations

import math
import threading
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

#: (-i)^k for k mod 4, exact.
_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])

#: (-1)^k for k mod 2: the signs of the row reflection.
_SIGNS = np.array([1.0, -1.0])


class _Store:
    """The bands of the totals 0..``built`` - 1 of the ``kept`` parities, for
    port-2 and port-1 photon numbers up to ``caps``, (rows_top, cols_top), and
    ``plans`` of ``_turn`` on them.  ``blocks[2 s + p]``, the group of span s
    and parity p, is None while p is not kept, and otherwise an array of shape
    (slots, rows, columns) whose slot j holds rows 0..ceil(N/2) and columns
    max(0, N - rows_top)..min(N, cols_top) of D_N, N = 2 G s + p + 2 j, from
    row 0 and column 0, and +0.0 elsewhere.  The band of ``built`` - 1, which
    the next band grows from, is always kept."""

    def __init__(self, caps: tuple = (0, 0), blocks: list = (), built: int = 0,
                 kept: frozenset = frozenset()):
        self.caps, self.blocks, self.built, self.kept, self.plans = caps, list(blocks), built, kept, {}

    def raised(self, rows_top: int, cols_top: int) -> _Store:
        """This store if its caps hold ``rows_top`` and ``cols_top``, else one
        with the larger caps, the same kept parities and their groups of
        totals up to its smaller cap."""
        if rows_top <= self.caps[0] and cols_top <= self.caps[1]:
            return self
        spans = (min(self.caps) + 1) // (2 * _GROUP)
        built = min(self.built, 2 * _GROUP * spans)
        # the next band grows from a stored one: a span ends on an odd total,
        # which a store of even bands did not keep
        if built and (built - 1) % 2 not in self.kept:
            built -= 1
        return _Store((max(rows_top, self.caps[0]), max(cols_top, self.caps[1])),
                      self.blocks[: 2 * spans], built, self.kept)

    def _new_block(self, first: int) -> np.ndarray:
        """The zero block of the group whose first total is ``first``: a slot for
        each of its totals up to rows_top + cols_top, as many rows as the last
        one keeps, and as many columns as ``_turn`` reads of any slot.  Its view
        of slot j reads band columns lo..min(N, cols_top + 2 j) at most: a run
        ending at slot j starts at most j slots earlier, on a total that meets
        no a above cols_top."""
        rows_top, cols_top = self.caps
        totals = range(first, min(first + 2 * _GROUP - 1, rows_top + cols_top + 1), 2)
        width = max(min(n, cols_top + 2 * j) - max(0, n - rows_top) + 1
                    for j, n in enumerate(totals))
        return np.zeros((len(totals), totals[-1] - totals[-1] // 2 + 1, width))

    def _slot(self, total: int) -> tuple[int, np.ndarray]:
        """``(lo, band)``: the columns lo.. of the band of ``total``, a
        writeable view of its slot, or a transient zero array of its shape if
        its parity is not kept."""
        lo, hi = max(0, total - self.caps[0]), min(total, self.caps[1])
        shape = (total - total // 2 + 1, hi - lo + 1)
        block = self.blocks[2 * (total // (2 * _GROUP)) + total % 2]
        if block is None:
            return lo, np.zeros(shape)
        return lo, block[(total // 2) % _GROUP, : shape[0], : shape[1]]

    def keep(self, parities) -> None:
        """Keep the bands of ``parities`` from now on.  A parity first kept
        below ``built`` gets its groups, and each of its slots is grown from
        the stored band of the other parity just below it."""
        for parity in sorted(set(parities) - self.kept):  # one at most, once bands are built
            self.kept |= {parity}
            for k in range(parity, len(self.blocks), 2):
                self.blocks[k] = self._new_block(2 * _GROUP * (k // 2) + parity)
            self._grow(range(parity, self.built, 2))

    def band(self, total: int) -> tuple[int, np.ndarray]:
        """``(lo, band)``: rows 0..ceil(N/2) and columns lo.. of the real matrix
        D_N of the module docstring for N = ``total``, rows indexed by the photon
        count in the first mode, after keeping its parity and growing the bands
        up to it if need be; the band covers columns
        max(0, total - rows_top)..min(total, cols_top) and is a writeable view
        of its slot.  Row c > ceil(N/2) is (-1)^a times row N - c."""
        self.keep((total % 2,))
        self._grow(range(self.built, total + 1))
        return self._slot(total)

    def _grow(self, totals: range) -> None:
        """Grow the band of each of ``totals``, in ascending order, into its
        slot or a transient zero array, from the band of the total just below
        it: the one grown just before, or else a stored one.  A total at
        ``built`` is built, with the group it opens."""
        for n in totals:
            if n == self.built:
                if n % (2 * _GROUP) < 2:
                    self.blocks.append(self._new_block(n) if n % 2 in self.kept else None)
                self.built += 1
            if n == totals.start or totals.step > 1:  # D_(N-1) was not grown just before
                band = self._slot(n - 1)[1] if n else None
            # prev holds rows 0..ceil((N-1)/2) and columns first - 1..last of D_(N-1)
            prev, (lo, band) = band, self._slot(n)
            if n == 0:
                band[0, 0] = 1.0
                continue
            # the step's temporaries live until the next step makes its own:
            # freed together at the end of each step, they let glibc trim the
            # heap and fault it in again, half again as many page faults at
            # caps 400
            half = n - n // 2  # ceil(N/2): rows 0..half are kept
            hi = lo + band.shape[1] - 1
            # columns first..hi have an a - 1 term and lo..last an a term; the
            # block is +0.0 in the columns before first
            first, last = max(lo, 1), min(hi, n - 1)
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

    def plan(self, rows: int, cols: int, width: int, reached: bytes,
             live: tuple[int, int]) -> tuple[list, np.ndarray, np.ndarray]:
        """``(products, c, totals)`` for ``_turn`` on amplitudes of ``rows`` x
        ``cols`` levels and ``width`` floats each that reach the totals whose
        bytes are ``reached``, turning those from ``live[0]`` to ``live[1]``,
        both reached totals, within the caps, with the parities of the
        turned totals kept and their bands built: for each stacked product
        its band view, the (shape, offset, strides) of its view of the padded
        amplitudes and its slice of rows in each half of the output; and the
        read-only (c, N) of every output row.  The runs are those of every
        reached total, and a product turns the live slice of one, in the
        run's own shape.
        The store keeps the plans of the 32 inputs used last: a warm pass of
        29 scenarios turns 16, a teleport sweep 5; planning takes 0.2 to 1.4
        times a planned call, and a plan's (c, N) 1.3 MB at 401 x 401 levels."""
        inputs = rows, cols, width, reached, live
        if inputs in self.plans:  # reinserted, so that it is now the plan used last
            return self.plans.setdefault(inputs, self.plans.pop(inputs))
        totals = np.frombuffer(reached, dtype=np.intp)
        first_live, last_live = live
        turned = totals[(totals >= first_live) & (totals <= last_live)]
        self.keep(set((turned % 2).tolist()))  # before growing, so that it grows once
        self.band(last_live)
        rows_top = self.caps[0]
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
            if n1 < first_live or n0 > last_live:
                continue
            # the product's shape, from the input alone: the rows of the run's
            # last total, and the most columns a of any of its totals
            height = n1 - n1 // 2 + 1
            depth = min(n1, rows - 1) + 1 if n0 < cols else cols - max(0, n0 - rows + 1)
            lo_step = 2 if n0 >= cols else 0
            block = self.blocks[2 * (n0 // (2 * _GROUP)) + n0 % 2]
            # the store's own lo, max(0, N - rows_top), turns at rows_top: a run
            # across it is read as two views of the same shape
            below = min(count, max(0, (rows_top - n0) // 2 + 1))
            for first, size in ((n0, below), (n0 + 2 * below, count - below)):
                # only its live totals, in the untrimmed run's shape
                skipped = max(0, (first_live - first + 1) // 2)
                first, size = first + 2 * skipped, min(size, (last_live - first) // 2 + 1) - skipped
                if size <= 0:
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
        self.plans[inputs] = products, c, totals
        if len(self.plans) > 32:
            del self.plans[next(iter(self.plans))]
        return products, c, totals


#: The band store that ``_turn`` reads, and the lock under which it is
#: swapped for one of higher caps, grown and planned.  The products run
#: outside it, on slots already filled, which no store writes again.
_STORE = _Store()
_LOCK = threading.Lock()


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
        # a factor off the quarter cycle can push a finite amplitude near the
        # largest float past it
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = state.amplitudes * _phase_factors(phi, state.amplitudes.size)
        if not np.isfinite(shifted.view(np.float64)).all():
            raise ValueError("amplitudes must be finite (no NaN/Inf)")
        shifted.flags.writeable = False
        return SingleModeState._trusted(shifted, state.tail_mass)
    matrix = _two_mode(state, mode)
    factors = _phase_factors(phi, matrix.shape[mode])
    return _read_only(matrix * (factors[:, None] if mode == 0 else factors))


def _pair(state, mode_a: int, mode_b: int) -> np.ndarray:
    """``state`` as a complex matrix with ``mode_a`` as its first index."""
    if mode_a == mode_b:
        raise InvalidMode("mode_a and mode_b must differ")
    matrix = _two_mode(state, mode_a, mode_b)
    return matrix if mode_a == 0 else matrix.T


def _turn(first: np.ndarray, second: np.ndarray,
          live: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    the store plans it once for each of the inputs it keeps.

    ``live``, a boolean for each total 0..rows + cols - 2, or None for all,
    names the totals a caller reads: only reached totals from the first to
    the last live one are turned, each by a slice of its run's product in
    the shape of the whole run, so a turned row has the bits that the turn
    of every total gives it, and the store grows only to the last of them.

    Returns ``(c, totals, out)``: row k of the complex ``out`` (trailing
    axes flattened) has c[k] photons leaving port 1 and totals[k] - c[k]
    leaving port 2, before the blocks' row phases.  Rows go run by run,
    first c = 0, 1, .. and then c = N, N - 1, .. for each total; a row whose
    c exceeds its total is padding, zeros or a copy of another row, for the
    caller to skip.  ``out`` is a view of the thread's scratch buffer and
    holds until the thread's next ``_turn``.
    """
    global _STORE
    shape = np.broadcast_shapes(np.shape(first), np.shape(second))
    rows, cols = shape[:2]
    # a run's views read at most 2 (G - 1) rows past a = rows - 1
    padded = (rows + 2 * _GROUP - 2, *shape[1:])
    amplitudes = _buffer("amplitudes", np.complex128, padded)
    np.multiply(first, second, out=amplitudes[:rows])
    amplitudes[rows:] = 0.0
    parts = amplitudes.reshape(len(amplitudes), cols, -1).view(np.float64)  # (re, im) interleaved
    width = parts.shape[2]  # floats per (a, b)
    nonzero = parts[:rows].reshape(rows, -1) != 0.0  # by a, then by b and the trailing axes
    totals, odd_a, even_a = _reached(nonzero, cols)
    turned = totals if live is None else totals[live[totals]]
    if turned.size == 0:
        empty = np.empty(0, dtype=np.min_scalar_type(rows + cols))
        return empty, empty, np.empty((0, width // 2), dtype=np.complex128)
    with _LOCK:
        _STORE = _STORE.raised(cols - 1, rows - 1)
        products, c, totals = _STORE.plan(rows, cols, width, totals.tobytes(),
                                          (int(turned[0]), int(turned[-1])))
    slabs = [np.ndarray(shape, buffer=amplitudes, offset=offset, strides=strides)
             for _, (shape, offset, strides), _ in products]
    # out[0] takes the products with rows c = i, out[1] those with c = N - i
    out = _buffer("out", np.float64, (2, c.size // 2, width))
    for sign in (0, 1) if odd_a and even_a else (0,):
        if sign:
            amplitudes[1:rows:2] *= -1.0
        for (band, _, rows_out), slab in zip(products, slabs):
            np.matmul(band, slab, out=out[sign, rows_out].reshape(*band.shape[:2], width))
    if not odd_a:  # negating the odd-a rows would change no nonzero term
        np.copyto(out[1], out[0])
    elif not even_a:  # it would negate every one
        np.negative(out[0], out=out[1])
    return c, totals, out.reshape(-1, width).view(np.complex128)


def _reached(nonzero: np.ndarray, cols: int) -> tuple[np.ndarray, bool, bool]:
    """``(totals, odd, even)`` for the amplitudes whose floats are nonzero
    where ``nonzero`` is, by a and then by b and the trailing axes, with
    ``cols`` levels b: the totals a + b that a nonzero row and a nonzero
    column reach, and whether a nonzero amplitude has an odd a, and an even
    a."""
    by_a = nonzero.any(axis=1)
    totals = np.flatnonzero(np.convolve(by_a, nonzero.any(axis=0).reshape(cols, -1).any(axis=1)))
    return totals, bool(by_a[1::2].any()), bool(by_a[::2].any())


#: Each thread's scratch arrays for ``_turn``, by name: flat arrays that
#: grow to the largest size one call needs and are then reused, so a warm
#: call allocates nothing.
_BUFFERS = threading.local()

#: The largest scratch array a thread keeps, in bytes.  Kept past their
#: call, the 5.3 MB padded amplitudes and 10.5 MB output of the coherent
#: cutoff-400 run raised its peak RSS by 5 MiB, and those of the squeezed
#: cutoff-390 run its peak by 9 MiB, since the kernel's own temporaries
#: come on top; every benchmark case needs less than 0.5 MB.
_KEPT_BYTES = 1 << 22


def _buffer(name: str, dtype, shape: tuple) -> np.ndarray:
    """A C-contiguous array of ``shape`` and ``dtype`` on the calling
    thread's scratch array ``name``, which grows to exactly this size if it
    is smaller, up to ``_KEPT_BYTES``: its contents are whatever the
    thread's last call left.  A larger array is the call's own."""
    size = math.prod(shape)
    flat = getattr(_BUFFERS, name, None)
    if flat is None or flat.size < size:
        flat = np.empty(size, dtype=dtype)
        if flat.nbytes <= _KEPT_BYTES:
            setattr(_BUFFERS, name, flat)
    return flat[:size].reshape(shape)


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
