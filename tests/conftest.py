import math
import time

import numpy as np
import pytest

from paritysim import (
    SingleModeState,
    beamsplitter_5050,
    coherent_spec,
    explicit_spec,
    normalize,
    phase_shift,
    tensor,
)
from paritysim import optics
from paritysim.measurement import _count_factored

SESSION_START = time.monotonic()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_single(rng, cutoff: int) -> SingleModeState:
    amps = rng.normal(size=cutoff + 1) + 1j * rng.normal(size=cutoff + 1)
    return normalize(SingleModeState(amps))


def real_overlap_partner(rng, psi: SingleModeState) -> SingleModeState:
    """A random normalized state whose overlap with psi is exactly real."""
    w = rng.normal(size=psi.cutoff + 1) + 1j * rng.normal(size=psi.cutoff + 1)
    overlap = np.vdot(psi.amplitudes, w)
    w = w - 1j * overlap.imag * psi.amplitudes
    return normalize(SingleModeState(w))


def orthogonal_partner(rng, psi: SingleModeState) -> SingleModeState:
    w = rng.normal(size=psi.cutoff + 1) + 1j * rng.normal(size=psi.cutoff + 1)
    w = w - np.vdot(psi.amplitudes, w) * psi.amplitudes
    return normalize(SingleModeState(w))


def random_qubit(rng):
    from paritysim import QubitAmplitudes

    pair = rng.normal(size=2) + 1j * rng.normal(size=2)
    pair = pair / np.linalg.norm(pair)
    return QubitAmplitudes(pair[0], pair[1])


def half_cycle_spec(spec):
    """The coherent or explicit ``spec`` with the half-cycle phase shift
    written into its parameter: alpha negated, or every odd-level
    coefficient negated."""
    if spec.kind == "coherent":
        return coherent_spec(-spec.alpha, spec.cutoff, spec.tail_tolerance)
    return explicit_spec([-c if n % 2 else c for n, c in enumerate(spec.coefficients)],
                         spec.cutoff)


def shifted_split(psi: SingleModeState, phi: SingleModeState | None = None) -> np.ndarray:
    """The quarter-cycle-shifted ``phi`` (``psi`` when omitted) into port 1 of
    the beamsplitter, ``psi`` into port 2.  Output A never holds an odd count
    when ``phi`` is omitted, and holds one with probability 1/2 when ``phi``
    is orthogonal to ``psi``."""
    shifted = phase_shift(phi if phi is not None else psi, math.pi / 2)
    return beamsplitter_5050(tensor(shifted, psi), 0, 1)


def random_two_mode(rng, rows: int, cols: int, entries: int,
                    max_total: int | None = None) -> np.ndarray:
    """A normalized rows x cols two-mode matrix with ``entries`` random
    nonzero amplitudes, all at photon totals up to ``max_total``."""
    matrix = np.zeros((rows, cols), dtype=complex)
    while np.count_nonzero(matrix) < entries:
        n, m = int(rng.integers(0, rows)), int(rng.integers(0, cols))
        if max_total is not None and n + m > max_total:
            continue
        matrix[n, m] = complex(rng.normal(), rng.normal())
    return matrix / np.linalg.norm(matrix)


def store_band(total: int, rows_top: int, cols_top: int) -> tuple:
    """``(lo, band)`` of ``total`` from the process's band store, after
    raising its caps to ``rows_top`` and ``cols_top`` under its lock, as
    ``optics._turn`` raises them."""
    with optics._LOCK:
        optics._STORE = optics._STORE.raised(rows_top, cols_top)
        return optics._STORE.band(total)


def full_block(total: int) -> np.ndarray:
    """The beamsplitter's block unitary of ``total`` photons, (-i)^(c-a) D_N[c, a],
    from the full-width band of ``store_band``: its rows 0..ceil(N/2), and
    row c above that as (-1)^a times row N - c."""
    _, half = store_band(total, total, total)
    counts = np.arange(total + 1)
    lower = half[: total - half.shape[0] + 1][::-1] * (-1.0) ** (counts % 2)
    real = np.vstack([half, lower])
    return optics._MINUS_I_POWERS[(counts[:, None] - counts[None, :]) % 4] * real


def kernel_records(sent: SingleModeState, resource: np.ndarray) -> dict:
    """``{(na, nb): (probability, receiver)}`` from the counting kernel on a
    two-mode resource matrix R, given as the factors R and the identity, in
    whose columns a receiver's coordinates are its amplitudes."""
    counts, probs, receivers = _count_factored(sent, resource, np.eye(resource.shape[1]))
    return {tuple(pair): (p, receiver)
            for pair, p, receiver in zip(counts.tolist(), probs.tolist(), receivers)}


def total_bounds(sent: SingleModeState, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """W_N = sum_(a + m = N) |sent_a|^2 Re(left_m G left_m^H) for each total
    N, G = right^T conj(right), computed as the counting kernel computes it:
    the most probability any record of total N can have, since each block
    is unitary."""
    gram = np.ascontiguousarray(right.T) @ right.conj()
    factor = np.ascontiguousarray(left, dtype=np.complex128)
    weights = np.multiply(np.dot(factor, gram).view(np.float64), factor.view(np.float64)).sum(axis=1)
    return np.convolve(sent.amplitudes * sent.amplitudes.conj(), weights).real
