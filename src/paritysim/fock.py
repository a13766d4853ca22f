"""Core representations of truncated bosonic pure states.

A single mode is a ``SingleModeState``: a dense complex vector indexed by
photon number.  A two-mode state is a plain read-only complex128 matrix
``R[n, m]``, the amplitude of n photons in the first mode and m in the
second; ``tensor`` builds the product one.  The package's own paths build
no two-mode state beyond the entropy scenario's resource
(``states.resource_from_states``), which ``entanglement_entropy``
decomposes.  The protocols and the parity facts pass their resources to the
counting kernel as narrow factors (rank 2, and rank 1 for the facts'
``psi (x) |0>``), so the three-mode state is never built.

All values are immutable after construction; every operation returns a new
value.  Values that hold arrays compare with ``==`` field by field, arrays
by ``np.array_equal``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateState

#: Squared norms at or below this are considered degenerate (not normalizable).
DEGENERACY_FLOOR = 1e-14

#: ``tail_mass`` may exceed 1 by this much, the rounding of its estimate,
#: before ``SingleModeState`` refuses it.
TAIL_MASS_SLACK = 1e-12

#: The input checks of ``tensor``, the counting kernel, the superpositions, the
#: entropy and the scissors refuse a state whose |norm^2 - 1| exceeds this.
INPUT_NORM_TOL = 1e-9


def _fields_equal(self, other) -> bool:
    """``==`` for a dataclass with array fields: arrays compare by
    ``np.array_equal``, a NaN in a float array equal to a NaN, and other
    fields by ``==``."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for field in fields(self):
        mine, theirs = getattr(self, field.name), getattr(other, field.name)
        if isinstance(mine, np.ndarray):
            same = np.array_equal(mine, theirs, equal_nan=mine.dtype.kind in "fc")
        else:
            same = mine == theirs
        if not same:
            return False
    return True


@dataclass(frozen=True)
class SingleModeState:
    """A pure state of one mode, as amplitudes over photon numbers 0..cutoff.

    ``tail_mass`` is the estimated probability weight living above the cutoff.
    It is exact for factory-built states (computed from the series remainder),
    zero for finite-support constructions, and a conservative bound for
    superpositions of tracked states.
    """

    amplitudes: np.ndarray
    tail_mass: float = 0.0

    __eq__ = _fields_equal

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite (no NaN/Inf)")
        if not (0.0 <= self.tail_mass <= 1.0 + TAIL_MASS_SLACK):
            raise ValueError(f"tail_mass {self.tail_mass} outside [0, 1]")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _trusted(cls, amplitudes: np.ndarray, tail_mass: float = 0.0) -> "SingleModeState":
        """Wrap a non-empty 1-D complex128 array that the caller owns, has
        made read-only and knows to be finite, and a ``tail_mass`` in [0, 1],
        without the copy and the checks of construction: a state the package
        has just built, or a row of a protocol report's receivers."""
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        object.__setattr__(state, "tail_mass", tail_mass)
        return state

    @property
    def cutoff(self) -> int:
        """Highest representable photon number."""
        return self.amplitudes.size - 1

    def norm_squared(self) -> float:
        """sum_n |amplitude_n|^2.  Raises ``ValueError`` if that overflows a
        float, as it does for amplitudes near 1e154 and above."""
        # an overflowing square is inf, which the check below refuses
        with np.errstate(over="ignore"):
            ns = float(np.sum(np.abs(self.amplitudes) ** 2))
        if math.isinf(ns):
            raise ValueError("the squared norm overflows a float")
        return ns

    def padded(self, cutoff: int) -> np.ndarray:
        """Amplitudes zero-padded (read-only view or copy) up to ``cutoff``."""
        if cutoff < self.cutoff:
            raise ValueError("cannot pad to a smaller cutoff")
        if cutoff == self.cutoff:
            return self.amplitudes
        out = np.zeros(cutoff + 1, dtype=np.complex128)
        out[: self.amplitudes.size] = self.amplitudes
        return out


@dataclass(frozen=True)
class TruncationReport:
    """Result of auditing the probability weight above a state's cutoff."""

    tail_mass: float
    within_tolerance: bool


def normalize(state: SingleModeState) -> SingleModeState:
    """Scale a state to unit norm, preserving amplitude ratios.

    Raises DegenerateState if the squared norm is at or below 1e-14, which is
    how a vanishing superposition (e.g. u - v with u = v) announces itself,
    and ``ValueError`` if it overflows a float.
    """
    if not isinstance(state, SingleModeState):
        raise TypeError(f"cannot normalize {type(state).__name__}")
    ns = state.norm_squared()
    if ns <= DEGENERACY_FLOOR:
        raise DegenerateState(f"squared norm {ns:.3e} is below the degeneracy floor")
    scale = 1.0 / np.sqrt(ns)
    return SingleModeState(state.amplitudes * scale, tail_mass=min(1.0, state.tail_mass / ns))


def inner_product(s1: SingleModeState, s2: SingleModeState) -> complex:
    """<s1|s2> = sum_n conj(s1_n) s2_n, zero-padding the shorter state.
    Raises ``ValueError`` if the sum overflows a complex, as it can for
    amplitudes near 1e154 and above."""
    cutoff = max(s1.cutoff, s2.cutoff)
    overlap = complex(np.vdot(s1.padded(cutoff), s2.padded(cutoff)))
    if not cmath.isfinite(overlap):
        raise ValueError("the inner product overflows a complex")
    return overlap


def tensor(s1: SingleModeState, s2: SingleModeState) -> np.ndarray:
    """Product state of two modes: the read-only matrix R[n, m] = s1_n * s2_m,
    of shape (s1.cutoff + 1, s2.cutoff + 1).  Raises ``ValueError`` unless
    both are normalized."""
    for s in (s1, s2):
        if abs(s.norm_squared() - 1.0) > INPUT_NORM_TOL:
            raise ValueError("tensor requires normalized inputs")
    return _read_only(np.outer(s1.amplitudes, s2.amplitudes))


def _read_only(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, which the caller owns, made read-only."""
    matrix.flags.writeable = False
    return matrix


def _binary_exponent(amps: np.ndarray) -> int:
    """The e that puts the largest real or imaginary part of the complex
    ``amps`` in [1/2, 1) once scaled by 2^-e (0 for all zeros).  Scaling by
    a power of two is exact, so squares of amplitudes near 1e300 cannot
    overflow, and amplitudes of ordinary size keep the bits of every ratio."""
    parts = np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64)
    return math.frexp(float(np.max(np.abs(parts), initial=0.0)))[1]


def _ldexp(amps: np.ndarray, exponent: int) -> np.ndarray:
    """The complex ``amps`` times 2^exponent, part by part."""
    parts = np.ascontiguousarray(amps, dtype=np.complex128).view(np.float64)
    return np.ldexp(parts, exponent).view(np.complex128)


def truncation_check(state: SingleModeState, tolerance: float) -> TruncationReport:
    """Audit whether the weight above the cutoff is below ``tolerance``.

    The tail is the value tracked on the state: exact for factory-built
    coherent/squeezed states, zero for finite-support states.
    """
    if not (0.0 < tolerance < 1.0):
        raise ValueError("tolerance must lie in (0, 1)")
    tail = state.tail_mass
    return TruncationReport(tail_mass=tail, within_tolerance=tail < tolerance)


def combined_tail(t1: float, t2: float, norm_squared: float) -> float:
    """Tail bound for a renormalized superposition of two tracked states.

    Amplitude-level triangle inequality: the tail amplitude of a*u + b*v with
    |a|,|b| <= 1 is at most sqrt(t1) + sqrt(t2) before renormalization.
    """
    raw = (np.sqrt(t1) + np.sqrt(t2)) ** 2
    return float(min(1.0, raw / norm_squared))
