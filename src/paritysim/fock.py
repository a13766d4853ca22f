"""Core representations of truncated bosonic pure states.

Single modes are dense complex vectors indexed by photon number.  Multimode
states are sparse maps from occupation tuples to amplitudes, because the
operations in this package (beamsplitters, projections) conserve total photon
number and never densely fill the product space.  The package's own paths
build no multimode state beyond a two-mode resource (``resource_from_states``
for the protocols and the entropy, ``psi (x) |0>`` for the parity facts):
``measurement.split_and_count`` reads it as a dense matrix one photon-total
block at a time, and ``entanglement_entropy`` decomposes it.  The sparse
multimode operations (``prepend_mode``, ``optics.beamsplitter_5050``,
``measurement.measure_modes``, ``optics.bipartite_coefficients``) stay public
for direct use, the demos, and as the references the kernel is tested
against.

All values are immutable after construction; every operation returns a new
value.  Amplitudes with magnitude below ``SPARSITY_FLOOR`` are dropped on
write so that rounding noise cannot accumulate as fill-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateState

#: Amplitudes below this magnitude are discarded when a multimode state is built.
SPARSITY_FLOOR = 1e-15

#: Squared norms at or below this are considered degenerate (not normalizable).
DEGENERACY_FLOOR = 1e-14

#: |norm^2 - 1| within this counts as normalized.
NORM_TOL = 1e-12


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

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite (no NaN/Inf)")
        if not (0.0 <= self.tail_mass <= 1.0 + NORM_TOL):
            raise ValueError(f"tail_mass {self.tail_mass} outside [0, 1]")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def cutoff(self) -> int:
        """Highest representable photon number."""
        return self.amplitudes.size - 1

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

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
class MultiModeState:
    """A sparse pure state of several modes.

    ``amplitudes`` maps occupation tuples (one entry per mode, each at most
    ``per_mode_cutoff``) to complex amplitudes.  Entries below the sparsity
    floor are dropped at construction.
    """

    mode_count: int
    per_mode_cutoff: int
    amplitudes: dict = field(repr=False)

    def __post_init__(self):
        if self.mode_count < 1:
            raise ValueError("mode_count must be positive")
        if self.per_mode_cutoff < 0:
            raise ValueError("per_mode_cutoff must be non-negative")
        kept: dict[tuple[int, ...], complex] = {}
        for occ, amp in self.amplitudes.items():
            amp = complex(amp)
            if len(occ) != self.mode_count:
                raise ValueError(f"occupation {occ} does not have {self.mode_count} entries")
            if any(n < 0 or n > self.per_mode_cutoff for n in occ):
                raise ValueError(f"occupation {occ} outside 0..{self.per_mode_cutoff}")
            if not (np.isfinite(amp.real) and np.isfinite(amp.imag)):
                raise ValueError(f"amplitude at {occ} is not finite")
            if abs(amp) >= SPARSITY_FLOOR:
                kept[tuple(occ)] = amp
        object.__setattr__(self, "amplitudes", kept)

    def norm_squared(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def items(self):
        return self.amplitudes.items()

    def amplitude(self, occ: tuple[int, ...]) -> complex:
        return self.amplitudes.get(tuple(occ), 0.0 + 0.0j)

    def as_single_mode(self) -> SingleModeState:
        """Convert a one-mode state to the dense representation."""
        if self.mode_count != 1:
            raise ValueError("as_single_mode requires exactly one mode")
        top = max((occ[0] for occ in self.amplitudes), default=0)
        amps = np.zeros(top + 1, dtype=np.complex128)
        for occ, amp in self.amplitudes.items():
            amps[occ[0]] = amp
        return SingleModeState(amps)


@dataclass(frozen=True)
class TruncationReport:
    """Result of auditing the probability weight above a state's cutoff."""

    tail_mass: float
    within_tolerance: bool


def normalize(state):
    """Scale a state to unit norm, preserving amplitude ratios.

    Raises DegenerateState if the squared norm is at or below 1e-14, which is
    how a vanishing superposition (e.g. u - v with u = v) announces itself.
    """
    if isinstance(state, SingleModeState):
        ns = state.norm_squared()
        if ns <= DEGENERACY_FLOOR:
            raise DegenerateState(f"squared norm {ns:.3e} is below the degeneracy floor")
        scale = 1.0 / np.sqrt(ns)
        return SingleModeState(state.amplitudes * scale, tail_mass=min(1.0, state.tail_mass / ns))
    if isinstance(state, MultiModeState):
        ns = state.norm_squared()
        if ns <= DEGENERACY_FLOOR:
            raise DegenerateState(f"squared norm {ns:.3e} is below the degeneracy floor")
        scale = 1.0 / np.sqrt(ns)
        return MultiModeState(
            state.mode_count,
            state.per_mode_cutoff,
            {occ: amp * scale for occ, amp in state.items()},
        )
    raise TypeError(f"cannot normalize {type(state).__name__}")


def inner_product(s1: SingleModeState, s2: SingleModeState) -> complex:
    """<s1|s2> = sum_n conj(s1_n) s2_n, zero-padding the shorter state."""
    cutoff = max(s1.cutoff, s2.cutoff)
    return complex(np.vdot(s1.padded(cutoff), s2.padded(cutoff)))


def tensor(s1: SingleModeState, s2: SingleModeState) -> MultiModeState:
    """Product state of two modes; amplitude at (n, m) is s1_n * s2_m.

    The per-mode cutoff of the result is the sum of the input cutoffs, which
    is exactly the headroom a photon-number-conserving two-mode operation can
    ever need.
    """
    for s in (s1, s2):
        if abs(s.norm_squared() - 1.0) > 1e-9:
            raise ValueError("tensor requires normalized inputs")
    amps: dict[tuple[int, ...], complex] = {}
    for n, a in enumerate(s1.amplitudes):
        if abs(a) < SPARSITY_FLOOR:
            continue
        for m, b in enumerate(s2.amplitudes):
            amp = a * b
            if abs(amp) >= SPARSITY_FLOOR:
                amps[(n, m)] = amp
    return MultiModeState(2, s1.cutoff + s2.cutoff, amps)


def prepend_mode(state: MultiModeState, s: SingleModeState) -> MultiModeState:
    """Tensor one more mode onto a multimode state, as the new first mode."""
    if abs(s.norm_squared() - 1.0) > 1e-9:
        raise ValueError("prepend_mode requires a normalized single-mode state")
    amps: dict[tuple[int, ...], complex] = {}
    for occ, a in state.items():
        for n, b in enumerate(s.amplitudes):
            amp = a * b
            if abs(amp) >= SPARSITY_FLOOR:
                amps[(n,) + occ] = amp
    return MultiModeState(state.mode_count + 1, state.per_mode_cutoff + s.cutoff, amps)


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
