"""Independent dense reference implementation used to cross-check the library.

Everything here works on full state vectors over the complete product basis,
with operators as explicit matrices (the beamsplitter from scipy's matrix
exponential, phase shifts as explicit diagonals) and exhaustive index
arithmetic.  It shares no code path with the package's banded block
implementation, so agreement is meaningful.
"""

import math

import numpy as np
from scipy.linalg import expm


def destroy_matrix(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def exact_block_matrix(total: int) -> np.ndarray:
    """Beamsplitter block from the binomial expansion with exact integer sums.

    The alternating inner sums are evaluated in exact integer arithmetic
    (Python bigints) before any float enters, so this route has no
    cancellation error.  Too slow for production, fine as a test oracle.
    """
    size = total + 1
    out = np.zeros((size, size), dtype=complex)
    for n in range(size):  # photons entering the first port
        m = total - n
        for j in range(size):  # photons leaving the first port
            # coefficient of x^j in (x - i)^n (1 - i x)^m, split by i-power parity
            acc = [0, 0, 0, 0]  # coefficients of i^0, i^1, i^2, i^3
            for k in range(max(0, j - m), min(n, j) + 1):
                power = (n - k) + (j - k)  # exponent of (-i)
                acc[(-power) % 4] += math.comb(n, k) * math.comb(m, j - k)
            value = complex(acc[0] - acc[2], acc[1] - acc[3])
            scale = math.sqrt(
                math.factorial(j) * math.factorial(total - j)
                / (math.factorial(n) * math.factorial(m))
            ) / math.sqrt(2.0) ** total
            out[j, n] = scale * value
    return out


class DenseSpace:
    """Full product basis for ``modes`` modes with local dimension ``dim``."""

    def __init__(self, modes: int, dim: int):
        self.modes = modes
        self.dim = dim
        self.size = dim ** modes

    def index(self, occ) -> int:
        flat = 0
        for n in occ:
            flat = flat * self.dim + n
        return flat

    def occupation(self, index: int) -> tuple:
        occ = []
        for _ in range(self.modes):
            occ.append(index % self.dim)
            index //= self.dim
        return tuple(reversed(occ))

    def single_mode_operator(self, matrix: np.ndarray, mode: int) -> np.ndarray:
        ops = [np.eye(self.dim, dtype=complex)] * self.modes
        ops[mode] = matrix
        out = ops[0]
        for op in ops[1:]:
            out = np.kron(out, op)
        return out

    def beamsplitter(self, mode_a: int, mode_b: int) -> np.ndarray:
        a = self.single_mode_operator(destroy_matrix(self.dim), mode_a)
        b = self.single_mode_operator(destroy_matrix(self.dim), mode_b)
        exchange = a.conj().T @ b + a @ b.conj().T
        return expm(-1j * math.pi / 4 * exchange)

    def phase(self, mode: int, phi: float) -> np.ndarray:
        diag = np.exp(1j * phi * np.arange(self.dim))
        return self.single_mode_operator(np.diag(diag), mode)

    def vector(self, matrix) -> np.ndarray:
        """A two-mode matrix R[n, m] as a vector over this two-mode basis;
        entries of R beyond the basis must be zero."""
        if self.modes != 2:
            raise ValueError("vector takes a two-mode matrix")
        matrix = np.asarray(matrix, dtype=complex)
        rows, cols = min(matrix.shape[0], self.dim), min(matrix.shape[1], self.dim)
        if np.any(matrix[rows:]) or np.any(matrix[:, cols:]):
            raise ValueError("the matrix has amplitudes beyond the basis")
        vec = np.zeros((self.dim, self.dim), dtype=complex)
        vec[:rows, :cols] = matrix[:rows, :cols]
        return vec.ravel()

    def project(self, vec: np.ndarray, measured: tuple, counts: tuple):
        """Probability of the counting record and the normalized dense
        post-vector over the remaining modes (in their original order)."""
        remaining = [m for m in range(self.modes) if m not in measured]
        post = np.zeros(self.dim ** len(remaining), dtype=complex)
        prob = 0.0
        for idx in range(self.size):
            occ = self.occupation(idx)
            if any(occ[m] != c for m, c in zip(measured, counts)):
                continue
            amp = vec[idx]
            prob += abs(amp) ** 2
            sub = 0
            for m in remaining:
                sub = sub * self.dim + occ[m]
            post[sub] = amp
        if prob > 0:
            post = post / math.sqrt(prob)
        return prob, post


def dense_single(amplitudes, dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    amplitudes = np.asarray(amplitudes, dtype=complex)
    vec[: amplitudes.size] = amplitudes
    return vec / np.linalg.norm(vec)


def dense_teleport(q, u_amp, v_amp, dim: int, enhanced: bool, retilde: bool = False):
    """Full dense run of the teleportation protocols.

    Returns a dict mapping counting records to (probability, classification,
    fidelity-after-correction).
    """
    space = DenseSpace(3, dim)
    u = dense_single(u_amp, dim)
    v = dense_single(v_amp, dim)
    plus = (u + v) / np.linalg.norm(u + v)
    minus = (u - v) / np.linalg.norm(u - v)
    quarter = np.diag(np.exp(1j * math.pi / 2 * np.arange(dim)))
    sent = q.eps_plus * (quarter @ plus) + q.eps_minus * (quarter @ minus)
    sent = sent / np.linalg.norm(sent)
    resource = np.outer(u, v) - np.outer(v, u)
    resource = resource / np.linalg.norm(resource.ravel())
    full = np.kron(sent, resource.ravel())
    out = space.beamsplitter(0, 1) @ full

    target = q.eps_plus * plus + q.eps_minus * minus
    target = target / np.linalg.norm(target)
    if retilde:
        target = quarter @ target

    half = np.diag(np.exp(1j * math.pi * np.arange(dim)))
    results = {}
    for na in range(dim):
        for nb in range(dim):
            prob, post = space.project(out, (0, 1), (na, nb))
            if prob < 1e-14:
                continue
            a_odd, b_odd = na % 2 == 1, nb % 2 == 1
            if enhanced:
                success = a_odd != b_odd
                classification = "success" if success else ("filtered" if not (a_odd or b_odd) else "failure")
            else:
                success = a_odd
                classification = "success" if success else ("failure" if b_odd else "filtered")
            corrected = post
            if success:
                if enhanced and b_odd:
                    corrected = half @ corrected
                if retilde:
                    corrected = quarter @ corrected
            fid = abs(np.vdot(target, corrected)) ** 2
            results[(na, nb)] = (prob, classification, fid)
    return results


def dense_scissors(input_amp, keep_low: int, keep_high: int, dim: int):
    """Full dense run of the scissors protocol; same return shape as above."""
    space = DenseSpace(3, dim)
    inp = np.zeros(dim, dtype=complex)
    arr = np.asarray(input_amp, dtype=complex)
    inp[: arr.size] = arr
    quarter = np.diag(np.exp(1j * math.pi / 2 * np.arange(dim)))
    sent = quarter @ inp
    resource = np.zeros((dim, dim), dtype=complex)
    resource[keep_low, keep_high] = 1 / math.sqrt(2)
    resource[keep_high, keep_low] = -1 / math.sqrt(2)
    full = np.kron(sent, resource.ravel())
    out = space.beamsplitter(0, 1) @ full

    target = np.zeros(dim, dtype=complex)
    target[keep_low] = inp[keep_low]
    target[keep_high] = inp[keep_high]
    target = target / np.linalg.norm(target)
    fix = np.diag(np.exp(1j * math.pi / (keep_high - keep_low) * np.arange(dim)))

    results = {}
    for na in range(dim):
        for nb in range(dim):
            prob, post = space.project(out, (0, 1), (na, nb))
            if prob < 1e-14:
                continue
            success = na + nb == keep_low + keep_high
            corrected = post
            if success and na % 2 == 0:
                corrected = fix @ corrected
            fid = abs(np.vdot(target, corrected)) ** 2
            results[(na, nb)] = (prob, "success" if success else "filtered", fid)
    return results
