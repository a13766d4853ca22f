"""Correctness checks on a workload's outputs, run outside the timed region.

The checks compare against the protocols' own laws and against the
independent dense oracle in ``tests/oracle.py``, never against a stored copy
of earlier output.  Each tolerance is at least ten times tighter than the
scenario default of 1e-9.
"""

from __future__ import annotations

import importlib.util
import json
import math
from types import SimpleNamespace

from workloads import TAIL_TOLERANCE

#: Tolerance on the protocols' laws: success probability, fidelity, entropy.
LAW_TOL = 1e-10

#: Tolerance on agreement with the dense oracle, record by record, and on
#: quantities the benchmark recomputes from a document's own numbers.
EXACT_TOL = 1e-12

#: Exit code of ``paritysim run`` when a scenario-declared check failed.
EXIT_CHECK_FAILED = 1


class Checks:
    """Collects the outcome of every check; ``failures`` names the ones that failed."""

    def __init__(self):
        self.count = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, name: str, detail: str = "") -> None:
        self.count += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def _heralded(counts, enhanced: bool) -> bool:
    na, nb = counts
    return (na % 2 != nb % 2) if enhanced else (na % 2 == 1)


def _check_records(checks: Checks, label: str, records, success_probability: float,
                   enhanced: bool, tail_budget: float) -> None:
    """The laws every teleport run obeys, on (counts, probability, classification,
    fidelity) records."""
    nominal = 0.5 if enhanced else 0.25
    checks.expect(abs(success_probability - nominal) <= LAW_TOL,
                  f"{label}: success probability", f"{success_probability!r}, expected {nominal}")
    by_rule = sum(p for counts, p, _, _ in records if _heralded(counts, enhanced))
    checks.expect(abs(by_rule - nominal) <= LAW_TOL,
                  f"{label}: probability of the heralding records", f"{by_rule!r}, expected {nominal}")
    fids = [f for counts, _, cls, f in records if cls == "success"]
    checks.expect(bool(fids) and all(abs(f - 1.0) <= LAW_TOL for f in fids),
                  f"{label}: success fidelity", f"min {min(fids, default=math.nan)!r}, expected 1")
    classes_ok = all((cls == "success") == _heralded(counts, enhanced) for counts, _, cls, _ in records)
    checks.expect(classes_ok, f"{label}: success records are exactly the heralding ones")
    total = math.fsum(p for _, p, _, _ in records)
    checks.expect(abs(1.0 - total) <= tail_budget,
                  f"{label}: record probabilities sum to 1", f"1 - sum = {1.0 - total:.3e}, "
                  f"declared tails {tail_budget:.1e}")
    if enhanced:
        both = [counts for counts, _, _, _ in records if counts[0] % 2 == 1 and counts[1] % 2 == 1]
        checks.expect(not both, f"{label}: no record odd in both outputs", f"{both[:3]}")


def teleport_reports(checks: Checks, cases, reports, enhanced: bool) -> None:
    for case, report in zip(cases, reports):
        if report is None:
            continue  # a failed operation is counted, not checked
        records = [(o.counts, o.probability, o.classification, o.fidelity_to_target)
                   for o in report.outcomes]
        # the sum of the tail tolerances declared for u, v and the sent state
        _check_records(checks, case.label, records, report.success_probability, enhanced,
                       3 * TAIL_TOLERANCE)


# --------------------------------------------------------------------------
# the dense oracle

def load_oracle(path):
    spec = importlib.util.spec_from_file_location("paritysim_dense_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def coherent_amplitudes(alpha: complex, cutoff: int) -> list[complex]:
    """exp(-|a|^2/2) a^n / sqrt(n!) for n = 0..cutoff."""
    return [math.exp(-abs(alpha) ** 2 / 2.0) * alpha ** n / math.sqrt(math.factorial(n))
            for n in range(cutoff + 1)]


def squeezed_amplitudes(r: float, cutoff: int) -> list[float]:
    """(-tanh r)^k sqrt((2k)!) / (2^k k! sqrt(cosh r)) on level 2k, zero on odd levels."""
    out = [0.0] * (cutoff + 1)
    for k in range(cutoff // 2 + 1):
        out[2 * k] = ((-math.tanh(r)) ** k * math.sqrt(math.factorial(2 * k))
                      / (2 ** k * math.factorial(k) * math.sqrt(math.cosh(r))))
    return out


def _amplitudes(state) -> list:
    kind, parameter, cutoff = state
    if kind == "coherent":
        return coherent_amplitudes(parameter, cutoff)
    return squeezed_amplitudes(parameter, cutoff)


def dense_records(oracle, case, enhanced: bool) -> dict:
    """``oracle.dense_teleport`` on ``case``, with state amplitudes computed here."""
    u = _amplitudes(case.u)
    if enhanced:
        kind, alpha, cutoff = case.u
        v = coherent_amplitudes(-alpha, cutoff)
    else:
        v = _amplitudes(case.v)
    dim = 2 * case.u[2] + 1  # holds every photon total the beamsplitter can see
    q = SimpleNamespace(eps_plus=case.qubit[0], eps_minus=case.qubit[1])
    return oracle.dense_teleport(q, u, v, dim=dim, enhanced=enhanced)


def oracle_match(checks: Checks, case, report, expected: dict) -> None:
    """The report agrees with the oracle's ``expected`` records one by one."""
    if report is None:
        return
    worst, mismatched = 0.0, []
    for o in report.outcomes:
        if o.counts not in expected:
            worst = max(worst, o.probability)
            continue
        prob, classification, fid = expected[o.counts]
        worst = max(worst, abs(o.probability - prob), abs(o.fidelity_to_target - fid))
        if classification != o.classification:
            mismatched.append(o.counts)
    seen = {o.counts for o in report.outcomes}
    for counts, (prob, _, _) in expected.items():
        if counts not in seen:
            worst = max(worst, prob)
    checks.expect(worst <= EXACT_TOL, f"{case.label}: dense oracle agreement",
                  f"max deviation {worst:.3e}")
    checks.expect(not mismatched, f"{case.label}: dense oracle classifications", f"{mismatched[:3]}")


# --------------------------------------------------------------------------
# scenario documents

def _declared_tails(scenario: dict) -> float:
    states = [scenario[k] for k in ("u", "v") if k in scenario]
    tolerances = [s.get("tail_tolerance", 1e-12) for s in states]
    # u, v and the sent state, which inherits its tail from them
    return sum(tolerances) + max(tolerances)


def _marginal(rows, index: int) -> dict:
    out: dict[int, float] = {}
    for row in rows:
        n = row["counts"][index]
        out[n] = out.get(n, 0.0) + row["probability"]
    return out


def lossy_odd_parity(marginal: dict, efficiency: float) -> float:
    """P(observed count odd) = sum_n P(n) (1 - (1 - 2 eta)^n) / 2."""
    return math.fsum(p * (1.0 - (1.0 - 2.0 * efficiency) ** n) / 2.0 for n, p in marginal.items())


def scenario_document(checks: Checks, label: str, scenario: dict, doc: dict) -> None:
    protocol = scenario["protocol"]
    aggregates, rows = doc["aggregates"], doc["outcomes"]
    if protocol in ("teleport_basic", "teleport_enhanced"):
        enhanced = protocol == "teleport_enhanced"
        records = [(tuple(r["counts"]), r["probability"], r["classification"], r["fidelity"])
                   for r in rows]
        _check_records(checks, label, records, aggregates["success_probability"], enhanced,
                       _declared_tails(scenario))
    elif protocol == "quantum_scissors":
        coeffs = [complex(re, im) for re, im in scenario["input_coefficients"]]
        norm2 = math.fsum(abs(c) ** 2 for c in coeffs)
        kept = [scenario["scissors_n"], scenario["scissors_m"]]
        expected = math.fsum(abs(coeffs[n]) ** 2 for n in kept if n < len(coeffs)) / norm2 / 2.0
        got = aggregates["success_probability"]
        checks.expect(abs(got - expected) <= EXACT_TOL, f"{label}: scissors success probability",
                      f"{got!r}, expected (|a_N|^2 + |a_M|^2)/2 = {expected!r}")
        fids = [r["fidelity"] for r in rows if r["classification"] == "success"]
        checks.expect(bool(fids) and all(abs(f - 1.0) <= LAW_TOL for f in fids),
                      f"{label}: scissors success fidelity", f"min {min(fids, default=math.nan)!r}")
    elif protocol == "facts_check":
        odd = aggregates["fact1_odd_parity_mode_a"]
        checks.expect(abs(odd) <= LAW_TOL, f"{label}: even parity of the shifted split", f"{odd!r}")
    elif protocol == "entropy":
        entropy = aggregates["entanglement_entropy"]
        checks.expect(abs(entropy - 1.0) <= LAW_TOL, f"{label}: one ebit", f"{entropy!r}")
    if "detector_efficiency" in scenario and rows:
        eta = scenario["detector_efficiency"]
        for index, mode in ((0, "mode_a"), (1, "mode_b")):
            expected = lossy_odd_parity(_marginal(rows, index), eta)
            got = aggregates["detector"][mode]["odd_parity_lossy"]
            checks.expect(abs(got - expected) <= EXACT_TOL, f"{label}: lossy odd parity in {mode}",
                          f"{got!r}, expected {expected!r}")


def scenario_documents(checks: Checks, cases, exit_codes, first_bytes, last_bytes) -> None:
    """``exit_codes`` are the last pass's; ``first_bytes`` and ``last_bytes`` the
    results documents after the first and the last pass."""
    for case, code, first, last in zip(cases, exit_codes, first_bytes, last_bytes):
        if code is None or (code != 0 and code != EXIT_CHECK_FAILED):
            continue  # a failed operation is counted, not checked
        checks.expect(code == 0, f"{case.label}: paritysim run exits 0", f"exit code {code}")
        checks.expect(first is not None and first == last,
                      f"{case.label}: rerun gives a byte-identical results document")
        if last is None:
            continue
        scenario_document(checks, case.label, case.document, json.loads(last))
