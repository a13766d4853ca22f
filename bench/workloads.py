"""The benchmark's three workloads: seeded case lists and one pass over them.

A pass runs every case of a workload once, in order, in one thread (a closed
loop with one caller).  The seed draws only what leaves the amount of work
unchanged -- qubit amplitudes, coherent phases, pair order, detector
efficiencies, scissors coefficients -- so runs with different seeds do the
same work on different numbers.  The sizes (coherent magnitudes, squeezing
parameters, cutoffs, scenario mix) are fixed here.

Every library call goes through a module attribute (``mods.protocols.
teleport_enhanced``, ``mods.cli.main``) at call time, so the wrappers that
``layertrace.py`` installs on those attributes see it.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Tail tolerance declared on every generated state spec.
TAIL_TOLERANCE = 1e-12

#: A cutoff is the smallest whose exact series remainder is below this.  It
#: is half the declared tolerance, so that the library's own estimate of the
#: same remainder (``1 - sum |c_n|^2``, good to ~1e-16) never reaches it.
CUTOFF_TAIL = TAIL_TOLERANCE / 2

#: |alpha| of the enhanced_coherent cases.  The first is sized for the dense
#: oracle (cutoff 4, so the oracle's 9^3-dimensional space holds it exactly).
COHERENT_MAGNITUDES = (0.08, 1.0, 2.0, 3.0, 4.0)

#: Squeezing parameters of the basic_squeezed cases; the first is the oracle case.
SQUEEZE_PARAMETERS = (0.01, 0.4, 0.6, 0.8, 1.0)

#: Scissors kept photon numbers, cycled over the generated scissors scenarios.
SCISSORS_PAIRS = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3), (2, 4), (3, 5))
SCISSORS_SCENARIOS = 16
SCISSORS_LEVELS = 6

#: |alpha| of the lossy facts_check scenarios, chosen for ~1000-row documents.
FACTS_MAGNITUDE = 3.0
FACTS_SCENARIOS = 3

WORKLOADS = ("enhanced_coherent", "basic_squeezed", "scenario_batch")


# --------------------------------------------------------------------------
# truncation: exact remainders, computed here without the library

def coherent_tail(alpha_abs: float, cutoff: int) -> float:
    """sum_{n > cutoff} exp(-|a|^2) |a|^(2n) / n!, term by term in log space."""
    mean = alpha_abs * alpha_abs
    total, n = 0.0, cutoff + 1
    while True:
        term = math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))
        total += term
        if n > mean and term < 1e-30:
            return total
        n += 1


def squeezed_tail(r: float, cutoff: int) -> float:
    """sum over even levels 2k > cutoff of tanh^(2k) r (2k)! / (4^k k!^2 cosh r)."""
    log_t2 = 2.0 * math.log(abs(math.tanh(r)))
    total, k = 0.0, cutoff // 2 + 1
    while True:
        term = math.exp(k * log_t2 + math.lgamma(2 * k + 1) - k * math.log(4.0)
                        - 2.0 * math.lgamma(k + 1) - math.log(math.cosh(r)))
        total += term
        if term < 1e-30:
            return total
        k += 1


def smallest_cutoff(tail, parameter: float) -> int:
    cutoff = 0
    while tail(parameter, cutoff) >= CUTOFF_TAIL:
        cutoff += 1
    return cutoff


# --------------------------------------------------------------------------
# cases

def random_qubit(rng: random.Random) -> tuple[complex, complex]:
    a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    b = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


@dataclass(frozen=True)
class TeleportCase:
    """One teleport_enhanced (``u`` only) or teleport_basic (``u`` and ``v``) run.

    ``u`` and ``v`` are (kind, parameter, cutoff) with kind ``coherent`` or
    ``squeezed_vacuum``.
    """

    label: str
    qubit: tuple
    u: tuple
    v: tuple | None = None

    def run(self, mods):
        def spec(kind, parameter, cutoff):
            factory = mods.states.coherent_spec if kind == "coherent" else mods.states.squeezed_spec
            return factory(parameter, cutoff, TAIL_TOLERANCE)

        q = mods.states.QubitAmplitudes(*self.qubit)
        if self.v is None:
            return mods.protocols.teleport_enhanced(q, spec(*self.u))
        return mods.protocols.teleport_basic(q, spec(*self.u), spec(*self.v))


def enhanced_coherent_cases(seed: int, magnitudes=COHERENT_MAGNITUDES) -> list[TeleportCase]:
    rng = random.Random(f"enhanced_coherent/{seed}")
    cases = []
    for mag in magnitudes:
        alpha = cmath.rect(mag, rng.uniform(0.0, 2.0 * math.pi))
        cutoff = smallest_cutoff(coherent_tail, mag)
        cases.append(TeleportCase(f"alpha={mag}", random_qubit(rng), ("coherent", alpha, cutoff)))
    return cases


def basic_squeezed_cases(seed: int, parameters=SQUEEZE_PARAMETERS) -> list[TeleportCase]:
    rng = random.Random(f"basic_squeezed/{seed}")
    cases = []
    for r in parameters:
        sign = rng.choice((1.0, -1.0))
        cutoff = smallest_cutoff(squeezed_tail, r)
        cases.append(TeleportCase(f"r={r}", random_qubit(rng),
                                  ("squeezed_vacuum", sign * r, cutoff),
                                  ("squeezed_vacuum", -sign * r, cutoff)))
    return cases


@dataclass(frozen=True)
class ScenarioCase:
    """One ``paritysim run`` on a scenario file, writing ``out``."""

    label: str
    scenario: Path
    out: Path
    document: dict = field(hash=False, compare=False)

    def run(self, mods):
        return mods.cli.main(["run", "--scenario", str(self.scenario),
                              "--out", str(self.out), "--quiet"])


def _wire_pair(z: complex) -> list:
    return [z.real, z.imag]


def _qubit_wire(qubit: tuple) -> list:
    return _wire_pair(qubit[0]) + _wire_pair(qubit[1])


def _state_wire(kind: str, parameter, cutoff: int) -> dict:
    if kind == "coherent":
        spec = {"alpha_re": parameter.real, "alpha_im": parameter.imag}
    else:
        spec = {"r": parameter}
    return {"kind": kind, "cutoff": cutoff, "tail_tolerance": TAIL_TOLERANCE, **spec}


def _coherent_wire(alpha: complex) -> dict:
    return _state_wire("coherent", alpha, smallest_cutoff(coherent_tail, abs(alpha)))


def _squeezed_wire(r: float) -> dict:
    return _state_wire("squeezed_vacuum", r, smallest_cutoff(squeezed_tail, abs(r)))


def generated_scenarios(seed: int, scissors=SCISSORS_SCENARIOS,
                        facts=FACTS_SCENARIOS) -> list[tuple[str, dict]]:
    """The seeded scenario documents that join the demo scenarios."""
    rng = random.Random(f"scenario_batch/{seed}")
    docs = []
    for i in range(scissors):
        n, m = SCISSORS_PAIRS[i % len(SCISSORS_PAIRS)]
        coeffs = [cmath.rect(rng.uniform(0.2, 1.0), rng.uniform(0.0, 2.0 * math.pi))
                  for _ in range(SCISSORS_LEVELS)]
        docs.append((f"scissors_{i:02d}", {
            "protocol": "quantum_scissors", "scissors_n": n, "scissors_m": m,
            "input_coefficients": [_wire_pair(c) for c in coeffs],
        }))
    for i in range(facts):
        alpha = cmath.rect(FACTS_MAGNITUDE, rng.uniform(0.0, 2.0 * math.pi))
        docs.append((f"lossy_facts_{i:02d}", {
            "protocol": "facts_check", "u": _coherent_wire(alpha),
            "detector_efficiency": rng.uniform(0.5, 0.95),
            "tolerances": {"probability": 1e-12, "fidelity": 1e-9},
        }))
    alpha = cmath.rect(1.2, rng.uniform(0.0, 2.0 * math.pi))
    for i, (u, v) in enumerate(((_coherent_wire(alpha), _coherent_wire(-alpha)),
                                (_squeezed_wire(0.5), _squeezed_wire(-0.5)))):
        docs.append((f"entropy_{i:02d}", {
            "protocol": "entropy", "u": u, "v": v,
            "resource_kind": rng.choice(("phi_minus", "psi_minus")),
        }))
    docs.append(("teleport_basic_00", {
        "protocol": "teleport_basic", "u": _squeezed_wire(0.3), "v": _squeezed_wire(-0.3),
        "qubit": _qubit_wire(random_qubit(rng)), "retilde": rng.random() < 0.5,
    }))
    docs.append(("teleport_enhanced_00", {
        "protocol": "teleport_enhanced",
        "u": _coherent_wire(cmath.rect(0.8, rng.uniform(0.0, 2.0 * math.pi))),
        "qubit": _qubit_wire(random_qubit(rng)), "retilde": rng.random() < 0.5,
        "detector_efficiency": rng.uniform(0.5, 0.95),
    }))
    return docs


#: Detector efficiency on the teleport workloads' scenario document.
DOCUMENT_EFFICIENCY = 0.9


def teleport_document(case: TeleportCase, workdir: Path) -> ScenarioCase:
    """``case`` again, as a scenario document run through ``paritysim run``.

    It ends each teleport pass, so that every layer, the scenario and CLI
    ones included, does some work on every workload.
    """
    doc = {"protocol": "teleport_enhanced" if case.v is None else "teleport_basic",
           "u": _state_wire(*case.u), "qubit": _qubit_wire(case.qubit),
           "detector_efficiency": DOCUMENT_EFFICIENCY}
    if case.v is not None:
        doc["v"] = _state_wire(*case.v)
    path = workdir / "document.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return ScenarioCase(f"document/{case.label}", path, workdir / "document.out.json", doc)


def scenario_batch_cases(seed: int, demos: Path, workdir: Path, **sizes) -> list[ScenarioCase]:
    """The demo scenarios plus the generated ones, written under ``workdir``."""
    cases = []
    for path in sorted(demos.glob("*.json")):
        cases.append(ScenarioCase(f"demo/{path.stem}", path, workdir / f"demo_{path.stem}.out.json",
                                  json.loads(path.read_text(encoding="utf-8"))))
    for name, doc in generated_scenarios(seed, **sizes):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        cases.append(ScenarioCase(name, path, workdir / f"{name}.out.json", doc))
    return cases


# --------------------------------------------------------------------------
# one pass

@dataclass
class PassResult:
    seconds: float
    case_seconds: list
    outputs: list  # ProtocolReport, or the CLI exit code, per case; None if it raised
    failed: int
    documents: list | None = None  # results documents after the pass, per scenario case


def run_pass(mods, cases, on_error=None) -> PassResult:
    """Run every case once and time each; an exception counts as a failed operation."""
    outputs, case_seconds, failed = [], [], 0
    start = time.perf_counter()
    for case in cases:
        t0 = time.perf_counter()
        try:
            out = case.run(mods)
        except Exception as exc:  # a failed operation is counted, the pass goes on
            out = None
            if on_error is not None:
                on_error(case, exc)
        case_seconds.append(time.perf_counter() - t0)
        # exit code 1 means the run finished and a scenario check failed: that
        # is for the correctness checks; 2 and 3 mean the run itself failed
        if out is None or (isinstance(out, int) and out not in (0, 1)):
            failed += 1
        outputs.append(out)
    return PassResult(time.perf_counter() - start, case_seconds, outputs, failed)
