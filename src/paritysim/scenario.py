"""Declarative scenario files: validation, execution, and result documents.

Scenarios and results are plain JSON.  Numbers pass through Python's float
repr, which preserves 15-17 significant digits, so a run is reproducible
bit-for-bit from its results file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import __version__
from .errors import SchemaError
from .fock import SingleModeState, inner_product, tensor
from .measurement import (
    CountDistribution,
    DetectorModel,
    split_and_count,
    thinned_distribution,
    total_variation_distance,
)
from .optics import phase_shift
from .protocols import (
    ProtocolReport,
    entanglement_entropy,
    quantum_scissors,
    teleport_basic,
    teleport_enhanced,
)
from .states import (
    QubitAmplitudes,
    StateSpec,
    build_state,
    explicit_spec,
    resource_from_states,
)

PROTOCOLS = (
    "teleport_basic",
    "teleport_enhanced",
    "quantum_scissors",
    "facts_check",
    "entropy",
)

#: Largest photon number a scenario may name: a state's ``cutoff``,
#: ``scissors_n`` or ``scissors_m`` (and at most MAX_CUTOFF + 1
#: ``input_coefficients``).  Photon totals then stay within 2 * MAX_CUTOFF,
#: whose beamsplitter blocks take about 8 (2 MAX_CUTOFF)^3 / 3 bytes, 1.3 GiB.
MAX_CUTOFF = 400

_STATE_KEYS = {"kind", "alpha_re", "alpha_im", "r", "n", "coefficients", "cutoff", "tail_tolerance"}

# fields each protocol consumes; tolerances is always allowed
_ALLOWED_KEYS = {
    "teleport_basic": {"protocol", "u", "v", "qubit", "retilde", "detector_efficiency", "tolerances"},
    "teleport_enhanced": {"protocol", "u", "qubit", "retilde", "detector_efficiency", "tolerances"},
    "quantum_scissors": {"protocol", "scissors_n", "scissors_m", "input_coefficients",
                         "detector_efficiency", "tolerances"},
    "facts_check": {"protocol", "u", "v", "detector_efficiency", "tolerances"},
    "entropy": {"protocol", "u", "v", "resource_kind", "tolerances"},
}

_REQUIRED_KEYS = {
    "teleport_basic": ("u", "v", "qubit"),
    "teleport_enhanced": ("u", "qubit"),
    "quantum_scissors": ("scissors_n", "scissors_m", "input_coefficients"),
    "facts_check": ("u",),
    "entropy": ("u", "v"),
}


@dataclass(frozen=True)
class Tolerances:
    probability: float = 1e-9
    fidelity: float = 1e-9


@dataclass(frozen=True)
class Scenario:
    protocol: str
    u: StateSpec | None = None
    v: StateSpec | None = None
    qubit: QubitAmplitudes | None = None
    scissors_n: int | None = None
    scissors_m: int | None = None
    input_coefficients: tuple | None = None
    retilde: bool = False
    resource_kind: str = "phi_minus"
    detector_efficiency: float | None = None
    tolerances: Tolerances = field(default_factory=Tolerances)


@dataclass(frozen=True)
class ScenarioCheck:
    """One tolerance assertion declared by a scenario."""

    name: str
    target: float
    actual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ResultsDocument:
    scenario: dict
    outcomes: list
    aggregates: dict
    environment: dict
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "outcomes": self.outcomes,
            "aggregates": self.aggregates,
            "environment": self.environment,
            "checks": [vars(c) for c in self.checks],
            "all_passed": self.all_passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _is_finite_number(value) -> bool:
    """A JSON number, not a boolean, that is a finite float.  ``json`` also
    parses NaN, Infinity, 1e400 (as infinity) and integers past the float
    range, which no field takes."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _parse_complex_pairs(value, path: str, errors: list) -> tuple | None:
    if not isinstance(value, list) or not value:
        errors.append((path, "expected a non-empty array of [re, im] pairs"))
        return None
    out = []
    for i, pair in enumerate(value):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(_is_finite_number(x) for x in pair)):
            errors.append((f"{path}[{i}]", "expected a [re, im] pair of finite numbers"))
            return None
        out.append(complex(pair[0], pair[1]))
    return tuple(out)


def _number(value, path: str, errors: list, integer: bool = False):
    ok = isinstance(value, int) if integer else _is_finite_number(value)
    if not ok or isinstance(value, bool):
        errors.append((path, "expected an integer" if integer else "expected a finite number"))
        return None
    return value


def _photon_number(value, path: str, errors: list):
    """An integer no larger than MAX_CUTOFF (a cutoff or a scissors level)."""
    n = _number(value, path, errors, integer=True)
    if n is not None and n > MAX_CUTOFF:
        errors.append((path, f"above MAX_CUTOFF = {MAX_CUTOFF}"))
        return None
    return n


def _parse_state_spec(obj, path: str, errors: list) -> StateSpec | None:
    local: list[tuple[str, str]] = []
    try:
        if not isinstance(obj, dict):
            local.append((path, "expected an object"))
            return None
        for key in sorted(set(obj) - _STATE_KEYS):
            local.append((f"{path}.{key}", "unknown field"))
        kind = obj.get("kind")
        if kind not in ("coherent", "squeezed_vacuum", "number", "explicit"):
            local.append((f"{path}.kind",
                          f"expected one of coherent, squeezed_vacuum, number, explicit; got {kind!r}"))
            return None
        if "cutoff" not in obj:
            local.append((f"{path}.cutoff", "required field is missing"))
            return None
        cutoff = _photon_number(obj["cutoff"], f"{path}.cutoff", local)
        tail = _number(obj.get("tail_tolerance", 1e-12), f"{path}.tail_tolerance", local)

        required = {"coherent": ("alpha_re",), "squeezed_vacuum": ("r",),
                    "number": ("n",), "explicit": ("coefficients",)}[kind]
        allowed = {"coherent": {"alpha_re", "alpha_im"}, "squeezed_vacuum": {"r"},
                   "number": {"n"}, "explicit": {"coefficients"}}[kind]
        present = set(obj) & {"alpha_re", "alpha_im", "r", "n", "coefficients"}
        for key in required:
            if key not in obj:
                local.append((f"{path}.{key}", f"required for kind {kind!r}"))
        for key in sorted(present - allowed):
            local.append((f"{path}.{key}", f"not a parameter of kind {kind!r}"))
        if local:
            return None

        kwargs = {}
        if kind == "coherent":
            re = _number(obj["alpha_re"], f"{path}.alpha_re", local)
            im = _number(obj.get("alpha_im", 0.0), f"{path}.alpha_im", local)
            if local:
                return None
            kwargs["alpha"] = complex(re, im)
        elif kind == "squeezed_vacuum":
            r = _number(obj["r"], f"{path}.r", local)
            if local:
                return None
            kwargs["r"] = float(r)
        elif kind == "number":
            n = _number(obj["n"], f"{path}.n", local, integer=True)
            if local:
                return None
            kwargs["n"] = n
        else:
            coeffs = _parse_complex_pairs(obj["coefficients"], f"{path}.coefficients", local)
            if local:
                return None
            kwargs["coefficients"] = coeffs
        try:
            return StateSpec(kind=kind, cutoff=cutoff, tail_tolerance=float(tail), **kwargs)
        except ValueError as exc:
            local.append((path, str(exc)))
            return None
    finally:
        errors.extend(local)


def state_spec_to_wire(spec: StateSpec) -> dict:
    out = {"kind": spec.kind, "cutoff": spec.cutoff, "tail_tolerance": spec.tail_tolerance}
    if spec.kind == "coherent":
        out["alpha_re"] = spec.alpha.real
        out["alpha_im"] = spec.alpha.imag
    elif spec.kind == "squeezed_vacuum":
        out["r"] = spec.r
    elif spec.kind == "number":
        out["n"] = spec.n
    else:
        out["coefficients"] = [[c.real, c.imag] for c in spec.coefficients]
    return out


def scenario_to_wire(s: Scenario) -> dict:
    out: dict = {"protocol": s.protocol}
    if s.u is not None:
        out["u"] = state_spec_to_wire(s.u)
    if s.v is not None:
        out["v"] = state_spec_to_wire(s.v)
    if s.qubit is not None:
        out["qubit"] = [s.qubit.eps_plus.real, s.qubit.eps_plus.imag,
                        s.qubit.eps_minus.real, s.qubit.eps_minus.imag]
    if s.scissors_n is not None:
        out["scissors_n"] = s.scissors_n
        out["scissors_m"] = s.scissors_m
        out["input_coefficients"] = [[c.real, c.imag] for c in s.input_coefficients]
    if s.protocol in ("teleport_basic", "teleport_enhanced"):
        out["retilde"] = s.retilde
    if s.protocol == "entropy":
        out["resource_kind"] = s.resource_kind
    if s.detector_efficiency is not None:
        out["detector_efficiency"] = s.detector_efficiency
    out["tolerances"] = {"probability": s.tolerances.probability,
                         "fidelity": s.tolerances.fidelity}
    return out


def validate_scenario(document: dict) -> Scenario:
    """Check a parsed scenario document and build the typed Scenario.

    Structural problems (missing/unknown/bad-type fields) raise SchemaError
    carrying every offending field path; range problems (efficiency above 1,
    equal scissors photon numbers, a non-normalized qubit) raise ValueError.
    Nothing is executed until validation has fully passed.
    """
    if not isinstance(document, dict):
        raise SchemaError("$", "scenario must be a JSON object")
    errors: list[tuple[str, str]] = []
    protocol = document.get("protocol")
    if protocol not in PROTOCOLS:
        raise SchemaError("protocol", f"expected one of {', '.join(PROTOCOLS)}; got {protocol!r}")

    allowed = _ALLOWED_KEYS[protocol]
    for key in sorted(set(document) - allowed):
        errors.append((key, f"not a field of protocol {protocol!r}"))
    for key in _REQUIRED_KEYS[protocol]:
        if key not in document:
            errors.append((key, "required field is missing"))
    if errors:
        raise _schema_error(errors)

    u = v = None
    if "u" in document:
        u = _parse_state_spec(document["u"], "u", errors)
    if "v" in document:
        v = _parse_state_spec(document["v"], "v", errors)

    qubit = None
    if "qubit" in document:
        arr = document["qubit"]
        if not isinstance(arr, list) or len(arr) != 4 or not all(_is_finite_number(x) for x in arr):
            errors.append(("qubit", "expected [re+, im+, re-, im-], four finite numbers"))

    scissors_n = scissors_m = None
    input_coefficients = None
    if protocol == "quantum_scissors":
        scissors_n = _photon_number(document.get("scissors_n"), "scissors_n", errors)
        scissors_m = _photon_number(document.get("scissors_m"), "scissors_m", errors)
        coefficients = document.get("input_coefficients")
        if isinstance(coefficients, list) and len(coefficients) > MAX_CUTOFF + 1:
            errors.append(("input_coefficients", f"more than MAX_CUTOFF + 1 = {MAX_CUTOFF + 1} pairs"))
        else:
            input_coefficients = _parse_complex_pairs(coefficients, "input_coefficients", errors)

    retilde = document.get("retilde", False)
    if not isinstance(retilde, bool):
        errors.append(("retilde", "expected a boolean"))
    resource_kind = document.get("resource_kind", "phi_minus")
    if resource_kind not in ("psi_minus", "phi_minus"):
        errors.append(("resource_kind", "expected psi_minus or phi_minus"))

    efficiency = document.get("detector_efficiency")
    if efficiency is not None:
        efficiency = _number(efficiency, "detector_efficiency", errors)

    tolerances = Tolerances()
    if "tolerances" in document:
        tobj = document["tolerances"]
        if not isinstance(tobj, dict) or set(tobj) - {"probability", "fidelity"}:
            errors.append(("tolerances", "expected an object with probability and/or fidelity"))
        else:
            p = _number(tobj.get("probability", 1e-9), "tolerances.probability", errors)
            f = _number(tobj.get("fidelity", 1e-9), "tolerances.fidelity", errors)
            if p is not None and f is not None:
                tolerances = Tolerances(probability=float(p), fidelity=float(f))

    if errors:
        raise _schema_error(errors)

    # range checks (structure is sound from here on)
    if efficiency is not None and not (0.0 <= efficiency <= 1.0):
        raise ValueError(f"detector_efficiency: {efficiency} outside [0, 1]")
    if protocol == "quantum_scissors":
        if scissors_n == scissors_m:
            raise ValueError(
                f"scissors_n, scissors_m: kept photon numbers must differ (both {scissors_n})")
        if scissors_n < 0 or scissors_m < 0:
            raise ValueError("scissors_n, scissors_m: must be non-negative")
    if "qubit" in document:
        arr = document["qubit"]
        qubit = QubitAmplitudes(complex(arr[0], arr[1]), complex(arr[2], arr[3]))
    if tolerances.probability <= 0 or tolerances.fidelity <= 0:
        raise ValueError("tolerances: must be positive")

    return Scenario(
        protocol=protocol,
        u=u,
        v=v,
        qubit=qubit,
        scissors_n=scissors_n,
        scissors_m=scissors_m,
        input_coefficients=input_coefficients,
        retilde=retilde,
        resource_kind=resource_kind,
        detector_efficiency=None if efficiency is None else float(efficiency),
        tolerances=tolerances,
    )


def _schema_error(errors: list[tuple[str, str]]) -> SchemaError:
    return SchemaError(errors[0][0], errors[0][1], errors=errors)


def parse_scenario_text(text: str) -> Scenario:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"not valid JSON: {exc}") from exc
    return validate_scenario(document)


def _row(counts, probability, classification, fidelity=None, correction_phase=None) -> dict:
    return {"counts": list(counts), "probability": probability, "classification": classification,
            "fidelity": fidelity, "correction_phase": correction_phase}


def _outcome_rows(report: ProtocolReport) -> list:
    return [_row(o.counts, o.probability, o.classification, o.fidelity_to_target,
                 o.correction_phase) for o in report.outcomes]


def _environment(audits: dict) -> dict:
    return {"version": __version__, "states": audits}


def _marginal(rows: list, index: int) -> CountDistribution:
    probs: dict[int, float] = {}
    for row in rows:
        n = row["counts"][index]
        probs[n] = probs.get(n, 0.0) + row["probability"]
    return CountDistribution(probs)


def _detector_aggregates(rows: list, efficiency: float) -> dict:
    det = DetectorModel(efficiency)
    out: dict = {"efficiency": efficiency}
    for index, label in ((0, "mode_a"), (1, "mode_b")):
        ideal = _marginal(rows, index)
        lossy = thinned_distribution(ideal, det)
        out[label] = {
            "odd_parity_ideal": ideal.odd_probability(),
            "odd_parity_lossy": lossy.odd_probability(),
            "count_tvd": total_variation_distance(ideal, lossy),
        }
    return out


def _heralded_results(s: Scenario) -> ResultsDocument:
    if s.protocol == "teleport_basic":
        report = teleport_basic(s.qubit, s.u, s.v, retilde=s.retilde)
        nominal = 0.25
    elif s.protocol == "teleport_enhanced":
        report = teleport_enhanced(s.qubit, s.u, retilde=s.retilde)
        nominal = 0.5
    else:
        state = build_state(explicit_spec(s.input_coefficients))
        report = quantum_scissors(state, s.scissors_n, s.scissors_m)
        kept = 0.0
        for n in (s.scissors_n, s.scissors_m):
            if n <= state.cutoff:
                kept += float(abs(state.amplitudes[n]) ** 2)
        nominal = kept / 2.0
    rows = _outcome_rows(report)
    checks = [
        _check("success_probability", nominal, report.success_probability,
               s.tolerances.probability),
        _check_at_least("min_success_fidelity", 1.0, report.min_success_fidelity(),
                        s.tolerances.fidelity),
    ]
    aggregates = {
        "success_probability": report.success_probability,
        "mean_conditional_fidelity": report.mean_conditional_fidelity,
    }
    if s.detector_efficiency is not None:
        aggregates["detector"] = _detector_aggregates(rows, s.detector_efficiency)
    return ResultsDocument(
        scenario=scenario_to_wire(s),
        outcomes=rows,
        aggregates=aggregates,
        environment=_environment(report.state_audits),
        checks=checks,
    )


def _facts_results(s: Scenario) -> ResultsDocument:
    # each fact sends the shifted x = psi or phi through the heralded split
    # with the resource psi (x) |0>, whose receiver stays in vacuum
    psi = build_state(s.u)
    resource = tensor(psi, SingleModeState([1.0]))
    rows = [_row(r.counts, r.probability, "odd_count_a" if r.counts[0] % 2 else "even_count_a")
            for r in split_and_count(phase_shift(psi, math.pi / 2), resource)]
    p_odd_1 = sum(r["probability"] for r in rows if r["classification"] == "odd_count_a")
    aggregates: dict = {"fact1_odd_parity_mode_a": p_odd_1}
    checks = [_check("fact1_odd_parity_mode_a", 0.0, p_odd_1, s.tolerances.probability)]
    audits = {"u": {"cutoff": psi.cutoff, "tail_mass": psi.tail_mass}}
    if s.v is not None:
        phi = build_state(s.v)
        overlap = inner_product(psi, phi)
        if abs(overlap) > 1e-10:
            raise ValueError(f"v: must be orthogonal to u for the 50% check (|<u|v>| = {abs(overlap):.3e})")
        p_odd_2 = sum(r.probability
                      for r in split_and_count(phase_shift(phi, math.pi / 2), resource)
                      if r.counts[0] % 2)
        aggregates["fact2_odd_parity_mode_a"] = p_odd_2
        checks.append(_check("fact2_odd_parity_mode_a", 0.5, p_odd_2, s.tolerances.probability))
        audits["v"] = {"cutoff": phi.cutoff, "tail_mass": phi.tail_mass}
    if s.detector_efficiency is not None:
        aggregates["detector"] = _detector_aggregates(rows, s.detector_efficiency)
    return ResultsDocument(
        scenario=scenario_to_wire(s),
        outcomes=rows,
        aggregates=aggregates,
        environment=_environment(audits),
        checks=checks,
    )


def _entropy_results(s: Scenario) -> ResultsDocument:
    u = build_state(s.u)
    v = build_state(s.v)
    entropy = entanglement_entropy(resource_from_states(u, v, s.resource_kind))
    checks = [_check("entanglement_entropy", 1.0, entropy, s.tolerances.probability)]
    return ResultsDocument(
        scenario=scenario_to_wire(s),
        outcomes=[],
        aggregates={"entanglement_entropy": entropy, "resource_kind": s.resource_kind},
        environment=_environment({
            "u": {"cutoff": u.cutoff, "tail_mass": u.tail_mass},
            "v": {"cutoff": v.cutoff, "tail_mass": v.tail_mass},
        }),
        checks=checks,
    )


def _check(name: str, target: float, actual: float, tolerance: float) -> ScenarioCheck:
    # plain floats/bools only: these land in JSON documents
    target, actual = float(target), float(actual)
    return ScenarioCheck(name=name, target=target, actual=actual, tolerance=tolerance,
                         passed=bool(abs(actual - target) <= tolerance))


def _check_at_least(name: str, target: float, actual: float, tolerance: float) -> ScenarioCheck:
    target, actual = float(target), float(actual)
    passed = (not math.isnan(actual)) and actual >= target - tolerance
    return ScenarioCheck(name=name, target=target, actual=actual, tolerance=tolerance,
                         passed=bool(passed))


def run_scenario(s: Scenario) -> ResultsDocument:
    """Execute a validated scenario.  Deterministic: identical scenarios
    produce identical documents."""
    if s.protocol == "facts_check":
        return _facts_results(s)
    if s.protocol == "entropy":
        return _entropy_results(s)
    return _heralded_results(s)
