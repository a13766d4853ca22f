"""Declarative scenario files: validation, execution, and result documents.

Scenarios and results are plain JSON.  Numbers pass through Python's float
repr, which preserves 15-17 significant digits, so a run is reproducible
bit-for-bit from its results file.  A results document is laid out exactly as
``json.dumps(document, indent=2, sort_keys=True)`` lays it out; its
``outcomes`` rows, which are most of it, are written from the record columns
with one fixed template.

The schema is two tables: ``_FIELDS`` gives each protocol's required and
optional fields, ``_STATE_PARAMETERS`` each state kind's parameters.  Every
protocol's results come from one builder: a per-protocol function yields the
records as five columns in counts order, aggregates, checks and state
audits, and ``run_scenario`` adds the detector aggregates and builds the
document.  A heralded protocol's columns are its report's.  The parity facts
count ``psi`` and ``phi`` against the rank-1 resource ``psi (x) |0>`` with
the protocols' kernel (``measurement._count_factored``) and keep its arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import SchemaError
from .fock import _fields_equal, inner_product
from .measurement import (
    CountDistribution,
    DetectorModel,
    _count_factored,
    thinned_distribution,
    total_variation_distance,
)
from .optics import phase_shift
from .protocols import (
    _state_audits,
    entanglement_entropy,
    quantum_scissors,
    teleport_basic,
    teleport_enhanced,
)
from .states import (
    RESOURCE_KINDS,
    STATE_KINDS,
    QubitAmplitudes,
    StateSpec,
    build_state,
    explicit_spec,
    resource_from_states,
)

#: Each protocol's fields besides ``protocol`` and ``tolerances``, which all
#: take: the required ones, then the optional ones.  ``list-protocols`` prints
#: the protocols in this order.
_FIELDS = {
    "teleport_basic": (("u", "v", "qubit"), ("retilde", "detector_efficiency")),
    "teleport_enhanced": (("u", "qubit"), ("retilde", "detector_efficiency")),
    "quantum_scissors": (("scissors_n", "scissors_m", "input_coefficients"),
                         ("detector_efficiency",)),
    "facts_check": (("u",), ("v", "detector_efficiency")),
    "entropy": (("u", "v"), ("resource_kind",)),
}

PROTOCOLS = tuple(_FIELDS)

#: Largest photon number a scenario may name: a state's ``cutoff``,
#: ``scissors_n`` or ``scissors_m`` (and at most MAX_CUTOFF + 1
#: ``input_coefficients``).  Photon totals then stay within 2 * MAX_CUTOFF
#: and both band caps of the store in ``optics`` within MAX_CUTOFF, so the
#: beamsplitter bands, rows 0..ceil(N/2) of each in zero-padded groups of
#: G = 8 totals, take at most 8 (2c^3 + 51c^2 + 292c + 4) / 4 bytes at
#: c = MAX_CUTOFF, about 260 MiB (247 MiB of bands and 13 MiB of padding).
#: A protocol report holds O(records * r) numbers, r = 2 coordinates per
#: record, not O(records * cutoff): with at most (2c + 1)(c + 1) records
#: (totals to 2c), its coordinates take at most about 10 MiB at c = MAX_CUTOFF.
MAX_CUTOFF = 400

#: Each state kind's parameter, then its optional ones: a coherent state's
#: alpha is ``alpha_re`` and ``alpha_im``, which defaults to 0.
_STATE_PARAMETERS = {
    "coherent": ("alpha_re", "alpha_im"),
    "squeezed_vacuum": ("r",),
    "number": ("n",),
    "explicit": ("coefficients",),
}

_PARAMETER_KEYS = set().union(*_STATE_PARAMETERS.values())


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
    """A run's results, its records as read-only columns in counts order:
    ``counts`` (na, nb), ``probabilities``, ``classifications``,
    ``fidelities`` and ``corrections``, the last two NaN where none is
    defined, which is written ``null``.  ``outcomes``, the rows as dicts, is
    built on first read, which ``to_dict`` does and ``to_json`` does not."""

    scenario: dict
    counts: np.ndarray
    probabilities: np.ndarray
    classifications: np.ndarray
    fidelities: np.ndarray
    corrections: np.ndarray
    aggregates: dict
    environment: dict
    checks: list

    __eq__ = _fields_equal

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @cached_property
    def outcomes(self) -> list:
        fidelities, phases = ([None if x != x else x for x in column.tolist()]
                              for column in (self.fidelities, self.corrections))
        keys = ("counts", "probability", "classification", "fidelity", "correction_phase")
        return [dict(zip(keys, row)) for row in zip(
            self.counts.tolist(), self.probabilities.tolist(), self.classifications.tolist(),
            fidelities, phases)]

    def to_dict(self) -> dict:
        return self._document(self.outcomes)

    def _document(self, outcomes: list) -> dict:
        return {
            "scenario": self.scenario,
            "outcomes": outcomes,
            "aggregates": self.aggregates,
            "environment": self.environment,
            "checks": [vars(c) for c in self.checks],
            "all_passed": self.all_passed,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\\n"``,
        byte for byte: the stdlib lays out all but the outcomes, whose rows
        are written from the columns in place of the empty list."""
        text = json.dumps(self._document([]), indent=2, sort_keys=True) + "\n"
        if not self.probabilities.size:
            return text
        rows = ",\n".join(map(_ROW_TEMPLATE.__mod__, zip(
            map(encode_basestring_ascii, self.classifications.tolist()),
            _json_floats(self.corrections, "null"), self.counts[:, 0].tolist(),
            self.counts[:, 1].tolist(), _json_floats(self.fidelities, "null"),
            _json_floats(self.probabilities, "NaN"))))
        # "outcomes" is a top-level key, the only one indented by two spaces,
        # and "scenario" follows it
        return text.replace('\n  "outcomes": [],\n', f'\n  "outcomes": [\n{rows}\n  ],\n', 1)


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
        for key in sorted(set(obj) - _PARAMETER_KEYS - {"kind", "cutoff", "tail_tolerance"}):
            local.append((f"{path}.{key}", "unknown field"))
        kind = obj.get("kind")
        if kind not in STATE_KINDS:  # a tuple: an unhashable kind is just not in it
            local.append((f"{path}.kind", f"expected one of {', '.join(STATE_KINDS)}; got {kind!r}"))
            return None
        if "cutoff" not in obj:
            local.append((f"{path}.cutoff", "required field is missing"))
            return None
        cutoff = _photon_number(obj["cutoff"], f"{path}.cutoff", local)
        tail = _number(obj.get("tail_tolerance", 1e-12), f"{path}.tail_tolerance", local)

        parameters = _STATE_PARAMETERS[kind]
        if parameters[0] not in obj:
            local.append((f"{path}.{parameters[0]}", f"required for kind {kind!r}"))
        for key in sorted(set(obj) & _PARAMETER_KEYS - set(parameters)):
            local.append((f"{path}.{key}", f"not a parameter of kind {kind!r}"))
        if local:
            return None

        if kind == "explicit":
            values = [_parse_complex_pairs(obj["coefficients"], f"{path}.coefficients", local)]
        else:
            values = [_number(obj.get(key, 0.0), f"{path}.{key}", local, integer=kind == "number")
                      for key in parameters]
        if local:
            return None
        parameter = {"alpha": complex(*values)} if kind == "coherent" else {parameters[0]: values[0]}
        try:
            return StateSpec(kind=kind, cutoff=cutoff, tail_tolerance=float(tail), **parameter)
        except ValueError as exc:
            local.append((path, str(exc)))
            return None
    finally:
        errors.extend(local)


def state_spec_to_wire(spec: StateSpec) -> dict:
    parameters = _STATE_PARAMETERS[spec.kind]
    if spec.kind == "coherent":
        values = (spec.alpha.real, spec.alpha.imag)
    elif spec.kind == "explicit":
        values = ([[c.real, c.imag] for c in spec.coefficients],)
    else:
        values = (getattr(spec, parameters[0]),)
    return {"kind": spec.kind, "cutoff": spec.cutoff, "tail_tolerance": spec.tail_tolerance,
            **dict(zip(parameters, values))}


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
    optional = _FIELDS[s.protocol][1]
    if "retilde" in optional:
        out["retilde"] = s.retilde
    if "resource_kind" in optional:
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
    if protocol not in PROTOCOLS:  # a tuple, like STATE_KINDS below
        raise SchemaError("protocol", f"expected one of {', '.join(PROTOCOLS)}; got {protocol!r}")

    required, optional = _FIELDS[protocol]
    for key in sorted(set(document) - {"protocol", "tolerances", *required, *optional}):
        errors.append((key, f"not a field of protocol {protocol!r}"))
    for key in required:
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
    if resource_kind not in RESOURCE_KINDS:
        errors.append(("resource_kind", f"expected {' or '.join(RESOURCE_KINDS)}"))

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
    except RecursionError as exc:
        raise SchemaError("$", "not valid JSON: nested too deeply to parse") from exc
    return validate_scenario(document)


# one record's row at depth 2 of an indent=2 document, keys sorted
_ROW_TEMPLATE = (
    '    {\n'
    '      "classification": %s,\n'
    '      "correction_phase": %s,\n'
    '      "counts": [\n'
    '        %d,\n'
    '        %d\n'
    '      ],\n'
    '      "fidelity": %s,\n'
    '      "probability": %s\n'
    '    }'
)


def _json_floats(column: np.ndarray, nan: str) -> list:
    """The floats of ``column`` as ``json`` writes them, but NaN as ``nan``
    (x - x is 0.0 exactly when x is finite)."""
    return [float.__repr__(x) if x - x == 0.0 else nan if x != x
            else "Infinity" if x > 0 else "-Infinity" for x in column.tolist()]


def _detector_aggregates(counts: np.ndarray, probabilities: np.ndarray, efficiency: float) -> dict:
    det = DetectorModel(efficiency)
    out: dict = {"efficiency": efficiency}
    for index, label in ((0, "mode_a"), (1, "mode_b")):
        # each count's probabilities added in row order, counts ascending
        weights = np.bincount(counts[:, index], weights=probabilities)
        ideal = CountDistribution(dict(enumerate(weights.tolist())))
        lossy = thinned_distribution(ideal, det)
        out[label] = {
            "odd_parity_ideal": ideal.odd_probability(),
            "odd_parity_lossy": lossy.odd_probability(),
            "count_tvd": total_variation_distance(ideal, lossy),
        }
    return out


def _heralded_results(s: Scenario) -> tuple:
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
    columns = (report.counts, report.probabilities, report.classifications, report.fidelities,
               report.corrections)
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
    return columns, aggregates, checks, report.state_audits


def _parity_columns(sent, psi) -> tuple:
    """Every record of ``sent`` split against the resource psi (x) |0>, whose
    receiver stays in vacuum, as columns in counts order, and the
    probability of an odd count in A."""
    counts, probabilities, _ = _count_factored(sent, psi.amplitudes[:, None], np.ones((1, 1)))
    odd_a = counts[:, 0] % 2 == 1
    none = np.full(len(probabilities), np.nan)
    columns = (counts, probabilities, np.where(odd_a, "odd_count_a", "even_count_a"), none, none)
    # the integer 0 where no count is odd, as the records' sum has always given
    return columns, sum(probabilities[odd_a].tolist())


def _facts_results(s: Scenario) -> tuple:
    # each fact sends the shifted x = psi or phi through the heralded split
    psi = build_state(s.u)
    states = {"u": psi}
    if s.v is not None:
        phi = build_state(s.v)
        overlap = inner_product(psi, phi)
        if abs(overlap) > 1e-10:
            raise ValueError(f"v: must be orthogonal to u for the 50% check (|<u|v>| = {abs(overlap):.3e})")
        states["v"] = phi
    columns, p_odd_1 = _parity_columns(phase_shift(psi, math.pi / 2), psi)
    aggregates: dict = {"fact1_odd_parity_mode_a": p_odd_1}
    checks = [_check("fact1_odd_parity_mode_a", 0.0, p_odd_1, s.tolerances.probability)]
    if s.v is not None:
        _, p_odd_2 = _parity_columns(phase_shift(phi, math.pi / 2), psi)
        aggregates["fact2_odd_parity_mode_a"] = p_odd_2
        checks.append(_check("fact2_odd_parity_mode_a", 0.5, p_odd_2, s.tolerances.probability))
    return columns, aggregates, checks, _state_audits(states)


def _entropy_results(s: Scenario) -> tuple:
    u, v = build_state(s.u), build_state(s.v)
    entropy = entanglement_entropy(resource_from_states(u, v, s.resource_kind))
    checks = [_check("entanglement_entropy", 1.0, entropy, s.tolerances.probability)]
    aggregates = {"entanglement_entropy": entropy, "resource_kind": s.resource_kind}
    empty = np.empty(0)
    columns = (np.empty((0, 2), dtype=np.intp), empty, np.empty(0, dtype=str), empty, empty)
    return columns, aggregates, checks, _state_audits({"u": u, "v": v})


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
    results = {"facts_check": _facts_results, "entropy": _entropy_results}.get(
        s.protocol, _heralded_results)
    columns, aggregates, checks, audits = results(s)
    for column in columns:
        column.flags.writeable = False
    if s.detector_efficiency is not None:
        aggregates["detector"] = _detector_aggregates(*columns[:2], s.detector_efficiency)
    return ResultsDocument(scenario_to_wire(s), *columns, aggregates,
                           {"version": __version__, "states": audits}, checks)
