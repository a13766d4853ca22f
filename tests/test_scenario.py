import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritysim import (
    SchemaError,
    beamsplitter_5050,
    build_state,
    parse_scenario_text,
    phase_shift,
    run_scenario,
    scenario_to_wire,
    tensor,
    validate_scenario,
)
from paritysim import cli, protocols
from paritysim.cli import main
from paritysim.measurement import (
    OUTCOME_FLOOR,
    CountDistribution,
    DetectorModel,
    thinned_distribution,
    total_variation_distance,
)
from paritysim.scenario import MAX_CUTOFF, ResultsDocument

DEMO_SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


ENHANCED_DOC = {
    "protocol": "teleport_enhanced",
    "u": {"kind": "coherent", "alpha_re": 1.0, "alpha_im": 0.0, "cutoff": 25,
          "tail_tolerance": 1e-12},
    "qubit": [0.6, 0.0, 0.0, 0.8],
    "retilde": False,
    "tolerances": {"probability": 1e-9, "fidelity": 1e-9},
}

BASIC_DOC = {
    "protocol": "teleport_basic",
    "u": {"kind": "number", "n": 0, "cutoff": 1},
    "v": {"kind": "number", "n": 1, "cutoff": 1},
    "qubit": [1.0, 0.0, 0.0, 0.0],
    "tolerances": {"probability": 1e-12, "fidelity": 1e-12},
}

SCISSORS_DOC = {
    "protocol": "quantum_scissors",
    "scissors_n": 0,
    "scissors_m": 2,
    "input_coefficients": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
    "tolerances": {"probability": 1e-12, "fidelity": 1e-12},
}

FACTS_DOC = {
    "protocol": "facts_check",
    "u": {"kind": "squeezed_vacuum", "r": 0.3, "cutoff": 24},
    "tolerances": {"probability": 1e-12, "fidelity": 1e-9},
}

ENTROPY_DOC = {
    "protocol": "entropy",
    "u": {"kind": "number", "n": 0, "cutoff": 1},
    "v": {"kind": "number", "n": 1, "cutoff": 1},
    "resource_kind": "phi_minus",
}


class TestValidation:
    def test_minimal_valid_documents(self):
        for doc in (ENHANCED_DOC, BASIC_DOC, SCISSORS_DOC, FACTS_DOC, ENTROPY_DOC):
            scenario = validate_scenario(doc)
            assert scenario.protocol == doc["protocol"]

    def test_equal_scissors_levels_name_both_fields(self):
        doc = dict(SCISSORS_DOC, scissors_m=0)
        with pytest.raises(ValueError, match="scissors_n, scissors_m"):
            validate_scenario(doc)

    def test_efficiency_out_of_range(self):
        doc = dict(ENHANCED_DOC, detector_efficiency=1.2)
        with pytest.raises(ValueError, match="detector_efficiency"):
            validate_scenario(doc)

    def test_unknown_field_is_schema_error(self):
        doc = dict(ENHANCED_DOC, shiny=True)
        with pytest.raises(SchemaError) as info:
            validate_scenario(doc)
        assert any(path == "shiny" for path, _ in info.value.errors)

    def test_missing_required_field(self):
        doc = {k: v for k, v in BASIC_DOC.items() if k != "v"}
        with pytest.raises(SchemaError) as info:
            validate_scenario(doc)
        assert info.value.path == "v"

    def test_multiple_errors_collected(self):
        doc = {
            "protocol": "teleport_basic",
            "u": {"kind": "coherent", "cutoff": 10},  # alpha_re missing
            "v": {"kind": "number", "cutoff": 5},     # n missing
            "qubit": [1.0, 0.0],                      # wrong arity
        }
        with pytest.raises(SchemaError) as info:
            validate_scenario(doc)
        paths = {path for path, _ in info.value.errors}
        assert {"u.alpha_re", "v.n", "qubit"} <= paths

    def test_bad_qubit_norm(self):
        doc = dict(BASIC_DOC, qubit=[1.0, 0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="normalized"):
            validate_scenario(doc)

    def test_wrong_parameter_for_kind(self):
        doc = dict(ENHANCED_DOC, u={"kind": "coherent", "alpha_re": 1.0, "r": 0.3, "cutoff": 20})
        with pytest.raises(SchemaError) as info:
            validate_scenario(doc)
        assert any(path == "u.r" for path, _ in info.value.errors)

    def test_round_trip(self):
        for doc in (ENHANCED_DOC, BASIC_DOC, SCISSORS_DOC, FACTS_DOC, ENTROPY_DOC):
            scenario = validate_scenario(doc)
            again = validate_scenario(json.loads(json.dumps(scenario_to_wire(scenario))))
            assert again == scenario


class TestRunScenario:
    def test_enhanced_coherent(self):
        results = run_scenario(validate_scenario(ENHANCED_DOC))
        assert results.all_passed
        assert results.aggregates["success_probability"] == pytest.approx(0.5, abs=1e-9)
        assert sum(o["probability"] for o in results.outcomes) == pytest.approx(1.0, abs=1e-9)
        assert results.environment["states"]["u"]["tail_mass"] < 1e-12

    def test_facts_squeezed(self):
        results = run_scenario(validate_scenario(FACTS_DOC))
        assert results.all_passed
        assert results.aggregates["fact1_odd_parity_mode_a"] <= 1e-12

    def test_facts_with_orthogonal_pair(self):
        doc = dict(FACTS_DOC, u={"kind": "number", "n": 0, "cutoff": 2},
                   v={"kind": "number", "n": 1, "cutoff": 2})
        results = run_scenario(validate_scenario(doc))
        assert results.all_passed
        assert results.aggregates["fact2_odd_parity_mode_a"] == pytest.approx(0.5, abs=1e-12)

    def test_facts_rejects_non_orthogonal_pair(self):
        doc = dict(FACTS_DOC, v={"kind": "squeezed_vacuum", "r": 0.3, "cutoff": 24})
        with pytest.raises(ValueError, match="orthogonal"):
            run_scenario(validate_scenario(doc))

    def test_entropy_single_photon_pair(self):
        results = run_scenario(validate_scenario(ENTROPY_DOC))
        assert results.all_passed
        assert results.aggregates["entanglement_entropy"] == pytest.approx(1.0, abs=1e-12)

    def test_scissors(self):
        results = run_scenario(validate_scenario(SCISSORS_DOC))
        assert results.all_passed
        assert results.aggregates["success_probability"] == pytest.approx(0.25, abs=1e-12)

    def test_parity_fields_are_floats_where_no_count_is_odd(self):
        # a facts run never has an odd count in A, and neither does its
        # detector's mode A: each of those sums over no record is 0.0
        doc = json.loads((DEMO_SCENARIOS / "lossy_facts_coherent.json").read_text())
        fields = run_scenario(validate_scenario(doc)).to_dict()["aggregates"]
        mode_a = fields["detector"]["mode_a"]
        for value in (fields["fact1_odd_parity_mode_a"], mode_a["odd_parity_ideal"],
                      mode_a["odd_parity_lossy"]):
            assert type(value) is float and value == 0.0

    def test_detector_block(self):
        doc = dict(ENHANCED_DOC, detector_efficiency=0.85)
        results = run_scenario(validate_scenario(doc))
        detector = results.aggregates["detector"]
        assert detector["efficiency"] == 0.85
        assert detector["mode_a"]["odd_parity_ideal"] == pytest.approx(0.25, abs=1e-9)
        assert detector["mode_a"]["count_tvd"] > 0
        assert abs(detector["mode_a"]["odd_parity_lossy"] - 0.25) < 0.05  # mild thinning shift

    def test_deterministic(self):
        a = run_scenario(validate_scenario(ENHANCED_DOC))
        b = run_scenario(validate_scenario(ENHANCED_DOC))
        assert a == b and a.to_json() == b.to_json()
        assert a != run_scenario(validate_scenario(dict(ENHANCED_DOC, retilde=True)))

    def test_failing_tolerance_reported(self):
        doc = dict(ENHANCED_DOC, tolerances={"probability": 1e-18, "fidelity": 1e-9})
        results = run_scenario(validate_scenario(doc))
        assert not results.all_passed
        failing = [c for c in results.checks if not c.passed]
        assert failing and failing[0].name == "success_probability"


def recorded(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` by a wrapper that keeps each value it returns,
    and return the list they are kept in."""
    values = []
    call = getattr(module, name)

    def recording(*args):
        values.append(call(*args))
        return values[-1]

    monkeypatch.setattr(module, name, recording)
    return values


class TestReceiversOnDemand:
    """A heralded run scores its fidelities without keeping receiver vectors,
    and neither the results builder nor ``paritysim run`` reads them; a
    results document writes its rows without building their dicts."""

    @pytest.mark.parametrize("doc", [ENHANCED_DOC, BASIC_DOC, SCISSORS_DOC, FACTS_DOC],
                             ids=["enhanced", "basic", "scissors", "facts"])
    def test_runs_build_no_receivers(self, doc, tmp_path, monkeypatch):
        reports = recorded(monkeypatch, protocols, "_run_heralded")
        documents = recorded(monkeypatch, cli, "run_scenario")
        results = run_scenario(validate_scenario(doc))
        assert results.all_passed and results.to_json()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out.json"),
                     "--quiet"]) == 0
        assert len(reports) == (0 if doc is FACTS_DOC else 2) and len(documents) == 1
        for report in reports:
            assert "receivers" not in report.__dict__ and "outcomes" not in report.__dict__
        for document in (results, *documents):
            assert "outcomes" not in document.__dict__


class TestDocumentsAreReportColumns:
    """A heralded document holds its report's columns, not copies, and
    writes each row from them bit for bit, a NaN correction as null."""

    @pytest.mark.parametrize("doc", [ENHANCED_DOC, BASIC_DOC, SCISSORS_DOC,
                                     dict(ENHANCED_DOC, retilde=True, detector_efficiency=0.6)],
                             ids=["enhanced", "basic", "scissors", "enhanced_retilde_lossy"])
    def test_rows_are_the_report_columns(self, doc, monkeypatch):
        reports = recorded(monkeypatch, protocols, "_run_heralded")
        results = run_scenario(validate_scenario(doc))
        (report,) = reports
        for name in ("counts", "probabilities", "classifications", "fidelities", "corrections"):
            assert getattr(results, name) is getattr(report, name)
        rows = json.loads(results.to_json())["outcomes"]
        assert [row["counts"] for row in rows] == report.counts.tolist()
        assert [row["classification"] for row in rows] == report.classifications.tolist()
        for key, column in (("probability", report.probabilities),
                            ("fidelity", report.fidelities),
                            ("correction_phase", report.corrections)):
            written = [row[key] for row in rows]
            defined = ~np.isnan(column)
            assert [value is not None for value in written] == defined.tolist()
            kept = np.array([value for value in written if value is not None], dtype=float)
            assert kept.tobytes() == column[defined].tobytes()
        assert np.isnan(report.corrections).any()  # some rows are written null
        assert results.outcomes == rows


def dict_loop_detector(rows: list, efficiency: float) -> dict:
    """The detector block as the row-dict results builder made it, kept as
    the reference for the columns' bincount: each mode's marginal summed in
    a dict loop over the rows, its counts in order of first appearance."""
    det = DetectorModel(efficiency)
    out: dict = {"efficiency": efficiency}
    for index, label in ((0, "mode_a"), (1, "mode_b")):
        probs: dict[int, float] = {}
        for row in rows:
            n = row["counts"][index]
            probs[n] = probs.get(n, 0.0) + row["probability"]
        ideal = CountDistribution(probs)
        lossy = thinned_distribution(ideal, det)
        out[label] = {
            "odd_parity_ideal": ideal.odd_probability(),
            "odd_parity_lossy": lossy.odd_probability(),
            "count_tvd": total_variation_distance(ideal, lossy),
        }
    return out


def _coherent_wire(magnitude: float, phase: float, cutoff: int = 40) -> dict:
    alpha = magnitude * complex(math.cos(phase), math.sin(phase))
    return {"kind": "coherent", "alpha_re": alpha.real, "alpha_im": alpha.imag, "cutoff": cutoff}


@st.composite
def lossy_scenarios(draw):
    """A lossy facts_check on a coherent or squeezed state, or a lossy
    teleport_enhanced (coherent) or teleport_basic (squeezed pair) run."""
    efficiency = draw(st.floats(0.0, 1.0))
    phase = draw(st.floats(0.0, 2 * math.pi))
    qubit = [math.cos(phase), 0.0, 0.0, math.sin(phase)]
    r = draw(st.floats(0.05, 0.5)) * draw(st.sampled_from((1.0, -1.0)))
    squeezed = {"kind": "squeezed_vacuum", "r": r, "cutoff": 40}
    kind = draw(st.sampled_from(("facts_coherent", "facts_squeezed", "enhanced", "basic")))
    if kind == "facts_coherent":
        doc = {"protocol": "facts_check", "u": _coherent_wire(draw(st.floats(0.0, 2.5)), phase)}
    elif kind == "facts_squeezed":
        doc = {"protocol": "facts_check", "u": squeezed}
    elif kind == "enhanced":
        doc = {"protocol": "teleport_enhanced", "qubit": qubit,
               "u": _coherent_wire(draw(st.floats(0.5, 2.5)), draw(st.floats(0.0, 2 * math.pi))),
               "retilde": draw(st.booleans())}
    else:
        doc = {"protocol": "teleport_basic", "qubit": qubit, "u": squeezed,
               "v": dict(squeezed, r=-r), "retilde": draw(st.booleans())}
    return dict(doc, detector_efficiency=efficiency)


@settings(max_examples=60, deadline=None)
@given(doc=lossy_scenarios())
def test_detector_block_is_the_dict_loop_marginals(doc):
    # bit for bit, a 0.0 where no count of a mode is odd included
    results = run_scenario(validate_scenario(doc))
    expected = dict_loop_detector(results.outcomes, doc["detector_efficiency"])
    assert repr(results.aggregates["detector"]) == repr(expected)


class TestCli:
    def write(self, tmp_path, doc, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_success_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        code = main(["run", "--scenario", self.write(tmp_path, BASIC_DOC), "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["all_passed"] is True
        assert document["aggregates"]["success_probability"] == pytest.approx(0.25, abs=1e-12)
        summary = capsys.readouterr().out
        assert "teleport_basic" in summary and summary.count("\n") == 1

    def test_run_scissors_serializes(self, tmp_path):
        # regression: numpy scalars leaking into the results document broke
        # JSON serialization on this path
        out = tmp_path / "results.json"
        code = main(["run", "--scenario", self.write(tmp_path, SCISSORS_DOC),
                     "--out", str(out), "--quiet"])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["all_passed"] is True
        assert document["aggregates"]["success_probability"] == pytest.approx(0.25, abs=1e-12)

    def test_run_quiet(self, tmp_path, capsys):
        code = main(["run", "--scenario", self.write(tmp_path, BASIC_DOC), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_run_reproducible_bytes(self, tmp_path):
        scenario = self.write(tmp_path, ENHANCED_DOC)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--scenario", scenario, "--out", str(out1), "--quiet"]) == 0
        assert main(["run", "--scenario", scenario, "--out", str(out2), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_results_document_mode_follows_the_umask(self, tmp_path, monkeypatch, umask, mode):
        # as a plain write would create it, also over an existing document,
        # and without setting the umask, which every thread shares: a file
        # another thread created while it was 0 would get no mask
        def refuse(_mask):
            raise AssertionError("the umask is set while writing a results document")

        def fail(*_paths):
            raise OSError("no space left on the device")

        scenario = self.write(tmp_path, SCISSORS_DOC)
        out = tmp_path / "results.json"
        out.write_text("")
        out.chmod(0o600 if mode == 0o644 else 0o644)
        old = os.umask(umask)
        try:
            with monkeypatch.context() as patched:
                patched.setattr(os, "umask", refuse)
                assert main(["run", "--scenario", scenario, "--out", str(out), "--quiet"]) == 0
                # a write that fails leaves the document as it was and no temporary file
                patched.setattr(os, "replace", fail)
                with pytest.raises(OSError, match="no space left"):
                    cli._write_atomic(out, "{}\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert json.loads(out.read_text())["all_passed"] is True
        assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_assertion_failure_exit_one(self, tmp_path):
        doc = dict(ENHANCED_DOC, tolerances={"probability": 1e-18, "fidelity": 1e-9})
        code = main(["run", "--scenario", self.write(tmp_path, doc), "--quiet"])
        assert code == 1

    def test_schema_error_exit_two(self, tmp_path, capsys):
        doc = dict(ENHANCED_DOC, bogus=1)
        code = main(["run", "--scenario", self.write(tmp_path, doc), "--quiet"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_value_error_exit_two(self, tmp_path):
        doc = dict(SCISSORS_DOC, scissors_m=0)
        assert main(["validate", "--scenario", self.write(tmp_path, doc)]) == 2

    def test_module_error_exit_three(self, tmp_path, capsys):
        # vacuum input: the enhanced protocol's derived pair is degenerate
        doc = dict(ENHANCED_DOC)
        doc["u"] = {"kind": "coherent", "alpha_re": 0.0, "cutoff": 5}
        out = tmp_path / "results.json"
        code = main(["run", "--scenario", self.write(tmp_path, doc), "--out", str(out), "--quiet"])
        assert code == 3
        document = json.loads(out.read_text())
        assert document["error"]["type"] == "DegenerateSuperposition"

    def test_runtime_value_error_exit_three(self, tmp_path):
        # structurally valid, but the states fail the orthogonality
        # requirement once built
        doc = dict(FACTS_DOC, v={"kind": "squeezed_vacuum", "r": 0.3, "cutoff": 24})
        out = tmp_path / "results.json"
        code = main(["run", "--scenario", self.write(tmp_path, doc), "--out", str(out), "--quiet"])
        assert code == 3
        assert "error" in json.loads(out.read_text())

    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", "--scenario", self.write(tmp_path, FACTS_DOC)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_unparseable_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--scenario", str(path)]) == 2

    def test_nested_too_deeply_exit_two(self, tmp_path):
        # a raw RecursionError from the parser would be an internal error, exit 3
        text = "[" * 100000
        with pytest.raises(SchemaError) as info:
            parse_scenario_text(text)
        assert info.value.path == "$"
        path, out = tmp_path / "deep.json", tmp_path / "results.json"
        path.write_text(text)
        assert main(["validate", "--scenario", str(path)]) == 2
        assert main(["run", "--scenario", str(path), "--out", str(out), "--quiet"]) == 2
        assert not out.exists()

    def test_missing_file(self):
        assert main(["run", "--scenario", "/nonexistent/file.json", "--quiet"]) == 2

    def test_list_protocols(self, capsys):
        assert main(["list-protocols"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["teleport_basic", "teleport_enhanced", "quantum_scissors",
                       "facts_check", "entropy"]

    def test_results_have_full_precision(self, tmp_path):
        out = tmp_path / "results.json"
        main(["run", "--scenario", self.write(tmp_path, ENHANCED_DOC), "--out", str(out), "--quiet"])
        document = json.loads(out.read_text())
        value = document["aggregates"]["success_probability"]
        assert value != 0.5  # truncated coherent run: must carry full digits
        assert abs(value - 0.5) < 1e-9


class TestLargeSqueezing:
    @pytest.mark.parametrize("r", [800.0, -800.0])
    def test_run_reports_typed_truncation_error(self, tmp_path, capsys, r):
        path, out = tmp_path / "scenario.json", tmp_path / "results.json"
        path.write_text(json.dumps(dict(FACTS_DOC, u=dict(FACTS_DOC["u"], r=r))))
        assert main(["run", "--scenario", str(path), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "TruncationTooSevere" in err and "OverflowError" not in err
        assert json.loads(out.read_text())["error"]["type"] == "TruncationTooSevere"


class TestLargeCoherentAmplitude:
    # validate accepts any finite alpha; run must refuse one that no basis
    # holds with a typed error and an error document
    @pytest.mark.parametrize("doc", [FACTS_DOC, ENHANCED_DOC], ids=["facts", "enhanced"])
    @pytest.mark.parametrize("alpha_re", [1e10, 1e155])
    def test_run_reports_typed_truncation_error(self, tmp_path, capsys, doc, alpha_re):
        path, out = tmp_path / "scenario.json", tmp_path / "results.json"
        path.write_text(json.dumps(dict(doc, u={"kind": "coherent", "alpha_re": alpha_re,
                                                "cutoff": 40})))
        assert main(["validate", "--scenario", str(path)]) == 0
        assert main(["run", "--scenario", str(path), "--out", str(out), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert "TruncationTooSevere" in err and "OverflowError" not in err
        error = json.loads(out.read_text())["error"]
        assert error["type"] == "TruncationTooSevere"
        assert f"alpha = {complex(alpha_re)!r}" in error["message"]


class TestHugeExplicitCoefficients:
    # coefficients whose squares overflow normalize like unit-scale ones
    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_scissors_input(self, scale):
        unit = run_scenario(validate_scenario(dict(SCISSORS_DOC, input_coefficients=[[1.0, 0.0]] * 4)))
        doc = dict(SCISSORS_DOC, input_coefficients=[[scale, 0.0]] * 4)
        results = run_scenario(validate_scenario(doc))
        assert results.all_passed
        assert results.aggregates["success_probability"] == pytest.approx(
            unit.aggregates["success_probability"], abs=1e-15)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_facts_state(self, scale):
        doc = dict(FACTS_DOC, u={"kind": "explicit", "cutoff": 3,
                                 "coefficients": [[scale, 0.0], [0.0, 0.0], [scale, 0.0]]})
        results = run_scenario(validate_scenario(doc))
        assert results.all_passed
        assert results.aggregates["fact1_odd_parity_mode_a"] <= 1e-12


class TestNonFiniteNumbers:
    # Python's json parses NaN and Infinity; no scenario field takes them
    def write(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        return str(path)

    def test_infinite_tolerances_do_not_pass_vacuously(self, tmp_path, capsys):
        doc = dict(ENHANCED_DOC, tolerances={"probability": float("inf"),
                                             "fidelity": float("inf")})
        out = tmp_path / "results.json"
        code = main(["run", "--scenario", self.write(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "tolerances.probability" in err and "tolerances.fidelity" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_alpha(self, tmp_path, capsys, value):
        # validate, not run: a NaN alpha once hung the state build
        doc = dict(ENHANCED_DOC, u=dict(ENHANCED_DOC["u"], alpha_re=value))
        assert main(["validate", "--scenario", self.write(tmp_path, doc)]) == 2
        assert "u.alpha_re" in capsys.readouterr().err

    def test_nan_qubit_entry(self, tmp_path, capsys):
        doc = dict(ENHANCED_DOC, qubit=[float("nan"), 0.0, 0.0, 0.8])
        assert main(["run", "--scenario", self.write(tmp_path, doc), "--quiet"]) == 2
        assert "qubit" in capsys.readouterr().err

    def test_nan_coefficient(self, tmp_path, capsys):
        doc = dict(SCISSORS_DOC, input_coefficients=[[0.5, 0.0], [float("nan"), 0.0]])
        assert main(["validate", "--scenario", self.write(tmp_path, doc)]) == 2
        assert "input_coefficients[1]" in capsys.readouterr().err

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        text = json.dumps(ENHANCED_DOC).replace('"alpha_re": 1.0', '"alpha_re": 1' + "0" * 400)
        path.write_text(text)
        assert main(["validate", "--scenario", str(path)]) == 2
        assert "u.alpha_re" in capsys.readouterr().err


class TestFactsRowsAreKernelRecords:
    # the public two-mode split (the reference) keeps every amplitude; the
    # rows must be exactly its records at or above the outcome floor
    CASES = {
        "facts_squeezed": json.loads((DEMO_SCENARIOS / "facts_squeezed.json").read_text()),
        "lossy_facts_coherent":
            json.loads((DEMO_SCENARIOS / "lossy_facts_coherent.json").read_text()),
        "lossy_coherent_3+0.4i": {
            "protocol": "facts_check",
            "u": {"kind": "coherent", "alpha_re": 3.0, "alpha_im": 0.4, "cutoff": 38},
            "detector_efficiency": 0.85,
            "tolerances": {"probability": 1e-12, "fidelity": 1e-9},
        },
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rows_match_sparse_reference(self, name):
        scenario = validate_scenario(self.CASES[name])
        rows = run_scenario(scenario).outcomes
        psi = build_state(scenario.u)
        split = beamsplitter_5050(tensor(phase_shift(psi, math.pi / 2), psi), 0, 1)
        reference = {(na, nb): abs(amp) ** 2 for (na, nb), amp in np.ndenumerate(split)}
        counts = {tuple(row["counts"]) for row in rows}
        assert len(counts) == len(rows)
        for row in rows:
            assert row["probability"] >= OUTCOME_FLOOR
            expected = reference.get(tuple(row["counts"]), 0.0)
            assert abs(row["probability"] - expected) <= 1e-15, row["counts"]
        for occ, prob in reference.items():
            if occ not in counts:
                assert prob < OUTCOME_FLOOR, occ


class TestMaxCutoff:
    # validate only: running an oversize scenario would allocate without bound
    def validate(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return main(["validate", "--scenario", str(path)])

    def test_max_cutoff_is_accepted(self, tmp_path):
        doc = dict(ENHANCED_DOC, u=dict(ENHANCED_DOC["u"], cutoff=MAX_CUTOFF))
        assert self.validate(tmp_path, doc) == 0

    @pytest.mark.parametrize("cutoff", [MAX_CUTOFF + 1, 10 ** 30])
    def test_state_cutoff_above_maximum(self, tmp_path, capsys, cutoff):
        doc = dict(ENHANCED_DOC, u=dict(ENHANCED_DOC["u"], cutoff=cutoff))
        assert self.validate(tmp_path, doc) == 2
        assert "u.cutoff" in capsys.readouterr().err

    def test_second_state_cutoff_above_maximum(self, tmp_path, capsys):
        doc = dict(FACTS_DOC, v={"kind": "number", "n": 1, "cutoff": MAX_CUTOFF + 1})
        assert self.validate(tmp_path, doc) == 2
        assert "v.cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["scissors_n", "scissors_m"])
    @pytest.mark.parametrize("level", [MAX_CUTOFF + 1, 10 ** 20])
    def test_scissors_level_above_maximum(self, tmp_path, capsys, field, level):
        doc = dict(SCISSORS_DOC, **{field: level})
        assert self.validate(tmp_path, doc) == 2
        assert field in capsys.readouterr().err

    def test_input_coefficients_longer_than_maximum(self, tmp_path, capsys):
        pair = [1.0 / (MAX_CUTOFF + 2) ** 0.5, 0.0]
        doc = dict(SCISSORS_DOC, input_coefficients=[pair] * (MAX_CUTOFF + 2))
        assert self.validate(tmp_path, doc) == 2
        assert "input_coefficients" in capsys.readouterr().err

    def test_input_coefficients_at_maximum_length(self, tmp_path):
        pair = [1.0 / (MAX_CUTOFF + 1) ** 0.5, 0.0]
        doc = dict(SCISSORS_DOC, input_coefficients=[pair] * (MAX_CUTOFF + 1))
        assert self.validate(tmp_path, doc) == 0


def stdlib_json(results) -> str:
    return json.dumps(results.to_dict(), indent=2, sort_keys=True) + "\n"


class TestJsonLayout:
    # to_json writes the outcome rows itself; every document must still be
    # the stdlib's indent=2, sort_keys encoding byte for byte

    @pytest.mark.parametrize("path", sorted(DEMO_SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
    def test_demo_documents(self, path):
        results = run_scenario(validate_scenario(json.loads(path.read_text())))
        assert results.to_json() == stdlib_json(results)

    def test_facts_rows_with_null_fidelity_and_phase(self):
        results = run_scenario(validate_scenario(dict(FACTS_DOC, detector_efficiency=0.8)))
        assert results.outcomes
        assert all(row["fidelity"] is None and row["correction_phase"] is None
                   for row in results.outcomes)
        assert results.to_json() == stdlib_json(results)

    def test_entropy_document_with_empty_outcomes(self):
        results = run_scenario(validate_scenario(ENTROPY_DOC))
        assert results.outcomes == []
        assert '"outcomes": [],' in results.to_json()
        assert results.to_json() == stdlib_json(results)

    def test_lossy_teleport_document(self):
        results = run_scenario(validate_scenario(dict(ENHANCED_DOC, detector_efficiency=0.7)))
        assert "detector" in results.aggregates
        assert results.to_json() == stdlib_json(results)

    def test_hand_built_rows(self):
        # a NaN probability is written NaN, a NaN fidelity or phase null
        nan, inf = float("nan"), float("inf")
        values = np.array([-0.0, 5e-324, 1e16, 1e-7, nan, inf, -inf, 0.1])
        rows = np.arange(2 * len(values))
        results = ResultsDocument(
            scenario={"protocol": "teleport_basic"},
            counts=np.column_stack((rows, 2 * rows + 1)),
            probabilities=values[rows % len(values)],
            classifications=np.array(["success", "odd \"A\"", "caf\u00e9\n"])[rows % 3],
            fidelities=values[(rows + 3) % len(values)],
            corrections=values[(rows + 5) % len(values)],
            aggregates={"success_probability": nan}, environment={}, checks=[])
        text = results.to_json()
        assert "outcomes" not in results.__dict__
        assert text == stdlib_json(results)
        for literal in ("-0.0", "5e-324", "1e+16", "1e-07", '"probability": NaN',
                        '"probability": Infinity', '"probability": -Infinity',
                        '"fidelity": null', '"correction_phase": null',
                        '"odd \\"A\\""', '"caf\\u00e9\\n"'):
            assert literal in text
        assert '"fidelity": NaN' not in text and '"correction_phase": NaN' not in text


class TestParserReuse:
    # main builds its parser once per process; a call must not see what an
    # earlier call parsed

    def call(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_calls_in_sequence_match_first_calls(self, tmp_path, capsys, monkeypatch):
        scenario, invalid = tmp_path / "scenario.json", tmp_path / "invalid.json"
        scenario.write_text(json.dumps(BASIC_DOC))
        invalid.write_text(json.dumps(dict(SCISSORS_DOC, scissors_m=0)))
        steps = [
            ["run", "--scenario", str(scenario)],
            ["run", "--scenario", str(scenario), "--quiet"],
            ["run", "--scenario", str(scenario)],
            ["validate", "--scenario", str(invalid)],
            ["run"],
            ["list-protocols"],
        ]
        first = []
        for argv in steps:
            monkeypatch.setattr(cli, "_PARSER", None, raising=False)
            first.append(self.call(capsys, argv))

        builds = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        monkeypatch.setattr(cli, "_PARSER", None, raising=False)
        again = [self.call(capsys, argv) for argv in steps]
        assert again == first
        assert len(builds) == 1

        codes = [code for code, _, _ in again]
        assert codes == [0, 0, 0, 2, "SystemExit(2)", 0]
        summary = again[0][1]
        assert summary.startswith("teleport_basic: checks 2/2 passed")
        assert again[1][1] == "" and again[2][1] == summary
        assert "scissors_n, scissors_m" in again[3][2]
        assert "--scenario" in again[4][2]
        assert again[5][1].split() == list(cli.PROTOCOLS)


def _with_u(**state):
    return dict(FACTS_DOC, u=state)


_PROTOCOL_CHOICES = ("expected one of teleport_basic, teleport_enhanced, quantum_scissors, "
                     "facts_check, entropy; got ")
_KIND_CHOICES = "expected one of coherent, squeezed_vacuum, number, explicit; got "
_QUBIT = "expected [re+, im+, re-, im-], four finite numbers"
_TOLERANCES = "expected an object with probability and/or fidelity"
_PAIRS = "expected a non-empty array of [re, im] pairs"
_PAIR = "expected a [re, im] pair of finite numbers"
_RESOURCE = "expected psi_minus or phi_minus"

#: Malformed scenarios and exactly what validation reports for each: the
#: (path, message) list of a SchemaError, or the message of a ValueError.
MALFORMED = [
    # documents and protocol fields
    ("document_not_object", [], [("$", "scenario must be a JSON object")]),
    ("protocol_missing", {"u": FACTS_DOC["u"]}, [("protocol", _PROTOCOL_CHOICES + "None")]),
    ("protocol_unknown", dict(FACTS_DOC, protocol="teleport"),
     [("protocol", _PROTOCOL_CHOICES + "'teleport'")]),
    ("protocol_list", dict(FACTS_DOC, protocol=[]), [("protocol", _PROTOCOL_CHOICES + "[]")]),
    ("protocol_object", dict(FACTS_DOC, protocol={}), [("protocol", _PROTOCOL_CHOICES + "{}")]),
    ("unknown_fields", dict(ENHANCED_DOC, zeta=1, alpha=2),
     [("alpha", "not a field of protocol 'teleport_enhanced'"),
      ("zeta", "not a field of protocol 'teleport_enhanced'")]),
    ("field_of_another_protocol", dict(FACTS_DOC, qubit=[1.0, 0.0, 0.0, 0.0]),
     [("qubit", "not a field of protocol 'facts_check'")]),
    ("missing_fields", {"protocol": "teleport_basic"},
     [("u", "required field is missing"), ("v", "required field is missing"),
      ("qubit", "required field is missing")]),
    ("unknown_and_missing", {"protocol": "quantum_scissors", "u": FACTS_DOC["u"]},
     [("u", "not a field of protocol 'quantum_scissors'"),
      ("scissors_n", "required field is missing"), ("scissors_m", "required field is missing"),
      ("input_coefficients", "required field is missing")]),
    # state objects
    ("state_not_object", dict(FACTS_DOC, u=5), [("u", "expected an object")]),
    ("state_unknown_field", _with_u(kind="squeezed_vacuum", r=0.3, cutoff=24, size=2),
     [("u.size", "unknown field")]),
    ("state_kind_missing", _with_u(r=0.3, cutoff=24), [("u.kind", _KIND_CHOICES + "None")]),
    ("state_kind_unknown", _with_u(kind="cat", cutoff=24), [("u.kind", _KIND_CHOICES + "'cat'")]),
    ("state_kind_list", _with_u(kind=[], cutoff=24), [("u.kind", _KIND_CHOICES + "[]")]),
    ("state_kind_object", _with_u(kind={}, cutoff=24), [("u.kind", _KIND_CHOICES + "{}")]),
    ("state_unknown_field_and_kind", _with_u(kind="cat", cutoff=24, size=2),
     [("u.size", "unknown field"), ("u.kind", _KIND_CHOICES + "'cat'")]),
    ("state_cutoff_missing", _with_u(kind="squeezed_vacuum", r=0.3),
     [("u.cutoff", "required field is missing")]),
    ("state_cutoff_string", _with_u(kind="squeezed_vacuum", r=0.3, cutoff="24"),
     [("u.cutoff", "expected an integer")]),
    ("state_cutoff_float", _with_u(kind="squeezed_vacuum", r=0.3, cutoff=24.0),
     [("u.cutoff", "expected an integer")]),
    ("state_cutoff_bool", _with_u(kind="number", n=0, cutoff=True),
     [("u.cutoff", "expected an integer")]),
    ("state_cutoff_negative", _with_u(kind="coherent", alpha_re=0.0, cutoff=-1),
     [("u", "cutoff must be non-negative")]),
    ("state_cutoff_above_max", _with_u(kind="squeezed_vacuum", r=0.3, cutoff=MAX_CUTOFF + 1),
     [("u.cutoff", "above MAX_CUTOFF = 400")]),
    ("state_cutoff_huge", _with_u(kind="squeezed_vacuum", r=0.3, cutoff=10 ** 30),
     [("u.cutoff", "above MAX_CUTOFF = 400")]),
    ("state_cutoff_bad_and_parameter_missing", _with_u(kind="coherent", cutoff="x"),
     [("u.cutoff", "expected an integer"), ("u.alpha_re", "required for kind 'coherent'")]),
    ("state_tail_string", _with_u(kind="squeezed_vacuum", r=0.3, cutoff=24, tail_tolerance="x"),
     [("u.tail_tolerance", "expected a finite number")]),
    ("state_tail_zero", _with_u(kind="squeezed_vacuum", r=0.3, cutoff=24, tail_tolerance=0),
     [("u", "tail_tolerance must lie in (0, 1)")]),
    ("state_tail_one", _with_u(kind="squeezed_vacuum", r=0.3, cutoff=24, tail_tolerance=1.0),
     [("u", "tail_tolerance must lie in (0, 1)")]),
    ("coherent_missing", _with_u(kind="coherent", cutoff=24),
     [("u.alpha_re", "required for kind 'coherent'")]),
    ("coherent_only_im", _with_u(kind="coherent", alpha_im=0.5, cutoff=24),
     [("u.alpha_re", "required for kind 'coherent'")]),
    ("coherent_re_string", _with_u(kind="coherent", alpha_re="1", cutoff=24),
     [("u.alpha_re", "expected a finite number")]),
    ("coherent_both_wrong", _with_u(kind="coherent", alpha_re=None, alpha_im=True, cutoff=24),
     [("u.alpha_re", "expected a finite number"), ("u.alpha_im", "expected a finite number")]),
    ("coherent_extra",
     _with_u(kind="coherent", alpha_re=1.0, r=0.3, n=1, coefficients=[], cutoff=24),
     [("u.coefficients", "not a parameter of kind 'coherent'"),
      ("u.n", "not a parameter of kind 'coherent'"),
      ("u.r", "not a parameter of kind 'coherent'")]),
    ("squeezed_missing", _with_u(kind="squeezed_vacuum", cutoff=24),
     [("u.r", "required for kind 'squeezed_vacuum'")]),
    ("squeezed_string", _with_u(kind="squeezed_vacuum", r="0.3", cutoff=24),
     [("u.r", "expected a finite number")]),
    ("squeezed_extra",
     _with_u(kind="squeezed_vacuum", r=0.3, alpha_re=1.0, alpha_im=0.0, cutoff=24),
     [("u.alpha_im", "not a parameter of kind 'squeezed_vacuum'"),
      ("u.alpha_re", "not a parameter of kind 'squeezed_vacuum'")]),
    ("squeezed_missing_and_extra", _with_u(kind="squeezed_vacuum", n=2, cutoff=24),
     [("u.r", "required for kind 'squeezed_vacuum'"),
      ("u.n", "not a parameter of kind 'squeezed_vacuum'")]),
    ("number_missing", _with_u(kind="number", cutoff=4), [("u.n", "required for kind 'number'")]),
    ("number_float", _with_u(kind="number", n=1.0, cutoff=4), [("u.n", "expected an integer")]),
    ("number_negative", _with_u(kind="number", n=-1, cutoff=4),
     [("u", "photon number must be non-negative")]),
    ("number_above_cutoff", _with_u(kind="number", n=5, cutoff=4),
     [("u", "cutoff must be at least n for number states")]),
    ("number_extra", _with_u(kind="number", n=1, r=0.2, cutoff=4),
     [("u.r", "not a parameter of kind 'number'")]),
    ("explicit_missing", _with_u(kind="explicit", cutoff=4),
     [("u.coefficients", "required for kind 'explicit'")]),
    ("explicit_empty", _with_u(kind="explicit", coefficients=[], cutoff=4),
     [("u.coefficients", _PAIRS)]),
    ("explicit_not_list", _with_u(kind="explicit", coefficients="1,0", cutoff=4),
     [("u.coefficients", _PAIRS)]),
    ("explicit_short_pair", _with_u(kind="explicit", coefficients=[[1.0, 0.0], [1.0]], cutoff=4),
     [("u.coefficients[1]", _PAIR)]),
    ("explicit_bool_entry", _with_u(kind="explicit", coefficients=[[True, 0.0]], cutoff=4),
     [("u.coefficients[0]", _PAIR)]),
    ("explicit_too_long", _with_u(kind="explicit", coefficients=[[1.0, 0.0]] * 3, cutoff=1),
     [("u", "coefficients must be non-empty and fit within cutoff+1")]),
    ("explicit_extra",
     _with_u(kind="explicit", coefficients=[[1.0, 0.0]], alpha_im=1.0, cutoff=4),
     [("u.alpha_im", "not a parameter of kind 'explicit'")]),
    ("both_states_bad", dict(ENTROPY_DOC, u={"kind": "number", "cutoff": 1},
                             v={"kind": "number", "n": "1", "cutoff": 1, "x": 0}),
     [("u.n", "required for kind 'number'"), ("v.x", "unknown field")]),
    ("second_state_cutoff_above_max",
     dict(FACTS_DOC, v={"kind": "number", "n": 1, "cutoff": MAX_CUTOFF + 1}),
     [("v.cutoff", "above MAX_CUTOFF = 400")]),
    # qubit
    ("qubit_short", dict(BASIC_DOC, qubit=[1.0, 0.0]), [("qubit", _QUBIT)]),
    ("qubit_not_list", dict(BASIC_DOC, qubit={"re": 1.0}), [("qubit", _QUBIT)]),
    ("qubit_string_entry", dict(BASIC_DOC, qubit=[1.0, 0.0, "0", 0.0]), [("qubit", _QUBIT)]),
    ("qubit_bool_entry", dict(BASIC_DOC, qubit=[True, 0.0, 0.0, 0.0]), [("qubit", _QUBIT)]),
    ("qubit_not_normalized", dict(BASIC_DOC, qubit=[1.0, 0.0, 1.0, 0.0]),
     "qubit amplitudes must be normalized (got |.|^2 = 2.0)"),
    ("qubit_zero", dict(ENHANCED_DOC, qubit=[0, 0, 0, 0]),
     "qubit amplitudes must be normalized (got |.|^2 = 0.0)"),
    ("qubit_huge", dict(BASIC_DOC, qubit=[1e200, 0.0, 0.0, 0.0]),
     "qubit amplitudes must be normalized (got |.|^2 = inf)"),
    # tolerances
    ("tolerances_not_object", dict(BASIC_DOC, tolerances=1e-9), [("tolerances", _TOLERANCES)]),
    ("tolerances_unknown_key", dict(BASIC_DOC, tolerances={"probability": 1e-9, "norm": 1e-9}),
     [("tolerances", _TOLERANCES)]),
    ("tolerances_strings", dict(BASIC_DOC, tolerances={"probability": "1e-9", "fidelity": None}),
     [("tolerances.probability", "expected a finite number"),
      ("tolerances.fidelity", "expected a finite number")]),
    ("tolerances_zero", dict(BASIC_DOC, tolerances={"probability": 0.0}),
     "tolerances: must be positive"),
    ("tolerances_negative_fidelity", dict(BASIC_DOC, tolerances={"fidelity": -1e-9}),
     "tolerances: must be positive"),
    # detector efficiency
    ("efficiency_string", dict(BASIC_DOC, detector_efficiency="0.9"),
     [("detector_efficiency", "expected a finite number")]),
    ("efficiency_bool", dict(BASIC_DOC, detector_efficiency=True),
     [("detector_efficiency", "expected a finite number")]),
    ("efficiency_above_one", dict(BASIC_DOC, detector_efficiency=1.5),
     "detector_efficiency: 1.5 outside [0, 1]"),
    ("efficiency_negative", dict(FACTS_DOC, detector_efficiency=-0.1),
     "detector_efficiency: -0.1 outside [0, 1]"),
    ("efficiency_on_entropy", dict(ENTROPY_DOC, detector_efficiency=0.9),
     [("detector_efficiency", "not a field of protocol 'entropy'")]),
    # retilde and resource_kind
    ("retilde_string", dict(ENHANCED_DOC, retilde="yes"), [("retilde", "expected a boolean")]),
    ("retilde_on_facts", dict(FACTS_DOC, retilde=True),
     [("retilde", "not a field of protocol 'facts_check'")]),
    ("resource_kind_unknown", dict(ENTROPY_DOC, resource_kind="bell"),
     [("resource_kind", _RESOURCE)]),
    ("resource_kind_list", dict(ENTROPY_DOC, resource_kind=[]), [("resource_kind", _RESOURCE)]),
    ("resource_kind_object", dict(ENTROPY_DOC, resource_kind={}), [("resource_kind", _RESOURCE)]),
    ("resource_kind_on_basic", dict(BASIC_DOC, resource_kind="phi_minus"),
     [("resource_kind", "not a field of protocol 'teleport_basic'")]),
    # scissors levels and input
    ("scissors_equal", dict(SCISSORS_DOC, scissors_m=0),
     "scissors_n, scissors_m: kept photon numbers must differ (both 0)"),
    ("scissors_equal_negative", dict(SCISSORS_DOC, scissors_n=-1, scissors_m=-1),
     "scissors_n, scissors_m: kept photon numbers must differ (both -1)"),
    ("scissors_negative", dict(SCISSORS_DOC, scissors_n=-1),
     "scissors_n, scissors_m: must be non-negative"),
    ("scissors_string", dict(SCISSORS_DOC, scissors_n="0"), [("scissors_n", "expected an integer")]),
    ("scissors_float", dict(SCISSORS_DOC, scissors_m=2.0), [("scissors_m", "expected an integer")]),
    ("scissors_null", dict(SCISSORS_DOC, scissors_n=None, scissors_m=None),
     [("scissors_n", "expected an integer"), ("scissors_m", "expected an integer")]),
    ("scissors_above_max", dict(SCISSORS_DOC, scissors_n=MAX_CUTOFF + 1),
     [("scissors_n", "above MAX_CUTOFF = 400")]),
    ("scissors_huge", dict(SCISSORS_DOC, scissors_m=10 ** 20),
     [("scissors_m", "above MAX_CUTOFF = 400")]),
    ("scissors_coefficients_too_many",
     dict(SCISSORS_DOC, input_coefficients=[[0.05, 0.0]] * (MAX_CUTOFF + 2)),
     [("input_coefficients", "more than MAX_CUTOFF + 1 = 401 pairs")]),
    ("scissors_coefficients_empty", dict(SCISSORS_DOC, input_coefficients=[]),
     [("input_coefficients", _PAIRS)]),
    ("scissors_coefficients_bad_pair", dict(SCISSORS_DOC, input_coefficients=[[0.5, 0.0], [0.5]]),
     [("input_coefficients[1]", _PAIR)]),
    ("scissors_all_bad",
     dict(SCISSORS_DOC, scissors_n=1.5, scissors_m="2", input_coefficients=None, tolerances=[]),
     [("scissors_n", "expected an integer"), ("scissors_m", "expected an integer"),
      ("input_coefficients", _PAIRS), ("tolerances", _TOLERANCES)]),
    # several problems at once: structure first, in field order, then ranges
    ("errors_in_field_order",
     {"protocol": "teleport_basic", "u": {"kind": "coherent", "cutoff": 10},
      "v": {"kind": "number", "cutoff": 5}, "qubit": [1.0, 0.0], "retilde": 1,
      "detector_efficiency": "x", "tolerances": {"probability": "p"}},
     [("u.alpha_re", "required for kind 'coherent'"), ("v.n", "required for kind 'number'"),
      ("qubit", _QUBIT), ("retilde", "expected a boolean"),
      ("detector_efficiency", "expected a finite number"),
      ("tolerances.probability", "expected a finite number")]),
    ("range_errors_in_order",
     dict(SCISSORS_DOC, scissors_m=0, detector_efficiency=2.0, tolerances={"fidelity": 0.0}),
     "detector_efficiency: 2.0 outside [0, 1]"),
    ("qubit_norm_before_tolerances",
     dict(BASIC_DOC, qubit=[0.0, 0.0, 0.0, 0.5], tolerances={"probability": -1.0}),
     "qubit amplitudes must be normalized (got |.|^2 = 0.25)"),
]


class TestValidationContract:
    # every structural problem is a SchemaError listing each offending path in
    # a fixed order; a range problem is one ValueError; the CLI exits 2 on both

    @pytest.mark.parametrize("doc, expected", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_reported_exactly(self, doc, expected):
        if isinstance(expected, list):
            with pytest.raises(SchemaError) as info:
                validate_scenario(doc)
            assert info.value.errors == expected
            assert info.value.path == expected[0][0]
        else:
            with pytest.raises(ValueError) as info:
                validate_scenario(doc)
            assert not isinstance(info.value, SchemaError)
            assert str(info.value) == expected

    @pytest.mark.parametrize("doc", [case[1] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_cli_validate_exits_two(self, tmp_path, capsys, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.startswith("invalid: ")
