import json
from pathlib import Path

import pytest

from paritysim import (
    SchemaError,
    build_state,
    run_scenario,
    scenario_to_wire,
    split_with_phase_shifted,
    validate_scenario,
)
from paritysim import cli
from paritysim.cli import main
from paritysim.measurement import OUTCOME_FLOOR
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

    def test_detector_block(self):
        doc = dict(ENHANCED_DOC, detector_efficiency=0.85)
        results = run_scenario(validate_scenario(doc))
        detector = results.aggregates["detector"]
        assert detector["efficiency"] == 0.85
        assert detector["mode_a"]["odd_parity_ideal"] == pytest.approx(0.25, abs=1e-9)
        assert detector["mode_a"]["count_tvd"] > 0
        assert abs(detector["mode_a"]["odd_parity_lossy"] - 0.25) < 0.05  # mild thinning shift

    def test_deterministic(self):
        a = run_scenario(validate_scenario(ENHANCED_DOC)).to_json()
        b = run_scenario(validate_scenario(ENHANCED_DOC)).to_json()
        assert a == b

    def test_failing_tolerance_reported(self):
        doc = dict(ENHANCED_DOC, tolerances={"probability": 1e-18, "fidelity": 1e-9})
        results = run_scenario(validate_scenario(doc))
        assert not results.all_passed
        failing = [c for c in results.checks if not c.passed]
        assert failing and failing[0].name == "success_probability"


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
    # the sparse split keeps amplitudes down to 1e-15; the rows must be
    # exactly its records at or above the outcome floor
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
        reference = {occ: abs(amp) ** 2
                     for occ, amp in split_with_phase_shifted(build_state(scenario.u)).items()}
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
        nan, inf = float("nan"), float("inf")
        values = [-0.0, 5e-324, 1e16, 1e-7, nan, inf, -inf, 0.1, None]
        rows = [{"counts": [i, 2 * i + 1], "probability": values[i % len(values)],
                 "classification": ("success", "odd \"A\"", "caf\u00e9\n")[i % 3],
                 "fidelity": values[(i + 3) % len(values)],
                 "correction_phase": values[(i + 5) % len(values)]}
                for i in range(2 * len(values))]
        results = ResultsDocument(scenario={"protocol": "teleport_basic"}, outcomes=rows,
                                  aggregates={"success_probability": nan}, environment={},
                                  checks=[])
        text = results.to_json()
        assert text == stdlib_json(results)
        for literal in ("-0.0", "5e-324", "1e+16", "1e-07", "NaN", "Infinity", "-Infinity", "null"):
            assert literal in text


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
