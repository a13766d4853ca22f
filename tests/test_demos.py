"""The demo scenarios' results documents: every check passes, and a rerun
gives the same bytes."""

from pathlib import Path

import pytest

from paritysim.scenario import parse_scenario_text, run_scenario

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "demos" / "scenarios").glob("*.json"))


def test_scenarios_found():
    assert len(SCENARIOS) >= 6


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_demo_scenario_passes_and_reproduces(path):
    text = path.read_text()
    first = run_scenario(parse_scenario_text(text))
    second = run_scenario(parse_scenario_text(text))
    assert first.all_passed
    assert first.to_json() == second.to_json()
