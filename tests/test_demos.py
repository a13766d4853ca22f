"""The demo scenarios' results documents: every check passes, and a rerun
gives the same bytes, whatever ran before in the process.  The demo scripts
run to completion with numpy's RuntimeWarnings as errors."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from paritysim.scenario import parse_scenario_text, run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "demos" / "scenarios").glob("*.json"))
SCRIPTS = sorted((ROOT / "demos").glob("*.py"))

#: Reads a scenario on stdin and prints its results document three times as
#: a JSON list: from a fresh process, after a larger-cutoff run has raised both
#: band caps (so the scenario's blocks are rebuilt as wider bands), and after
#: full-width blocks have been built.
HISTORIES = """
import json, sys
from conftest import full_block
from paritysim.scenario import parse_scenario_text, run_scenario, validate_scenario
text = sys.stdin.read()
def document():
    return run_scenario(parse_scenario_text(text)).to_json()
cold = document()
run_scenario(validate_scenario({"protocol": "teleport_enhanced", "qubit": [0.6, 0, 0, 0.8],
                                "u": {"kind": "coherent", "alpha_re": 1.0, "cutoff": 60}}))
after_larger = document()
for total in range(0, 71, 7):
    full_block(total)
after_full = document()
print(json.dumps([cold, after_larger, after_full]))
"""


def source_env() -> dict:
    """The environment with ``src`` (and ``tests``, for the helpers) importable."""
    paths = [str(ROOT / "src"), str(ROOT / "tests")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def test_scenarios_found():
    assert len(SCENARIOS) >= 6
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_demo_script_runs(path):
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(path)],
                          capture_output=True, text=True, env=source_env(), timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_demo_scenario_passes_and_reproduces(path):
    text = path.read_text()
    first = run_scenario(parse_scenario_text(text))
    second = run_scenario(parse_scenario_text(text))
    assert first.all_passed
    assert first.to_json() == second.to_json()


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_document_does_not_depend_on_run_history(path):
    done = subprocess.run([sys.executable, "-c", HISTORIES], input=path.read_text(),
                          capture_output=True, text=True, env=source_env(), timeout=120,
                          check=True)
    cold, after_larger, after_full = json.loads(done.stdout)
    assert after_larger == cold
    assert after_full == cold
    assert run_scenario(parse_scenario_text(path.read_text())).to_json() == cold
