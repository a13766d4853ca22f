"""The demo scenarios' results documents: every check passes, and a rerun
gives the same bytes, whatever ran before in the process.  The demo scripts
run to completion with numpy's RuntimeWarnings as errors, and the protocols
do not import ``numpy.ma``."""

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

#: Runs ``teleport_basic`` and ``paritysim run`` on the scenario named by the
#: first argument, writing the second, and prints the exit code and whether
#: ``numpy.ma`` got imported: importing it raises peak memory by about a MiB.
FOOTPRINT = """
import sys
from paritysim import QubitAmplitudes, squeezed_spec, teleport_basic
from paritysim.cli import main
teleport_basic(QubitAmplitudes(0.6, 0.8j), squeezed_spec(0.4, 32), squeezed_spec(-0.4, 32))
code = main(["run", "--scenario", sys.argv[1], "--out", sys.argv[2], "--quiet"])
print(code, "numpy.ma" in sys.modules)
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


def test_protocol_runs_leave_numpy_ma_unimported(tmp_path):
    scenario = ROOT / "demos" / "scenarios" / "basic_squeezed.json"
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, str(scenario),
                           str(tmp_path / "out.json")],
                          capture_output=True, text=True, env=source_env(), timeout=120,
                          check=True)
    assert done.stdout.split() == ["0", "False"]
