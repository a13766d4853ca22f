"""Self-test of the benchmark's correctness checks, at a tiny size.

    python3 bench/selftest.py

Runs one small pass of each workload, shows that every check passes on the
library's real outputs, then perturbs one result at a time and shows that
the check meant to catch it fails.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the thread limits and the import path first
import checks
import workloads


def _replace_outcome(report, index: int, **changes):
    outcomes = list(report.outcomes)
    outcomes[index] = dataclasses.replace(outcomes[index], **changes)
    return dataclasses.replace(report, outcomes=tuple(outcomes))


def _first(report, classification: str) -> int:
    return next(i for i, o in enumerate(report.outcomes) if o.classification == classification)


class SelfTest:
    def __init__(self):
        self.problems: list[str] = []
        self.cases = 0

    def expect(self, label: str, verdict: checks.Checks, failing: str | None) -> None:
        """``failing`` is a fragment of the check name that must fail, or None
        when every check must pass."""
        self.cases += 1
        if failing is None:
            if verdict.failures:
                self.problems.append(f"{label}: unexpected failures {verdict.failures}")
        elif not any(failing in f for f in verdict.failures):
            self.problems.append(f"{label}: no failure mentioning {failing!r} "
                                 f"(failures: {verdict.failures})")


def teleport_selftest(test: SelfTest, mods, oracle, enhanced: bool) -> None:
    name = "enhanced_coherent" if enhanced else "basic_squeezed"
    if enhanced:
        cases = workloads.enhanced_coherent_cases(7, magnitudes=workloads.COHERENT_MAGNITUDES[:2])
    else:
        cases = workloads.basic_squeezed_cases(7, parameters=workloads.SQUEEZE_PARAMETERS[:2])
    reports = workloads.run_pass(mods, cases).outputs
    expected = checks.dense_records(oracle, cases[0], enhanced)

    def verdict(reps):
        result = checks.Checks()
        checks.teleport_reports(result, cases, reps, enhanced)
        checks.oracle_match(result, cases[0], reps[0], expected)
        return result

    test.expect(f"{name}: real outputs", verdict(reports), None)
    small, big = reports
    success = _first(big, "success")
    perturbed = {
        "success probability": [small, dataclasses.replace(
            big, success_probability=big.success_probability + 1e-9)],
        "success fidelity": [small, _replace_outcome(big, success, fidelity_to_target=1.0 - 1e-9)],
        "sum to 1": [small, _replace_outcome(
            big, success, probability=big.outcomes[success].probability + 1e-9)],
        "dense oracle agreement": [_replace_outcome(
            small, 0, probability=small.outcomes[0].probability + 1e-11), big],
        "dense oracle classifications": [_replace_outcome(
            small, _first(small, "success"), classification="failure"), big],
    }
    if enhanced:
        perturbed["odd in both outputs"] = [small, _replace_outcome(big, success, counts=(1, 1))]
    for failing, reps in perturbed.items():
        test.expect(f"{name}: perturbed {failing}", verdict(reps), failing)


def scenario_selftest(test: SelfTest, mods, workdir: Path) -> None:
    cases = workloads.scenario_batch_cases(7, run.ROOT / "demos" / "scenarios", workdir,
                                           scissors=2, facts=1)
    first = workloads.run_pass(mods, cases)
    first_docs = run.read_documents(cases)
    last = workloads.run_pass(mods, cases)
    last_docs = run.read_documents(cases)

    def verdict(codes, docs):
        result = checks.Checks()
        checks.scenario_documents(result, cases, codes, first_docs, docs)
        return result

    test.expect("scenario_batch: real outputs", verdict(last.outputs, last_docs), None)

    def edited(label: str, edit) -> list:
        index = next(i for i, c in enumerate(cases) if c.label == label)
        doc = json.loads(last_docs[index])
        edit(doc)
        docs = list(last_docs)
        docs[index] = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        return docs

    def bump(*path):
        def edit(doc):
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += 1e-9
        return edit

    codes = list(last.outputs)
    codes[0] = checks.EXIT_CHECK_FAILED
    test.expect("scenario_batch: exit code 1", verdict(codes, last_docs), "exits 0")
    docs = list(last_docs)
    docs[0] = docs[0].replace(b"\n", b" \n", 1)
    test.expect("scenario_batch: changed byte", verdict(last.outputs, docs), "byte-identical")
    perturbed = {
        "scissors success probability": edited("scissors_00", bump("aggregates", "success_probability")),
        "lossy odd parity": edited("lossy_facts_00", bump("aggregates", "detector", "mode_b",
                                                          "odd_parity_lossy")),
        "one ebit": edited("entropy_00", bump("aggregates", "entanglement_entropy")),
        "success probability": edited("teleport_basic_00", bump("aggregates", "success_probability")),
        "even parity": edited("demo/facts_squeezed", bump("aggregates", "fact1_odd_parity_mode_a")),
    }
    for failing, docs in perturbed.items():
        test.expect(f"scenario_batch: perturbed {failing}", verdict(last.outputs, docs), failing)


def main() -> int:
    run.require_sources()
    mods = run.import_paritysim()
    oracle = checks.load_oracle(run.ROOT / "tests" / "oracle.py")
    test = SelfTest()
    teleport_selftest(test, mods, oracle, enhanced=True)
    teleport_selftest(test, mods, oracle, enhanced=False)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ensure_out()))
    try:
        scenario_selftest(test, mods, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in test.problems:
        print(f"selftest: FAIL {problem}", file=sys.stderr)
    print(f"selftest: {test.cases - len(test.problems)}/{test.cases} expectations held")
    return 1 if test.problems else 0


if __name__ == "__main__":
    sys.exit(main())
