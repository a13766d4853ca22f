"""Benchmark of paritysim: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload enhanced_coherent --seed 1 --seconds 20 --trace 0

It imports paritysim from ``src/``, runs the workload's case list in warm
passes for ``--seconds`` seconds in one thread, checks the outputs and
prints one JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``pass_s``, ``peak_rss_mib``); with ``--trace 1`` the per-layer ones, from
passes run with every public paritysim function wrapped by ``layertrace.py``.
Details of the run go to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One thread, BLAS included: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per run: this process's own, plus SETUPS - 1 fresh child processes.
SETUPS = 3

#: A child set-up must finish within this many seconds.
SETUP_TIMEOUT = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one import plus cold pass, print it as JSON and exit")
    return parser.parse_args(argv)


def require_sources() -> None:
    missing = [p for p in (ROOT / "src" / "paritysim" / "__init__.py", ROOT / "tests" / "oracle.py",
                           ROOT / "demos" / "scenarios") if not p.exists()]
    if missing:
        raise SystemExit(f"bench: not a paritysim source checkout; missing {missing[0]}")


def import_paritysim() -> SimpleNamespace:
    sys.path.insert(0, str(ROOT / "src"))
    package = importlib.import_module("paritysim")
    mods = {layer: importlib.import_module(f"paritysim.{layer}") for layer in layertrace.LAYERS}
    return SimpleNamespace(package=package, **mods)


def build_cases(workload: str, seed: int, workdir: Path):
    if workload == "scenario_batch":
        return workloads.scenario_batch_cases(seed, ROOT / "demos" / "scenarios", workdir)
    if workload == "enhanced_coherent":
        cases = workloads.enhanced_coherent_cases(seed)
    else:
        cases = workloads.basic_squeezed_cases(seed)
    return cases + [workloads.teleport_document(cases[0], workdir)]


class ErrorLog:
    """Reports each distinct failure once on stderr."""

    def __init__(self):
        self.seen: set[str] = set()

    def __call__(self, case, exc):
        key = f"{case.label}: {type(exc).__name__}: {exc}"
        if key not in self.seen:
            self.seen.add(key)
            print(f"bench: operation failed: {key}", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)


def setup_once(workload: str, seed: int, workdir: Path, on_error):
    """Import paritysim and run the first, cold pass; returns the time both took."""
    cases = build_cases(workload, seed, workdir)
    start = time.perf_counter()
    mods = import_paritysim()
    first = workloads.run_pass(mods, cases, on_error)
    return time.perf_counter() - start, mods, cases, first


def child_setup(workload: str, seed: int) -> float:
    """One set-up in a fresh process, which starts with nothing imported."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def read_documents(cases) -> list:
    """The results document each scenario case wrote (None for other cases)."""
    return [c.out.read_bytes() if isinstance(c, workloads.ScenarioCase) and c.out.exists() else None
            for c in cases]


def run_checks(cases, first, last) -> checks.Checks:
    result = checks.Checks()
    docs = [i for i, c in enumerate(cases) if isinstance(c, workloads.ScenarioCase)]
    checks.scenario_documents(result, [cases[i] for i in docs], [last.outputs[i] for i in docs],
                              [first.documents[i] for i in docs], [last.documents[i] for i in docs])
    runs = [i for i, c in enumerate(cases) if isinstance(c, workloads.TeleportCase)]
    if runs:
        enhanced = cases[runs[0]].v is None
        checks.teleport_reports(result, [cases[i] for i in runs], [last.outputs[i] for i in runs],
                                enhanced)
        oracle = checks.load_oracle(ROOT / "tests" / "oracle.py")
        smallest = cases[runs[0]]
        checks.oracle_match(result, smallest, last.outputs[runs[0]],
                            checks.dense_records(oracle, smallest, enhanced))
    return result


def timed_passes(mods, cases, seconds: float, on_error, tracer=None):
    """Warm passes until ``seconds`` have elapsed, always at least one; with a
    tracer, also its statistics for each pass.  Only the last pass keeps its
    outputs, so memory holds one pass's results, as it would for a caller."""
    passes, snapshots = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        if passes:
            passes[-1].outputs = None
        if tracer is not None:
            tracer.reset()
        passes.append(workloads.run_pass(mods, cases, on_error))
        if tracer is not None:
            snapshots.append(tracer.snapshot())
    return passes, snapshots


def pass_statistic(passes) -> float:
    """A median warm pass, taken case by case: the sum over the cases of each
    case's median warm time.  On a shared host this repeats from run to run
    better than the median of whole passes does (see README)."""
    return sum(statistics.median(times) for times in zip(*(p.case_seconds for p in passes)))


def ensure_out() -> Path:
    OUT.mkdir(exist_ok=True)
    return OUT


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ensure_out()))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    on_error = ErrorLog()
    setup_s, mods, cases, first = setup_once(args.workload, args.seed, workdir, on_error)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    misses = layertrace.block_misses(mods)
    first.documents = read_documents(cases)
    first.outputs = None

    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "cases": [c.label for c in cases]}
    if args.trace:
        plain, _ = timed_passes(mods, cases, args.seconds / 2, on_error)
        tracer = layertrace.Tracer(mods)
        tracer.install()
        try:
            traced, snapshots = timed_passes(mods, cases, args.seconds / 2, on_error, tracer)
        finally:
            tracer.uninstall()
        passes = plain + traced
        per_pass = [layertrace.layer_metrics(s) for s in snapshots]
        metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
        metrics["optics.block_misses"] = misses
        metrics["trace.overhead_s"] = pass_statistic(traced) - pass_statistic(plain)
        units = {name: layertrace.unit(name) for name in metrics}
        detail["functions"] = snapshots[-1]
    else:
        samples = [setup_s] + [child_setup(args.workload, args.seed) for _ in range(SETUPS - 1)]
        passes, _ = timed_passes(mods, cases, args.seconds, on_error)
        metrics = {
            "setup_s": statistics.median(samples),
            "pass_s": pass_statistic(passes),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mib": "MiB"}
        detail["setup_samples"] = samples

    last = passes[-1]
    last.documents = read_documents(cases)
    verdict = run_checks(cases, first, last)
    for failure in verdict.failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)

    all_passes = [first] + passes
    detail.update(pass_seconds=[p.seconds for p in passes],
                  case_seconds=[p.case_seconds for p in passes],
                  checks=verdict.count, check_failures=verdict.failures)
    result = {
        "correct": not verdict.failures,
        "attempted": sum(len(p.case_seconds) for p in all_passes),
        "failed": sum(p.failed for p in all_passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
