"""Per-layer timing by wrapping paritysim's public functions from outside.

Every public function of the layer modules is replaced, in every paritysim
module that holds a reference to it, by a wrapper that times the call.  That
is where callers look functions up (``protocols`` calls ``prepend_mode``
through its own module globals), so the library itself is not modified.
``ResultsDocument.to_json`` is wrapped on its class.

For each wrapped function the tracer keeps the number of calls, its busy
time (the wall time of calls not nested inside another call of the same
function) and its self time (wall time minus that of the wrapped calls made
inside it), plus optional result counters such as the number of amplitude
entries a state has.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass

#: The layers, in the package's dependency order; each is a paritysim module.
LAYERS = ("states", "fock", "optics", "measurement", "protocols", "scenario", "cli")


def _entries(result) -> int:
    return len(result.amplitudes)


def _utf8_bytes(result) -> int:
    return len(result.encode("utf-8"))


#: What each function's ``count`` adds up, as a function of one call's result.
RESULT_COUNTERS = {
    "fock.prepend_mode": _entries,
    "optics.beamsplitter_5050": _entries,
    "measurement.measure_modes": len,
    "scenario.ResultsDocument.to_json": _utf8_bytes,
}


@dataclass
class FunctionStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    count: int = 0
    depth: int = 0


class Tracer:
    """Installs the wrappers, accumulates per-function statistics, removes them."""

    def __init__(self, mods):
        self.mods = mods
        self.stats: dict[str, FunctionStats] = {}
        self._stack: list[list[float]] = []  # child time of each open call
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, FunctionStats())
        counter = RESULT_COUNTERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append([0.0])
            stats.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()[0]
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += elapsed - children
                if stats.depth == 0:
                    stats.busy_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if counter is not None:
                stats.count += counter(result)
            return result

        return traced

    def install(self) -> None:
        modules = [getattr(self.mods, layer) for layer in LAYERS] + [self.mods.package]
        for layer in LAYERS:
            module = getattr(self.mods, layer)
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, held, fn))
                            setattr(holder, held, wrapper)
        doc_class = self.mods.scenario.ResultsDocument
        self._patched.append((doc_class, "to_json", doc_class.to_json))
        doc_class.to_json = self._wrap("scenario.ResultsDocument.to_json", doc_class.to_json)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        for stats in self.stats.values():
            stats.calls = stats.count = 0
            stats.busy_s = stats.self_s = 0.0

    def snapshot(self) -> dict:
        return {name: {"calls": s.calls, "busy_s": s.busy_s, "self_s": s.self_s, "count": s.count}
                for name, s in self.stats.items() if s.calls}


def _stat(snapshot: dict, name: str, key: str):
    return snapshot.get(name, {}).get(key, 0)


def _layer_self(snapshot: dict, layer: str) -> float:
    return sum(s["self_s"] for name, s in snapshot.items() if name.startswith(layer + "."))


def layer_metrics(snapshot: dict) -> dict:
    """The benchmark's per-layer metrics from one traced pass (without
    ``optics.block_misses`` and ``trace.overhead_s``, which the runner adds)."""
    return {
        "fock.prepend_mode.s": _stat(snapshot, "fock.prepend_mode", "busy_s"),
        "fock.prepend_mode.entries": _stat(snapshot, "fock.prepend_mode", "count"),
        "optics.beamsplitter_5050.s": _stat(snapshot, "optics.beamsplitter_5050", "busy_s"),
        "optics.beamsplitter_5050.entries": _stat(snapshot, "optics.beamsplitter_5050", "count"),
        "optics.phase_shift.s": _stat(snapshot, "optics.phase_shift", "busy_s"),
        "measurement.measure_modes.s": _stat(snapshot, "measurement.measure_modes", "busy_s"),
        "measurement.records": _stat(snapshot, "measurement.measure_modes", "count"),
        "measurement.thinned_distribution.s":
            _stat(snapshot, "measurement.thinned_distribution", "busy_s"),
        "states.build_state.s": _stat(snapshot, "states.build_state", "busy_s"),
        "states.encode_qubit.s": _stat(snapshot, "states.encode_qubit", "busy_s"),
        "states.resource_from_states.s": _stat(snapshot, "states.resource_from_states", "busy_s"),
        "protocols.self_s": _layer_self(snapshot, "protocols"),
        "protocols.fidelity.calls": _stat(snapshot, "protocols.fidelity", "calls"),
        "scenario.parse.s": _stat(snapshot, "scenario.parse_scenario_text", "busy_s"),
        "scenario.run_scenario.self_s": _stat(snapshot, "scenario.run_scenario", "self_s"),
        "scenario.to_json.s": _stat(snapshot, "scenario.ResultsDocument.to_json", "busy_s"),
        "scenario.result_bytes": _stat(snapshot, "scenario.ResultsDocument.to_json", "count"),
        "cli.self_s": _layer_self(snapshot, "cli"),
    }


def unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "B" if name.endswith("_bytes") else "count"


def block_misses(mods) -> int:
    """Misses of the beamsplitter block-unitary cache, or 0 once that cache is gone."""
    cache = getattr(mods.optics, "_block", None)
    info = getattr(cache, "cache_info", None)
    return info().misses if info is not None else 0
