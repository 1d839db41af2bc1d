"""Layer spans for the traced benchmark run, and the metrics derived from them.

`Tracer.install` wraps the public functions listed in `LAYER_FUNCTIONS`
and rebinds every module-level name in the `qkd3` package that refers to
one of them (so `qkd3.keyrate.exact_bound`, `qkd3.decoy.optimal_mu` and
`qkd3.cli.tolerable_eb` are traced too, not only `qkd3.exact_bound`).
Each call records one span: id, parent id, layer name, start, end and the
benchmark item it belongs to.  Spans stay in memory until `write`.

No file under `src/` is touched: the wrappers live here and are removed
again by `Tracer.uninstall`.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

from harness import percentile

LAYER_FUNCTIONS = (
    "attack.random_attack",
    "attack.rates_from_ensemble",
    "epbound.exact_bound",
    "epbound.approx_bound",
    "epbound.simple_bound",
    "keyrate.tolerable_eb",
    "keyrate.key_rate_single_photon",
    "decoy.optimal_mu",
    "decoy.max_secure_distance",
    "decoy.channel_observables",
    "decoy.phase_error_for",
    "simulate.run_protocol",
    "simulate.azuma_check",
    "cli.main",
)
CLI_SUBCOMMANDS = ("bound", "fig1", "region", "decoy", "simulate")
EP_CAP = 0.5


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "item", "note")

    def __init__(self, id, parent, name, start, end, item=None, note=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.item = item
        self.note = note

    @property
    def duration(self) -> float:
        return self.end - self.start


class _WatchedBound:
    """BoundResult stand-in that records whether `.witness` is read."""

    __slots__ = ("_result", "_note")

    def __init__(self, result, note):
        self._result = result
        self._note = note

    def __getattr__(self, name):
        if name == "witness":
            self._note["witness_read"] = True
        return getattr(self._result, name)


def _note_exact_bound(args, result):
    note = {
        "capped": result.ep_uncapped > EP_CAP,
        "limiting": result.method == "limiting",
        "witness_read": False,
    }
    return note, _WatchedBound(result, note)


def _note_cli_main(args, result):
    argv = args[0] if args else None
    return {"subcommand": argv[0] if argv else None}, result


def _note_run_protocol(args, result):
    return {"rounds": result.transmitted}, result


_NOTES = {
    "epbound.exact_bound": _note_exact_bound,
    "cli.main": _note_cli_main,
    "simulate.run_protocol": _note_run_protocol,
}


class Tracer:
    """Records a span per call into each layer while installed.

    Spans started on a thread with no open span of its own (the CLI's
    worker threads) take the innermost open span of the installing thread
    as parent, so sweep rows stay children of their `cli.main` call.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.item = None  # index of the benchmark item being run
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        annotate = _NOTES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            sid = next(tracer._ids)
            stack.append(sid)
            note = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    note, result = annotate(args, result)
                return result
            except Exception as exc:
                note = {"error": type(exc).__name__}
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(sid, parent, name, start, end, tracer.item, note)
                )

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main_stack
        wrappers = {}
        for name in LAYER_FUNCTIONS:
            module, func = name.split(".")
            fn = getattr(importlib.import_module(f"qkd3.{module}"), func)
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qkd3" or modname.startswith("qkd3.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "parent": s.parent,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "item": s.item,
                        }
                    )
                    + "\n"
                )


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = s.duration - covered
    return out


def _has_ancestor(span, name, by_id) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts, busy and self times, and the derived ratios."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.id: s for s in spans}

    out: dict[str, float] = {}
    for name in LAYER_FUNCTIONS:
        group = by_name.get(name, [])
        out[f"{name}.calls"] = len(group)
        out[f"{name}.busy_s"] = sum(s.duration for s in group)
        out[f"{name}.self_s"] = sum(selfs[s.id] for s in group)
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.busy_s"] = sum(
            s.duration
            for s in by_name.get("cli.main", [])
            if s.note and s.note.get("subcommand") == sub
        )

    bounds = by_name.get("epbound.exact_bound", [])
    notes = [s.note or {} for s in bounds]
    durations = sorted(s.duration for s in bounds)
    out["epbound.exact_bound.p50_us"] = (
        percentile(durations, 50)[0] * 1e6 if durations else 0.0
    )
    out["epbound.exact_bound.capped_frac"] = _ratio(
        sum(n.get("capped", False) for n in notes), len(bounds)
    )
    out["epbound.exact_bound.limiting_frac"] = _ratio(
        sum(n.get("limiting", False) for n in notes), len(bounds)
    )
    out["epbound.exact_bound.witness_used_frac"] = _ratio(
        sum(n.get("witness_read", False) for n in notes), len(bounds)
    )
    bound_calls = sum(
        _has_ancestor(s, "keyrate.tolerable_eb", by_id)
        for f in ("exact_bound", "approx_bound", "simple_bound")
        for s in by_name.get(f"epbound.{f}", ())
    )
    out["keyrate.tolerable_eb.bound_calls_per_call"] = _ratio(
        bound_calls, len(by_name.get("keyrate.tolerable_eb", ()))
    )
    mu_calls = sum(
        _has_ancestor(s, "decoy.max_secure_distance", by_id)
        for s in by_name.get("decoy.optimal_mu", ())
    )
    out["decoy.max_secure_distance.optimal_mu_calls_per_call"] = _ratio(
        mu_calls, len(by_name.get("decoy.max_secure_distance", ()))
    )
    runs = by_name.get("simulate.run_protocol", [])
    rounds = sum((s.note or {}).get("rounds", 0) for s in runs)
    out["simulate.run_protocol.ns_per_round"] = _ratio(
        sum(s.duration for s in runs) * 1e9, rounds
    )
    roots = [s for s in spans if s.parent is None]
    out["trace.layer_s"] = union_length((s.start, s.end) for s in roots)
    out["trace.self_sum_s"] = sum(selfs.values())
    out["trace.spans"] = len(spans)
    return out

