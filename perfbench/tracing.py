"""Span tracing for the traced benchmark run, from outside the program.

`Tracer.installed()` swaps the public functions listed in `SPANS` for
timing wrappers in every atomshuttle module namespace that binds them,
so the callers' own attribute lookups reach the wrappers and no source
file changes.  `scheduler.min_distance` is counted, not timed, under the
name of the span that encloses the call.  Spans stay in memory until
`write()`.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from atomshuttle import architectures, cli, cost, ir, oracle, scheduler
import atomshuttle

_MODULES = (atomshuttle, architectures, cli, cost, ir, oracle, scheduler)

# span name -> the functions it times.  `ir.serialize` covers both
# artifact writers.
SPANS = {
    "cli.main": (cli.main,),
    "cli.build_parser": (cli.build_parser,),
    "architectures.load_arch_config": (architectures.load_arch_config,),
    "ir.parse_program": (ir.parse_program,),
    "scheduler.schedule": (scheduler.schedule,),
    "architectures.decompose_cz": (architectures.decompose_cz,),
    "scheduler.plan_trajectories": (scheduler.plan_trajectories,),
    "scheduler.shift_program": (scheduler.shift_program,),
    "ir.sort_events": (ir.sort_events,),
    "ir.serialize": (ir.events_to_jsonl, scheduler.trajectories_to_csv),
    "oracle.verify_logical_cz": (oracle.verify_logical_cz,),
    "oracle.branch_execute": (oracle.branch_execute,),
    "oracle.reduced_density": (oracle.reduced_density,),
    "scheduler.check_conflicts": (scheduler.check_conflicts,),
}

# enclosing span -> suffix of the min_distance counters
MIN_DISTANCE_SITES = {
    "scheduler.schedule": "schedule",
    "scheduler.plan_trajectories": "plan",
    "scheduler.check_conflicts": "check",
}
CONFLICT_BELOW = scheduler.EXCLUSION_CELLS - scheduler.DIST_TOL


class Tracer:
    """Records spans `(name, start, end, parent_id, command_id)`.

    A span's id is its index in `spans`; the parent id is -1 at the top.
    """

    def __init__(self):
        self.spans: list = []
        self.command = -1
        self.min_distance_calls: dict[str, int] = defaultdict(int)
        self.min_distance_conflicts: dict[str, int] = defaultdict(int)
        self.branches = 0
        self._open: list[tuple[int, str]] = []   # (span id, name), innermost last

    def _timed(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.command)
        return wrapper

    def _branch_counter(self, fn):
        def wrapper(*args, **kwargs):
            branches = fn(*args, **kwargs)
            self.branches += len(branches)
            return branches
        return wrapper

    def _min_distance_counter(self, fn):
        stack, calls, conflicts = self._open, self.min_distance_calls, self.min_distance_conflicts

        def wrapper(*args):
            d = fn(*args)
            site = MIN_DISTANCE_SITES.get(stack[-1][1] if stack else "", "other")
            calls[site] += 1
            if d < CONFLICT_BELOW:
                conflicts[site] += 1
            return d
        return wrapper

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        md = scheduler.min_distance
        replacements = {id(md): (md, self._min_distance_counter(md))}
        for name, fns in SPANS.items():
            for fn in fns:
                inner = self._branch_counter(fn) if fn is oracle.branch_execute else fn
                replacements[id(fn)] = (fn, self._timed(name, inner))
        saved = []
        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                original, wrapper = replacements.get(id(value), (None, None))
                if original is value:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def self_times(self, commands) -> dict[str, tuple[float, int]]:
        """Per span name: (self seconds, calls) over spans whose command id is in `commands`."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {name: [0.0, 0] for name in SPANS}
        for sid, (name, start, end, _, cmd) in enumerate(self.spans):
            if cmd in commands:
                out[name][0] += (end - start) - child[sid]
                out[name][1] += 1
        return {name: (s, n) for name, (s, n) in out.items()}

    def durations(self, name: str, commands) -> list[float]:
        return [end - start for n, start, end, _, cmd in self.spans
                if n == name and cmd in commands]

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for sid, (name, start, end, parent, cmd) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "command": cmd}) + "\n")
