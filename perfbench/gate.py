"""Correctness gate: judge each command from the artifacts it wrote.

A `schedule` command is rebuilt from `events.jsonl`, `trajectories.csv`
and `makespan.txt` alone, then re-validated with `check_conflicts` and
the classical-bit order check.  A `verify` command's records must all be
ok, or for a mutant at least one must fail.  The runner checks exit codes.
"""
from __future__ import annotations

import json
from pathlib import Path

from atomshuttle import ir, scheduler
from atomshuttle.architectures import ArchitectureSpec, Variant

HEADER_PREFIX = "# atomshuttle "


def _split_header(name: str, text: str) -> tuple[str, str]:
    header, _, body = text.partition("\n")
    if not header.startswith(HEADER_PREFIX):
        raise ValueError(f"{name}: missing '{HEADER_PREFIX.strip()}' header")
    return header, body


def parse_trajectories(body: str) -> dict[int, list[scheduler.TrajectorySegment]]:
    lines = body.splitlines()
    if not lines or lines[0] != "messenger,t_start,t_end,x0,y0,x1,y1,kind":
        raise ValueError("trajectories.csv: unexpected column header")
    out: dict[int, list[scheduler.TrajectorySegment]] = {}
    for line in lines[1:]:
        s, t0, t1, x0, y0, x1, y1, kind = line.split(",")
        serial = int(s)
        out.setdefault(serial, []).append(scheduler.TrajectorySegment(
            serial, scheduler.SegmentKind(kind), float(t0), float(t1),
            (float(x0), float(y0)), (float(x1), float(y1))))
    return out


# messengers one logical CZ uses, per variant (the table in the top-level README.md)
MESSENGERS_PER_CZ = {"two-way-belt": 4, "one-way-belt": 2, "throw-catch-throw": 1,
                     "shuttle-and-route": 1, "throw-and-measure": 1}


def check_schedule(texts: dict[str, str], variant: str, L: int, n_cz: int):
    """Problems found in one schedule command's artifacts.

    Returns `(problems, makespan, n_events)`; `problems` is empty when
    the artifacts describe a valid schedule of `n_cz` logical CZs.
    """
    split = {name: _split_header(name, text) for name, text in texts.items()}
    if len({header for header, _ in split.values()}) != 1:
        return ["artifacts carry different config headers"], 0.0, 0
    events = ir.events_from_jsonl(split["events.jsonl"][1])
    trajectories = parse_trajectories(split["trajectories.csv"][1])
    makespan = float(split["makespan.txt"][1])
    problems = []
    if not events or makespan != max(e.t_end for e in events):
        problems.append(f"makespan {makespan!r} is not the end of the last event")
    disposed = sum(1 for e in events if e.action is ir.ActionKind.DISPOSE)
    if disposed != n_cz * MESSENGERS_PER_CZ[variant]:
        problems.append(f"{disposed} messengers disposed for {n_cz} logical CZs")
    program = scheduler.ScheduledProgram(events, trajectories, makespan)
    arch = ArchitectureSpec(Variant(variant), L)
    problems += [v.message for v in scheduler.check_conflicts(program, arch)]
    problems += list(ir.classical_bits(events).violations)
    return problems, makespan, len(events)


def check_verify(text: str, mutant: bool) -> list[str]:
    """Problems found in one verify command's `verify.jsonl`.

    Every record must be ok, or for a mutant at least one must fail.
    """
    records = [json.loads(line) for line in _split_header("verify.jsonl", text)[1].splitlines()]
    if not records:
        return ["verify.jsonl holds no records"]
    n_bad = sum(1 for r in records if not r["ok"])
    if not mutant and n_bad:
        return [f"{n_bad}/{len(records)} records not ok"]
    if mutant and not n_bad:
        return ["mutant passed every branch check"]
    return []


def read_artifacts(out_dir: Path, names) -> dict[str, str]:
    return {name: (out_dir / name).read_text() for name in names}
