"""atomshuttle benchmark: seeded CLI workloads, timed end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-8x8 --seed 1 --seconds 10 --trace 0

Each command goes through `atomshuttle.cli.main`, called in this process
by one client in a closed loop.  Every command's artifacts pass the
correctness gate in `gate.py`.  The run prints one line per metric, an
artifact digest, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics and `--trace 1` the per-layer
ones of README.md.  Exit status: 0 when every command passed the gate,
1 when any failed, 2 when the checkout holds no atomshuttle sources.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (SCHEDULE_ARTIFACTS, VARIANTS, VERIFY_ARTIFACTS,
                       WORKLOADS, Command, Workload)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 9

# Host-speed calibration: a fixed pure-Python task is timed between
# commands, at least every CALIBRATION_EVERY_S of command time.  Each
# timing is scaled by REFERENCE_S over the median task time within
# CALIBRATION_WINDOW_S of it (README.md, "Noise").  REFERENCE_S is
# near the task's time on a 2-core virtual machine at its fastest.
CALIBRATION_EVERY_S = 0.05
CALIBRATION_WINDOW_S = 2.0
REFERENCE_S = 0.0035

# Fresh interpreter: import atomshuttle from argv[1] and run one command.
_SETUP_SCRIPT = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from atomshuttle import cli
code = cli.main(sys.argv[2:])
print(time.perf_counter() - t0, code)
"""
# Fresh interpreter: import standard-library modules atomshuttle does not
# use.  Set-up time is scaled by this time, taken right before it, to
# REFERENCE_IMPORT_S: imports slow down on a busy host by other amounts
# than computation does.
_IMPORT_REFERENCE_SCRIPT = """\
import time
t0 = time.perf_counter()
import asyncio, decimal, email.message, http.client, sqlite3, xml.etree.ElementTree
print(time.perf_counter() - t0)
"""
REFERENCE_IMPORT_S = 0.05
# One BLAS thread, in this process and in the set-up interpreters: numpy
# otherwise starts a thread per core on import, and set-up time then
# depends on how busy the host's other core is.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1"}


def calibration_task() -> int:
    """Fixed pure-Python work whose time follows the host's speed: about
    three quarters arithmetic, one quarter building, sorting and
    serializing small dicts, as a slower host slows the two kinds of
    work by different amounts (README.md, "Noise")."""
    s = 0
    for i in range(45_000):
        s += i * i % 7
    rng = random.Random(1)
    table: dict[tuple[int, int], list[dict]] = {}
    for i in range(450):
        key = (rng.randrange(100), rng.randrange(100))
        table.setdefault(key, []).append({"t": 1.5 * i, "a": str(i)})
    return s + len(json.dumps([sorted(v, key=lambda e: e["t"]) for v in table.values()]))


class Calibration:
    """Times `calibration_task` now and then and gives, for a moment of
    the run, the factor that scales a timing taken then to the reference
    speed, at which the task takes REFERENCE_S."""

    def __init__(self):
        self.at: list[float] = []       # perf_counter midpoints, ascending
        self.seconds: list[float] = []
        self._since = math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        calibration_task()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.seconds.append(t1 - t0)

    def after_command(self, dt: float) -> None:
        self._since += dt
        if self._since >= CALIBRATION_EVERY_S:
            self.sample()
            self._since = 0.0

    def scale(self, t: float) -> float:
        lo = bisect.bisect_left(self.at, t - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.at, t + CALIBRATION_WINDOW_S)
        if lo == hi:   # no sample in the window: take the nearest one
            lo = min(range(max(lo - 1, 0), min(lo + 1, len(self.at))),
                     key=lambda k: abs(self.at[k] - t))
            hi = lo + 1
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])


def use_source_tree() -> bool:
    """Import atomshuttle from this checkout's `src/`; False if absent."""
    if not (SRC / "atomshuttle" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import atomshuttle
    return Path(atomshuttle.__file__).resolve().is_relative_to(SRC)


@dataclass
class Round:
    """Outcome of running commands: timings, failures and, for round 0,
    what the artifacts add up to."""

    variants: list[str] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    midpoints: list[float] = field(default_factory=list)
    items: int = 0
    problems: list[str] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    makespan_s: float = 0.0
    events: int = 0

    @property
    def attempted(self) -> int:
        return len(self.seconds)


class Runner:
    """Runs a workload's commands through `cli.main` in this process.

    With `reuse_verdicts`, a command whose artifacts are byte-identical
    to those of an earlier run of it that passed the gate passes without
    being judged again; any other outcome is judged in full.
    """

    def __init__(self, workload: Workload, reuse_verdicts: bool = False):
        from atomshuttle import cli
        import gate
        self.cli, self.gate = cli, gate
        self.workload = workload
        self.tracer = None
        self.calibration = Calibration()
        self._passed: dict[tuple[str, ...], bytes] | None = {} if reuse_verdicts else None
        self._stderr = io.StringIO()

    def run(self, cmd: Command, into: Round, command_id: int = 0) -> None:
        """Run one command, time it and judge its artifacts."""
        names = SCHEDULE_ARTIFACTS if cmd.kind == "schedule" else VERIFY_ARTIFACTS
        out = Path(cmd.argv[cmd.argv.index("--out") + 1])
        for name in names:
            (out / name).unlink(missing_ok=True)
        if self.tracer is not None:
            self.tracer.command = command_id
        self._stderr.seek(0)
        self._stderr.truncate()
        with redirect_stderr(self._stderr):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(cmd.argv))
            except Exception as e:  # a crash fails the command, not the run
                code = f"exception {e!r}"
            t1 = time.perf_counter()
        into.variants.append(cmd.variant)
        into.seconds.append(t1 - t0)
        into.midpoints.append((t0 + t1) / 2)
        into.items += cmd.items
        problems = self._judge(cmd, code, out, names, into)
        if problems:
            into.problems.append(f"{' '.join(cmd.argv[:5])}: {problems[0]}")
        self.calibration.after_command(t1 - t0)

    def _judge(self, cmd, code, out, names, into: Round) -> list[str]:
        if code != cmd.expect_exit:
            return [f"exit {code}, expected {cmd.expect_exit}"]
        try:
            texts = self.gate.read_artifacts(out, names)
        except Exception as e:  # missing artifacts fail the command, not the run
            return [f"unreadable artifacts: {e!r}"]
        for name in names:
            into.digest.update(texts[name].encode())
        if self._passed is not None:
            digest = hashlib.sha256("".join(texts[n] for n in names).encode()).digest()
            if self._passed.get(cmd.argv) == digest:
                return []
        try:
            if cmd.kind == "schedule":
                problems, makespan, n_events = self.gate.check_schedule(
                    texts, cmd.variant, cmd.L, cmd.items)
                into.makespan_s += makespan
                into.events += n_events
            else:
                problems = self.gate.check_verify(texts["verify.jsonl"], cmd.expect_exit != 0)
        except Exception as e:  # malformed artifacts fail the command, not the run
            return [f"unreadable artifacts: {e!r}"]
        if self._passed is not None and not problems:
            self._passed[cmd.argv] = digest
        return problems

    def run_round(self) -> Round:
        into = Round()
        for k, cmd in enumerate(self.workload.commands):
            self.run(cmd, into, k)
        return into


def percentile(sorted_xs: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)]


def measure_setup(warmup: Command) -> tuple[float, float]:
    """Median seconds to import atomshuttle and run one warm-up command,
    each time in a fresh interpreter: (scaled by the import reference
    timed right before it, as measured)."""
    scaled, times = [], []
    env = {**os.environ, **ONE_BLAS_THREAD}
    for _ in range(SETUP_REPEATS):
        ref = subprocess.run([sys.executable, "-c", _IMPORT_REFERENCE_SCRIPT], env=env,
                             cwd=ROOT, capture_output=True, text=True, timeout=120)
        proc = subprocess.run([sys.executable, "-c", _SETUP_SCRIPT, str(SRC), *warmup.argv],
                              env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        fields = proc.stdout.split()
        if (ref.returncode != 0 or proc.returncode != 0 or len(fields) != 2
                or int(fields[1]) != warmup.expect_exit):
            raise RuntimeError(f"set-up run failed: {(ref.stderr + proc.stderr).strip()[-500:]}")
        times.append(float(fields[0]))
        scaled.append(times[-1] * REFERENCE_IMPORT_S / float(ref.stdout))
    return statistics.median(scaled), statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: Workload, seconds: float):
    """Untraced run: round 0 in full, then the commands again in order
    until `seconds` of command time is measured.  Every timing is scaled
    to the reference speed by the calibration taken around it."""
    runner = Runner(workload, reuse_verdicts=True)
    runner.run(workload.warmup, Round())
    setup_s, setup_wall_s = measure_setup(workload.warmup)
    fixed = runner.run_round()
    more = Round()
    elapsed = sum(fixed.seconds)
    for cmd in itertools.cycle(workload.commands):
        if elapsed >= seconds:
            break
        runner.run(cmd, more)
        elapsed += more.seconds[-1]
    runner.calibration.sample()
    rounds = [fixed, more]
    rss = peak_rss_mb()

    scale = runner.calibration.scale
    runs = [(v, sec * scale(t), sec) for r in rounds
            for v, sec, t in zip(r.variants, r.seconds, r.midpoints)]
    scaled = sorted(sec for _, sec, _ in runs)
    wall = sorted(sec for _, _, sec in runs)
    per_variant = {v: [sec for rv, sec, _ in runs if rv == v] for v in VARIANTS}
    tail_s = percentile(scaled, workload.tail_pct)
    beyond = sum(sec > tail_s for sec in scaled)
    items = sum(r.items for r in rounds)
    rate = items / sum(scaled)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(rss, "MB"),
        "cmd_ms.p50": _metric(1e3 * statistics.median(scaled), "ms"),
        "cmd_ms.tail": _metric(1e3 * tail_s, "ms"),
        "items_per_s": _metric(rate, "1/s"),
    }
    for v in VARIANTS:
        metrics[f"variant_ms.{v}"] = _metric(1e3 * statistics.median(per_variant[v]), "ms")

    # The same figures under their report names, for the workloads they
    # describe, plus the figures that are not JSON metrics.
    attempted = sum(r.attempted for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    verb = "verify" if workload.name == "verify-4x4" else "compile"
    named = {
        "failed_frac": (len(problems) / attempted, "ratio"),
        f"{verb}_ms.p50": (metrics["cmd_ms.p50"]["value"], "ms"),
        f"{verb}_ms.tail": (1e3 * tail_s, f"ms (p{workload.tail_pct:g} of {len(wall)} commands, "
                                           f"{beyond} beyond it)"),
    }
    if workload.name == "verify-4x4":
        named["verdicts_per_s"] = (rate, "1/s")
    else:
        named["cz_per_s"] = (rate, "1/s")
        named["makespan_us.total"] = (1e6 * fixed.makespan_s, "us")
    if workload.name == "deep-16x16":
        for v in VARIANTS:
            named[f"compile_s.{v}"] = (statistics.median(per_variant[v]), "s")
    lines = [f"{workload.name} {k} = {val:.6g} {unit}" for k, (val, unit) in named.items()]
    calibration = runner.calibration.seconds
    lines.append(f"{workload.name} unscaled: setup_s = {setup_wall_s:.6g} s, "
                 f"cmd_ms.p50 = {1e3 * statistics.median(wall):.6g} ms, "
                 f"cmd_ms.tail = {1e3 * percentile(wall, workload.tail_pct):.6g} ms, "
                 f"items_per_s = {items / sum(wall):.6g} 1/s; calibration task median "
                 f"{1e3 * statistics.median(calibration):.4g} ms over {len(calibration)} samples "
                 f"(reference {1e3 * REFERENCE_S:g} ms)")
    lines.append(f"{workload.name} commands = {attempted} ({len(workload.commands)} per round), "
                 f"artifact sha256 (round 0) = {fixed.digest.hexdigest()}")
    return metrics, attempted, problems, lines


def traced(workload: Workload, spans_path: Path):
    """Each command of a round run untraced and traced back to back, in
    alternating order so that host drift cancels out of the overhead;
    then the growth pass, traced."""
    from tracing import SPANS, Tracer

    runner = Runner(workload)
    runner.run(workload.warmup, Round())
    tracer = Tracer()
    runner.tracer = tracer
    plain, fixed = Round(), Round()
    for k, cmd in enumerate(workload.commands):
        for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
            if with_spans:
                with tracer.installed():
                    runner.run(cmd, fixed, k)
            else:
                runner.run(cmd, plain, k)
    n = len(workload.commands)
    layers = tracer.self_times(range(n))
    md_calls = dict(tracer.min_distance_calls)
    md_conflicts = dict(tracer.min_distance_conflicts)
    branches = tracer.branches
    growth = Round()
    with tracer.installed():
        for j, cmd in enumerate(workload.growth):
            runner.run(cmd, growth, n + j)
    tracer.write(spans_path)

    metrics = {}
    for name, (self_s, calls) in layers.items():
        metrics[f"{name}.self_s"] = _metric(self_s, "s")
        metrics[f"{name}.calls"] = _metric(calls, "count")
    for site in ("schedule", "plan", "check"):
        metrics[f"scheduler.min_distance.calls.{site}"] = _metric(md_calls.get(site, 0), "count")
    sched_calls = md_calls.get("schedule", 0)
    metrics["scheduler.min_distance.conflict_ratio.schedule"] = _metric(
        md_conflicts.get("schedule", 0) / sched_calls if sched_calls else 0.0, "ratio")
    metrics["ir.events.count"] = _metric(fixed.events, "count")
    metrics["oracle.branches.count"] = _metric(branches, "count")
    metrics["makespan_us.total"] = _metric(1e6 * fixed.makespan_s, "us")
    exponent = 0.0   # reported as 0 on workloads without a growth pass
    if workload.growth:
        (t_small,), (t_big,) = (tracer.durations("scheduler.schedule", {n + j}) for j in (0, 1))
        small, big = (c.items for c in workload.growth)
        exponent = math.log(t_big / t_small) / math.log(big / small)
    metrics["scheduler.schedule.growth_exponent"] = _metric(exponent, "exponent")
    metrics["trace.overhead_s"] = _metric(sum(fixed.seconds) - sum(plain.seconds), "s")

    wall = sum(tracer.durations("cli.main", range(n)))
    lines = [f"{workload.name} traced round 0: {n} commands, {wall:.4f} s in cli.main"]
    in_command = {name: layers[name] for name in SPANS if name != "scheduler.check_conflicts"}
    for name, (self_s, calls) in in_command.items():
        if calls:
            lines.append(f"{workload.name} {name}: self {self_s:.4f} s "
                         f"({100 * self_s / wall:.1f}% of command wall), {calls} calls")
    check_s, check_calls = layers["scheduler.check_conflicts"]
    lines.append(f"{workload.name} scheduler.check_conflicts (the gate, outside the commands): "
                 f"self {check_s:.4f} s, {check_calls} calls")
    top = max(in_command, key=lambda name: in_command[name][0])
    cli_oracle = sum(self_s for name, (self_s, _) in in_command.items()
                     if name.startswith(("cli.", "oracle.")))
    lines.append(f"{workload.name} largest span {top}: {100 * in_command[top][0] / wall:.1f}%; "
                 f"cli.* + oracle.*: {100 * cli_oracle / wall:.1f}% of command wall")
    if workload.growth:
        two_way = {k for k in range(n) if workload.commands[k].variant == VARIANTS[0]}
        share = (tracer.self_times(two_way)["scheduler.schedule"][0]
                 / sum(tracer.durations("cli.main", two_way)))
        lines.append(f"{workload.name} scheduler.schedule self share of two-way-belt "
                     f"command time: {100 * share:.1f}%")
    problems = plain.problems + fixed.problems + growth.problems
    attempted = plain.attempted + fixed.attempted + growth.attempted
    return metrics, attempted, problems, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, **sizes):
    """Generate the inputs, run, and return `(result, report lines)`."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[name](seed, work, **sizes)
        if trace:
            spans_path = WORK_ROOT / f"spans-{name}-seed{seed}.jsonl"
            metrics, attempted, problems, lines = traced(workload, spans_path)
        else:
            metrics, attempted, problems, lines = end_to_end(workload, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines += [f"FAILED {p}" for p in problems[:20]]
    result = {"correct": not problems, "attempted": attempted, "failed": len(problems),
              "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="command time to measure (at least round 0 in full)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(ONE_BLAS_THREAD)
    if not use_source_tree():
        print(f"perfbench: no atomshuttle sources under {SRC}", file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
