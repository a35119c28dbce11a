"""Seeded workload generators for the atomshuttle benchmark.

Each generator writes its `.arch` and `.program` inputs into a work
directory and returns the CLI commands that use them.  atomshuttle sees
only those files: nothing here imports it.  The same seed gives the same
files and the same command order.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = ("two-way-belt", "one-way-belt", "throw-catch-throw",
            "shuttle-and-route", "throw-and-measure")

# The physical parameters of configs/*.arch, written out in full so the
# inputs do not depend on the program's defaults.
_ARCH_PARAMS = (
    ("a_m", "3e-6"), ("R_m", "2.7e-6"), ("v_mps", "1.5"), ("t2_s", "1e-6"),
    ("t1_s", "1e-7"), ("tr_s", "1e-5"), ("t_route_s", "2e-6"),
    ("t_turnaround_s", "2e-6"),
)

SCHEDULE_ARTIFACTS = ("events.jsonl", "trajectories.csv", "makespan.txt")
VERIFY_ARTIFACTS = ("verify.jsonl",)

# verify --drop-final-correction mutants with a known failing verdict:
# one-way case 1, one-way case 2 and throw-and-measure (as in criterion 8).
_MUTANTS = (
    ("one-way-belt", ((0, 0), (3, 3))),
    ("one-way-belt", ((0, 3), (3, 0))),
    ("throw-and-measure", ((0, 0), (3, 3))),
)


@dataclass(frozen=True)
class Command:
    """One `atomshuttle` invocation and what its outcome must be."""

    argv: tuple[str, ...]
    kind: str          # "schedule" or "verify"
    variant: str
    L: int
    items: int         # logical CZs compiled, or 1 verdict
    expect_exit: int   # 0, or 4 for a mutant that must fail verification


@dataclass(frozen=True)
class Workload:
    """Commands of one workload.

    A round runs every command once, in order.  Round 0 is the fixed set
    every run completes: the artifact digest, `makespan_us.total` and the
    traced run cover exactly it.  After it the benchmark runs the
    commands again, in the same order, until the measured time is used
    up.  `tail_pct` is the percentile reported as the tail: fixed per
    workload, so that it does not change with the machine's speed, and
    chosen so that a run of the benchmark's length has at least ten
    commands beyond it.
    """

    name: str
    commands: tuple[Command, ...]
    warmup: Command
    tail_pct: float
    growth: tuple[Command, ...] = ()   # traced run only: two program sizes


def _write_arch(work: Path, variant: str, L: int) -> str:
    path = work / f"{variant}-L{L}.arch"
    lines = [f"variant = {variant}", f"L = {L}"]
    lines += [f"{k} = {v}" for k, v in _ARCH_PARAMS]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _cell(rng: random.Random, L: int) -> tuple[int, int]:
    return rng.randrange(L), rng.randrange(L)


def _cz(rng: random.Random, L: int) -> str:
    while True:
        a, b = _cell(rng, L), _cell(rng, L)
        if a != b:
            return f"cz ({a[0]},{a[1]}) ({b[0]},{b[1]})"


def _write_program(path: Path, L: int, ops: list[str]) -> str:
    path.write_text(f"lattice {L}\n" + "".join(op + "\n" for op in ops))
    return str(path)


def _schedule_cmd(arch: str, program: str, out: Path, variant: str, L: int,
                  n_cz: int) -> Command:
    return Command(("schedule", "--arch", arch, "--program", program,
                    "--out", str(out)), "schedule", variant, L, n_cz, 0)


def _verify_cmd(arch: str, pair, out: Path, variant: str, L: int,
                mutant: bool) -> Command:
    (r1, c1), (r2, c2) = pair
    argv = ("verify", "--arch", arch, "--pair", f"{r1},{c1},{r2},{c2}",
            "--out", str(out))
    if mutant:
        argv += ("--drop-final-correction",)
    return Command(argv, "verify", variant, L, 1, 4 if mutant else 0)


def corpus_8x8(seed: int, work: Path, n_programs: int = 2000) -> Workload:
    """Many short programs: 1-20 ops, 80% long-range CZ, round-robin variants.

    2000 programs give each variant 400 distinct programs and keep >= 10
    commands beyond the p99 in round 0 alone.  Each variant gets every
    length from 1 to 20 equally often, in seeded order, so that the seed
    moves the per-variant medians little.
    """
    L = 8
    rng = random.Random(f"corpus-8x8:{seed}")
    out = work / "out"
    arch = {v: _write_arch(work, v, L) for v in VARIANTS}
    per_variant = -(-n_programs // len(VARIANTS))
    lengths = {v: [1 + k % 20 for k in range(per_variant)] for v in VARIANTS}
    for v in VARIANTS:
        rng.shuffle(lengths[v])
    commands = []
    for i in range(n_programs):
        v = VARIANTS[i % len(VARIANTS)]
        ops, n_cz = [], 0
        for _ in range(lengths[v][i // len(VARIANTS)]):
            if rng.random() < 0.8:
                ops.append(_cz(rng, L))
                n_cz += 1
            else:
                r, c = _cell(rng, L)
                ops.append(f"{rng.choice('hzx')} ({r},{c})")
        program = _write_program(work / f"corpus-{i:05d}.program", L, ops)
        commands.append(_schedule_cmd(arch[v], program, out, v, L, n_cz))
    warm = _write_program(work / "warmup.program", L, [_cz(rng, L) for _ in range(4)])
    warmup = _schedule_cmd(arch[VARIANTS[0]], warm, work / "warmup", VARIANTS[0], L, 4)
    return Workload("corpus-8x8", tuple(commands), warmup, tail_pct=99.0)


def deep_16x16(seed: int, work: Path, n_programs: int = 10, n_cz: int = 192,
               growth: tuple[int, int] = (48, 192)) -> Workload:
    """Few long programs of uniform random CZs, each run on every variant.

    Long programs make the pairwise exclusion loop in `schedule()` the
    bulk of compile time: >= 90% of two-way-belt's from about 160 CZs.
    Compile time differs by about a sixth between random programs of
    one size, so a round holds 10 programs, which keeps the per-variant
    medians from following the few programs one seed draws.  `growth`
    gives two program sizes, a factor of 4 apart, scheduled on
    two-way-belt in the traced run only.
    The tail is p75: two-way-belt is a fifth of the commands and several
    times slower than the rest, and a run holds too few commands for
    >= 10 beyond the p90.
    """
    L = 16
    rng = random.Random(f"deep-16x16:{seed}")
    out = work / "out"
    arch = {v: _write_arch(work, v, L) for v in VARIANTS}
    commands = []
    for i in range(n_programs):
        program = _write_program(work / f"deep-{i:02d}.program", L,
                                 [_cz(rng, L) for _ in range(n_cz)])
        commands += [_schedule_cmd(arch[v], program, out, v, L, n_cz) for v in VARIANTS]
    growth_cmds = []
    for n in growth:
        program = _write_program(work / f"growth-{n}.program", L,
                                 [_cz(rng, L) for _ in range(n)])
        growth_cmds.append(_schedule_cmd(arch[VARIANTS[0]], program, out,
                                         VARIANTS[0], L, n))
    warm = _write_program(work / "warmup.program", L, [_cz(rng, L) for _ in range(4)])
    warmup = _schedule_cmd(arch[VARIANTS[0]], warm, work / "warmup", VARIANTS[0], L, 4)
    return Workload("deep-16x16", tuple(commands), warmup, tail_pct=75.0,
                    growth=tuple(growth_cmds))


def verify_4x4(seed: int, work: Path, max_pairs: int | None = None) -> Workload:
    """`verify --pair` for every pair of a 4x4 array on every variant.

    Adds the three `--drop-final-correction` mutants, which must exit 4.
    The seed sets the order of the commands.
    """
    L = 4
    rng = random.Random(f"verify-4x4:{seed}")
    out = work / "out"
    arch = {v: _write_arch(work, v, L) for v in VARIANTS}
    pairs = list(itertools.combinations(itertools.product(range(L), range(L)), 2))
    pairs = pairs[:max_pairs]
    commands = [_verify_cmd(arch[v], p, out, v, L, False) for v in VARIANTS for p in pairs]
    commands += [_verify_cmd(arch[v], p, out, v, L, True) for v, p in _MUTANTS]
    rng.shuffle(commands)
    warmup = _verify_cmd(arch[VARIANTS[0]], ((0, 0), (3, 3)), work / "warmup",
                         VARIANTS[0], L, False)
    return Workload("verify-4x4", tuple(commands), warmup, tail_pct=99.0)


WORKLOADS = {
    "corpus-8x8": corpus_8x8,
    "deep-16x16": deep_16x16,
    "verify-4x4": verify_4x4,
}
