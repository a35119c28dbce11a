"""Pinned sha256 digests of the `compile`, `schedule`, `cost`, `compare`
and `sweep` artifact bodies.

A changed digest means the compiler's output changed.  Update one only
for an intended output change, and record it in CHANGES.md.
"""
import hashlib
import random
from pathlib import Path

import pytest

from atomshuttle import scheduler
from atomshuttle.architectures import ArchitectureSpec, Variant
from atomshuttle.cli import main
from atomshuttle.ir import (GateKind, LogicalCZ, Logical1Q, LogicalCircuit,
                            events_to_jsonl)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ARTIFACTS = {"compile": ("compile.jsonl",),
             "schedule": ("events.jsonl", "trajectories.csv", "makespan.txt")}

CONFIG_DIGESTS = {
    ("one-way-belt.arch", "compile"):
        "a8c55ec468a0c023c6ec58ded99e7fe186f622bd21233642fe53f0920f47adf7",
    ("one-way-belt.arch", "schedule"):
        "3ece4ca03efc9183e8345629c0b860c3e21cf3ac56659c0a57a6a481ebc2d229",
    ("shuttle-and-route.arch", "compile"):
        "08946ddbadee1dc587f9a3f4b82b34aabec7e7310ca53c370f3b485fa5e870ab",
    ("shuttle-and-route.arch", "schedule"):
        "27e12f32a39543408b472be89f6e9ec5c8d24053bd90a2f176c1516996d11bd6",
    ("throw-and-measure.arch", "compile"):
        "7265d0f9b7ec201ff8722562da26ec09f94c97ea3986675b6b982c358d9b4be6",
    ("throw-and-measure.arch", "schedule"):
        "429fbd0743fe1de134209678dde26091f7e9517576e4bf5b65e211bb7e934d05",
    ("throw-catch-throw.arch", "compile"):
        "ace8c6c51defa18c1c044fefc2d85ef8cccf971eacd579825e623e4440b482ff",
    ("throw-catch-throw.arch", "schedule"):
        "591df089cfab82bf57d99caa19870a1859c97929f8e857f609bf7fae3ebd2e10",
    ("two-way-belt.arch", "compile"):
        "b891d3da7fd49f68a75ac02467df5d67709a10fb208d2cdff2b17a87017fce74",
    ("two-way-belt.arch", "schedule"):
        "fe55a98026cf4a448fb38ce6f90b3294a04d627bca8c2ebac5efe85789a02329",
}

CORPUS_DIGESTS = {
    Variant.TWO_WAY_BELT:
        "6b7db2a9e9a3c8812a5c55ae3d9684456e3e68779abd030351fc542a85cf4b09",
    Variant.ONE_WAY_BELT:
        "3b2c133eaa992978b138dcf15a882845371235523e15c8c1592af92dfc6347f1",
    Variant.THROW_CATCH_THROW:
        "fe837977b4953be63a8a94ebd8fd1b85d66a7ab2a67684f08cd0d2e5f1d8cea2",
    Variant.SHUTTLE_AND_ROUTE:
        "101faf883fee41ff4b39a9207274867b663ec39bce73b2131796cf6626b36f44",
    Variant.THROW_AND_MEASURE:
        "a3edea267cbb905e5449713f2ebcadd3128cfc07033f4ce0c6badb913448d923",
}

# 3 programs x 96 uniform random CZs on 16x16 per variant: large enough
# that the scheduler's time index and bounding-box prefilter both prune
DEEP_DIGESTS = {
    Variant.TWO_WAY_BELT:
        "9b289a7a9c3ddefcd7195adcabfb9ffc40ca05f324a916bba47e75980200bf40",
    Variant.ONE_WAY_BELT:
        "88def91f2bb25cfc5b95427b96f8445b4f00e19143a05b1c4b8420b85de4f874",
    Variant.THROW_CATCH_THROW:
        "275434018c2585f58ed2be536eb2a639112b4ae5f48e70a830b4c9467892a81d",
    Variant.SHUTTLE_AND_ROUTE:
        "dddc7f1c2ed8eaf345ef16ec44fda3ed14a76493bac423e9e392ea5dfbd3364c",
    Variant.THROW_AND_MEASURE:
        "161df05e6915502a919b3634bf0edd632296318852eb6d4236f716bf6e653701",
}

# `cost`/`compare` on configs/default.cost with -L 8
COST_DIGESTS = {
    "cost": "183171d9eb74a7e315b26db892bd159e07b78283e22f1e86e480c3342339c99c",
    "compare": "d8842412b6c865b53020d7c909e50c6fe91d0da89331674c8fccb4cd50d1a5be",
}

# `sweep` over every variant (and both one-way cases), sweep.csv then
# sweep_contour.csv
SWEEP_DIGESTS = {
    "p1": "f1e00cc50245e2923f3cd3860889981a2397b814655bc40b02ffc3ab1deb58af",
    "pr": "bea784aedb86fb8006f354cb4097a94b29a63d52d865c9a003f376db3008c47c",
}


def body(path: Path) -> bytes:
    """An artifact without its '# atomshuttle <version> config=<hash>' header line."""
    return path.read_text().split("\n", 1)[1].encode()


def config_digest(out: Path, arch_file: str, command: str) -> str:
    assert main([command, "--arch", str(CONFIGS / arch_file),
                 "--program", str(CONFIGS / "sample.program"), "--out", str(out)]) == 0
    h = hashlib.sha256()
    for name in ARTIFACTS[command]:
        h.update(body(out / name))
    return h.hexdigest()


def random_circuit(rng: random.Random, L: int, n_ops: int) -> LogicalCircuit:
    cells = [(r, c) for r in range(L) for c in range(L)]
    ops = []
    for _ in range(n_ops):
        if rng.random() < 0.8:
            a, b = rng.sample(cells, 2)
            ops.append(LogicalCZ(a, b))
        else:
            ops.append(Logical1Q(rng.choice((GateKind.H, GateKind.Z, GateKind.X)),
                                 rng.choice(cells)))
    return LogicalCircuit(L, tuple(ops))


def digest_schedules(arch: ArchitectureSpec, circuits) -> str:
    h = hashlib.sha256()
    for circuit in circuits:
        prog = scheduler.schedule(circuit, arch)
        h.update(events_to_jsonl(prog.events).encode())
        h.update(scheduler.trajectories_to_csv(prog.trajectories).encode())
        h.update(f"{prog.makespan!r}\n".encode())
    return h.hexdigest()


def corpus_digest(variant: Variant) -> str:
    rng = random.Random(7001 + list(Variant).index(variant))
    return digest_schedules(ArchitectureSpec(variant, 8),
                            (random_circuit(rng, 8, rng.randint(1, 12)) for _ in range(50)))


def deep_digest(variant: Variant) -> str:
    rng = random.Random(1601 + list(Variant).index(variant))
    cells = [(r, c) for r in range(16) for c in range(16)]
    return digest_schedules(
        ArchitectureSpec(variant, 16),
        (LogicalCircuit(16, tuple(LogicalCZ(*rng.sample(cells, 2)) for _ in range(96)))
         for _ in range(3)))


@pytest.mark.parametrize("command", sorted(ARTIFACTS))
@pytest.mark.parametrize("arch_file", sorted(p.name for p in CONFIGS.glob("*.arch")))
def test_config_artifacts_match_golden_digest(tmp_path, arch_file, command):
    assert config_digest(tmp_path, arch_file, command) == \
        CONFIG_DIGESTS[(arch_file, command)]


@pytest.mark.parametrize("command", sorted(COST_DIGESTS))
def test_cost_artifacts_match_golden_digest(tmp_path, command):
    assert main([command, "--cost", str(CONFIGS / "default.cost"), "-L", "8",
                 "--out", str(tmp_path)]) == 0
    assert hashlib.sha256(body(tmp_path / f"{command}.csv")).hexdigest() == \
        COST_DIGESTS[command]


@pytest.mark.parametrize("axis", sorted(SWEEP_DIGESTS))
def test_sweep_artifacts_match_golden_digest(tmp_path, axis):
    h = hashlib.sha256()
    for variant in Variant:
        cases = ("1", "2") if variant is Variant.ONE_WAY_BELT else (None,)
        for case in cases:
            out = tmp_path / f"{variant.value}-{case}"
            argv = ["sweep", "--variant", variant.value, "--axis", axis, "--out", str(out)]
            assert main(argv + (["--case", case] if case else [])) == 0
            for name in ("sweep.csv", "sweep_contour.csv"):
                h.update(body(out / name))
    assert h.hexdigest() == SWEEP_DIGESTS[axis]


@pytest.mark.parametrize("variant", list(Variant))
def test_corpus_schedules_match_golden_digest(monkeypatch, variant):
    # Count exclusion conflicts seen by schedule() itself (outside the
    # single-gate planner), so the corpus is known to drive its bump loop.
    conflicts, in_plan = [0], [False]
    plan, min_distance = scheduler.plan_trajectories, scheduler.min_distance

    def counting_plan(*args):
        in_plan[0] = True
        try:
            return plan(*args)
        finally:
            in_plan[0] = False

    def counting_min_distance(*args):
        d = min_distance(*args)
        if not in_plan[0] and d < scheduler.EXCLUSION_CELLS - scheduler.DIST_TOL:
            conflicts[0] += 1
        return d

    monkeypatch.setattr(scheduler, "plan_trajectories", counting_plan)
    monkeypatch.setattr(scheduler, "min_distance", counting_min_distance)
    assert corpus_digest(variant) == CORPUS_DIGESTS[variant]
    assert conflicts[0] > 0


@pytest.mark.parametrize("variant", list(Variant))
def test_deep_schedules_match_golden_digest(monkeypatch, variant):
    # Count time-overlapping atom pairs that the bounding-box prefilter
    # keeps away from the exact distance, so the corpus is known to use it.
    skipped = [0]
    box_gap = scheduler.box_gap

    def counting_box_gap(a, b):
        gap = box_gap(a, b)
        if gap >= scheduler.EXCLUSION_CELLS + scheduler.BOX_MARGIN:
            skipped[0] += 1
        return gap

    monkeypatch.setattr(scheduler, "box_gap", counting_box_gap)
    assert deep_digest(variant) == DEEP_DIGESTS[variant]
    assert skipped[0] > 0
