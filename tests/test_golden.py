"""Pinned sha256 digests of the `compile`, `schedule`, `cost`, `compare`
and `sweep` artifact bodies, and of single-gate `plan_trajectories` plans.

A changed digest means the compiler's output changed.  Update one only
for an intended output change, and record it in CHANGES.md.
"""
import hashlib
import itertools
import random
from pathlib import Path

import pytest

from atomshuttle import scheduler
from atomshuttle.architectures import ArchitectureSpec, Variant, decompose_cz
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
        "a2ba8b1118b4a7d9829ab1b71fd81b566937bf113de0460d77fb2b88b919c637",
    Variant.ONE_WAY_BELT:
        "ea746f1159df97f597d183f7bd80fbb32feb94571e6017cfc90f889dab72e8e4",
    Variant.THROW_CATCH_THROW:
        "2cf488fc4e784c38eafebe509aed38b74a1c2ebba4156ca370dd25aec91a08c6",
    Variant.SHUTTLE_AND_ROUTE:
        "101faf883fee41ff4b39a9207274867b663ec39bce73b2131796cf6626b36f44",
    Variant.THROW_AND_MEASURE:
        "a3edea267cbb905e5449713f2ebcadd3128cfc07033f4ce0c6badb913448d923",
}

# 3 programs x 96 uniform random CZs on 16x16 per variant: large enough
# that the scheduler's time index and bounding-box prefilter both prune
DEEP_DIGESTS = {
    Variant.TWO_WAY_BELT:
        "9c0d58fd8ee3a89718448c32a76c8fb0a735a24a8c9104886b6b53192ee19244",
    Variant.ONE_WAY_BELT:
        "0a5e777af175ba39d8dead92c90c35bde53252b738041770452fa20df22cd58d",
    Variant.THROW_CATCH_THROW:
        "227e83c9aee2fcfc8165751952beb6e2d6f64158b94515fb21304a9a2ea31b31",
    Variant.SHUTTLE_AND_ROUTE:
        "47b1bcc09db62b7a549b369745807160034408f6beb64f07766a2acddfeb1902",
    Variant.THROW_AND_MEASURE:
        "de0368bca40f9c2fb0638fc5f39847d5b06d4c381f0e589ad24273fe7e34c126",
}

# plan_trajectories on every ordered pair of L = 4 and 5, all variants
PLAN_DIGEST = "701859ac71bd97d0225ad935fa4f3f7897b7c6c88f9dd1e8412ef2cea412b6b0"

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


def digest_programs(programs) -> str:
    h = hashlib.sha256()
    for prog in programs:
        h.update(events_to_jsonl(prog.events).encode())
        h.update(scheduler.trajectories_to_csv(prog.trajectories).encode())
        h.update(f"{prog.makespan!r}\n".encode())
    return h.hexdigest()


def digest_schedules(arch: ArchitectureSpec, circuits) -> str:
    return digest_programs(scheduler.schedule(circuit, arch) for circuit in circuits)


def plan_digest() -> str:
    def plans():
        for variant in Variant:
            for L in (4, 5):
                arch = ArchitectureSpec(variant, L)
                cells = [(r, c) for r in range(L) for c in range(L)]
                for a, b in itertools.permutations(cells, 2):
                    yield scheduler.plan_trajectories(arch, decompose_cz(arch, a, b))
    return digest_programs(plans())


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


def test_plans_match_golden_digest(monkeypatch):
    # Count in-plan exclusion conflicts, so the pairs are known to drive
    # the planner's exclusion bumps.
    conflicts, min_distance = [0], scheduler.min_distance

    def counting_min_distance(*args):
        d = min_distance(*args)
        conflicts[0] += d < scheduler.EXCLUSION_CELLS - scheduler.DIST_TOL
        return d

    monkeypatch.setattr(scheduler, "min_distance", counting_min_distance)
    assert plan_digest() == PLAN_DIGEST
    assert conflicts[0] > 0


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
