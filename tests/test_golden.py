"""Pinned sha256 digests of the `compile`, `schedule`, `verify`, `cost`,
`compare` and `sweep` artifact bodies, and of single-gate
`plan_trajectories` plans.

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
        "ca74bd6be3b6e16e112491c24233b73a94ae7fa04314874d5fb93c784bb09057",
    ("one-way-belt.arch", "schedule"):
        "dc9c4d6b378aeefe51160bd47142e3a0380fa08f323326cbd0255dc42716d4bc",
    ("shuttle-and-route.arch", "compile"):
        "94ffa5026c84b41ff2722306caee67627e164425c1dca85a52df2e123c401e0f",
    ("shuttle-and-route.arch", "schedule"):
        "3b06a117c4e38821af6061908076f4f53d690f06f5d2bd79946cec3065d1ff78",
    ("throw-and-measure.arch", "compile"):
        "4a5a8043100ed8cd4708eb046bf2259daf391888671b64f2545b400143fe9ce4",
    ("throw-and-measure.arch", "schedule"):
        "14a6a62d3ac701bf3ceb912c6e5f2769bdda217059202932954a4f56e8780cfe",
    ("throw-catch-throw.arch", "compile"):
        "3b19f6c24ce6461da37a9d31c4ab8d57b30eb2e13214953238262c8a4753dc4a",
    ("throw-catch-throw.arch", "schedule"):
        "e8ce20210b2f654dfa4014a1278f081556e15ac0d3ec36231ac7585b30c18595",
    ("two-way-belt.arch", "compile"):
        "4755f365aed9cfb554f77a331b8b29cf76edc392c6c683323457c64f68aa3c5b",
    ("two-way-belt.arch", "schedule"):
        "b4635b22cdb57b356ca3728f0c9ca6f8cfc3e2679c242602a469cb673d2c2709",
}

CORPUS_DIGESTS = {
    Variant.TWO_WAY_BELT:
        "eb6eb1dde3df410c25ceb1e550a54588cdebfb88a7bf52abec7a1f84bbb4e4c6",
    Variant.ONE_WAY_BELT:
        "3275cc861fe9f924d9c623bbdeefe4f23ac65490b88fd38e0a5b3036bf75657f",
    Variant.THROW_CATCH_THROW:
        "c77831efff0692a94768962cd2aaeae44241f264179cdcc4cc3169c4039f6d0f",
    Variant.SHUTTLE_AND_ROUTE:
        "b1457ab1cdcbd56906511d03c7eff2c4bf92dd05d167bda38882d9f9484f7244",
    Variant.THROW_AND_MEASURE:
        "8150d780710be692b0afdaa19ee601a681ea665702012401265654b752e8f856",
}

# 3 programs x 96 uniform random CZs on 16x16 per variant: large enough
# that the scheduler's time index and bounding-box prefilter both prune
DEEP_DIGESTS = {
    Variant.TWO_WAY_BELT:
        "8d2b48a66ab189923d9e9466622120ff36a197a092907397bae8aed9d9e3b13d",
    Variant.ONE_WAY_BELT:
        "1e94faf8b13c0a0f733dca77d1febd49388b9e529deb3146a9b219b06ba93d1f",
    Variant.THROW_CATCH_THROW:
        "11ae5d54097d93f64849f7b75cef29a40479268d1693ec6630f9351ca2253c72",
    Variant.SHUTTLE_AND_ROUTE:
        "ae79ec6ea83d522d1943c8d7693ed8cfb5e61e2740e8ade8e8c2c293800f596c",
    Variant.THROW_AND_MEASURE:
        "addfe703e2e74781d54bdd382e888ca15384060a31ebc2324b161a0a3b8dd3a3",
}

# plan_trajectories on every ordered pair of L = 4 and 5, all variants
PLAN_DIGEST = "3351a7cafd12345bb11a96b90b7d2ab4b9c2d0a4fd6a19f960872ed115cb6e2d"

# `verify --pair` on every pair of L = 4 for each variant, then the three
# `--drop-final-correction` mutants, then `--haar 3 --seed 1` on
# (0,0)-(3,3) for each variant
VERIFY_DIGEST = "1dbecb5ada368d55b68cf426ae413b60f51e36bb526f601a601d3f1804c8b6ae"
VERIFY_MUTANTS = ((Variant.ONE_WAY_BELT, "0,0,3,3"), (Variant.ONE_WAY_BELT, "0,3,3,0"),
                  (Variant.THROW_AND_MEASURE, "0,0,3,3"))

# `cost`/`compare` on configs/default.cost with -L 8
COST_DIGESTS = {
    "cost": "183171d9eb74a7e315b26db892bd159e07b78283e22f1e86e480c3342339c99c",
    "compare": "d8842412b6c865b53020d7c909e50c6fe91d0da89331674c8fccb4cd50d1a5be",
}

# `sweep` over every variant (and both one-way cases), sweep.csv then
# sweep_contour.csv; each cell is `logical_gate_fidelity` at its error rates
SWEEP_DIGESTS = {
    "p1": "535fb8457695e9b5c5133612c2e4d0214e268b4b5e502cf4064c3825ab554f61",
    "pr": "0a8b75eee636fba3023ef3d4655a0886bf0ae270651d9cb6480c0c2d706be478",
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


def test_verify_artifacts_match_golden_digest(tmp_path):
    h = hashlib.sha256()
    out = tmp_path / "out"

    def verify(variant, pair, *flags, code=0):
        arch = tmp_path / f"{variant.value}.arch"
        assert main(["verify", "--arch", str(arch), "--pair", pair, *flags,
                     "--out", str(out)]) == code
        h.update(body(out / "verify.jsonl"))

    for variant in Variant:
        text = (CONFIGS / f"{variant.value}.arch").read_text()
        (tmp_path / f"{variant.value}.arch").write_text(text.replace("L = 8", "L = 4"))
    cells = itertools.product(range(4), range(4))
    pairs = [f"{a[0]},{a[1]},{b[0]},{b[1]}" for a, b in itertools.combinations(cells, 2)]
    for variant in Variant:
        for pair in pairs:
            verify(variant, pair)
    for variant, pair in VERIFY_MUTANTS:
        verify(variant, pair, "--drop-final-correction", code=4)
    for variant in Variant:
        verify(variant, "0,0,3,3", "--haar", "3", "--seed", "1")
    assert h.hexdigest() == VERIFY_DIGEST


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
    # single-gate planner `_plan`, which schedule() calls), so the corpus is
    # known to drive its bump loop.
    conflicts, in_plan, planned = [0], [False], [0]
    plan, min_distance = scheduler._plan, scheduler.min_distance

    def counting_plan(*args):
        planned[0] += 1
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

    monkeypatch.setattr(scheduler, "_plan", counting_plan)
    monkeypatch.setattr(scheduler, "min_distance", counting_min_distance)
    assert corpus_digest(variant) == CORPUS_DIGESTS[variant]
    assert conflicts[0] > 0 and planned[0] > 0


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
