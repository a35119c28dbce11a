"""Smoke test and negative control for the benchmark.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from workloads import SCHEDULE_ARTIFACTS  # noqa: E402

assert run.use_source_tree(), "atomshuttle sources not found under src/"

import gate  # noqa: E402
from atomshuttle import cli  # noqa: E402

TINY = {
    "corpus-8x8": {"n_programs": 10},
    "deep-16x16": {"n_programs": 1, "n_cz": 6, "growth": (3, 12)},
    "verify-4x4": {"max_pairs": 3},
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_workload_runs_clean_at_tiny_size(name, trace):
    result, lines = run.run_workload(name, 3, 0.0, trace, **TINY[name])
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_identical_artifacts():
    digests = []
    for _ in range(2):
        _, lines = run.run_workload("corpus-8x8", 5, 0.0, False, **TINY["corpus-8x8"])
        digests.append([line for line in lines if "sha256" in line or "makespan" in line])
    assert digests[0] == digests[1]


def test_calibration_scales_by_the_median_task_time_near_a_moment():
    c = run.Calibration()
    c.at, c.seconds = [0.0, 1.0, 10.0], [0.002, 0.004, 0.008]
    assert c.scale(0.5) == pytest.approx(run.REFERENCE_S / 0.003)
    assert c.scale(10.0) == pytest.approx(run.REFERENCE_S / 0.008)
    assert c.scale(6.0) == pytest.approx(run.REFERENCE_S / 0.008)   # none within 2 s: nearest


def _schedule(tmp_path: Path) -> dict[str, str]:
    arch = tmp_path / "two-way-belt.arch"
    arch.write_text("variant = two-way-belt\nL = 8\n")
    program = tmp_path / "two.program"
    program.write_text("lattice 8\ncz (0,0) (0,4)\ncz (1,0) (1,4)\n")
    out = tmp_path / "out"
    assert cli.main(["schedule", "--arch", str(arch), "--program", str(program),
                     "--out", str(out)]) == 0
    return gate.read_artifacts(out, SCHEDULE_ARTIFACTS)


def test_gate_passes_unmodified_artifacts(tmp_path):
    problems, makespan, n_events = gate.check_schedule(_schedule(tmp_path), "two-way-belt", 8, 2)
    assert problems == [] and makespan > 0 and n_events > 0


def test_gate_fails_when_a_gate_is_shifted_onto_another_gates_window(tmp_path):
    texts = _schedule(tmp_path)
    header, body = texts["events.jsonl"].split("\n", 1)
    events = [json.loads(line) for line in body.splitlines()]

    def logical_gate(e):  # two-way-belt spends messengers 0-3 on the first CZ
        return min(q["serial"] for q in e["operands"] if q["kind"] == "mess") // 4

    two_qubit = [e for e in events if e["action"] in ("gate:cz", "gate:swap")
                 and any(q["kind"] == "mess" for q in e["operands"])]
    first = next(e for e in two_qubit if logical_gate(e) == 0)
    moved = next(e for e in two_qubit if logical_gate(e) == 1)
    moved["t"] = first["t"]
    texts["events.jsonl"] = header + "\n" + "".join(
        json.dumps(e, sort_keys=True) + "\n" for e in events)
    problems, _, _ = gate.check_schedule(texts, "two-way-belt", 8, 2)
    assert any("overlap in time" in p for p in problems), problems


def test_gate_fails_when_a_logical_gate_is_missing(tmp_path):
    texts = _schedule(tmp_path)
    problems, _, _ = gate.check_schedule(texts, "two-way-belt", 8, 3)
    assert any("messengers disposed" in p for p in problems)


@pytest.mark.parametrize("mutant, records, expected", [
    (False, [{"ok": True}, {"ok": True}], []),
    (False, [{"ok": True}, {"ok": False}], ["1/2 records not ok"]),
    (True, [{"ok": True}, {"ok": False}], []),
    (True, [{"ok": True}], ["mutant passed every branch check"]),
])
def test_verify_gate(mutant, records, expected):
    text = "# atomshuttle 0 config=0\n" + "".join(json.dumps(r) + "\n" for r in records)
    assert gate.check_verify(text, mutant) == expected
