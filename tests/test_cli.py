import json
from pathlib import Path

import pytest

from atomshuttle import scheduler
from atomshuttle.cli import main
from atomshuttle.ir import events_from_jsonl

ARCH_TEMPLATE = """\
variant = {variant}
L = 8
a_m = 3e-6
R_m = 2.7e-6
v_mps = 1.5
t2_s = 1e-6
t1_s = 1e-7
tr_s = 1e-5
t_route_s = 2e-6
t_turnaround_s = 2e-6
"""

COST_TEXT = """\
f1 = 0.9995
f2_cz = 0.999
f2_swap = 0.999
fr = 0.997
f_shuttle = 1.0
p2_baseline = 1e-3
"""

PROGRAM_TEXT = "lattice 8\ncz (0,0) (7,7)\ncz (0,7) (7,0)\nh (3,3)\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "a.arch").write_text(ARCH_TEMPLATE.format(variant="two-way-belt"))
    (tmp_path / "c.cost").write_text(COST_TEXT)
    (tmp_path / "p.program").write_text(PROGRAM_TEXT)
    return tmp_path


def run(*argv):
    return main(list(argv))


def test_compile_writes_events(workdir):
    out = workdir / "out"
    assert run("compile", "--arch", str(workdir / "a.arch"),
               "--program", str(workdir / "p.program"), "--out", str(out)) == 0
    text = (out / "compile.jsonl").read_text()
    assert text.startswith("# atomshuttle ")
    events = events_from_jsonl(text)
    assert events and events == sorted(events, key=lambda e: e.sort_key())


def test_compile_empty_circuit(workdir):
    (workdir / "empty.program").write_text("lattice 8\n")
    out = workdir / "out"
    assert run("compile", "--arch", str(workdir / "a.arch"),
               "--program", str(workdir / "empty.program"), "--out", str(out)) == 0
    body = [l for l in (out / "compile.jsonl").read_text().splitlines()
            if not l.startswith("#")]
    assert body == []


def test_schedule_writes_all_artifacts(workdir):
    out = workdir / "out"
    assert run("schedule", "--arch", str(workdir / "a.arch"),
               "--program", str(workdir / "p.program"), "--out", str(out)) == 0
    for name in ("events.jsonl", "trajectories.csv", "makespan.txt"):
        assert (out / name).exists()
    makespan = float((out / "makespan.txt").read_text().splitlines()[1])
    assert makespan > 0


def test_verify_pair_ok_and_variant_override(workdir):
    out = workdir / "out"
    assert run("verify", "--arch", str(workdir / "a.arch"),
               "--pair", "0,0,3,3", "--variant", "throw-and-measure",
               "--out", str(out)) == 0
    records = [json.loads(l) for l in (out / "verify.jsonl").read_text().splitlines()
               if not l.startswith("#")]
    assert records and all(r["ok"] for r in records)
    assert all(r["variant"] == "throw-and-measure" for r in records)


def test_verify_haar_inputs_seeded(workdir):
    out = workdir / "out"
    assert run("verify", "--arch", str(workdir / "a.arch"), "--pair", "0,0,3,3",
               "--haar", "5", "--seed", "3", "--out", str(out)) == 0


def test_verify_mutation_exits_4(workdir, capsys):
    out = workdir / "out"
    code = run("verify", "--arch", str(workdir / "a.arch"), "--pair", "0,0,7,7",
               "--variant", "throw-and-measure", "--drop-final-correction",
               "--out", str(out))
    assert code == 4
    records = [json.loads(l) for l in (out / "verify.jsonl").read_text().splitlines()
               if not l.startswith("#")]
    assert any(not r["ok"] for r in records)


def test_parse_error_exits_2(workdir):
    (workdir / "bad.program").write_text("lattice 8\ncz (0,0)\n")
    code = run("compile", "--arch", str(workdir / "a.arch"),
               "--program", str(workdir / "bad.program"),
               "--out", str(workdir / "out"))
    assert code == 2


def test_bad_config_exits_2(workdir, capsys):
    (workdir / "bad.arch").write_text("variant = warp-drive\nL = 8\n")
    code = run("verify", "--arch", str(workdir / "bad.arch"),
               "--pair", "0,0,1,1", "--out", str(workdir / "out"))
    assert code == 2
    assert "bad.arch:1: variant:" in capsys.readouterr().err
    cases = [
        ("two-way-belt", "L = 8", "L = abc", "bad.arch:2: L:"),
        ("two-way-belt", "L = 8", "L = 8\nL = 4",
         "bad.arch:3: duplicate key 'L' (first set on line 2)"),
        ("throw-and-measure", "v_mps = 1.5", "v_mps = nan",
         "bad.arch: v_mps=nan must be finite and strictly positive"),
        ("throw-and-measure", "tr_s = 1e-5", "tr_s = inf",
         "bad.arch: tr_s=inf must be finite and strictly positive"),
        ("throw-and-measure", "t1_s = 1e-7", "t1_s = nan",
         "bad.arch: t1_s=nan must be finite and strictly positive"),
        ("two-way-belt", "v_mps = 1.5", "v_mps = nan", "bad.arch: v_mps=nan"),
        ("one-way-belt", "v_mps = 1.5", "v_mps = nan", "bad.arch: v_mps=nan"),
    ]
    for variant, good, bad, message in cases:
        text = ARCH_TEMPLATE.format(variant=variant)
        assert good in text
        (workdir / "bad.arch").write_text(text.replace(good, bad))
        code = run("compile", "--arch", str(workdir / "bad.arch"),
                   "--program", str(workdir / "p.program"), "--out", str(workdir / "out"))
        assert code == 2
        assert message in capsys.readouterr().err
    for bad in ("kappa = nan", "kappa = inf"):
        (workdir / "bad.cost").write_text(COST_TEXT + bad + "\n")
        code = run("cost", "--cost", str(workdir / "bad.cost"), "--out", str(workdir / "out"))
        assert code == 2
        assert f"bad.cost: {bad.replace(' = ', '=')} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("schedule", "--arch", "a.arch", "--program", "bad.program"),
    ("schedule", "--arch", "bad.arch", "--program", "p.program"),
    ("verify", "--arch", "bad.arch", "--pair", "0,0,1,1"),
    ("cost", "--cost", "bad.cost"),
])
def test_non_utf8_input_exits_2(workdir, capsys, monkeypatch, argv):
    monkeypatch.chdir(workdir)
    name = next(a for a in argv if a.startswith("bad."))
    (workdir / name).write_bytes(b"\xff\xfe")
    assert run(*argv, "--out", "out") == 2
    assert f"error: {name}: not UTF-8 text" in capsys.readouterr().err


def test_infeasible_exits_3(workdir):
    # same-row pair at the speed limit: the belt plan has no feasible firing
    fast = ARCH_TEMPLATE.format(variant="two-way-belt").replace(
        "v_mps = 1.5", "v_mps = 3.0")
    (workdir / "fast.arch").write_text(fast)
    (workdir / "row.program").write_text("lattice 8\ncz (0,0) (0,5)\n")
    code = run("compile", "--arch", str(workdir / "fast.arch"),
               "--program", str(workdir / "row.program"),
               "--out", str(workdir / "out"))
    assert code == 3


def test_exhausted_exclusion_loop_exits_3_naming_the_gate(workdir, capsys, monkeypatch):
    # neighbouring parallel gates conflict, so the second one needs a bump
    monkeypatch.setattr(scheduler, "MAX_BUMP_PASSES", 1)
    (workdir / "pair.program").write_text("lattice 8\ncz (0,0) (4,4)\ncz (0,1) (4,5)\n")
    code = run("schedule", "--arch", str(workdir / "a.arch"),
               "--program", str(workdir / "pair.program"), "--out", str(workdir / "out"))
    assert code == 3
    err = capsys.readouterr().err
    assert "cz (0, 1) (4, 5) on two-way-belt after 1 passes" in err
    assert "last conflict with a committed gate over [2.503337e-06, 3.503337e-06] s" in err


def test_missing_file_exits_5(workdir):
    code = run("verify", "--arch", str(workdir / "nope.arch"),
               "--pair", "0,0,1,1", "--out", str(workdir / "out"))
    assert code == 5


def test_cost_csv_contains_spot_value(workdir):
    out = workdir / "out"
    assert run("cost", "--cost", str(workdir / "c.cost"), "--out", str(out)) == 0
    lines = (out / "cost.csv").read_text().splitlines()
    tw = next(l for l in lines if l.startswith("two-way-belt"))
    error = float(tw.split(",")[7])
    assert error == pytest.approx(1 - (1 - 1e-3) ** 6 * (1 - 5e-4) ** 2, abs=1e-5)


def test_sweep_and_compare(workdir):
    out = workdir / "out"
    assert run("sweep", "--variant", "throw-catch-throw", "--out", str(out)) == 0
    assert (out / "sweep.csv").exists() and (out / "sweep_contour.csv").exists()
    assert run("compare", "--cost", str(workdir / "c.cost"), "--out", str(out)) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    errors = [float(l.split(",")[3]) for l in lines[2:]]
    assert errors == sorted(errors)


def test_outputs_are_byte_identical_across_runs(workdir):
    outs = []
    for name in ("o1", "o2"):
        out = workdir / name
        assert run("schedule", "--arch", str(workdir / "a.arch"),
                   "--program", str(workdir / "p.program"), "--out", str(out)) == 0
        assert run("sweep", "--variant", "two-way-belt", "--out", str(out)) == 0
        outs.append(out)
    for name in ("events.jsonl", "trajectories.csv", "makespan.txt", "sweep.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("argv, flag", [
    (("cost", "--cost", "c.cost", "-L", "1"), "-L"),
    (("cost", "--cost", "c.cost", "-L", "0"), "-L"),
    (("compare", "--cost", "c.cost", "-L", "-2"), "-L"),
    (("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "--haar", "-3"), "--haar"),
    (("sweep", "--variant", "two-way-belt", "--case", "2"), "--case"),
])
def test_bad_argument_exits_2_naming_the_flag(workdir, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(workdir)
    assert run(*argv, "--out", "out") == 2
    assert f"error: {flag} " in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("R_m, v_mps, message", [
    ("1.2e-6", "1.5", "CZ(A,m1): lane offset 0.5 outside blockade radius "),
    ("1.8e-6", "3.0", "CZ(A,m1): blockade window 6.633e-07s shorter than gate "
                      "duration 1.000e-06s"),
])
def test_pass_window_errors_exit_3(workdir, capsys, R_m, v_mps, message):
    text = ARCH_TEMPLATE.format(variant="two-way-belt")
    (workdir / "tight.arch").write_text(
        text.replace("R_m = 2.7e-6", f"R_m = {R_m}").replace("v_mps = 1.5", f"v_mps = {v_mps}"))
    code = run("compile", "--arch", str(workdir / "tight.arch"),
               "--program", str(workdir / "p.program"), "--out", str(workdir / "out"))
    assert code == 3
    assert f"error: infeasible schedule: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("compile", "--arch", "a.arch", "--program", "p.program"),
    ("schedule", "--arch", "a.arch", "--program", "p.program"),
    ("verify", "--arch", "a.arch", "--pair", "0,0,3,3"),
    ("verify", "--arch", "a.arch", "--program", "p.program"),
    ("cost", "--cost", "c.cost"),
    ("compare", "--cost", "c.cost"),
    ("sweep", "--variant", "throw-catch-throw"),
])
def test_each_input_file_is_read_once(workdir, monkeypatch, argv):
    # the header's config hash must come from the same bytes that were parsed
    monkeypatch.chdir(workdir)
    reads, read_text = {}, Path.read_text

    def counting_read_text(self, *args, **kwargs):
        reads[str(self)] = reads.get(str(self), 0) + 1
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    assert run(*argv, "--out", "out") == 0
    inputs = [a for a in argv if a.endswith((".arch", ".program", ".cost"))]
    assert reads == {name: 1 for name in inputs}
