import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from atomshuttle import cli, oracle
from atomshuttle.architectures import ArchitectureSpec, Variant
from atomshuttle.cli import build_parser, main
from atomshuttle.ir import events_from_jsonl

ROOT = Path(__file__).resolve().parent.parent

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
"""

PROGRAM_TEXT = "lattice 8\ncz (0,0) (7,7)\ncz (0,7) (7,0)\nh (3,3)\n"


@pytest.fixture(scope="session")
def opened():
    """The path of every file opened, by any reader, while `recording`:
    taken from the `open` audit event.  An audit hook cannot be removed, so
    one serves the whole session."""
    log = SimpleNamespace(recording=False, paths=[])

    def hook(event, args):
        if event == "open" and log.recording:
            log.paths.append(args[0])

    sys.addaudithook(hook)
    return log


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "a.arch").write_text(ARCH_TEMPLATE.format(variant="two-way-belt"))
    (tmp_path / "c.cost").write_text(COST_TEXT)
    (tmp_path / "p.program").write_text(PROGRAM_TEXT)
    return tmp_path


def run(*argv):
    return main(list(argv))


@pytest.fixture
def made(monkeypatch):
    """The path of every directory made through `os.mkdir`, the call under
    both `os.makedirs` and `Path.mkdir`."""
    made, mkdir = [], os.mkdir

    def counting_mkdir(path, *args, **kwargs):
        made.append(os.fspath(path))
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", counting_mkdir)
    return made


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


def test_variant_override_keeps_every_other_arch_field(workdir, monkeypatch):
    seen, verify = [], oracle.verify_logical_cz

    def recording_verify(arch, *args, **kwargs):
        seen.append(arch)
        return verify(arch, *args, **kwargs)

    monkeypatch.setattr(oracle, "verify_logical_cz", recording_verify)
    (workdir / "slow.arch").write_text(ARCH_TEMPLATE.format(variant="two-way-belt").replace(
        "v_mps = 1.5", "v_mps = 1.2").replace("L = 8", "L = 9"))
    assert run("verify", "--arch", str(workdir / "slow.arch"), "--pair", "0,0,8,8",
               "--variant", "throw-and-measure", "--out", str(workdir / "out")) == 0
    assert seen == [ArchitectureSpec(Variant.THROW_AND_MEASURE, 9, v=1.2)]


def test_verify_mutant_drops_the_correction_for_haar_inputs_too(workdir, monkeypatch):
    # one decomposition per pair serves the standard and the Haar inputs
    calls, decompose = [], oracle.decompose_cz

    def counting_decompose(*args):
        calls.append(args)
        return decompose(*args)

    monkeypatch.setattr(oracle, "decompose_cz", counting_decompose)
    out = workdir / "out"
    assert run("verify", "--arch", str(workdir / "a.arch"), "--pair", "0,0,7,7",
               "--variant", "throw-and-measure", "--drop-final-correction",
               "--haar", "3", "--seed", "1", "--out", str(out)) == 4
    assert len(calls) == 1
    records = [json.loads(l) for l in (out / "verify.jsonl").read_text().splitlines()
               if not l.startswith("#")]
    assert [r["input"] for r in records] == [
        label for label in ("00", "01", "10", "11", "++", "haar0", "haar1", "haar2")
        for _ in range(2)]
    assert all(any(not r["ok"] for r in records if r["input"] == f"haar{i}")
               for i in range(3))


@pytest.mark.parametrize("extra", [(), ("--drop-final-correction",)],
                         ids=["plain", "drop-final-correction"])
def test_verify_program_without_cz_exits_2(workdir, capsys, monkeypatch, extra):
    monkeypatch.chdir(workdir)
    (workdir / "h.program").write_text("lattice 8\nh (1,1)\n")
    assert run("verify", "--arch", "a.arch", "--program", "h.program", *extra,
               "--out", "out") == 2
    assert "error: h.program: no cz statement to verify" in capsys.readouterr().err
    assert not (workdir / "out").exists()


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
        # a / v, the time per cell, overflows, and the planner would divide by 0
        ("throw-and-measure", "v_mps = 1.5", "v_mps = 5e-324",
         "bad.arch: v_mps=5e-324 is too slow"),
        ("throw-and-measure", "v_mps = 1.5", "v_mps = 1.6e-314",
         "bad.arch: v_mps=1.6e-314 is too slow"),
        # above 2**51 a lattice coordinate or half-cell lane may not be a
        # float: L = 10**400 overflows one, and at L = 10**20 two columns
        # share x = 1e20
        ("one-way-belt", "L = 8", f"L = {10 ** 400}",
         f"bad.arch: L={10 ** 400} must be at most 2**51"),
        ("throw-and-measure", "L = 8", "L = 100000000000000000000",
         "bad.arch: L=100000000000000000000 must be at most 2**51"),
    ]
    for variant, good, bad, message in cases:
        text = ARCH_TEMPLATE.format(variant=variant)
        assert good in text
        (workdir / "bad.arch").write_text(text.replace(good, bad))
        code = run("compile", "--arch", str(workdir / "bad.arch"),
                   "--program", str(workdir / "p.program"), "--out", str(workdir / "out"))
        assert code == 2
        assert message in capsys.readouterr().err
    for good, bad, message in (
            ("f1 = 0.9995", "f1 = nan", "bad.cost: f1=nan outside (0, 1]"),
            ("f_shuttle = 1.0", "f_shuttle = inf", "bad.cost: f_shuttle=inf outside (0, 1]"),
            # keys the cost model does not read are unknown
            ("f_shuttle = 1.0", "f_shuttle = 1.0\nkappa = 0.01",
             "bad.cost:6: unknown key 'kappa'"),
            ("f_shuttle = 1.0", "f_shuttle = 1.0\np2_baseline = 1e-3",
             "bad.cost:6: unknown key 'p2_baseline'")):
        assert good in COST_TEXT
        (workdir / "bad.cost").write_text(COST_TEXT.replace(good, bad))
        code = run("cost", "--cost", str(workdir / "bad.cost"), "--out", str(workdir / "out"))
        assert code == 2
        assert message in capsys.readouterr().err


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


def test_times_that_overflow_exit_3_naming_the_overflow(workdir, capsys):
    # a 1.7e308 s readout: the second CZ waits for the first one's, and its
    # own readout ends past the largest float
    (workdir / "slow.arch").write_text("variant = one-way-belt\nL = 4\ntr_s = 1.7e308\n")
    (workdir / "twice.program").write_text("lattice 4\ncz (0,0) (3,3)\ncz (0,0) (3,3)\n")
    out = workdir / "out"
    code = run("compile", "--arch", str(workdir / "slow.arch"),
               "--program", str(workdir / "twice.program"), "--out", str(out))
    assert code == 3
    err = capsys.readouterr().err
    assert "the program's times overflow: its makespan is inf" in err and "t2" not in err
    assert not out.exists()


def test_gate_times_below_float_resolution_exit_3(workdir, capsys):
    # with 1e-20 s gates the gap after a gate, 1e-6 t2, is under an ulp of
    # the schedule's times: a readout's bit would be read before it is written
    short = ARCH_TEMPLATE.format(variant="one-way-belt")
    for line in ("t2_s = 1e-6", "t1_s = 1e-7", "tr_s = 1e-5"):
        short = short.replace(line, line.split(" = ")[0] + " = 1e-20")
    (workdir / "short.arch").write_text(short)
    (workdir / "shared.program").write_text("lattice 8\ncz (0,0) (0,1)\ncz (0,0) (5,5)\n")
    out = workdir / "out"
    code = run("schedule", "--arch", str(workdir / "short.arch"),
               "--program", str(workdir / "shared.program"), "--out", str(out))
    assert code == 3
    err = capsys.readouterr().err
    assert "t2 1.000e-20s too short" in err and "makespan" in err
    assert not out.exists()


def test_a_gap_too_fine_to_clear_a_bump_exits_3_naming_t2(workdir, capsys):
    # with 1e-16 s gates the gap after a gate, 1e-22 s, is under half an ulp
    # of the times near 25 us: the last CZ, bumped off a committed gate,
    # would start where it started, so the error names t2 at that bump
    fine = ARCH_TEMPLATE.format(variant="two-way-belt").replace("L = 8", "L = 4") \
        .replace("t2_s = 1e-6", "t2_s = 1e-16")
    (workdir / "fine.arch").write_text(fine)
    (workdir / "seven.program").write_text(
        "lattice 4\ncz (1,0) (1,2)\ncz (3,1) (3,0)\ncz (0,2) (1,2)\ncz (0,2) (0,0)\n"
        "cz (3,0) (3,2)\ncz (1,0) (3,2)\ncz (3,3) (3,1)\n")
    out = workdir / "out"
    code = run("schedule", "--arch", str(workdir / "fine.arch"),
               "--program", str(workdir / "seven.program"), "--out", str(out))
    assert code == 3
    err = capsys.readouterr().err
    assert "t2 1.000e-16s too short" in err
    assert "does not move cz (3, 3) (3, 1) past a committed gate ending at 2.500667e-05s" in err
    assert not out.exists()


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


def test_verify_header_hashes_every_input(workdir, monkeypatch):
    monkeypatch.chdir(workdir)

    def header(*argv, program=PROGRAM_TEXT):
        (workdir / "p.program").write_text(program)
        run("verify", "--arch", "a.arch", *argv, "--out", "out")
        return (workdir / "out" / "verify.jsonl").read_text().split("\n", 1)[0]

    base = ("--pair", "0,0,3,3")
    first, first_program = header(*base), header("--program", "p.program")
    changed = [header(*argv) for argv in (
        ("--pair", "0,0,3,2"),
        (*base, "--variant", "throw-and-measure"),
        (*base, "--haar", "1", "--seed", "1"),
        (*base, "--haar", "1"),
        (*base, "--variant", "throw-and-measure", "--drop-final-correction"),
    )]
    changed.append(header("--program", "p.program",
                          program=PROGRAM_TEXT.replace("(3,3)", "(3,4)")))
    arch = ARCH_TEMPLATE.format(variant="two-way-belt")
    (workdir / "a.arch").write_text(arch.replace("t1_s = 1e-7", "t1_s = 2e-7"))
    changed.append(header(*base))
    headers = [first, first_program, *changed]
    assert len(set(headers)) == len(headers)
    (workdir / "a.arch").write_text(arch)
    assert header(*base) == first
    assert header("--program", "p.program") == first_program


@pytest.mark.parametrize("argv, flag", [
    (("cost", "--cost", "c.cost", "-L", "1"), "-L"),
    (("cost", "--cost", "c.cost", "-L", "0"), "-L"),
    (("compare", "--cost", "c.cost", "-L", "-2"), "-L"),
    (("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "--haar", "-3"), "--haar"),
    (("sweep", "--variant", "two-way-belt", "--case", "2"), "--case"),
    (("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "--haar", "2", "--seed", "-1"),
     "--seed"),
    (("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "--seed", "-1"), "--seed"),
    # variants without a conditional gate have nothing to drop
    *((("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "--variant", variant,
        "--drop-final-correction"), "--drop-final-correction")
      for variant in ("two-way-belt", "throw-catch-throw", "shuttle-and-route")),
    # without --haar the seed would change only the header
    (("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "--seed", "1"), "--seed"),
    # above 2**51 a lattice coordinate or half-cell lane may not be a float
    (("cost", "--cost", "c.cost", "-L", str(10 ** 400)), "-L"),
    (("compare", "--cost", "c.cost", "-L", str(2 ** 51 + 1)), "-L"),
])
def test_bad_argument_exits_2_naming_the_flag(workdir, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(workdir)
    assert run(*argv, "--out", "out") == 2
    assert f"error: {flag} " in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (("cost", "--cost", "c.cost", "--seed", "1"), "--seed"),
    (("cost", "--cost", "c.cost", "--pair", "9,9,9,9"), "--pair"),
    (("schedule", "--arch", "a.arch", "--program", "p.program", "--seed", "1"), "--seed"),
    (("sweep", "--variant", "two-way-belt", "--arch", "a.arch"), "--arch"),
])
def test_flag_a_command_does_not_read_exits_2(workdir, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(workdir)
    with pytest.raises(SystemExit) as exit_info:
        run(*argv, "--out", "out")
    assert exit_info.value.code == 2
    assert f"error: unrecognized arguments: {flag} " in capsys.readouterr().err
    assert not (workdir / "out").exists()


# one complete command line per command
COMPLETE_ARGV = {
    "compile": ("--arch", "a.arch", "--program", "p.program"),
    "schedule": ("--arch", "a.arch", "--program", "p.program"),
    "verify": ("--arch", "a.arch", "--pair", "0,0,3,3"),
    "cost": ("--cost", "c.cost"),
    "compare": ("--cost", "c.cost"),
    "sweep": ("--variant", "throw-catch-throw"),
}


@pytest.mark.parametrize("command, flag, message", [
    *((command, flag, f"the following arguments are required: {flag}")
      for command, flag in (("compile", "--arch"), ("compile", "--program"),
                            ("schedule", "--arch"), ("schedule", "--program"),
                            ("verify", "--arch"), ("cost", "--cost"),
                            ("compare", "--cost"), ("sweep", "--variant"))),
    ("verify", "--pair", "one of the arguments --pair --program is required"),
])
def test_a_missing_required_flag_exits_2(workdir, capsys, monkeypatch, command, flag, message):
    monkeypatch.chdir(workdir)
    argv = list(COMPLETE_ARGV[command])
    i = argv.index(flag)
    del argv[i:i + 2]
    with pytest.raises(SystemExit) as exit_info:
        run(command, *argv, "--out", "out")
    assert exit_info.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "--program", "nonexistent.program"),
     "argument --program: not allowed with argument --pair"),
    (("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "--variant", "warp-drive"),
     "argument --variant: invalid choice: 'warp-drive'"),
    (("sweep", "--variant", "warp-drive"), "argument --variant: invalid choice: 'warp-drive'"),
], ids=["pair-and-program", "verify-variant", "sweep-variant"])
def test_conflicting_or_unknown_flag_values_exit_2(workdir, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(workdir)
    with pytest.raises(SystemExit) as exit_info:
        run(*argv, "--out", "out")
    assert exit_info.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_parser_is_built_once_and_keeps_no_argument_values(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert build_parser() is build_parser()
    plain = ("verify", "--arch", "a.arch", "--pair", "0,0,3,3")
    assert run(*plain, "--out", "first") == 0
    assert run(*plain, "--haar", "2", "--seed", "3", "--out", "haar") == 0
    assert run(*plain, "--out", "again") == 0
    assert (workdir / "again" / "verify.jsonl").read_bytes() == \
        (workdir / "first" / "verify.jsonl").read_bytes()
    assert (workdir / "haar" / "verify.jsonl").read_bytes() != \
        (workdir / "first" / "verify.jsonl").read_bytes()


@pytest.mark.parametrize("argv", [
    ("compile", "--arch", "a.arch", "--program", "p.program", "--out=o"),
    ("schedule", "--program", "p.program", "--variant", "one-way-belt", "--arch", "a.arch"),
    ("verify", "--arch=a.arch", "--pair", "0,0,3,3", "--haar", "2", "--seed", "1",
     "--drop-final-correction"),
    ("verify", "--arch", "a.arch", "--program", "p.program", "--out", "o"),
    ("cost", "--cost", "c.cost", "-L5"),
    ("sweep", "--variant", "one-way-belt", "--axis", "pr", "--case", "2"),
    ("compare", "--cost", "c.cost", "-L", "6", "--out=o"),
    ("-h",),
    ("verify", "--arch", "a.arch", "-h"),
    ("cost", "-L", "5", "--out", "o", "--help"),
    ("verify", "--arc", "a.arch", "--pa", "0,0,3,3"),
    ("compile", "--arch", "a.arch", "--prog", "p.program"),
    ("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "--he"),
    ("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "--h"),
    ("cost", "--cost", "-"),
    ("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "-"),
    ("schedule", "--arch", "a.arch", "--program", "p.program", "--", "x"),
    ("--", "schedule", "--arch", "a.arch", "--program", "p.program"),
    ("sweep", "--variant", "two-way-belt", "extra"),
    ("cost", "--cost", "c.cost", "--bogus", "1", "2"),
    ("compile", "--arch", "a.arch"),
    ("verify", "--arch", "a.arch"),
    ("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "--program", "p.program"),
    ("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "--seed"),
    ("cost", "--cost", "a.cost", "--cost", "c.cost"),
    ("compare", "--cost", "c.cost", "-L", "٨"),
    (),
    ("bogus", "--out", "o"),
])
def test_dispatch_parses_as_the_full_parser(monkeypatch, capsys, argv):
    # `main` hands a known command's flags to that command's parser; it must
    # end as the full parser does: the same Namespace, or the same exit code
    # and output (usage line, message and help text included)
    def outcome(parse):
        try:
            return parse()
        except SystemExit as e:
            out = capsys.readouterr()
            return e.code, out.out, out.err

    parser, seen = build_parser(), []   # built before the commands are swapped
    monkeypatch.setattr(cli, "_COMMANDS", {name: (seen.append, "") for name in cli._COMMANDS})
    expected = outcome(lambda: parser.parse_args(list(argv)))
    assert outcome(lambda: main(list(argv)) or seen.pop()) == expected
    assert seen == []


@pytest.mark.parametrize("R_m, v_mps, message", [
    ("1.2e-6", "1.5", "pass window: lane offset 0.5 outside blockade radius "),
    ("1.8e-6", "3.0", "pass window: 6.633249580710799e-07s shorter than gate "
                      "duration 1e-06s"),
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
def test_each_input_file_is_read_once(workdir, monkeypatch, opened, argv):
    # the header's config hash must come from the same bytes that were parsed
    monkeypatch.chdir(workdir)
    opened.paths.clear()
    opened.recording = True
    try:
        assert run(*argv, "--out", "out") == 0
    finally:
        opened.recording = False
    inputs = {os.path.realpath(a): 1 for a in argv if a.endswith((".arch", ".program", ".cost"))}
    counts = Counter(os.path.realpath(p) for p in opened.paths if isinstance(p, str))
    assert {p: n for p, n in counts.items() if p in inputs} == inputs


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_config_lines_may_end_in_crlf_or_cr(workdir, monkeypatch, newline):
    # read as `Path.read_text` reads them: the same config hash, the same parse
    monkeypatch.chdir(workdir)
    for name in ("a.arch", "p.program"):
        text = (workdir / name).read_bytes()
        assert b"\r" not in text
        (workdir / f"n{name}").write_bytes(text.replace(b"\n", newline.encode()))
    assert run("schedule", "--arch", "a.arch", "--program", "p.program", "--out", "lf") == 0
    assert run("schedule", "--arch", "na.arch", "--program", "np.program", "--out", "n") == 0
    for name in ("events.jsonl", "trajectories.csv", "makespan.txt"):
        assert (workdir / "n" / name).read_bytes() == (workdir / "lf" / name).read_bytes()


# Numbers are ASCII: `\d`, `int()` and `float()` also read other Unicode
# digits (U+0661 and U+0663 are Arabic-Indic one and three, U+0668 eight)
# and `_` digit groups, which would give one input a second spelling.

@pytest.mark.parametrize("program, line", [
    ("lattice 8\ncz (0,0) (1,١)\n", 2),
    ("lattice ٨\ncz (0,0) (1,1)\n", 1),
], ids=["cz-coordinate", "lattice"])
def test_program_numbers_are_ascii_digits(workdir, capsys, monkeypatch, program, line):
    monkeypatch.chdir(workdir)
    (workdir / "u.program").write_text(program)
    assert run("schedule", "--arch", "a.arch", "--program", "u.program", "--out", "out") == 2
    assert f"error: line {line}: " in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("spec", ["0,0,0_3,3", "0,0,٣,3", "0,0,+3,3", "0,0, 3,3",
                                  "0,0,3,3,"])
def test_pair_is_four_ascii_integers(workdir, capsys, monkeypatch, spec):
    monkeypatch.chdir(workdir)
    assert run("verify", "--arch", "a.arch", "--pair", spec, "--out", "out") == 2
    assert f"error: --pair expects r1,c1,r2,c2, got {spec!r}" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("name, good, bad, argv, message", [
    ("a.arch", "L = 8", "L = 8", ("verify", "--arch", "a.arch", "--pair", "0,0,9,9"),
     "coordinate (9, 9) out of range for L=8"),
    ("a.arch", "L = 8", "L 8", ("schedule", "--arch", "a.arch", "--program", "p.program"),
     "a.arch:2: expected key=value, got 'L 8'"),
    ("p.program", PROGRAM_TEXT, "# lattice 8\n# cz (0,0) (7,7)\n",
     ("compile", "--arch", "a.arch", "--program", "p.program"),
     "line 1: missing 'lattice <L>' header"),
], ids=["pair-out-of-range", "arch-line-without-equals", "program-of-comments"])
def test_malformed_input_exits_2_and_writes_nothing(workdir, capsys, monkeypatch, name, good,
                                                    bad, argv, message):
    monkeypatch.chdir(workdir)
    text = (workdir / name).read_text()
    assert good in text
    (workdir / name).write_text(text.replace(good, bad))
    assert run(*argv, "--out", "out") == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("name, good, bad, message", [
    ("a.arch", "L = 8", "L = ٨", "a.arch:2: L: '٨' is not an ASCII number"),
    ("a.arch", "a_m = 3e-6", "a_m = 3_0e-7", "a.arch:3: a_m: '3_0e-7' is not an ASCII number"),
    ("c.cost", "f1 = 0.9995", "f1 = 0.999٥", "c.cost:1: f1: '0.999٥' is not an ASCII"),
])
def test_config_numbers_are_ascii(workdir, capsys, monkeypatch, name, good, bad, message):
    monkeypatch.chdir(workdir)
    text = (workdir / name).read_text()
    assert good in text
    (workdir / name).write_text(text.replace(good, bad))
    argv = (("cost", "--cost", name) if name.endswith(".cost") else
            ("schedule", "--arch", name, "--program", "p.program"))
    assert run(*argv, "--out", "out") == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (workdir / "out").exists()


# Whitespace and line breaks are ASCII too: U+3000 is the ideographic
# space, U+2028 the line separator; `\s`, `str.strip()` and
# `str.splitlines()` take both.

@pytest.mark.parametrize("name, good, bad, message", [
    ("p.program", "cz (0,0) (7,7)", "cz\u3000(0,0) (7,7)",
     "line 2: cannot parse statement: 'cz\\u3000(0,0) (7,7)'"),
    ("p.program", "h (3,3)", "h (3,3)\u3000", "line 4: cannot parse statement: "),
    ("p.program", "lattice 8\n", "lattice 8\u2028", "line 1: expected 'lattice <L>' header"),
    ("a.arch", "L = 8", "L = 8\u3000", "a.arch:2: L: '8\\u3000' is not an ASCII number"),
    ("a.arch", "L = 8", "L\u3000= 8", "a.arch:2: unknown key 'L\\u3000'"),
    ("c.cost", "f1 = 0.9995", "f1 = 0.9995\u3000", "c.cost:1: f1: '0.9995\\u3000' is not"),
], ids=["program-space", "program-trailing-space", "program-line-separator",
        "arch-value", "arch-key", "cost-value"])
def test_whitespace_is_ascii(workdir, capsys, monkeypatch, name, good, bad, message):
    monkeypatch.chdir(workdir)
    text = (workdir / name).read_text()
    assert good in text
    (workdir / name).write_text(text.replace(good, bad), encoding="utf-8")
    argv = (("cost", "--cost", name) if name.endswith(".cost") else
            ("schedule", "--arch", "a.arch", "--program", "p.program"))
    assert run(*argv, "--out", "out") == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv, flag", [
    (("cost", "--cost", "c.cost", "-L", "٨"), "-L"),
    (("verify", "--arch", "a.arch", "--pair", "0,0,3,3", "--haar", "1_0"), "--haar"),
    (("sweep", "--variant", "one-way-belt", "--case", "١"), "--case"),
])
def test_integer_flags_are_ascii(workdir, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(workdir)
    with pytest.raises(SystemExit) as exit_info:
        run(*argv, "--out", "out")
    assert exit_info.value.code == 2
    assert f"error: argument {flag}: invalid int value: " in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("argv, names", [
    (("schedule", "--arch", "a.arch", "--program", "p.program"),
     ("events.jsonl", "trajectories.csv", "makespan.txt")),
    (("sweep", "--variant", "throw-catch-throw"), ("sweep.csv", "sweep_contour.csv")),
])
def test_one_mkdir_per_command(workdir, monkeypatch, made, argv, names):
    monkeypatch.chdir(workdir)
    assert run(*argv, "--out", "out") == 0
    assert made == ["out"]
    assert sorted(p.name for p in (workdir / "out").iterdir()) == sorted(names)


@pytest.mark.parametrize("out, made_dirs", [
    ("out", []),
    ("", []),
    (os.path.join("a", "b"), ["a", os.path.join("a", "b")]),
], ids=["existing", "working-dir", "missing-parent"])
def test_out_is_made_only_when_missing(workdir, monkeypatch, made, out, made_dirs):
    monkeypatch.chdir(workdir)
    (workdir / "out").mkdir()
    made.clear()
    assert run("sweep", "--variant", "throw-catch-throw", "--out", out) == 0
    assert made == made_dirs
    assert (workdir / out / "sweep.csv").is_file() and (workdir / out / "sweep_contour.csv").is_file()


def test_write_error_exits_5_naming_the_artifact(workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    (workdir / "out").mkdir()
    (workdir / "out" / "trajectories.csv").mkdir()   # a directory where a file goes
    assert run("schedule", "--arch", "a.arch", "--program", "p.program", "--out", "out") == 5
    assert "error: cannot write trajectories.csv: " in capsys.readouterr().err
    (workdir / "file").write_text("kept\n")
    assert run("schedule", "--arch", "a.arch", "--program", "p.program",
               "--out", "file/out") == 5
    assert "error: cannot write file/out: " in capsys.readouterr().err
    assert (workdir / "file").read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ("schedule", "--arch", "configs/shuttle-and-route.arch", "--program", "configs/sample.program"),
    ("compile", "--arch", "configs/two-way-belt.arch", "--program", "configs/sample.program"),
    ("verify", "--arch", "configs/one-way-belt.arch", "--pair", "0,0,7,7", "--haar", "2"),
    ("cost", "--cost", "configs/default.cost"),
    ("sweep", "--variant", "one-way-belt", "--case", "2"),
    ("compare", "--cost", "configs/default.cost", "-L", "6"),
], ids=lambda argv: argv[0])
def test_artifacts_do_not_depend_on_the_locale(tmp_path, monkeypatch, argv):
    # in the C locale, without UTF-8 mode, any text write that takes the
    # locale's encoding raises an EncodingWarning, made an error here
    monkeypatch.chdir(ROOT)
    assert run(*argv, "--out", str(tmp_path / "plain")) == 0
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "atomshuttle.cli", *argv, "--out", str(tmp_path / "c")],
        cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    plain = sorted((tmp_path / "plain").iterdir())
    assert [p.name for p in plain] == sorted(p.name for p in (tmp_path / "c").iterdir())
    for path in plain:
        assert (tmp_path / "c" / path.name).read_bytes() == path.read_bytes(), path.name
