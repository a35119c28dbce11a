"""Command-line interface.

Subcommands: compile, verify, schedule, cost, sweep, compare.  All
artifacts are deterministic for identical inputs and seed, and start
with a '#' header carrying the tool version and a hash of the effective
configuration.

Exit codes: 0 success, 2 parse error, 3 infeasible schedule,
4 verification failure, 5 I/O error.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .architectures import (ArchitectureSpec, Variant, decompose_cz,
                            load_arch_config)
from .cost import (CostParams, architecture_comparison, contour_to_csv,
                   error_budget_sweep, load_cost_config, sweep_to_csv)
from .ir import LogicalCZ, ParseError, events_to_jsonl, parse_program
from .oracle import (haar_random_two_qubit_inputs, verify_logical_cz,
                     verify_sequence)
from .scheduler import InfeasibleError, schedule, trajectories_to_csv

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4
EXIT_IO = 5


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _config_hash(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()[:12]


def _header(*config_parts: str) -> str:
    return f"# atomshuttle {__version__} config={_config_hash(*config_parts)}\n"


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _CliError(EXIT_IO, f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise _CliError(EXIT_PARSE, f"{path}: not UTF-8 text") from e


def _write(out_dir: str, name: str, header: str, body: str) -> Path:
    try:
        d = Path(out_dir)
        d.mkdir(parents=True, exist_ok=True)
        target = d / name
        target.write_text(header + body)
        return target
    except OSError as e:
        raise _CliError(EXIT_IO, f"cannot write {name}: {e}") from e


# Each loader reads its file once and returns the parsed value with the
# text it came from, so an artifact header hashes the bytes that were parsed.

def _load_arch(args) -> tuple[ArchitectureSpec, str]:
    if args.arch is None:
        raise _CliError(EXIT_PARSE, "--arch is required for this command")
    text = _read_text(args.arch)
    try:
        arch = load_arch_config(args.arch, text)
    except ValueError as e:
        raise _CliError(EXIT_PARSE, str(e)) from e
    if args.variant is not None:
        try:
            variant = Variant(args.variant)
        except ValueError as e:
            raise _CliError(EXIT_PARSE, f"unknown variant {args.variant!r}") from e
        arch = ArchitectureSpec(**{**arch.__dict__, "variant": variant})
    return arch, text


def _load_cost(args) -> tuple[CostParams, str]:
    if args.cost is None:
        raise _CliError(EXIT_PARSE, "--cost is required for this command")
    text = _read_text(args.cost)
    try:
        return load_cost_config(args.cost, text), text
    except ValueError as e:
        raise _CliError(EXIT_PARSE, str(e)) from e


def _load_circuit(args, arch: ArchitectureSpec):
    text = _read_text(args.program)
    try:
        circuit = parse_program(text)
    except ParseError as e:
        raise _CliError(EXIT_PARSE, str(e)) from e
    if circuit.lattice_size != arch.L:
        raise _CliError(EXIT_PARSE,
                        f"program lattice {circuit.lattice_size} != arch L={arch.L}")
    return circuit, text


def _lattice_size(args) -> int:
    if args.L < 2:
        raise _CliError(EXIT_PARSE, f"-L {args.L}: lattice size must be at least 2")
    return args.L


def _parse_pair(spec: str):
    try:
        r1, c1, r2, c2 = (int(s) for s in spec.split(","))
    except ValueError as e:
        raise _CliError(EXIT_PARSE, f"--pair expects r1,c1,r2,c2, got {spec!r}") from e
    return (r1, c1), (r2, c2)


def _pairs_for(args, arch: ArchitectureSpec):
    """The target pairs, and the program text they came from ('' for --pair)."""
    if args.pair is not None:
        return [_parse_pair(args.pair)], ""
    if args.program is not None:
        circuit, text = _load_circuit(args, arch)
        pairs = [(op.a, op.b) for op in circuit.ops if isinstance(op, LogicalCZ)]
        if not pairs:
            raise _CliError(EXIT_PARSE, f"{args.program}: no cz statement to verify")
        return pairs, text
    raise _CliError(EXIT_PARSE, "either --pair or --program is required")


def _schedule_or_fail(circuit, arch):
    try:
        return schedule(circuit, arch)
    except InfeasibleError as e:
        raise _CliError(EXIT_INFEASIBLE, f"infeasible schedule: {e}") from e


def _cmd_compile(args) -> int:
    arch, arch_text = _load_arch(args)
    circuit, program_text = _load_circuit(args, arch)
    prog = _schedule_or_fail(circuit, arch)
    header = _header(arch_text, program_text, str(args.variant))
    _write(args.out, "compile.jsonl", header, events_to_jsonl(prog.events))
    return EXIT_OK


def _cmd_schedule(args) -> int:
    arch, arch_text = _load_arch(args)
    circuit, program_text = _load_circuit(args, arch)
    prog = _schedule_or_fail(circuit, arch)
    header = _header(arch_text, program_text, str(args.variant))
    _write(args.out, "events.jsonl", header, events_to_jsonl(prog.events))
    _write(args.out, "trajectories.csv", header,
           trajectories_to_csv(prog.trajectories))
    _write(args.out, "makespan.txt", header, f"{prog.makespan!r}\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.haar < 0:
        raise _CliError(EXIT_PARSE, f"--haar {args.haar}: number of inputs must be at least 0")
    if args.seed < 0:
        raise _CliError(EXIT_PARSE, f"--seed {args.seed}: seed must be at least 0")
    arch, arch_text = _load_arch(args)
    pairs, program_text = _pairs_for(args, arch)
    records = []
    ok = True
    for a, b in pairs:
        try:
            if args.drop_final_correction and not any(
                    g.gate.reads_bit for g in decompose_cz(arch, a, b).gates):
                raise _CliError(EXIT_PARSE, f"--drop-final-correction on {arch.variant.value}: "
                                            "no conditional gate to drop")
            report = verify_logical_cz(arch, a, b,
                                       drop_final_correction=args.drop_final_correction)
            if args.haar > 0:
                d = decompose_cz(arch, a, b)
                extra = verify_sequence(
                    list(d.gates), a, b, list(d.messengers),
                    variant=arch.variant.value,
                    two_qubit_inputs=haar_random_two_qubit_inputs(args.haar, args.seed))
                report.records.extend(extra.records)
        except ValueError as e:
            raise _CliError(EXIT_PARSE, str(e)) from e
        ok = ok and report.ok
        records.extend(report.records)
    header = _header(arch_text, str(args.variant), str(args.pair), program_text,
                     str(args.seed), str(args.haar), str(args.drop_final_correction))
    body = "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in records)
    _write(args.out, "verify.jsonl", header, body)
    if not ok:
        n_bad = sum(1 for r in records if not r.ok)
        print(f"verification FAILED: {n_bad}/{len(records)} branch checks",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_cost(args) -> int:
    L = _lattice_size(args)
    params, cost_text = _load_cost(args)
    rows = architecture_comparison(params, L)
    rows.sort(key=lambda r: (r.variant.value, r.case or 0))  # stable listing order
    header = _header(cost_text, str(L))
    lines = ["variant,case,n1,n2_cz,n2_swap,nr,fidelity,error,makespan"]
    for row in rows:
        c = row.report.counts
        lines.append(f"{row.variant.value},{row.case or ''},{c.n1},{c.n2_cz},"
                     f"{c.n2_swap},{c.nr},{row.report.F!r},{row.report.error!r},"
                     f"{row.report.makespan!r}")
    _write(args.out, "cost.csv", header, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.variant is None:
        raise _CliError(EXIT_PARSE, "--variant is required for sweep")
    try:
        variant = Variant(args.variant)
    except ValueError as e:
        raise _CliError(EXIT_PARSE, f"unknown variant {args.variant!r}") from e
    case = args.case
    if variant is Variant.ONE_WAY_BELT:
        case = case or 1
    elif case is not None:
        raise _CliError(EXIT_PARSE, f"--case {case}: only {Variant.ONE_WAY_BELT.value} "
                                    f"has cases, not {variant.value}")
    result = error_budget_sweep(variant, args.axis, case=case)
    header = _header(args.variant, args.axis, str(case))
    _write(args.out, "sweep.csv", header, sweep_to_csv(result))
    _write(args.out, "sweep_contour.csv", header, contour_to_csv(result))
    return EXIT_OK


def _cmd_compare(args) -> int:
    L = _lattice_size(args)
    params, cost_text = _load_cost(args)
    rows = architecture_comparison(params, L)
    header = _header(cost_text, str(L))
    lines = ["rank,variant,case,error,fidelity,makespan"]
    for rank, row in enumerate(rows, start=1):
        lines.append(f"{rank},{row.variant.value},{row.case or ''},"
                     f"{row.report.error!r},{row.report.F!r},{row.report.makespan!r}")
    _write(args.out, "compare.csv", header, "\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "compile": _cmd_compile,
    "verify": _cmd_verify,
    "schedule": _cmd_schedule,
    "cost": _cmd_cost,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="atomshuttle",
        description="compile, verify, schedule and cost long-range CZ gates "
                    "on messenger-qubit atom arrays")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("compile", "decompose and schedule a program; emit physical events"),
        ("verify", "state-vector check that compiled protocols implement CZ"),
        ("schedule", "emit events, messenger trajectories and makespan"),
        ("cost", "per-variant fidelity/makespan table from a cost config"),
        ("sweep", "error-budget grid over (p1|pr) x p2 plus 1e-2 contour"),
        ("compare", "rank all variants by logical error, then makespan"),
    ):
        p = sub.add_parser(name, help=help_text)
        # each command takes only the flags it reads; any other exits 2
        p.add_argument("--out", default=".", help="output directory")
        if name in ("compile", "schedule", "verify"):
            p.add_argument("--arch", help="architecture config (key=value file)")
            p.add_argument("--variant", help="override the config's variant")
            p.add_argument("--program", help="logical program file")
        if name == "verify":
            p.add_argument("--pair", help="single-gate target pair: r1,c1,r2,c2")
            p.add_argument("--seed", type=int, default=0, help="seed of the --haar inputs")
            p.add_argument("--haar", type=int, default=0,
                           help="additionally verify N seeded random inputs")
            p.add_argument("--drop-final-correction", action="store_true",
                           help="mutation check: remove the last conditional gate")
        if name == "sweep":
            p.add_argument("--variant", help="the variant to sweep (required)")
            p.add_argument("--axis", choices=("p1", "pr"), default="p1")
            p.add_argument("--case", type=int, choices=(1, 2))
        if name in ("cost", "compare"):
            p.add_argument("--cost", help="cost-model config (key=value file)")
            p.add_argument("-L", type=int, default=8, help="lattice size")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
