"""Command-line interface.

Subcommands: compile, verify, schedule, cost, sweep, compare.  All
artifacts are deterministic for identical inputs and seed, and start
with a '#' header carrying the tool version and a hash of the effective
configuration.

Exit codes: 0 success, 2 parse error, 3 infeasible schedule,
4 verification failure, 5 I/O error.

Only the commands that run them import the oracle (`verify`, which
brings numpy) and the cost model (`cost`, `sweep`, `compare`, which need
no numpy): `compile` and `schedule` load neither.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import os
import re
import sys

from . import __version__
from .architectures import (ArchitectureSpec, FieldError, Variant, ascii_int, check_lattice_size,
                            load_arch_config)
from .ir import INT_RE, LogicalCZ, check_circuit, events_to_jsonl, parse_program
from .scheduler import InfeasibleError, schedule, trajectories_to_csv

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4
EXIT_IO = 5

_PAIR_RE = re.compile(rf"{INT_RE}(,{INT_RE}){{3}}")


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
    """The UTF-8 text of `path`, with `Path.read_text`'s newlines: CRLF and a
    lone CR read as LF.  Decoding the bytes whole skips a text wrapper."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise _CliError(EXIT_IO, f"cannot read {path}: {e}") from e
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise _CliError(EXIT_PARSE, f"{path}: not UTF-8 text") from e
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _write(out_dir: str, header: str, artifacts: dict[str, str]) -> None:
    """Write each {name: body} of one command into `out_dir` as UTF-8 with LF
    line ends, whatever the locale; `out_dir` and its parents are made only
    when it is not a directory yet."""
    name = out_dir   # what a failed mkdir names
    try:
        if not os.path.isdir(out_dir or "."):   # "" is the working directory
            os.makedirs(out_dir, exist_ok=True)
        for name, body in artifacts.items():
            with open(os.path.join(out_dir, name), "wb") as f:
                f.write((header + body).encode())
    except OSError as e:
        raise _CliError(EXIT_IO, f"cannot write {name}: {e}") from e


def _load(path: str, parse):
    """`(parse(text), text)` for the text of `path`, read once, so an artifact
    header hashes the bytes that were parsed; a `ValueError` exits 2."""
    text = _read_text(path)
    try:
        return parse(text), text
    except ValueError as e:
        raise _CliError(EXIT_PARSE, str(e)) from e


def _load_arch(args) -> tuple[ArchitectureSpec, str]:
    arch, text = _load(args.arch, functools.partial(load_arch_config, args.arch))
    if args.variant is not None:
        arch = arch._replace(variant=Variant(args.variant))
    return arch, text


def _load_circuit(args, arch: ArchitectureSpec):
    def parse(text):
        circuit = parse_program(text)
        check_circuit(circuit, arch.L)
        return circuit
    return _load(args.program, parse)


def _parse_pair(spec: str):
    if not _PAIR_RE.fullmatch(spec):
        raise _CliError(EXIT_PARSE, f"--pair expects r1,c1,r2,c2, got {spec!r}")
    r1, c1, r2, c2 = map(int, spec.split(","))
    return (r1, c1), (r2, c2)


def _pairs_for(args, arch: ArchitectureSpec):
    """The target pairs, and the program text they came from ('' for --pair)."""
    if args.pair is not None:
        return [_parse_pair(args.pair)], ""
    circuit, text = _load_circuit(args, arch)
    pairs = [(op.a, op.b) for op in circuit.ops if isinstance(op, LogicalCZ)]
    if not pairs:
        raise _CliError(EXIT_PARSE, f"{args.program}: no cz statement to verify")
    return pairs, text


def _scheduled(args):
    """The schedule of `--program` on `--arch`, and the header of its artifacts."""
    arch, arch_text = _load_arch(args)
    circuit, program_text = _load_circuit(args, arch)
    try:
        prog = schedule(circuit, arch)
    except InfeasibleError as e:
        raise _CliError(EXIT_INFEASIBLE, f"infeasible schedule: {e}") from e
    return prog, _header(arch_text, program_text, str(args.variant))


def _cmd_compile(args) -> int:
    prog, header = _scheduled(args)
    _write(args.out, header, {"compile.jsonl": events_to_jsonl(prog.events)})
    return EXIT_OK


def _cmd_schedule(args) -> int:
    prog, header = _scheduled(args)
    _write(args.out, header, {"events.jsonl": events_to_jsonl(prog.events),
                              "trajectories.csv": trajectories_to_csv(prog.trajectories),
                              "makespan.txt": f"{prog.makespan!r}\n"})
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .oracle import (STANDARD_INPUTS, NothingToDropError, haar_random_two_qubit_inputs,
                         records_to_jsonl, verify_logical_cz)
    if args.haar < 0:
        raise _CliError(EXIT_PARSE, f"--haar {args.haar}: number of inputs must be at least 0")
    seed = args.seed or 0
    if seed < 0:
        raise _CliError(EXIT_PARSE, f"--seed {seed}: seed must be at least 0")
    if args.seed is not None and args.haar == 0:
        raise _CliError(EXIT_PARSE, f"--seed {seed}: only --haar inputs are seeded")
    arch, arch_text = _load_arch(args)
    pairs, program_text = _pairs_for(args, arch)
    inputs = STANDARD_INPUTS
    if args.haar > 0:
        inputs = {**inputs, **haar_random_two_qubit_inputs(args.haar, seed)}
    records = []
    for a, b in pairs:
        try:
            records += verify_logical_cz(arch, a, b, two_qubit_inputs=inputs,
                                         drop_final_correction=args.drop_final_correction)
        except NothingToDropError as e:
            raise _CliError(EXIT_PARSE, f"--drop-final-correction on {e}") from e
        except ValueError as e:
            raise _CliError(EXIT_PARSE, str(e)) from e
    header = _header(arch_text, str(args.variant), str(args.pair), program_text,
                     str(seed), str(args.haar), str(args.drop_final_correction))
    _write(args.out, header, {"verify.jsonl": records_to_jsonl(records)})
    n_bad = sum(1 for r in records if not r.ok)
    if n_bad:
        print(f"verification FAILED: {n_bad}/{len(records)} branch checks",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _comparison(args):
    """Every variant's cost under `--cost` on an `-L` array, ranked, and the
    header of its artifact."""
    try:
        check_lattice_size(args.L)
    except FieldError as e:
        raise _CliError(EXIT_PARSE, f"-L {args.L}: lattice size {e.requirement}") from e
    from .cost import architecture_comparison, load_cost_config
    params, cost_text = _load(args.cost, functools.partial(load_cost_config, args.cost))
    return architecture_comparison(params, args.L), _header(cost_text, str(args.L))


def _cmd_cost(args) -> int:
    rows, header = _comparison(args)
    rows.sort(key=lambda r: (r.variant.value, r.case or 0))  # stable listing order
    lines = ["variant,case,n1,n2_cz,n2_swap,nr,fidelity,error,makespan"]
    for row in rows:
        c = row.report.counts
        lines.append(f"{row.variant.value},{row.case or ''},{c.n1},{c.n2_cz},"
                     f"{c.n2_swap},{c.nr},{row.report.F!r},{row.report.error!r},"
                     f"{row.report.makespan!r}")
    _write(args.out, header, {"cost.csv": "\n".join(lines) + "\n"})
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .cost import contour_to_csv, error_budget_sweep, sweep_to_csv
    variant = Variant(args.variant)
    case = args.case
    if variant is Variant.ONE_WAY_BELT:
        case = case or 1
    elif case is not None:
        raise _CliError(EXIT_PARSE, f"--case {case}: only {Variant.ONE_WAY_BELT.value} "
                                    f"has cases, not {variant.value}")
    result = error_budget_sweep(variant, args.axis, case=case)
    header = _header(args.variant, args.axis, str(case))
    _write(args.out, header, {"sweep.csv": sweep_to_csv(result),
                              "sweep_contour.csv": contour_to_csv(result)})
    return EXIT_OK


def _cmd_compare(args) -> int:
    rows, header = _comparison(args)
    lines = ["rank,variant,case,error,fidelity,makespan"]
    for rank, row in enumerate(rows, start=1):
        lines.append(f"{rank},{row.variant.value},{row.case or ''},"
                     f"{row.report.error!r},{row.report.F!r},{row.report.makespan!r}")
    _write(args.out, header, {"compare.csv": "\n".join(lines) + "\n"})
    return EXIT_OK


# name -> (command, its help line)
_COMMANDS = {
    "compile": (_cmd_compile, "decompose and schedule a program; emit physical events"),
    "verify": (_cmd_verify, "state-vector check that compiled protocols implement CZ"),
    "schedule": (_cmd_schedule, "emit events, messenger trajectories and makespan"),
    "cost": (_cmd_cost, "per-variant fidelity/makespan table from a cost config"),
    "sweep": (_cmd_sweep, "error-budget grid over (p1|pr) x p2 plus 1e-2 contour"),
    "compare": (_cmd_compare, "rank all variants by logical error, then makespan"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged.  Its `commands` maps each command name to that command's parser."""
    parser = argparse.ArgumentParser(
        prog="atomshuttle",
        description="compile, verify, schedule and cost long-range CZ gates "
                    "on messenger-qubit atom arrays")
    sub = parser.add_subparsers(dest="command", required=True)
    variants = [v.value for v in Variant]
    parser.commands = {}
    for name, (_, help_text) in _COMMANDS.items():
        p = parser.commands[name] = sub.add_parser(name, help=help_text)
        # each command takes only the flags it reads, and argparse enforces
        # which are required; any other flag, or a missing one, exits 2
        p.add_argument("--out", default=".", help="output directory")
        if name in ("compile", "schedule", "verify"):
            p.add_argument("--arch", required=True, help="architecture config (key=value file)")
            p.add_argument("--variant", choices=variants, help="override the config's variant")
        if name in ("compile", "schedule"):
            p.add_argument("--program", required=True, help="logical program file")
        if name == "verify":
            target = p.add_mutually_exclusive_group(required=True)
            target.add_argument("--pair", help="single-gate target pair: r1,c1,r2,c2")
            target.add_argument("--program", help="logical program file; verify each cz")
            p.add_argument("--seed", type=ascii_int,
                           help="seed of the --haar inputs (default 0)")
            p.add_argument("--haar", type=ascii_int, default=0,
                           help="additionally verify N seeded random inputs")
            p.add_argument("--drop-final-correction", action="store_true",
                           help="mutation check: remove the last conditional gate")
        if name == "sweep":
            p.add_argument("--variant", required=True, choices=variants,
                           help="the variant to sweep")
            p.add_argument("--axis", choices=("p1", "pr"), default="p1")
            p.add_argument("--case", type=ascii_int, choices=(1, 2))
        if name in ("cost", "compare"):
            p.add_argument("--cost", required=True, help="cost-model config (key=value file)")
            p.add_argument("-L", type=ascii_int, default=8, help="lattice size")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    # a known command's own parser reads its flags, as the full parser would
    # hand them on, without the full parser classifying them first; the full
    # parser runs for any other argv and for leftovers, whose message, usage
    # line and exit code are its own
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if command is None or extras:
        args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
