"""Command-line front end.

Exit codes: 0 success (verify: equivalent), 1 verification mismatch,
2 usage or parse error, 3 resource guard tripped (infeasible arity or
configuration cap), 4 internal error (a bug: any other exception). Results go
to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import count
from pathlib import Path

from .errors import InfeasibleArityError, ParseError, StateSpaceCapExceeded
from .extraction import compile_text, extract
from .interaction import DEFAULT_STATE_CAP, compute, trace
from .isa import MAX_DIGITS
from .oracle import equivalence_check
from .sat3 import (
    clause_count,
    encode_cnf,
    encoding_to_text,
    gen_3sat_length,
    gen_3sat_text,
    parse_dimacs,
    parse_encoding,
)
from .synthesis import (
    circuit_text,
    parse_netlist,
    parse_truth_table,
    truth_table_length,
    truth_table_text,
)
from .threads import PostNode, RegularThread, project, render_term, thread_equations, thread_to_dot

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    # Decoded whole, so a decode error names its byte's offset in the file; then, as in text mode, a leading
    # byte-order mark is dropped and \r\n and \r become \n. Path normalises the name an OSError gives.
    try:
        text = Path(path).read_bytes().decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def _cmd_fmt(args) -> int:
    program = compile_text(_read(args.file))
    print("; ".join([head[7] for head in program.rows[1 : program.exit_state]]))
    return EXIT_OK


def _cmd_extract(args) -> int:
    thread = extract(compile_text(_read(args.file)))
    print(thread_to_dot(thread) if args.graph else thread_equations(thread))
    return EXIT_OK


def _check_projection_size(thread: RegularThread, depth: int) -> None:
    """Refuse, before it is built, a projection with more than ``DEFAULT_STATE_CAP`` nodes.

    Counts level by level the nodes of the tree ``render_term`` prints, the
    two branches of a test apart when they lead to different states: a bound
    on the printed term and on the work of building it. Stops past the cap.
    A level still reached after as many levels as the thread has states lies
    on a cycle, so every level down to the depth is reached and the count is
    at least depth + 1: a depth at or above the cap is refused there. Below
    the cap the loop runs at most ``depth`` levels.
    """
    level, nodes, built = {thread.root: 1}, 1, 0  # level: state -> paths reaching it at this depth
    while built < depth and level and nodes <= DEFAULT_STATE_CAP:
        if built == len(thread.states) and depth >= DEFAULT_STATE_CAP:
            nodes = depth + 1  # a lower bound, and over the cap
            break
        following: dict[int, int] = {}
        for state, paths in level.items():
            label = thread.states[state]
            if isinstance(label, PostNode):
                for succ in {label.then_state, label.else_state}:
                    following[succ] = following.get(succ, 0) + paths
        level, built = following, built + 1
        nodes += sum(level.values())
    if nodes > DEFAULT_STATE_CAP:
        raise InfeasibleArityError(f"depth {depth}: over {DEFAULT_STATE_CAP} nodes to project (the state cap)")


def _cmd_project(args) -> int:
    thread = extract(compile_text(_read(args.file)))
    _check_projection_size(thread, args.depth)
    print(render_term(project(thread, args.depth)))
    return EXIT_OK


def _cmd_run(args) -> int:
    program = compile_text(_read(args.file))
    # One row per distinct token, its action as text: check each action once, in first-occurrence order.
    for head in program.heads:
        if head[4] is not None and "." not in head[4]:  # a bare symbol has no focus
            print(f"non-service action '{head[4]}'", file=sys.stderr)
            return EXIT_USAGE
    inputs = parse_encoding(args.inputs)
    if not args.trace:
        print(compute(program, inputs, args.aux))
        return EXIT_OK
    steps = trace(program, inputs, args.aux)
    for step in steps:
        print(step)
    print(steps[-1].reply)
    return EXIT_OK


def _cmd_compile_tt(args) -> int:
    print(truth_table_text(parse_truth_table(_read(args.file))))
    return EXIT_OK


def _cmd_compile_circuit(args) -> int:
    print(circuit_text(parse_netlist(_read(args.file))))
    return EXIT_OK


def _check_3sat_size(k: int) -> None:
    """Refuse, before anything is allocated, a k whose decider has more instructions than the state cap.

    ``gen 3sat`` emits that decider and ``encode cnf`` its 8k^3-bit input, so
    both stop at k=19 (493,944 instructions); ``gen 3sat -k 64`` would take
    several GB before printing anything.
    """
    if gen_3sat_length(k) > DEFAULT_STATE_CAP:
        raise InfeasibleArityError(
            f"k={k}: the decider would have more than {DEFAULT_STATE_CAP} instructions (the state cap)"
        )


def _cmd_gen_3sat(args) -> int:
    _check_3sat_size(args.k)
    print(gen_3sat_text(args.k))
    return EXIT_OK


def _cmd_encode_cnf(args) -> int:
    formula = parse_dimacs(_read(args.file))
    _check_3sat_size(formula.k)
    print(encoding_to_text(encode_cnf(formula)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    program = compile_text(_read(args.program))
    table = parse_truth_table(_read(args.tt))
    report = equivalence_check(program, table, args.aux)
    print(report)
    for mismatch in report.mismatches:
        print(mismatch)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_lengths(args) -> int:
    print("k\tloop-free\twith-backward-jumps")
    for k in range(1, args.max_k + 1):
        # The loop-free decider is the compiled truth table over all 8k^3 clause bits.
        print(f"{k}\t{truth_table_length(clause_count(k))}\t{gen_3sat_length(k)}")
    return EXIT_OK


# lengths prints exact integers, each of at most MAX_DIGITS digits when the interpreter bounds
# them. Under its default of 4,300 the top k is 12: the loop-free length at k=13 has 5,291 digits.
MAX_LENGTHS_K = (
    next(k for k in count(1) if truth_table_length(clause_count(k + 1)) >= 10**MAX_DIGITS) if MAX_DIGITS else None
)


def _int_in(low: int, high: int | None = None):
    """An argparse type: an int of at least ``low`` and, when given, at most ``high``."""
    bounds = f">= {low}" if high is None else f"between {low} and {high}"

    def bounded_int(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"must be {bounds}")
        return value

    return bounded_int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pglb", description="Instruction-sequence toolkit: parse, run, compile, verify."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fmt = commands.add_parser("fmt", help="reprint a program in canonical form")
    fmt.add_argument("file")
    fmt.set_defaults(func=_cmd_fmt)

    ext = commands.add_parser("extract", help="print the extracted thread as equations")
    ext.add_argument("file")
    ext.add_argument("--graph", action="store_true", help="emit graphviz dot instead")
    ext.set_defaults(func=_cmd_extract)

    proj = commands.add_parser("project", help="print the depth-n approximation of the thread")
    proj.add_argument("file")
    proj.add_argument("-n", "--depth", type=_int_in(0), required=True)
    proj.set_defaults(func=_cmd_project)

    run = commands.add_parser("run", help="run a program against Boolean registers")
    run.add_argument("file")
    run.add_argument("--in", dest="inputs", default="", help="input registers as a t/f string")
    run.add_argument("--aux", type=_int_in(0), default=0, help="number of aux registers")
    run.add_argument("--trace", action="store_true", help="print one line per executed step")
    run.set_defaults(func=_cmd_run)

    comp = commands.add_parser("compile", help="generate a loop-free program")
    comp_sub = comp.add_subparsers(dest="what", required=True)
    comp_tt = comp_sub.add_parser("tt", help="from a truth-table file")
    comp_tt.add_argument("file")
    comp_tt.set_defaults(func=_cmd_compile_tt)
    comp_circuit = comp_sub.add_parser("circuit", help="from a netlist file")
    comp_circuit.add_argument("file")
    comp_circuit.set_defaults(func=_cmd_compile_circuit)

    gen = commands.add_parser("gen", help="generate a solver program")
    gen_sub = gen.add_subparsers(dest="what", required=True)
    gen_sat = gen_sub.add_parser("3sat", help="satisfiability decider with one backward jump")
    gen_sat.add_argument("-k", type=_int_in(1), required=True, help="number of variables")
    gen_sat.set_defaults(func=_cmd_gen_3sat)

    enc = commands.add_parser("encode", help="encode problem instances")
    enc_sub = enc.add_subparsers(dest="what", required=True)
    enc_cnf = enc_sub.add_parser("cnf", help="DIMACS 3-CNF to t/f input string")
    enc_cnf.add_argument("file")
    enc_cnf.set_defaults(func=_cmd_encode_cnf)

    ver = commands.add_parser("verify", help="check a program against a truth table")
    ver.add_argument("program")
    ver.add_argument("--tt", required=True, help="truth-table file")
    ver.add_argument("--aux", type=_int_in(0), default=0)
    ver.set_defaults(func=_cmd_verify)

    lengths = commands.add_parser("lengths", help="loop-free vs backward-jump program sizes")
    lengths.add_argument("--max-k", type=_int_in(1, MAX_LENGTHS_K), default=4, help=f"1..{MAX_LENGTHS_K or ''}")
    lengths.set_defaults(func=_cmd_lengths)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; each parse returns a fresh namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exit_:  # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if exit_.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleArityError, StateSpaceCapExceeded) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a bug, not bad input: say so rather than show a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
