"""The three benchmark workloads: input generation, the CLI calls of one op, and output checks.

Inputs depend only on the seed and are written to files before the first op;
the program under test sees only those files (and, for ``run``, the input
string read from one of them). Generation uses no pglb code, so the digest of
the generated files identifies the inputs independently of the commit.

Each op's expected output comes from a reference that takes none of the CLI's
code paths: ``brute_sat`` on a formula built here, ``PartialBooleanFunction.value_at``
on the generated table, ``eval_circuit`` on a netlist built here. References
are computed after the op returns, outside its timed region.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

SAT_K = 4
SAT_CLAUSES = 8 * SAT_K**3  # 512 clause shapes over 4 variables
# Clause counts drawn uniformly from this range give roughly half satisfiable formulas.
SAT_MIN_CLAUSES, SAT_MAX_CLAUSES = 10, 34

TT_ARITY = 10
TT_UNDEFINED = 0.1  # share of rows marked u
TT_PLANTED = 0.25  # share of ops verified against a table with flipped entries
TT_MAX_FLIPS = 4

CIRCUIT_INPUTS = 8
CIRCUIT_MIN_GATES, CIRCUIT_MAX_GATES = 12, 22
# Operands come from the 12 most recent signals (inputs count as the first 8).
# With operands drawn from all earlier signals, about 1 circuit in 150 builds a
# use_apply product over the 500k configuration cap and exits 3 (see README.md).
CIRCUIT_WINDOW = 12

POOL_SIZE = {"sat_decide": 600, "tt_verify": 600, "circuit_run": 1200}


@dataclass
class Op:
    """One generated input and how to run it through the CLI."""

    index: int
    data: dict = field(default_factory=dict)


def pattern(index: int, arity: int) -> str:
    """Input vector of a table index as a t/f string; input 1 is the least significant bit."""
    return "".join("t" if index >> bit & 1 else "f" for bit in range(arity))


def clause_shape(number: int, k: int) -> tuple[int, int, int, int]:
    """Clause number 1..8k^3 -> (l, m, n, pattern), lexicographic order as documented."""
    rest, p = divmod(number - 1, 8)
    rest, n = divmod(rest, k)
    l, m = divmod(rest, k)
    return l + 1, m + 1, n + 1, p + 1


# --- generation -------------------------------------------------------------


def _gen_sat(rng: random.Random, workdir: Path, size: int) -> list[Op]:
    ops = []
    lines = []
    for index in range(size):
        count = rng.randint(SAT_MIN_CLAUSES, SAT_MAX_CLAUSES)
        present = set(rng.sample(range(1, SAT_CLAUSES + 1), count))
        encoding = "".join("t" if j in present else "f" for j in range(1, SAT_CLAUSES + 1))
        lines.append(encoding)
        ops.append(Op(index, {"encoding": encoding}))
    (workdir / "formulas.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ops


def _table_text(entries: list[str], rows: list[str]) -> str:
    body = "\n".join(f"{row} {entry}" for row, entry in zip(rows, entries))
    return f"k {TT_ARITY}\n{body}\n"


def _gen_tt(rng: random.Random, workdir: Path, size: int) -> list[Op]:
    rows = [pattern(index, TT_ARITY) for index in range(2**TT_ARITY)]
    ops = []
    for index in range(size):
        entries = []
        for _ in rows:
            draw = rng.random()
            entries.append("u" if draw < TT_UNDEFINED else ("t" if rng.random() < 0.5 else "f"))
        table = workdir / f"t{index:04d}.tt"
        table.write_text(_table_text(entries, rows), encoding="utf-8")
        op = Op(index, {"entries": entries, "table": str(table), "check": str(table)})
        if rng.random() < TT_PLANTED:
            defined = [i for i, e in enumerate(entries) if e != "u"]
            flips = sorted(rng.sample(defined, rng.randint(1, TT_MAX_FLIPS)))
            planted = list(entries)
            for i in flips:
                planted[i] = "f" if planted[i] == "t" else "t"
            check = workdir / f"t{index:04d}.planted.tt"
            check.write_text(_table_text(planted, rows), encoding="utf-8")
            op.data.update(check=str(check), planted_entries=planted, flips=flips)
        ops.append(op)
    return ops


def _gen_circuit(rng: random.Random, workdir: Path, size: int) -> list[Op]:
    ops = []
    inputs_lines = []
    for index in range(size):
        gate_count = rng.randint(CIRCUIT_MIN_GATES, CIRCUIT_MAX_GATES)
        signals = [f"x{i}" for i in range(1, CIRCUIT_INPUTS + 1)]
        gates = []
        for number in range(1, gate_count + 1):
            window = signals[-CIRCUIT_WINDOW:]
            op = rng.choice(("NOT", "AND", "OR"))
            operands = [rng.choice(window)] if op == "NOT" else [rng.choice(window), rng.choice(window)]
            gates.append((op, operands))
            signals.append(f"g{number}")
        bits = "".join(rng.choice("tf") for _ in range(CIRCUIT_INPUTS))
        text = f"inputs {CIRCUIT_INPUTS}\n" + "".join(
            f"g{number} = {op} {' '.join(operands)}\n" for number, (op, operands) in enumerate(gates, 1)
        )
        netlist = workdir / f"c{index:04d}.net"
        netlist.write_text(text, encoding="utf-8")
        inputs_lines.append(bits)
        ops.append(Op(index, {"gates": gates, "bits": bits, "netlist": str(netlist)}))
    (workdir / "inputs.txt").write_text("\n".join(inputs_lines) + "\n", encoding="utf-8")
    return ops


GENERATORS = {"sat_decide": _gen_sat, "tt_verify": _gen_tt, "circuit_run": _gen_circuit}


def generate(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's input files for ``seed`` into ``workdir`` and return its ops."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, workdir, POOL_SIZE[workload])


def inputs_digest(workdir: Path) -> str:
    """SHA-256 over the generated input files (names and bytes, in name order)."""
    digest = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        if path.suffix in (".txt", ".tt", ".net"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


# --- one op: CLI calls ------------------------------------------------------


def run_op(workload: str, op: Op, workdir: Path, call) -> list[tuple[int, str]]:
    """Run one op through ``call(argv) -> (exit code, stdout)``; returns each call's result.

    A compile step's stdout is written to a program file, as a shell user
    redirecting it would; that write is part of the op.
    """
    if workload == "sat_decide":
        return [call(["run", str(workdir / "sat4.pga"), "--in", op.data["encoding"], "--aux", str(SAT_K)])]
    program = workdir / "op.pga"
    if workload == "tt_verify":
        compiled = call(["compile", "tt", op.data["table"]])
        program.write_text(compiled[1], encoding="utf-8")
        return [compiled, call(["verify", str(program), "--tt", op.data["check"]])]
    compiled = call(["compile", "circuit", op.data["netlist"]])
    program.write_text(compiled[1], encoding="utf-8")
    aux = str(len(op.data["gates"]))
    return [compiled, call(["run", str(program), "--in", op.data["bits"], "--aux", aux, "--trace"])]


def run_steps(workload: str, ops: list[Op], workdir: Path, pglb) -> int:
    """Total steps the runs of these ops take, counted by ``interaction.trace``; 0 for tt_verify."""
    trace, parse = pglb.interaction.trace, pglb.isa.parse
    if workload == "sat_decide":
        program = parse((workdir / "sat4.pga").read_text(encoding="utf-8"))
        return sum(len(trace(program, [c == "t" for c in op.data["encoding"]], SAT_K)) for op in ops)
    if workload == "circuit_run":
        syn = pglb.synthesis
        return sum(
            len(trace(
                syn.compile_circuit(syn.parse_netlist(Path(op.data["netlist"]).read_text(encoding="utf-8"))),
                [c == "t" for c in op.data["bits"]],
                len(op.data["gates"]),
            ))
            for op in ops
        )
    return 0


# --- references and checks --------------------------------------------------


def _reply_text(value: bool | None) -> str:
    return "d" if value is None else ("t" if value else "f")


def expected_sat(op: Op, pglb) -> str:
    shapes = frozenset(
        pglb.sat3.ClauseShape(*clause_shape(j, SAT_K))
        for j, c in enumerate(op.data["encoding"], 1)
        if c == "t"
    )
    return _reply_text(pglb.sat3.brute_sat(pglb.sat3.CnfFormula(SAT_K, shapes)))


def expected_tt(op: Op, pglb) -> tuple[int, str]:
    """Exit code and full verify stdout, from value_at on the compiled and the checked table."""
    fn_class = pglb.synthesis.PartialBooleanFunction

    def table(entries):
        return fn_class(TT_ARITY, tuple(None if e == "u" else e == "t" for e in entries))

    source = table(op.data["entries"])
    check = table(op.data.get("planted_entries", op.data["entries"]))
    lines = []
    for index in range(2**TT_ARITY):
        bits = tuple(bool(index >> bit & 1) for bit in range(TT_ARITY))
        got, want = source.value_at(bits), check.value_at(bits)
        if got != want:
            lines.append(f"input {pattern(index, TT_ARITY)}: got {_reply_text(got)}, expected {_reply_text(want)}")
    total = 2**TT_ARITY
    if not lines:
        return 0, f"equivalent on all {total} inputs\n"
    return 1, f"{len(lines)} mismatching input(s) out of {total}\n" + "".join(f"{line}\n" for line in lines)


def expected_circuit(op: Op, pglb) -> str:
    syn = pglb.synthesis

    def operand(name: str):
        return (syn.InputRef if name[0] == "x" else syn.GateRef)(int(name[1:]))

    gates = tuple(syn.Gate(kind, *map(operand, operands)) for kind, operands in op.data["gates"])
    circuit = syn.Circuit(CIRCUIT_INPUTS, gates)
    return _reply_text(pglb.oracle.eval_circuit(circuit, [c == "t" for c in op.data["bits"]]))


def check_op(workload: str, op: Op, results: list[tuple[int, str]], pglb) -> str | None:
    """None when every call's exit code and stdout are right, else a one-line reason."""
    if workload == "sat_decide":
        (code, out), = results
        want = expected_sat(op, pglb)
        return None if (code, out) == (0, want + "\n") else f"exit {code}, reply {out.strip()!r}, expected {want}"
    (compile_code, compiled), (code, out) = results
    if compile_code != 0 or not compiled.strip():
        return f"compile exited {compile_code}"
    if workload == "tt_verify":
        want_code, want_out = expected_tt(op, pglb)
        flips = op.data.get("flips", [])
        if want_code != (1 if flips else 0) or want_out.count("\n") != len(flips) + 1:
            return f"generator planted {len(flips)} flips but the reference sees otherwise"
        if code != want_code or out != want_out:
            return f"verify exit {code}, expected {want_code}; output differs from the reference"
        return None
    want = expected_circuit(op, pglb)
    lines = out.splitlines()
    if code != 0 or len(lines) < 2 or lines[-1] != want or not lines[-2].endswith(f"terminate {want}"):
        return f"run exit {code}, last lines {lines[-2:]!r}, expected reply {want}"
    return None
