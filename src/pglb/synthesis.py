"""Loop-free code generators: truth tables and circuits to straight-line programs.

Any partial Boolean function of arity k compiles to a loop-free program of
length exactly 3*2^k - 2 that reads only input registers: split on the
highest input, emit both restrictions, and jump over the first. A circuit
with n gates compiles to at most 4n + 3 instructions by giving every gate an
auxiliary register, initially t, that is forced to f whenever the gate
evaluates to false.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import InfeasibleArityError, MalformedCircuitError, ParseError, parse_decimal
from .isa import InstructionSequence, parse
from .sat3 import brute_sat, clause_count, decode, encoding_to_text


def input_index(bits: Sequence[bool]) -> int:
    """The table index of an input vector: input i is bit i-1, read as one binary numeral, last input first."""
    return int(b"0" + bytes(map(bool, reversed(bits))).translate(bytes.maketrans(b"\0\1", b"01")), 2)


def input_vector(index: int, arity: int) -> tuple[bool, ...]:
    """The input vector at a table index: the inverse of :func:`input_index`."""
    return tuple(bool(index >> i & 1) for i in range(arity))


@dataclass(frozen=True)
class PartialBooleanFunction:
    """Total table over B^k with entries t, f or undefined (None).

    Entries are indexed with input 1 as the least significant bit, so fixing
    the last input selects a contiguous half of the table.
    """

    arity: int
    entries: tuple[bool | None, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.arity < 0:
            raise ValueError("arity must be >= 0")
        if len(self.entries) != 2**self.arity:
            raise ValueError(f"table needs {2 ** self.arity} entries, got {len(self.entries)}")

    @staticmethod
    def from_callable(arity: int, fn: Callable[[tuple[bool, ...]], bool | None]) -> "PartialBooleanFunction":
        return PartialBooleanFunction(arity, tuple(fn(input_vector(j, arity)) for j in range(2**arity)))

    def value_at(self, bits: Sequence[bool]) -> bool | None:
        if len(bits) != self.arity:
            raise ValueError(f"expected {self.arity} inputs, got {len(bits)}")
        return self.entries[input_index(bits)]

    def inputs(self) -> Iterator[tuple[bool, ...]]:
        """All input vectors in table order."""
        return (input_vector(j, self.arity) for j in range(2**self.arity))


def truth_table_length(arity: int) -> int:
    """Length of :func:`compile_truth_table`'s program for a table of this arity: 3*2^k - 2."""
    return 3 * 2**arity - 2


_LEAVES = {True: "!t", False: "!f", None: "#0"}


def truth_table_text(fn: PartialBooleanFunction) -> str:
    """Canonical text of a loop-free program of length 3*2^k - 2 computing the table, no aux registers.

    Nullary tables are a single !t, !f or #0 (whose behaviour is deadlock,
    hence reply d, for the undefined entry). Otherwise test the last input
    and jump over the compiled b=t restriction into the b=f restriction.
    """
    return _join_leaves(list(map(_LEAVES.__getitem__, fn.entries)))


def _join_leaves(texts: list[str]) -> str:
    """The table program's text around 2^k one-position leaf texts, leaf j in the slot of table index j.

    The restrictions of arity a are the contiguous index ranges of size 2^a
    of the leaves; built level by level, each range's text joins its two
    halves, upper (b=t) first, in one comprehension per level.
    """
    for arity in range(1, len(texts).bit_length()):
        head = f"-in:{arity}.get; #{truth_table_length(arity - 1) + 1}; "
        texts = [f"{head}{t_half}; {f_half}" for f_half, t_half in zip(texts[::2], texts[1::2])]
    return texts[0]


def compile_truth_table(fn: PartialBooleanFunction) -> InstructionSequence:
    """:func:`truth_table_text` as a sequence, one instruction per distinct token."""
    return parse(truth_table_text(fn))


@dataclass(frozen=True)
class InputRef:
    index: int


@dataclass(frozen=True)
class GateRef:
    index: int


Operand = InputRef | GateRef

NOT, AND, OR = "NOT", "AND", "OR"


@dataclass(frozen=True)
class Gate:
    op: str
    left: Operand
    right: Operand | None = None

    def __post_init__(self) -> None:
        if self.op not in (NOT, AND, OR):
            raise MalformedCircuitError(f"unknown gate op {self.op!r}")
        if (self.right is None) != (self.op == NOT):
            raise MalformedCircuitError(f"{self.op} gate has the wrong operand count")


@dataclass(frozen=True)
class Circuit:
    """NOT/AND/OR netlist; gates in topological order, the last one is the output."""

    input_count: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.input_count < 0:
            raise MalformedCircuitError("negative input count")
        if not self.gates:
            raise MalformedCircuitError("a circuit needs at least one gate")
        for number, gate in enumerate(self.gates, 1):
            _check_operands(gate, number, self.input_count)


def _check_operands(
    gate: Gate, number: int, input_count: int, error: Callable[[str], Exception] = MalformedCircuitError
) -> None:
    """Raise ``error`` when gate ``number`` reads an input out of range, a gate not before it, or a non-int index."""
    for operand in (gate.left, gate.right):
        if operand is None:
            continue
        if type(operand.index) is not int:  # a bool is an int, but its text is no index
            raise error(f"gate {number} operand index must be an int, not {operand.index!r}")
        if isinstance(operand, InputRef):
            if not 1 <= operand.index <= input_count:
                raise error(f"gate {number} reads input {operand.index}")
        elif not 1 <= operand.index < number:
            raise error(f"gate {number} references gate {operand.index} (forward or self)")


def _read_text(operand: Operand) -> str:
    """The text of the action that reads an operand: its input register, or its gate's aux register."""
    return f"{'in' if isinstance(operand, InputRef) else 'aux'}:{operand.index}.get"


def _gate_text(gate: Gate, number: int) -> str:
    """The text that clears aux:``number`` when the gate is false."""
    left = _read_text(gate.left)
    if gate.op == NOT:
        return f"+{left}; aux:{number}.set:f"
    test, skip = ("-", 2) if gate.op == AND else ("+", 3)
    return f"{test}{left}; #{skip}; -{_read_text(gate.right)}; aux:{number}.set:f"  # type: ignore[arg-type]


def circuit_text(circuit: Circuit) -> str:
    """Canonical text of a loop-free program computing the circuit, one aux register per gate.

    Register aux:j starts t and is cleared when gate j is false: NOT clears
    on a true operand, AND on either operand false, OR only when both are.
    The tail reads the output gate's register and terminates.
    """
    gates = "; ".join(map(_gate_text, circuit.gates, range(1, len(circuit.gates) + 1)))
    return f"{gates}; +aux:{len(circuit.gates)}.get; !t; !f"


def compile_circuit(circuit: Circuit) -> InstructionSequence:
    """:func:`circuit_text` as a sequence, one instruction per distinct token."""
    return parse(circuit_text(circuit))


def compile_3sat_loopfree(k: int) -> InstructionSequence:
    """Loop-free satisfiability decider built from the full truth table.

    Feasible only for k = 1 (arity 8, 256 rows); the table for k = 2 already
    has 2^64 rows.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= 2:
        raise InfeasibleArityError(
            f"truth table for k={k} has 2^{clause_count(k)} rows; only k=1 is materialisable"
        )
    arity = clause_count(k)
    table = PartialBooleanFunction.from_callable(arity, lambda bits: brute_sat(decode(bits, k)))
    return compile_truth_table(table)


_PATTERN_BITS = str.maketrans("tf", "10")
_ENTRY = {"t": True, "f": False, "u": None}
# The header of a file read by columns. Two digits suffice: the 2^100 rows of arity 100 fit in no memory.
_COLUMNS_HEADER = re.compile(r"k ([0-9]{1,2})\n")


def input_masks(arity: int) -> list[int]:
    """``masks[i]``: the table indices with bit i set, input i+1, as a bit mask.

    Built by doubling: adding an input copies every mask into the upper
    half of the table, where the new input's mask is all ones.
    """
    masks: list[int] = []
    width, full = 1, 1
    for _ in range(arity):
        masks = [m | m << width for m in masks]
        masks.append(full << width)
        full |= full << width
        width <<= 1
    return masks


def _bit_reversal(bits: int) -> list[int]:
    """``order[j]``: j with its ``bits`` low bits in reverse order."""
    order = [0]
    for _ in range(bits):
        order = [2 * j for j in order] + [2 * j + 1 for j in order]
    return order


def _bit_reversed(text: str, bits: int) -> str:
    """The 2^bits characters of ``text``, with index j holding the one at j's bit reversal.

    Split an index into h = bits // 2 high bits and l = bits - h low bits.
    Reversing all bits reverses each part and swaps the two, so: permute the
    2^h rows of 2^l characters by the h-bit reversal, then read the columns
    out in the order of the l-bit reversal. That takes about 3·2^(bits/2)
    slices, not a step per character.
    """
    high = bits // 2
    width = 1 << (bits - high)
    rows = "".join(text[r * width : (r + 1) * width] for r in _bit_reversal(high))
    return "".join(rows[c::width] for c in _bit_reversal(bits - high))


def parse_truth_table(text: str) -> PartialBooleanFunction:
    """Table file: line ``k <arity>`` then one ``<pattern> <t|f|u>`` row per input.

    Patterns are read left to right as inputs 1..k; all 2^k rows must appear
    exactly once. A file laid out as pglb and its benchmark write them is
    read a column at a time; any other file, and every malformed one, a line
    at a time.
    """
    fn = _read_table_columns(text)
    return _parse_table_lines(text) if fn is None else fn


def _read_table_columns(text: str) -> PartialBooleanFunction | None:
    """The table of a file of rows ``[tf]{k} [tfu]\\n`` in one of two orders; None for any other file.

    After the header ``k <arity>\\n`` the rows come in table-index order
    (input 1 changes fastest) or in lexicographic order (input k changes
    fastest, as :func:`format_truth_table` writes them). One pattern checks
    every row. Each pattern column is then read as one int whose bit r is
    row r's input; the order is one of the two when these ints equal the
    table's :func:`input_masks`, ascending or descending. The entries are
    the value column, bit-reversed for lexicographic order.
    """
    header = _COLUMNS_HEADER.match(text)
    if header is None:
        return None
    arity = int(header[1])
    width = arity + 3  # the pattern, a space, the value and a newline
    body = text[header.end() :]
    if len(body) != width << arity or not re.fullmatch(rf"(?:[tf]{{{arity}}} [tfu]\n)*", body):
        return None
    columns = [int(body[i::width][::-1].translate(_PATTERN_BITS), 2) for i in range(arity)]
    masks = input_masks(arity)
    values = body[arity + 1 :: width]
    if columns != masks:
        if columns != masks[::-1]:
            return None
        values = _bit_reversed(values, arity)
    return PartialBooleanFunction(arity, tuple(map(_ENTRY.__getitem__, values)))


def _header_and_lines(text: str, keyword: str, what: str, usage: str) -> tuple[int, list[tuple[int, list[str]]]]:
    """The count in a data file's header line ``<keyword> <count>`` and the fields of each later line.

    Blank lines are skipped; every line keeps its physical 1-based number,
    which errors name.
    """
    lines = [(lineno, fields) for lineno, line in enumerate(text.split("\n"), 1) if (fields := line.split())]
    lineno, fields = lines[0] if lines else (1, [])
    if len(fields) != 2 or fields[0] != keyword or not (fields[1].isascii() and fields[1].isdigit()):
        raise ParseError(usage, lineno)
    return parse_decimal(fields[1], what, lineno), lines[1:]


def _parse_table_lines(text: str) -> PartialBooleanFunction:
    """:func:`parse_truth_table` one line at a time; the only reader that words an error."""
    arity, lines = _header_and_lines(text, "k", "arity", "first line must be 'k <arity>'")
    rows: dict[int, bool | None] = {}  # keyed by table index, input 1 least significant
    for lineno, fields in lines:
        if arity == 0 and len(fields) == 1:
            pattern, value_text = "", fields[0]
        elif len(fields) == 2:
            pattern, value_text = fields
        else:
            raise ParseError("row must be '<pattern> <value>'", lineno)
        if len(pattern) != arity or not set(pattern) <= {"t", "f"}:
            raise ParseError(f"pattern must be {arity} characters over t/f", lineno)
        if value_text not in ("t", "f", "u"):
            raise ParseError("value must be t, f or u", lineno)
        index = int(pattern[::-1].translate(_PATTERN_BITS), 2) if pattern else 0
        if index in rows:
            raise ParseError(f"duplicate row {pattern!r}", lineno)
        rows[index] = None if value_text == "u" else value_text == "t"
    # The count is 2^arity when it is a power of two of arity + 1 bits. The header is untrusted,
    # so 2^arity itself is not computed: at k 100000 it would be a 100,001-bit int.
    count = len(rows)
    if count & (count - 1) or count.bit_length() != arity + 1:
        raise ParseError(f"table needs 2^{arity} rows, found {count}")
    return PartialBooleanFunction(arity, tuple(map(rows.__getitem__, range(count))))


def format_truth_table(fn: PartialBooleanFunction) -> str:
    lines = [f"k {fn.arity}"]
    for bits in sorted(fn.inputs()):
        pattern = encoding_to_text(bits)
        value = fn.value_at(bits)
        value_text = "u" if value is None else ("t" if value else "f")
        lines.append(f"{pattern} {value_text}".strip())
    return "\n".join(lines) + "\n"


def _parse_operand(token: str, lineno: int) -> Operand:
    if len(token) > 1 and token[0] in "xg" and token[1:].isascii() and token[1:].isdigit():
        index = parse_decimal(token[1:], "operand", lineno)
        return InputRef(index) if token[0] == "x" else GateRef(index)
    raise ParseError(f"operand must be x<j> or g<j>, got {token!r}", lineno)


def parse_netlist(text: str) -> Circuit:
    """Netlist file: ``inputs <k>`` then ``g<i> = OP <op> [<op>]`` lines in order."""
    input_count, lines = _header_and_lines(text, "inputs", "input count", "first line must be 'inputs <k>'")
    gates: list[Gate] = []
    for lineno, fields in lines:
        if len(fields) < 4 or fields[1] != "=" or fields[0] != f"g{len(gates) + 1}":
            raise ParseError(f"expected 'g{len(gates) + 1} = OP <operands>'", lineno)
        op = fields[2]
        operands = [_parse_operand(tok, lineno) for tok in fields[3:]]
        if op == NOT and len(operands) == 1:
            gates.append(Gate(NOT, operands[0]))
        elif op in (AND, OR) and len(operands) == 2:
            gates.append(Gate(op, operands[0], operands[1]))
        else:
            raise ParseError(f"bad gate line {' '.join(fields)!r}", lineno)
        _check_operands(gates[-1], len(gates), input_count, lambda message: ParseError(message, lineno))
    if not gates:
        raise ParseError("netlist declares no gates")
    circuit = object.__new__(Circuit)  # each gate was checked at its line: skip the constructor's second check
    circuit.__dict__.update(input_count=input_count, gates=tuple(gates))
    return circuit


def format_netlist(circuit: Circuit) -> str:
    def operand_text(operand: Operand | None) -> str:
        if operand is None:
            return ""
        prefix = "x" if isinstance(operand, InputRef) else "g"
        return f" {prefix}{operand.index}"

    lines = [f"inputs {circuit.input_count}"]
    for number, gate in enumerate(circuit.gates, 1):
        lines.append(f"g{number} = {gate.op}{operand_text(gate.left)}{operand_text(gate.right)}")
    return "\n".join(lines) + "\n"
