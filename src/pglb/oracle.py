"""Brute-force evaluators and sweeps that certify generated programs.

The references take none of the program's code paths: a circuit is
evaluated gate by gate and a table is looked up. The program side of an
equivalence sweep is compiled once. A program without backward jumps,
small enough for the pass's bit budget, gets the replies of all inputs
from one pass over its states (:func:`pglb.interaction.reply_sets`); any
other is walked once per input (:func:`pglb.interaction.walk`). Either way
the replies become masks over table indices, of the inputs replying t and
of those replying f; an input is a mismatch where its bit in either differs
from the table's. A program counts as correct only when its runs agree with
the reference on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InfeasibleArityError
from .interaction import Program, reply_sets, walk
from .sat3 import encoding_to_text
from .services import Reply
from .synthesis import AND, Circuit, InputRef, NOT, PartialBooleanFunction, input_vector


def eval_circuit(circuit: Circuit, inputs: Sequence[bool]) -> bool:
    """Evaluate the netlist on the given inputs (last gate is the output)."""
    if len(inputs) != circuit.input_count:
        raise ValueError(f"expected {circuit.input_count} inputs, got {len(inputs)}")
    values: list[bool] = []

    def read(operand) -> bool:
        if isinstance(operand, InputRef):
            return inputs[operand.index - 1]
        return values[operand.index - 1]

    for gate in circuit.gates:
        if gate.op == NOT:
            values.append(not read(gate.left))
        elif gate.op == AND:
            values.append(read(gate.left) and read(gate.right))
        else:
            values.append(read(gate.left) or read(gate.right))
    return values[-1]


@dataclass(frozen=True)
class Mismatch:
    inputs: tuple[bool, ...]
    got: Reply
    expected: Reply

    def __str__(self) -> str:
        pattern = encoding_to_text(self.inputs)
        return f"input {pattern or '(none)'}: got {self.got}, expected {self.expected}"


@dataclass(frozen=True)
class EquivalenceReport:
    arity: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __str__(self) -> str:
        if self.ok:
            return f"equivalent on all {2 ** self.arity} inputs"
        return f"{len(self.mismatches)} mismatching input(s) out of {2 ** self.arity}"


# The reply a table entry asks for (an undefined entry must come out as d), and the digits that
# pick out, in a string of one reply per input, the inputs replying t and those replying f.
_ENTRY_REPLY = {True: "t", False: "f", None: "d"}
_REPLY_DIGITS = tuple(str.maketrans("tfd", digits) for digits in ("100", "010"))


def _reply_masks(replies: str) -> tuple[int, ...]:
    """The t and f masks of a string of one reply per input in table order: bit j for input j."""
    backwards = replies[::-1]
    return tuple(int(backwards.translate(digits), 2) for digits in _REPLY_DIGITS)


def _reply_at(masks: tuple[int, ...], j: int) -> Reply:
    """Input j's reply, read from its bits in one side's t and f masks: d where neither is set."""
    return Reply.T if masks[0] >> j & 1 else Reply.F if masks[1] >> j & 1 else Reply.D


def _set_bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, ascending."""
    digits = f"{mask:b}"[::-1]
    found = []
    j = digits.find("1")
    while j >= 0:
        found.append(j)
        j = digits.find("1", j + 1)
    return found


def equivalence_check(sequence: Program, fn: PartialBooleanFunction, aux_count: int = 0) -> EquivalenceReport:
    """Sweep all 2^k inputs; an empty report certifies that the program computes fn.

    Undefined table entries must come out as reply d. Where
    :func:`pglb.interaction.reply_sets` applies, the replies of all inputs
    come from its one pass over the program's states; otherwise each input
    is walked on its own.
    """
    if fn.arity > 20:
        raise InfeasibleArityError(f"sweep over 2^{fn.arity} inputs refused")
    program = sequence.compiled
    arity = fn.arity
    got = reply_sets(program, arity, aux_count)
    if got is None:
        got = _reply_masks("".join(str(walk(program, j, arity, aux_count)) for j in range(len(fn.entries))))
    want = _reply_masks("".join(map(_ENTRY_REPLY.__getitem__, fn.entries)))
    # Each side's t, f and d masks split the inputs, so the replies differ exactly where a t or an f bit does.
    differ = (got[0] ^ want[0]) | (got[1] ^ want[1])
    found = _set_bits(differ)
    mismatches = tuple(Mismatch(input_vector(j, arity), _reply_at(got, j), _reply_at(want, j)) for j in found)
    return EquivalenceReport(arity, mismatches)
