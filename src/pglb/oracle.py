"""Brute-force evaluators and sweeps that certify generated programs.

The references take none of the program's code paths: a circuit is
evaluated gate by gate and a table is looked up. The program side of an
equivalence sweep runs on the interaction layer's one execution walk
(:func:`pglb.interaction.walk`), compiled once and walked once per input;
a program counts as correct only when its runs agree with the reference on
every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InfeasibleArityError
from .extraction import compile_program
from .interaction import walk
from .isa import InstructionSequence
from .services import Reply
from .synthesis import AND, Circuit, InputRef, NOT, PartialBooleanFunction


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
        pattern = "".join("t" if b else "f" for b in self.inputs)
        return f"input {pattern or '(none)'}: got {self.got}, expected {self.expected}"


@dataclass(frozen=True)
class EquivalenceReport:
    arity: int
    aux_count: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __str__(self) -> str:
        if self.ok:
            return f"equivalent on all {2 ** self.arity} inputs"
        return f"{len(self.mismatches)} mismatching input(s) out of {2 ** self.arity}"


# The reply a table entry asks for: an undefined entry must come out as d.
_EXPECTED = {True: Reply.T, False: Reply.F, None: Reply.D}


def equivalence_check(
    sequence: InstructionSequence, fn: PartialBooleanFunction, aux_count: int = 0
) -> EquivalenceReport:
    """Sweep all 2^k inputs; an empty report certifies that the program computes fn.

    Undefined table entries must come out as reply d.
    """
    if fn.arity > 20:
        raise InfeasibleArityError(f"sweep over 2^{fn.arity} inputs refused")
    program = compile_program(sequence)
    arity = fn.arity
    mismatches: list[Mismatch] = []
    # Table index j has input i at bit i-1; the walk wants in:i at bit i.
    for j, entry in enumerate(fn.entries):
        got = walk(program, j << 1, arity, aux_count)
        expected = _EXPECTED[entry]
        if got is not expected:
            bits = tuple(bool(j >> i & 1) for i in range(arity))
            mismatches.append(Mismatch(bits, got, expected))
    return EquivalenceReport(fn.arity, aux_count, tuple(mismatches))
