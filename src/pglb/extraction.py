"""Thread extraction: the behaviour of an instruction sequence.

Extraction is positional. Position 0 and positions past the end are
deadlock; a basic action continues at the next position; a positive test
branches to the next position on reply t and skips one on reply f (a
negative test swaps the roles); jumps move the position without observable
behaviour; ``!t``/``!f`` terminate. A cycle consisting solely of jumps is an
infinite jump chain and deadlocks.

A program is compiled once into flat per-state arrays (:class:`CompiledProgram`).
Both the thread graph (:func:`extract_at`) and the execution walk in
:mod:`pglb.interaction` are built from that one form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .isa import (
    Action,
    Basic,
    BwdJump,
    FwdJump,
    GET,
    InstructionSequence,
    PosTest,
    SET_F,
    SET_T,
    TAU,
    Termination,
)
from .threads import DEADLOCK, PostNode, RegularThread, S_MINUS, S_PLUS, StateLabel

# Op kind of a compiled state. The walk treats kinds >= OP_TRUE as final.
OP_ACTION, OP_TAU, OP_TRUE, OP_FALSE, OP_DEADLOCK = range(5)
# Register bank an action addresses; BANK_NONE is never served by a register.
BANK_IN, BANK_AUX, BANK_NONE = range(3)
# Method code of an action.
M_GET, M_SET_T, M_SET_F, M_OTHER = range(4)

_BANKS = {"in": BANK_IN, "aux": BANK_AUX}
_METHODS = {GET: M_GET, SET_T: M_SET_T, SET_F: M_SET_F}


def _jump_resolver(sequence: InstructionSequence) -> Callable[[int], int | None]:
    """Memoised jump resolution over one sequence: each jump is followed once.

    The returned function maps a position to the first non-jump position
    reached from it, 0 when the chain leaves the program, or None when the
    jumps form a cycle (infinite jump chain).
    """
    instructions = sequence.instructions
    size = len(instructions)
    resolved: dict[int, int | None] = {}

    def resolve(position: int) -> int | None:
        chain: dict[int, None] = {}  # insertion-ordered set of the jumps followed
        p = position
        while True:
            if p in resolved:
                result = resolved[p]
                break
            if p < 1 or p > size:
                result = 0
                break
            instruction = instructions[p - 1]
            if isinstance(instruction, FwdJump):
                target = p + instruction.offset
            elif isinstance(instruction, BwdJump):
                # A backward jump that would leave the program lands on position 0.
                target = p - instruction.offset if p > instruction.offset else 0
            else:
                result = p
                break
            if p in chain:
                result = None
                break
            chain[p] = None
            p = target
        for q in chain:
            resolved[q] = result
        return result

    return resolve


def resolve_jumps(sequence: InstructionSequence, start: int) -> int | None:
    """Follow jumps from ``start`` to the position where behaviour continues.

    Returns the first non-jump position reached, 0 when the chain leaves the
    program, or None when the jumps form a cycle (infinite jump chain).
    """
    return _jump_resolver(sequence)(start)


@dataclass(frozen=True, eq=False)
class CompiledProgram:
    """A program's thread as flat per-state arrays, one entry per state.

    States are the non-jump positions in order, then two deadlock states:
    ``exit_state`` (behaviour left the program; its position is 0) and
    ``exit_state + 1`` (an infinite jump chain; its position is None).
    ``then_state``/``else_state`` are the successors on reply t and f (equal
    for basic actions).
    """

    source: InstructionSequence
    kind: tuple[int, ...]
    bank: tuple[int, ...]
    index: tuple[int, ...]
    method: tuple[int, ...]
    then_state: tuple[int, ...]
    else_state: tuple[int, ...]
    position: tuple[int | None, ...]
    action: tuple[Action | None, ...]
    root: int
    exit_state: int


def compile_program(sequence: InstructionSequence, start: int = 1) -> CompiledProgram:
    """Compile ``sequence`` into flat arrays, with the root at position ``start``."""
    resolve = _jump_resolver(sequence)
    instructions = sequence.instructions
    positions = [
        p for p, u in enumerate(instructions, 1) if not isinstance(u, (FwdJump, BwdJump))
    ]
    exit_state = len(positions)
    cycle_state = exit_state + 1
    size = len(instructions)
    state_of: list[int | None] = [None] * (size + 1)  # None at jumps and position 0
    for state, p in enumerate(positions):
        state_of[p] = state

    def target(p: int) -> int:
        if 0 < p <= size and state_of[p] is not None:
            return state_of[p]  # type: ignore[return-value]
        landing = resolve(p)
        if landing is None:
            return cycle_state
        return exit_state if landing == 0 else state_of[landing]  # type: ignore[return-value]

    # One row per state: kind, bank, index, method, then-state, else-state, action.
    rows: list[tuple[int, int, int, int, int, int, Action | None]] = []
    for state, p in enumerate(positions):
        instruction = instructions[p - 1]
        if isinstance(instruction, Termination):
            op = OP_TRUE if instruction.positive else OP_FALSE
            rows.append((op, BANK_NONE, 0, M_OTHER, state, state, None))
            continue
        act = instruction.action
        focus = act.focus
        if isinstance(instruction, Basic):
            on_t = on_f = target(p + 1)
        elif isinstance(instruction, PosTest):
            on_t, on_f = target(p + 1), target(p + 2)
        else:  # NegTest: complementary branch roles
            on_t, on_f = target(p + 2), target(p + 1)
        if focus is None:
            op = OP_TAU if act == TAU else OP_ACTION
            rows.append((op, BANK_NONE, 0, M_OTHER, on_t, on_f, act))
        else:
            bank = _BANKS.get(focus.kind, BANK_NONE)
            method = _METHODS.get(act.name, M_OTHER)
            rows.append((OP_ACTION, bank, focus.index or 0, method, on_t, on_f, act))
    rows.append((OP_DEADLOCK, BANK_NONE, 0, M_OTHER, exit_state, exit_state, None))
    rows.append((OP_DEADLOCK, BANK_NONE, 0, M_OTHER, cycle_state, cycle_state, None))
    kind, bank, index, method, then_state, else_state, action = zip(*rows)
    return CompiledProgram(
        source=sequence,
        kind=kind,
        bank=bank,
        index=index,
        method=method,
        then_state=then_state,
        else_state=else_state,
        position=tuple(positions) + (0, None),
        action=action,
        root=target(start),
        exit_state=exit_state,
    )


def extract_at(sequence: InstructionSequence, start: int) -> RegularThread:
    """Thread extraction beginning at an arbitrary position (0 and >k give D)."""
    program = compile_program(sequence, start)
    kind = program.kind
    exit_state = program.exit_state

    def merged(state: int) -> int:
        # Both deadlock states become the thread's one deadlock state.
        return exit_state if state > exit_state else state

    root = merged(program.root)
    # Drop states unreachable from the root, keeping position order.
    keep: set[int] = set()
    stack = [root]
    while stack:
        state = stack.pop()
        if state in keep:
            continue
        keep.add(state)
        if kind[state] <= OP_TAU:
            stack.append(merged(program.then_state[state]))
            stack.append(merged(program.else_state[state]))
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    labels: list[StateLabel] = []
    for old in order:
        op = kind[old]
        if op <= OP_TAU:
            labels.append(
                PostNode(
                    program.action[old],  # type: ignore[arg-type]
                    remap[merged(program.then_state[old])],
                    remap[merged(program.else_state[old])],
                )
            )
        else:
            labels.append({OP_TRUE: S_PLUS, OP_FALSE: S_MINUS}.get(op, DEADLOCK))
    return RegularThread(tuple(labels), remap[root])


def extract(sequence: InstructionSequence) -> RegularThread:
    """``|X| = |1, X|``: extraction starting at the first instruction."""
    return extract_at(sequence, 1)
