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
from operator import add

from .isa import (
    Action,
    Basic,
    BwdJump,
    FwdJump,
    GET,
    Instruction,
    InstructionSequence,
    NegTest,
    PosTest,
    SET_F,
    SET_T,
    TAU,
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


# Kind of a jump's row head; no compiled state carries it.
_JUMP_FWD, _JUMP_BWD = -1, -2
# Successor offsets (on reply t, on reply f) of the instructions that perform an action.
_BRANCH_OFFSETS = {Basic: (1, 1), PosTest: (1, 2), NegTest: (2, 1)}

# Row head: kind, bank, index, method, action, then offset, else offset.
_RowHead = tuple[int, int, int, int, "Action | None", int, int]
_DEADLOCK_HEAD: _RowHead = (OP_DEADLOCK, BANK_NONE, 0, M_OTHER, None, 0, 0)


def _row_head(instruction: Instruction) -> _RowHead:
    """The part of a state's row that depends only on its instruction.

    The offsets lead from the instruction's position to the positions its
    replies continue at. A termination's are 0, so it is its own successor;
    a jump's kind is ``_JUMP_FWD`` or ``_JUMP_BWD`` and its offsets are the
    jump's.
    """
    offsets = _BRANCH_OFFSETS.get(type(instruction))
    if offsets is None:
        if isinstance(instruction, FwdJump):
            return (_JUMP_FWD, BANK_NONE, 0, M_OTHER, None, instruction.offset, instruction.offset)
        if isinstance(instruction, BwdJump):
            return (_JUMP_BWD, BANK_NONE, 0, M_OTHER, None, instruction.offset, instruction.offset)
        return (OP_TRUE if instruction.positive else OP_FALSE, BANK_NONE, 0, M_OTHER, None, 0, 0)
    on_t, on_f = offsets
    act = instruction.action
    focus = act.focus
    if focus is None:
        return (OP_TAU if act == TAU else OP_ACTION, BANK_NONE, 0, M_OTHER, act, on_t, on_f)
    bank = _BANKS.get(focus.kind, BANK_NONE)
    method = _METHODS.get(act.name, M_OTHER)
    return (OP_ACTION, bank, focus.index or 0, method, act, on_t, on_f)


def _land_jumps(landing: list[int | None], heads: list[_RowHead], jumps: list[int], exit_state: int) -> bool:
    """Fill in the state each jump position lands on: the one jump resolver.

    ``landing`` covers positions 0..size+2 and holds None at each position
    in ``jumps``; ``heads`` holds the row head of positions 1..size. A chain
    of jumps that leaves the program lands on ``exit_state``, like position
    0 and the positions past the end; one that returns to one of its jumps
    (an infinite jump chain) lands on ``exit_state + 1``. Forward jumps are
    resolved in one pass from last to first, since their target is resolved
    by then; backward jumps, and forward chains into one, are followed
    afterwards with cycle detection. Returns True when no jump is backward.
    """
    cycle_state = exit_state + 1
    end = len(landing) - 1
    acyclic = True
    for p in reversed(jumps):
        kind, offset = heads[p - 1][0], heads[p - 1][5]
        if kind == _JUMP_BWD:
            acyclic = False
        elif offset == 0:
            landing[p] = cycle_state
        else:
            landing[p] = landing[p + offset] if p + offset <= end else exit_state
    if acyclic:
        return True
    # Every jump still unresolved targets a position in 0..size+2. The forward jumps landed
    # above need no second look.
    for p in jumps:
        if landing[p] is not None:
            continue
        chain: dict[int, None] = {}  # insertion-ordered set of the jumps followed
        q = p
        while (result := landing[q]) is None:
            if q in chain:
                result = cycle_state
                break
            chain[q] = None
            kind, offset = heads[q - 1][0], heads[q - 1][5]
            if kind == _JUMP_FWD:
                q += offset
            else:  # a backward jump that would leave the program lands on position 0
                q = q - offset if q > offset else 0
        for c in chain:
            landing[c] = result
    return False


def resolve_jumps(sequence: InstructionSequence, start: int) -> int | None:
    """Follow jumps from ``start`` to the position where behaviour continues.

    Returns the first non-jump position reached, 0 when the chain leaves the
    program, or None when the jumps form a cycle (infinite jump chain).
    """
    program = compile_program(sequence, start)
    return program.position[program.root]


@dataclass(frozen=True, eq=False)
class CompiledProgram:
    """A program's thread as flat per-state arrays, one entry per state.

    States are the non-jump positions in order, then two deadlock states:
    ``exit_state`` (behaviour left the program; its position is 0) and
    ``exit_state + 1`` (an infinite jump chain; its position is None).
    ``then_state``/``else_state`` are the successors on reply t and f (equal
    for basic actions).

    ``acyclic`` holds when the program has no backward jump. Then every edge
    leads to a later state or a final one, so no run visits a state twice.
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
    acyclic: bool


def compile_program(sequence: InstructionSequence, start: int = 1) -> CompiledProgram:
    """Compile ``sequence`` into flat arrays, with the root at position ``start``.

    One pass over the positions, plus one row head per distinct instruction
    object (``parse`` shares equal instructions), then the jumps resolved.
    """
    instructions = sequence.instructions
    size = len(instructions)
    heads_by_id: dict[int, _RowHead] = {}
    heads: list[_RowHead] = []
    rows: list[_RowHead] = []  # the heads of the states, in state order
    positions: list[int] = []
    jumps: list[int] = []
    landing: list[int | None] = [None] * (size + 3)  # state reached from positions 0..size+2
    for p, instruction in enumerate(instructions, 1):
        head = heads_by_id.get(id(instruction))
        if head is None:
            head = heads_by_id[id(instruction)] = _row_head(instruction)
        heads.append(head)
        if head[0] >= 0:
            landing[p] = len(positions)
            positions.append(p)
            rows.append(head)
        else:
            jumps.append(p)
    exit_state = len(positions)
    landing[0] = landing[size + 1] = landing[size + 2] = exit_state
    acyclic = _land_jumps(landing, heads, jumps, exit_state)
    rows += (_DEADLOCK_HEAD, _DEADLOCK_HEAD)
    kind, bank, index, method, action, on_t, on_f = zip(*rows)
    finals = (exit_state, exit_state + 1)  # the deadlock states lead to themselves
    return CompiledProgram(
        source=sequence,
        kind=kind,
        bank=bank,
        index=index,
        method=method,
        then_state=tuple(map(landing.__getitem__, map(add, positions, on_t))) + finals,
        else_state=tuple(map(landing.__getitem__, map(add, positions, on_f))) + finals,
        position=tuple(positions) + (0, None),
        action=action,
        root=landing[start] if 0 <= start <= size + 2 else exit_state,  # type: ignore[arg-type]
        exit_state=exit_state,
        acyclic=acyclic,
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
