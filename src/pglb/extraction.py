"""Thread extraction: the behaviour of an instruction sequence.

Extraction is positional. Position 0 and positions past the end are
deadlock; a basic action continues at the next position; a positive test
branches to the next position on reply t and skips one on reply f (a
negative test swaps the roles); jumps move the position without observable
behaviour; ``!t``/``!f`` terminate. A cycle consisting solely of jumps is an
infinite jump chain and deadlocks.

A program is compiled once, to one shared row per distinct instruction
indexed by position and one map from each position to where behaviour lands
there (:class:`CompiledProgram`). Both the thread graph (:func:`extract_at`)
and the execution walk in :mod:`pglb.interaction` are built from that form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

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
)
from .threads import DEADLOCK, PostNode, RegularThread, S_MINUS, S_PLUS, StateLabel

# Op kind of a compiled row. The walk treats kinds >= OP_TRUE as final.
OP_ACTION, OP_TRUE, OP_FALSE, OP_DEADLOCK = range(4)
# Register bank an action addresses; BANK_NONE is never served by a register.
BANK_IN, BANK_AUX, BANK_NONE = range(3)
# Method code of an action.
M_GET, M_SET_T, M_SET_F, M_OTHER = range(4)

_BANKS = {"in": BANK_IN, "aux": BANK_AUX}
_METHODS = {GET: M_GET, SET_T: M_SET_T, SET_F: M_SET_F}


# Kind of a jump's row head; no run lands on it.
_JUMP_FWD, _JUMP_BWD = -1, -2
# Successor offsets (on reply t, on reply f) of the instructions that perform an action.
_BRANCH_OFFSETS = {Basic: (1, 1), PosTest: (1, 2), NegTest: (2, 1)}

# Row head: kind, bank, index, method, action, then offset, else offset.
_RowHead = tuple[int, int, int, int, "Action | None", int, int]
_DEADLOCK_HEAD: _RowHead = (OP_DEADLOCK, BANK_NONE, 0, M_OTHER, None, 0, 0)


def _row_head(instruction: Instruction) -> _RowHead:
    """The row of every position holding ``instruction``.

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
        return (OP_ACTION, BANK_NONE, 0, M_OTHER, act, on_t, on_f)
    bank = _BANKS[focus.kind] if focus.index else BANK_NONE  # no run serves a named focus or aux:0
    # in:i is bit i-1, as input i is of a table index; compile_program turns an aux index into its bit.
    index = focus.index - 1 if bank == BANK_IN else focus.index or 0
    return (OP_ACTION, bank, index, _METHODS.get(act.name, M_OTHER), act, on_t, on_f)


def _land_jumps(landing: list[int | None], rows: tuple[_RowHead, ...], jumps: list[int], exit_state: int) -> bool:
    """Fill in the row each jump position lands on: the one jump resolver.

    ``landing`` covers positions 0..size+2 and holds each jump position of
    ``jumps`` itself; ``rows`` holds the row head of each position. A chain
    of jumps that leaves the program lands on ``exit_state``, like position
    0 and the positions past the end; one that returns to one of its jumps
    (an infinite jump chain) lands on ``exit_state + 1``. One pass from the
    last jump to the first resolves each forward jump whose target is
    resolved by then, and notes every other jump: the backward jumps and
    the forward chains into one. Only those are then followed, with cycle
    detection. Returns True when no jump is backward, that is when the pass
    leaves none unresolved.
    """
    cycle_state = exit_state + 1
    end = len(landing) - 1
    unresolved: list[int] = []
    for p in reversed(jumps):
        kind, _, _, _, _, offset, _ = rows[p]
        if kind == _JUMP_BWD:
            target = None
        elif offset == 0:
            target = cycle_state
        else:
            q = p + offset
            target = landing[q] if q <= end else exit_state
        landing[p] = target
        if target is None:
            unresolved.append(p)
    # Every unresolved jump targets a position in 0..size+2.
    for p in unresolved:
        if landing[p] is not None:
            continue
        chain: dict[int, None] = {}  # insertion-ordered set of the jumps followed
        q = p
        while (result := landing[q]) is None:
            if q in chain:
                result = cycle_state
                break
            chain[q] = None
            kind, offset = rows[q][0], rows[q][5]
            if kind == _JUMP_FWD:
                q += offset
            else:  # a backward jump that would leave the program lands on position 0
                q = q - offset if q > offset else 0
        for c in chain:
            landing[c] = result
    return not unresolved


@dataclass(frozen=True, eq=False)
class CompiledProgram:
    """A program's thread indexed by position: one shared row per distinct instruction.

    ``rows[p]`` is the row of the instruction at position p = 1..size, one
    tuple per instruction object; a reply continues at ``landing[p + offset]``,
    where behaviour goes on once the jumps there are followed. The deadlock
    rows ``exit_state`` (behaviour left the program, as from position 0 or
    past the end) and ``exit_state + 1`` (an infinite jump chain) follow the
    last position. ``heads`` are the distinct rows in first-occurrence
    order, ``states`` counts the non-jump positions and ``written`` holds
    the banks some method sets. A register row's index is the bit that
    holds its register: i-1 for in:i, as for input i in a table index, and
    r-1 for the aux focus of rank r in ``aux_named``, the aux indices above
    0 the program names, ascending. So the aux registers packed for a run
    are as many as the program names, however large the indices. No run
    serves aux:0 or a named focus: their rows are ``BANK_NONE``.

    ``acyclic`` holds when the program has no backward jump. Then every edge
    leads to a higher row, so no run visits a row twice. The form holds the
    instructions, not the sequence, so a sequence caches it without a cycle.
    """

    instructions: tuple[Instruction, ...]
    rows: tuple[_RowHead, ...]
    landing: tuple[int, ...]
    heads: tuple[_RowHead, ...]
    exit_state: int
    states: int
    aux_named: tuple[int, ...]
    written: frozenset[int]
    acyclic: bool

    def entry(self, start: int = 1) -> int:
        """The row where behaviour starting at position ``start`` continues."""
        return self.landing[start] if 0 <= start < len(self.landing) else self.exit_state

    def actions(self) -> list[Action]:
        """The actions of the distinct instructions, in first-occurrence order."""
        return [head[4] for head in self.heads if head[4] is not None]


def compile_program(sequence: InstructionSequence) -> CompiledProgram:
    """Compile ``sequence``; ``sequence.compiled`` holds the result once computed.

    Per position, only ``map`` and ``compress`` run: one row head is built
    per distinct instruction object (``parse`` shares equal instructions),
    then aux indices become bits by rank and the jumps are resolved.
    """
    instructions = sequence.instructions
    size = len(instructions)
    exit_state = size + 1
    ids = list(map(id, instructions))
    heads_by_id = {key: _row_head(u) for key, u in dict(zip(ids, instructions)).items()}
    aux_named = sorted({head[2] for head in heads_by_id.values() if head[1] == BANK_AUX})
    bit = {index: r for r, index in enumerate(aux_named)}
    for key, head in heads_by_id.items():
        if head[1] == BANK_AUX:
            heads_by_id[key] = (*head[:2], bit[head[2]], *head[3:])
    rows = (_DEADLOCK_HEAD, *map(heads_by_id.__getitem__, ids), _DEADLOCK_HEAD, _DEADLOCK_HEAD)
    jump_ids = {key for key, head in heads_by_id.items() if head[0] < 0}
    jumps = list(compress(range(1, exit_state), map(jump_ids.__contains__, ids)))
    landing: list[int | None] = list(range(size + 3))
    landing[0] = landing[size + 2] = exit_state
    acyclic = _land_jumps(landing, rows, jumps, exit_state)
    heads = tuple(heads_by_id.values())
    return CompiledProgram(
        instructions=instructions,
        rows=rows,
        landing=tuple(landing),  # type: ignore[arg-type]
        heads=heads,
        exit_state=exit_state,
        states=size - len(jumps),
        aux_named=tuple(aux_named),
        written=frozenset(head[1] for head in heads if head[3] in (M_SET_T, M_SET_F)),
        acyclic=acyclic,
    )


def extract_at(sequence: InstructionSequence, start: int) -> RegularThread:
    """Thread extraction beginning at an arbitrary position (0 and >k give D)."""
    program = sequence.compiled
    rows, landing, exit_state = program.rows, program.landing, program.exit_state

    def successors(row: int) -> tuple[int, int]:
        # Both deadlock rows become the thread's one deadlock state.
        head = rows[row]
        return min(landing[row + head[5]], exit_state), min(landing[row + head[6]], exit_state)

    root = min(program.entry(start), exit_state)
    # Drop rows unreachable from the root, keeping position order.
    keep: set[int] = set()
    stack = [root]
    while stack:
        row = stack.pop()
        if row in keep:
            continue
        keep.add(row)
        if rows[row][0] == OP_ACTION:
            stack.extend(successors(row))
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    labels: list[StateLabel] = []
    for row in order:
        op = rows[row][0]
        if op == OP_ACTION:
            on_t, on_f = successors(row)
            labels.append(PostNode(rows[row][4], remap[on_t], remap[on_f]))  # type: ignore[arg-type]
        else:
            labels.append({OP_TRUE: S_PLUS, OP_FALSE: S_MINUS}.get(op, DEADLOCK))
    return RegularThread(tuple(labels), remap[root])


def extract(sequence: InstructionSequence) -> RegularThread:
    """``|X| = |1, X|``: extraction starting at the first instruction."""
    return extract_at(sequence, 1)
