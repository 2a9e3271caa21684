"""Thread extraction: the behaviour of an instruction sequence.

Extraction is positional. Position 0 and positions past the end are
deadlock; a basic action continues at the next position; a positive test
branches to the next position on reply t and skips one on reply f (a
negative test swaps the roles); jumps move the position without observable
behaviour; ``!t``/``!f`` terminate. A cycle consisting solely of jumps is an
infinite jump chain and deadlocks.

A program is compiled once, from its text in one pass, to one shared row
per distinct token indexed by position and one map from each position to
where behaviour lands there (:class:`CompiledProgram`, :func:`compile_text`).
Each row keeps its instruction's canonical text, read from the token once,
which ``fmt``, a trace and :func:`pglb.isa.parse` take as it is. A sequence
built in code compiles as its rendered text. Both the thread graph
(:func:`extract_at`) and the execution walk in :mod:`pglb.interaction` are
built from that form; neither builds an instruction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .isa import GET, InstructionSequence, SET_F, SET_T, _TOKEN, _action_of, _refusal
from .threads import DEADLOCK, PostNode, RegularThread, S_MINUS, S_PLUS, StateLabel

# Op kind of a compiled row. The walk treats kinds >= OP_TRUE as final.
OP_ACTION, OP_TRUE, OP_FALSE, OP_DEADLOCK = range(4)
# Register bank an action addresses; BANK_NONE is never served by a register.
BANK_IN, BANK_AUX, BANK_NONE = range(3)
# Method code of an action.
M_GET, M_SET_T, M_SET_F, M_OTHER = range(4)

_METHODS = {GET: M_GET, SET_T: M_SET_T, SET_F: M_SET_F}


# Kind of a jump's row head, below every other kind; no run lands on it.
_JUMP_FWD, _JUMP_BWD = -1, -2
# Successor offsets (on reply t, on reply f) of the instructions that perform an action, by sign.
_SIGN_OFFSETS = {"": (1, 1), "+": (1, 2), "-": (2, 1)}

# Row head: kind, bank, index, method, action as canonical text, then offset, else offset,
# and the instruction as canonical text (None for a deadlock row).
_RowHead = tuple[int, int, int, int, str | None, int, int, str | None]
_DEADLOCK_HEAD: _RowHead = (OP_DEADLOCK, BANK_NONE, 0, M_OTHER, None, 0, 0, None)
_FINAL_HEADS: dict[str, _RowHead] = {t: (op, *_DEADLOCK_HEAD[1:7], t) for op, t in ((OP_TRUE, "!t"), (OP_FALSE, "!f"))}


def _token_head(token: str) -> _RowHead | None:
    """The row of every position spelling ``token``, built from its one match; None when it is malformed.

    The offsets lead to where the replies continue; a termination's are 0,
    and a jump's are its length, negative for a backward jump, so that a jump
    at p leads to p + offset whatever its direction. No run serves a bare
    symbol, a named focus or aux:0 (``BANK_NONE``). A register row's index
    is i-1 for in:i, its bit as input i is of a table index, and i-1 for aux:i
    until ranked. The action is its canonical text, the match's group for the
    token after its sign and spaces, and the instruction's text is its sign
    and that group; a jump's is the token, which the pattern takes without
    spaces. The pattern refuses ``!t`` and ``!f``; their rows are looked up.
    """
    match = _TOKEN.fullmatch(token)
    if match is None:
        return _FINAL_HEADS.get(token)
    backslash, offset, sign, action, in_index, aux_index, _, method, symbol = match.groups()
    if offset is not None:
        length = -int(offset) if backslash else int(offset)
        return (_JUMP_BWD if backslash else _JUMP_FWD, BANK_NONE, 0, M_OTHER, None, length, length, token)
    if symbol == "tau":
        return None
    on_t, on_f = _SIGN_OFFSETS[sign]
    number = int(in_index or aux_index or 0)
    bank = (BANK_IN if in_index else BANK_AUX) if number else BANK_NONE
    return (OP_ACTION, bank, number and number - 1, _METHODS.get(method, M_OTHER), action, on_t, on_f, sign + action)


def _land_jumps(landing: list[int], rows: tuple[_RowHead, ...], jumps: list[int], exit_state: int) -> None:
    """Fill in the row each jump position lands on: the one jump resolver.

    ``landing`` covers positions 0..size+2, with 0 and size+2 on
    ``exit_state``, and holds each jump position of ``jumps`` itself;
    ``rows`` holds the row head of each position. A jump at p targets
    q = p + offset, whatever its direction. One outside 0..size+2 leaves the
    program and lands on ``exit_state``; a jump to itself, or a chain of jumps
    that comes back to one of its jumps (an infinite jump chain), lands on
    ``exit_state + 1``. One pass from the last jump to the first gives each
    jump the landing of its target, and keeps the jumps whose landing is
    still a jump row: a target not passed yet, or one that still points at a
    jump. One loop then follows those pointers.
    """
    end, cycle_state = len(landing) - 1, exit_state + 1
    pointing: list[int] = []
    for p in reversed(jumps):
        q = p + rows[p][5]
        # landing[0] is exit_state, so a target at 0 lands as one below it does.
        landing[p] = target = cycle_state if q == p else landing[q] if 0 <= q <= end else exit_state
        if rows[target][0] < 0:  # a jump not yet passed, or one still pointing at a jump
            pointing.append(p)
    for q in pointing:
        chain = []
        while rows[target := landing[q]][0] < 0:
            landing[q] = cycle_state  # a chain that comes back here never leaves
            chain.append(q)
            q = target
        for c in chain:
            landing[c] = target


@dataclass(frozen=True, eq=False)
class CompiledProgram:
    """A program's thread indexed by position: one shared row per distinct token.

    ``rows[p]`` is the row at position p = 1..size; its action is the
    action's canonical text, None for a jump or termination, and its last
    field the instruction's, as ``render`` writes it. A reply continues
    at ``landing[p + offset]``, where behaviour goes on once the jumps there
    are followed. The deadlock rows ``exit_state`` (behaviour left the
    program, as from position 0 or past the end) and ``exit_state + 1`` (an
    infinite jump chain) follow the last position. ``heads`` are the distinct
    rows in first-occurrence order and ``states`` counts the non-jump
    positions. A register row's index is its register's place in its bank:
    i-1 for in:i, as for input i in a table index, and r-1 for the aux
    focus of rank r in ``aux_named``, the aux indices above 0 the program
    names, ascending; so a run holds as many aux registers as the program
    names. No run serves aux:0 or a named focus: their rows are
    ``BANK_NONE``. ``acyclic`` holds when no distinct row is a backward
    jump; then every edge leads to a higher row. The form holds no
    sequence, so a sequence caches it without a cycle.
    """

    rows: tuple[_RowHead, ...]
    landing: tuple[int, ...]
    heads: tuple[_RowHead, ...]
    exit_state: int
    states: int
    aux_named: tuple[int, ...]
    acyclic: bool

    @property
    def compiled(self) -> CompiledProgram:
        return self

    def entry(self, start: int = 1) -> int:
        """The row where behaviour starting at position ``start`` continues."""
        return self.landing[start] if 0 <= start < len(self.landing) else self.exit_state


# What a run takes: a sequence or a compiled form, whose ``compiled`` is the form itself.
Program = InstructionSequence | CompiledProgram


class _RowsBySegment(dict):
    """Raw segment -> the row of its token, None when blank; a miss strips the segment and reads a new token."""

    def __init__(self) -> None:
        self.by_token: dict[str, _RowHead] = {}  # each token's row, in first-occurrence order

    def __missing__(self, segment: str) -> _RowHead | None:
        token = segment.strip()
        head = self.by_token.get(token)
        if head is None and token:
            head = _token_head(token)
            if head is None:
                raise ParseError(_refusal(token))
            self.by_token[token] = head
        self[segment] = head
        return head


def compile_text(text: str) -> CompiledProgram:
    """Compile program text, as :func:`pglb.isa.parse` reads it, in one pass: the one compiler.

    Each line's segments go by ``map`` through one segment -> row map, whose
    misses strip the segment and build each new token's row from its match. Then
    aux indices become bits by rank (when they are not 1..n), the jump
    positions are listed and resolved, and ``acyclic`` is read off the
    distinct rows. No instruction is built.
    """
    body: list[_RowHead] = []
    by_segment = _RowsBySegment()
    for lineno, line in enumerate(text.split("\n"), 1):
        segments = line.split("//", 1)[0].split(";")
        try:
            body.extend(filter(None, map(by_segment.__getitem__, segments)))
        except ParseError as refusal:
            # The map reads segments in order, so the first one it lacks is the one refused.
            at = next(at for at, segment in enumerate(segments) if segment not in by_segment)
            column = sum(map(len, segments[:at])) + at + len(segments[at]) - len(segments[at].lstrip()) + 1
            raise ParseError(str(refusal), lineno, column) from None
    if not body:
        raise ParseError("empty instruction sequence")
    heads = list(by_segment.by_token.values())
    aux_named = sorted({head[2] + 1 for head in heads if head[1] == BANK_AUX})
    if aux_named and aux_named[-1] != len(aux_named):
        bit = {index - 1: r for r, index in enumerate(aux_named)}
        ranked = {id(head): (*head[:2], bit[head[2]], *head[3:]) if head[1] == BANK_AUX else head for head in heads}
        heads = list(ranked.values())
        body = list(map(ranked.__getitem__, map(id, body)))
    size = len(body)
    exit_state = size + 1
    rows = (_DEADLOCK_HEAD, *body, _DEADLOCK_HEAD, _DEADLOCK_HEAD)
    jumps = [p for p, head in enumerate(body, 1) if head[0] < 0]
    landing = list(range(size + 3))
    landing[0] = landing[size + 2] = exit_state
    _land_jumps(landing, rows, jumps, exit_state)
    return CompiledProgram(
        rows=rows,
        landing=tuple(landing),
        heads=tuple(heads),
        exit_state=exit_state,
        states=size - len(jumps),
        aux_named=tuple(aux_named),
        acyclic=_JUMP_BWD not in {head[0] for head in heads},
    )


def extract_at(sequence: Program, start: int) -> RegularThread:
    """Thread extraction beginning at an arbitrary position (0 and >k give D).

    One ``Action`` is built per distinct action row of the compiled form, and no instruction.
    """
    program = sequence.compiled
    rows, landing, exit_state = program.rows, program.landing, program.exit_state
    root = min(program.entry(start), exit_state)
    # Each row reachable from the root, with its pair of successors read once (None for a final row).
    pairs: dict[int, tuple[int, int] | None] = {}
    stack = [root]
    while stack:
        row = stack.pop()
        if row in pairs:
            continue
        head = rows[row]
        if head[0] == OP_ACTION:
            # Both deadlock rows become the thread's one deadlock state.
            pair = pairs[row] = min(landing[row + head[5]], exit_state), min(landing[row + head[6]], exit_state)
            stack.extend(pair)
        else:
            pairs[row] = None
    remap = {old: new for new, old in enumerate(sorted(pairs))}  # unreachable rows dropped, position order kept
    actions = {head[4]: _action_of(head[4]) for head in program.heads if head[4] is not None}
    finals = {OP_TRUE: S_PLUS, OP_FALSE: S_MINUS}
    labels: list[StateLabel] = [
        PostNode(actions[rows[row][4]], remap[pair[0]], remap[pair[1]]) if pair else finals.get(rows[row][0], DEADLOCK)
        for row, pair in sorted(pairs.items())
    ]
    return RegularThread(tuple(labels), remap[root])


def extract(sequence: Program) -> RegularThread:
    """``|X| = |1, X|``: extraction starting at the first instruction."""
    return extract_at(sequence, 1)
