"""Interaction between threads and service families: use, reply, compute, trace.

The use operator feeds every action whose focus names a service in the
family to that service: the action becomes the internal step tau and the
branch is chosen by the service's reply (reply d deadlocks). Actions with
foci outside the family pass through untouched. The reply operator is the
Boolean value such a thread delivers at termination, and d when it
deadlocks, meets an unserved action, or never terminates.

``use_apply`` and ``reply`` are the paper-level specification. They state
the serving rules once, as one step (:func:`_serve`): ``use_apply`` builds
its product from that step breadth-first, and ``reply`` follows it along
the single path. Programs run on :func:`walk`, one loop over a compiled
program whose registers are one packed int; ``compute``, ``trace``
and the oracle's equivalence sweep all call it, so a run costs the steps it
takes, not the size of the product of thread and registers.
:func:`reply_sets` gives the replies of all inputs of a loop-free program
in one pass over its states, with sets of inputs, and the inputs whose
register holds t, as bit masks. No instruction carries tau
(:mod:`pglb.isa`), so neither has a tau rule.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

from .errors import StateSpaceCapExceeded
from .extraction import (
    BANK_AUX,
    BANK_IN,
    CompiledProgram,
    M_GET,
    M_SET_F,
    M_SET_T,
    OP_TRUE,
    Program,
)
from .isa import TAU
from .services import Reply, ServiceFamily
from .synthesis import input_index, input_masks
from .threads import DEADLOCK, PostNode, RegularThread, SMinus, SPlus, StateLabel

# Bound on the configurations one walk visits (and on the states of a use_apply product).
DEFAULT_STATE_CAP = 500_000
# Records a trace keeps before its truncation marker.
TRACE_LIMIT = 10_000

# Bound on exit_state * 2^input_count, about the bit operations of one
# reply_sets pass; past it a walk per input is as fast. It admits every
# program `compile tt` emits up to arity 17 and none at arity 18.
REPLY_SETS_BIT_BUDGET = 1 << 35


def _serve(label: StateLabel, family: ServiceFamily) -> tuple[StateLabel, ServiceFamily]:
    """What a thread state becomes under a family: the one serving step of use and reply.

    A leaf stays itself, and so do tau and an action no register serves,
    with both branches and the family unchanged. A served request that
    replies d deadlocks; any other becomes tau to the branch its reply
    picks, with the derived family.
    """
    if not isinstance(label, PostNode):
        return label, family
    action = label.action
    service = None if action.focus is None else family.get(action.focus)
    if service is None:
        return label, family
    answer = service.reply(action.name)
    if answer is Reply.D:
        return DEADLOCK, family
    branch = label.then_state if answer is Reply.T else label.else_state
    return PostNode(TAU, branch, branch), family.replaced(action.focus, service.derive(action.name))


def use_apply(thread: RegularThread, family: ServiceFamily) -> RegularThread:
    """Product of a thread with a service family (the use operator).

    The result's states are reachable configurations (thread state, family
    state), built breadth-first by :func:`_serve`. Raises
    :class:`StateSpaceCapExceeded` when more than ``DEFAULT_STATE_CAP``
    configurations appear, which signals an unexpectedly large state space.
    """
    labels_in = thread.states
    index: dict[tuple[int, frozenset], int] = {}
    labels_out: list[StateLabel] = []
    queue: deque[tuple[int, int, ServiceFamily]] = deque()

    def config(state: int, fam: ServiceFamily) -> int:
        key = (state, fam.pairs)
        known = index.get(key)
        if known is not None:
            return known
        if len(index) >= DEFAULT_STATE_CAP:
            raise StateSpaceCapExceeded(f"more than {DEFAULT_STATE_CAP} thread/service configurations")
        cfg = len(index)
        index[key] = cfg
        labels_out.append(DEADLOCK)  # placeholder until processed
        queue.append((cfg, state, fam))
        return cfg

    root = config(thread.root, family)
    while queue:
        cfg, state, fam = queue.popleft()
        label, fam = _serve(labels_in[state], fam)
        if isinstance(label, PostNode):
            label = PostNode(label.action, config(label.then_state, fam), config(label.else_state, fam))
        labels_out[cfg] = label
    return RegularThread(tuple(labels_out), root)


def reply(thread: RegularThread, family: ServiceFamily) -> Reply:
    """The Boolean value the thread delivers under the family, or d.

    Follows :func:`_serve` along the single execution path: tau is
    transparent, any other action replies d, and a revisited configuration
    means the thread never terminates (reply d).
    """
    state, fam, labels = thread.root, family, thread.states
    seen: set[tuple[int, frozenset]] = set()
    while (key := (state, fam.pairs)) not in seen:
        seen.add(key)
        label, fam = _serve(labels[state], fam)
        if not isinstance(label, PostNode):
            return Reply.T if isinstance(label, SPlus) else Reply.F if isinstance(label, SMinus) else Reply.D
        if label.action != TAU:
            return Reply.D
        state = label.then_state
    return Reply.D


@dataclass(frozen=True)
class TraceStep:
    """One record of an execution walk."""

    kind: str  # action | terminate | deadlock | no-service | divergent | truncated
    position: int | None = None
    instruction: str | None = None
    action: str | None = None
    reply: Reply | None = None
    note: str = ""

    def __str__(self) -> str:
        head = f"[{self.position}] " if self.position is not None else ""
        if self.kind == "action":
            return f"{head}{self.instruction}: {self.action} -> {self.reply}"
        if self.kind == "terminate":
            return f"{head}{self.instruction}: terminate {self.reply}"
        body = self.kind if not self.note else f"{self.kind} ({self.note})"
        return f"{head}{body}"


_FINAL_REPLY = (Reply.T, Reply.F, Reply.D)  # by op kind, from OP_TRUE on


def _served(program: CompiledProgram, input_count: int, aux_count: int) -> tuple[int, int, int]:
    """By bank, the bound below which a row's register index is served: the one statement of what a run serves.

    Indexed by ``BANK_IN``, ``BANK_AUX`` and ``BANK_NONE``: the inputs, the
    aux registers the program names up to ``aux_count``, and 0, so no run
    serves aux:0, a named focus or a bare symbol.
    """
    if aux_count < 0:
        raise ValueError("aux_count must be >= 0")
    return input_count, bisect_right(program.aux_named, aux_count), 0


def _step(
    program: CompiledProgram, row: int, kind: str, reply: Reply, input_count: int = 0, aux_count: int = 0
) -> TraceStep:
    """The trace record of ``row``, worded from its kind: the instruction at that position, or a deadlock row."""
    if row >= program.exit_state:
        note = "no instruction to execute" if row == program.exit_state else "infinite jump chain"
        return TraceStep("deadlock", note=note, reply=reply)
    head = program.rows[row]
    note = "configuration cycle" if kind == "divergent" else ""
    if kind == "no-service":  # the focus: past the registers of its bank given to the run, or never served
        past = {BANK_IN: f"past --in {input_count}", BANK_AUX: f"past --aux {aux_count}"}
        note = f"{head[4].partition('.')[0]} {past.get(head[1], 'is never served')}"
    return TraceStep(kind, position=row, instruction=head[7], action=head[4], reply=reply, note=note)


def walk(
    program: CompiledProgram,
    inputs: int,
    input_count: int,
    aux_count: int = 0,
    steps: list[TraceStep] | None = None,
) -> Reply:
    """Run a compiled program on packed Boolean registers: the one execution loop.

    One int holds every register of the run. ``inputs`` is the table index
    of the input: bit i-1 holds register in:i (i = 1..input_count), so the
    int starts as it. Registers aux:1..aux_count all start at t. Only the
    aux registers the program names are held, the one of rank r (see
    :class:`~pglb.extraction.CompiledProgram`) at bit input_count + r - 1:
    nothing reads the others. A row is served when its index is below its
    bank's bound (:func:`_served`); its bank's offset then makes it a bit.
    Any reply d ends the run: an unknown method, a bare symbol or a focus
    no register serves (aux:0, a named focus, an index out of range) or a
    deadlock. A configuration (position, registers) seen twice means the
    run never terminates, reply d; one int, the registers shifted above
    the position, keys it. An edge to a higher row moves forward, so every
    cycle crosses an edge to a row not above its source: a plain run keys
    only the entry and the rows such edges reach (a loop-free program's
    runs keep one key), and finds a cycle at most one pass after it first
    repeats. Raises :class:`StateSpaceCapExceeded` when the run takes more
    than ``DEFAULT_STATE_CAP`` steps: the configurations visited, but on a
    plain run that diverges, up to one pass more. Every end leaves the
    loop with its reply and its kind.

    With a ``steps`` list, every row is keyed, so the trace ends at the
    first repeat. One :class:`TraceStep` per visited row is appended until
    ``TRACE_LIMIT`` records, then a truncation marker; the walk goes on to
    the reply either way, and the last record carries it.

    :func:`reply_sets` applies the same method rules to all inputs at once;
    a change to them in one must be made to the other.
    """
    bound = _served(program, input_count, aux_count)
    offset = (0, input_count, 0)  # by bank, as bound is: the bit of regs where its registers start
    rows, landing = program.rows, program.landing
    recording = steps is not None
    log: list[TraceStep] = steps if steps is not None else []
    regs = inputs | ((1 << bound[BANK_AUX]) - 1) << input_count
    seen: set[int] = set()
    max_states, max_steps = DEFAULT_STATE_CAP, TRACE_LIMIT
    shift = len(rows).bit_length()
    state = came_from = program.entry()
    taken = 0
    while True:
        op, b, i, m, _, on_t, on_f, _ = rows[state]
        if op >= OP_TRUE:
            answer, end = _FINAL_REPLY[op - OP_TRUE], "terminate"
            break
        if recording or state <= came_from:
            key = regs << shift | state
            if key in seen:
                answer, end = Reply.D, "divergent"
                break
            seen.add(key)
        taken += 1
        if taken > max_states:
            raise StateSpaceCapExceeded(f"a run visited more than {max_states} configurations")
        if i >= bound[b]:
            answer, end = Reply.D, "no-service"
            break
        i += offset[b]
        if m == M_GET:
            bit = regs >> i & 1
        elif m == M_SET_T:
            regs |= 1 << i
            bit = 1
        elif m == M_SET_F:
            regs &= ~(1 << i)
            bit = 1
        else:
            answer, end = Reply.D, "action"
            break
        if recording and len(log) < max_steps:
            log.append(_step(program, state, "action", Reply.T if bit else Reply.F))
        came_from = state
        state = landing[state + (on_t if bit else on_f)]
    if recording and len(log) < max_steps:
        log.append(_step(program, state, end, answer, input_count, aux_count))
    elif recording:
        log.append(TraceStep("truncated", note=f"after {max_steps} steps", reply=answer))
    return answer


def reply_sets(program: CompiledProgram, input_count: int, aux_count: int = 0) -> tuple[int, int, int] | None:
    """The inputs whose runs reply t, f and d, as bit masks over table indices; or None.

    Bit j of each mask stands for the input at table index j, which
    :func:`walk` takes as its ``inputs``. The three masks split all
    2^input_count inputs. Applies when the program is ``acyclic``, has at
    most ``DEFAULT_STATE_CAP`` non-jump positions (so no run can trip the
    walk's cap), and its non-jump positions times 2^input_count stay within
    ``REPLY_SETS_BIT_BUDGET``; returns None otherwise.

    One pass visits the rows in index order from the root, which is a
    topological order, since every edge of an acyclic program leads to a
    higher row. ``reach[r]`` holds the inputs whose run reaches row r; no
    run reaches a jump position. Each served register is held as the mask of
    the inputs whose run has it at t: in:i starts as bit i-1 of the table
    index, an aux register as all inputs. A row is served by the bound
    :func:`walk` uses (:func:`_served`), and the method rules are the walk's,
    applied to a set of inputs at once; a change to them in one must be made
    to the other. This is exact: a run that reaches
    row r has visited only lower rows, which are done, and a row changes a
    register's bits only for the runs that reach it. The register masks
    take at most (input_count + aux registers named) * 2^input_count bits;
    the aux part is within the budget, as each named register has a row.
    """
    bound = _served(program, input_count, aux_count)
    states = program.states
    if not program.acyclic or states > DEFAULT_STATE_CAP or states << input_count > REPLY_SETS_BIT_BUDGET:
        return None
    rows, landing, root = program.rows, program.landing, program.entry()
    everyone = (1 << (1 << input_count)) - 1
    registers = (input_masks(input_count), [everyone] * bound[BANK_AUX])  # by bank
    reach = [0] * len(rows)
    reach[root] = everyone
    finals = [0, 0, 0]  # the t, f and d sets, by op kind from OP_TRUE on
    for row in range(root, len(rows)):
        # Every edge leads to a higher row, so this row's set is complete
        # now and nothing reads it again: drop it to keep few masks alive.
        here, reach[row] = reach[row], 0
        if not here:
            continue
        op, b, i, m, _, on_t, on_f, _ = rows[row]
        if op >= OP_TRUE:
            finals[op - OP_TRUE] |= here
            continue
        if i >= bound[b]:
            finals[2] |= here
            continue
        regs = registers[b]
        if m == M_GET:
            on = here & regs[i]
        elif m == M_SET_T:
            regs[i] |= here
            on = here
        elif m == M_SET_F:
            regs[i] &= ~here
            on = here
        else:
            finals[2] |= here
            continue
        reach[landing[row + on_t]] |= on
        reach[landing[row + on_f]] |= here ^ on
    return finals[0], finals[1], finals[2]


def _pack_inputs(inputs: list[bool] | tuple[bool, ...]) -> int:
    """Input register file as an int: its table index."""
    if not {bool}.issuperset(map(type, inputs)):
        raise ValueError("inputs must be Booleans")
    return input_index(inputs)


def compute(sequence: Program, inputs: list[bool] | tuple[bool, ...], aux_count: int = 0) -> Reply:
    """Run a program, a sequence or its compiled form, on Boolean inputs.

    The program's thread first uses aux:1..aux_count registers (all starting
    at t), then the reply is taken over input registers in:1..in:k holding
    the given values: ``reply(use_apply(extract(p), aux), inputs)``, walked
    lazily. ``DEFAULT_STATE_CAP`` bounds the configurations the run visits.
    """
    return walk(sequence.compiled, _pack_inputs(inputs), len(inputs), aux_count)


def trace(sequence: Program, inputs: list[bool] | tuple[bool, ...], aux_count: int = 0) -> list[TraceStep]:
    """Deterministic step log of a computation, truncated at ``TRACE_LIMIT`` records.

    The same walk as :func:`compute`, recording each executed basic or test
    instruction as text read from its row. The last record carries the reply
    of the run; after a truncation the walk goes on unrecorded, and the
    marker carries it.
    """
    steps: list[TraceStep] = []
    walk(sequence.compiled, _pack_inputs(inputs), len(inputs), aux_count, steps)
    return steps
