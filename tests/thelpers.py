"""Shared generators and walkers for the test suite (seeded, deterministic)."""

from __future__ import annotations

import functools
import random

from pglb import (
    AND,
    Action,
    Basic,
    BooleanRegister,
    BwdJump,
    Circuit,
    DEADLOCK,
    Focus,
    FwdJump,
    GET,
    Gate,
    GateRef,
    InputRef,
    InstructionSequence,
    NOT,
    NegTest,
    OR,
    PartialBooleanFunction,
    Post,
    PosTest,
    PostNode,
    RegularThread,
    Reply,
    S_MINUS,
    S_PLUS,
    SET_F,
    SET_T,
    ServiceFamily,
    TAU,
    TERM_F,
    TERM_T,
    boolean_register,
    truth_table_length,
)

PLAIN_ACTIONS = tuple(Action(name) for name in ("a", "b", "c"))
TEST_FOCI = tuple(Focus.named(name) for name in ("p", "q", "r"))
FOCUSED_ACTIONS = tuple(
    Action(method, focus) for focus in TEST_FOCI for method in (GET, SET_T, SET_F)
)


def random_instruction(rng: random.Random, actions=PLAIN_ACTIONS, max_jump: int = 6):
    kind = rng.randrange(6)
    if kind == 0:
        return Basic(rng.choice(actions))
    if kind == 1:
        return PosTest(rng.choice(actions))
    if kind == 2:
        return NegTest(rng.choice(actions))
    if kind == 3:
        return FwdJump(rng.randrange(max_jump + 1))
    if kind == 4:
        return BwdJump(rng.randrange(max_jump + 1))
    return TERM_T if rng.random() < 0.5 else TERM_F


def random_sequence(rng: random.Random, max_len: int = 6, actions=PLAIN_ACTIONS) -> InstructionSequence:
    size = rng.randint(1, max_len)
    return InstructionSequence(tuple(random_instruction(rng, actions) for _ in range(size)))


def random_thread(rng: random.Random, max_states: int = 5, actions=FOCUSED_ACTIONS) -> RegularThread:
    size = rng.randint(1, max_states)
    labels = []
    for _ in range(size):
        kind = rng.randrange(4)
        if kind == 0:
            labels.append(S_PLUS)
        elif kind == 1:
            labels.append(S_MINUS)
        elif kind == 2:
            labels.append(DEADLOCK)
        else:
            labels.append(PostNode(rng.choice(actions), rng.randrange(size), rng.randrange(size)))
    if not any(isinstance(l, PostNode) for l in labels):
        labels[0] = PostNode(rng.choice(actions), rng.randrange(size), rng.randrange(size))
    return RegularThread(tuple(labels), rng.randrange(size))


def random_circuit(rng: random.Random, max_inputs: int = 6, max_gates: int = 10) -> Circuit:
    inputs = rng.randint(1, max_inputs)
    count = rng.randint(1, max_gates)
    gates = []
    for number in range(1, count + 1):
        def operand():
            if number > 1 and rng.random() < 0.5:
                return GateRef(rng.randint(1, number - 1))
            return InputRef(rng.randint(1, inputs))

        op = rng.choice((NOT, AND, OR))
        gates.append(Gate(op, operand()) if op == NOT else Gate(op, operand(), operand()))
    return Circuit(inputs, tuple(gates))


def leaf(label) -> RegularThread:
    """The one-state thread of a terminal label: S+, S- or D."""
    return RegularThread((label,), 0)


def loop_free(sequence: InstructionSequence) -> bool:
    """No backward jump: the reference for ``CompiledProgram.acyclic``."""
    return not any(isinstance(u, BwdJump) for u in sequence)


def program_foci(sequence: InstructionSequence) -> set[Focus]:
    """The foci of the program's actions, one look per distinct instruction."""
    actions = (u.action for u in set(sequence.instructions) if isinstance(u, (Basic, PosTest, NegTest)))
    return {action.focus for action in actions if action.focus is not None}


def random_register(rng: random.Random) -> BooleanRegister:
    return boolean_register(rng.choice((Reply.T, Reply.F, Reply.D)))


def random_family(rng: random.Random, foci=TEST_FOCI) -> ServiceFamily:
    chosen = [focus for focus in foci if rng.random() < 0.7]
    return ServiceFamily({focus: random_register(rng) for focus in chosen})


def duplicate_state(rng: random.Random, thread: RegularThread) -> RegularThread:
    """Split one state into two copies: bisimilar to the original by construction."""
    victim = rng.randrange(len(thread.states))
    copy_id = len(thread.states)
    labels = list(thread.states)
    labels.append(labels[victim])

    def maybe_redirect(target: int) -> int:
        return copy_id if target == victim and rng.random() < 0.5 else target

    for state, label in enumerate(labels):
        if isinstance(label, PostNode):
            labels[state] = PostNode(
                label.action, maybe_redirect(label.then_state), maybe_redirect(label.else_state)
            )
    root = copy_id if thread.root == victim and rng.random() < 0.5 else thread.root
    return RegularThread(tuple(labels), root)


def permute_states(rng: random.Random, thread: RegularThread) -> RegularThread:
    order = list(range(len(thread.states)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    labels: list = [None] * len(order)
    for old, label in enumerate(thread.states):
        if isinstance(label, PostNode):
            label = PostNode(label.action, position[label.then_state], position[label.else_state])
        labels[position[old]] = label
    return RegularThread(tuple(labels), position[thread.root])


def walk_terminal(thread: RegularThread) -> Reply:
    """Follow tau steps from the root; Reply of the terminal, d on anything else.

    This is the 'termination polarity of the configuration walk' reading of
    a fully used thread: any remaining non-tau action means no reply.
    """
    state = thread.root
    seen = set()
    while True:
        if state in seen:
            return Reply.D
        seen.add(state)
        label = thread.states[state]
        if not isinstance(label, PostNode):
            return {"S+": Reply.T, "S-": Reply.F, "D": Reply.D}[str(label)]
        if label.action != TAU:
            return Reply.D
        state = label.then_state


def walk_with_taus(thread: RegularThread, family: ServiceFamily) -> tuple[int, str]:
    """Resolve remaining service actions; count tau steps passed on the way.

    Returns (tau count, outcome) with outcome one of S+, S-, D.
    """
    state = thread.root
    fam = family
    taus = 0
    seen = set()
    while True:
        key = (state, fam)
        if key in seen:
            return taus, "D"
        seen.add(key)
        label = thread.states[state]
        if not isinstance(label, PostNode):
            return taus, str(label)
        if label.action == TAU:
            taus += 1
            state = label.then_state
            continue
        focus = label.action.focus
        service = fam.get(focus) if focus is not None else None
        if service is None:
            return taus, "D"
        answer = service.reply(label.action.name)
        if answer is Reply.D:
            return taus, "D"
        fam = fam.replaced(focus, service.derive(label.action.name))
        state = label.then_state if answer is Reply.T else label.else_state


def reference_compile_truth_table(fn):
    """The truth-table compiler by its recursive definition: test the last input, jump over the t half."""
    if fn.arity == 0:
        value = fn.entries[0]
        return (FwdJump(0),) if value is None else ((TERM_T if value else TERM_F),)
    half = 2 ** (fn.arity - 1)
    on_true = reference_compile_truth_table(PartialBooleanFunction(fn.arity - 1, fn.entries[half:]))
    on_false = reference_compile_truth_table(PartialBooleanFunction(fn.arity - 1, fn.entries[:half]))
    head = (
        NegTest(Action(GET, Focus.input(fn.arity))),
        FwdJump(truth_table_length(fn.arity - 1) + 1),
    )
    return head + on_true + on_false


def reference_compile_program(sequence, start: int = 1) -> dict:
    """The compiler with a memoised resolver closure called on every edge: the fields of its result.

    Returns a dict from ``CompiledProgram`` field name to value, for the fields
    this definition has.
    """
    from pglb.extraction import (
        BANK_AUX,
        BANK_IN,
        BANK_NONE,
        M_OTHER,
        OP_ACTION,
        OP_DEADLOCK,
        OP_FALSE,
        OP_TRUE,
        _METHODS,
    )
    from pglb.isa import Termination

    instructions = sequence.instructions
    size = len(instructions)
    resolved: dict = {}

    def resolve(position):
        chain: dict = {}
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

    positions = [p for p, u in enumerate(instructions, 1) if not isinstance(u, (FwdJump, BwdJump))]
    exit_state = len(positions)
    cycle_state = exit_state + 1
    state_of: list = [None] * (size + 1)
    for state, p in enumerate(positions):
        state_of[p] = state

    def target(p):
        if 0 < p <= size and state_of[p] is not None:
            return state_of[p]
        landing = resolve(p)
        if landing is None:
            return cycle_state
        return exit_state if landing == 0 else state_of[landing]

    rows = []
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
        else:
            on_t, on_f = target(p + 2), target(p + 1)
        if focus is None:
            rows.append((OP_ACTION, BANK_NONE, 0, M_OTHER, on_t, on_f, act))
        else:
            bank = {"in": BANK_IN, "aux": BANK_AUX}.get(focus.kind, BANK_NONE)
            method = _METHODS.get(act.name, M_OTHER)
            rows.append((OP_ACTION, bank, focus.index or 0, method, on_t, on_f, act))
    rows.append((OP_DEADLOCK, BANK_NONE, 0, M_OTHER, exit_state, exit_state, None))
    rows.append((OP_DEADLOCK, BANK_NONE, 0, M_OTHER, cycle_state, cycle_state, None))
    kind, bank, index, method, then_state, else_state, action = zip(*rows)
    return {
        "source": sequence,
        "kind": kind,
        "bank": bank,
        "index": index,
        "method": method,
        "then_state": then_state,
        "else_state": else_state,
        "position": tuple(positions) + (0, None),
        "action": action,
        "root": target(start),
        "target": target,  # the state where behaviour starting at a position continues
        "exit_state": exit_state,
    }


def compiled_differences(sequence, compiled) -> list[str]:
    """Where ``compiled`` differs from ``reference_compile_program(sequence)``: empty when nowhere.

    Checks the entry row of every start position from -1 to size+3, each
    position's text, as ``render_instruction`` writes its instruction, each
    non-jump position's row and successors, the aux indices named, the state
    count and ``acyclic``.
    """
    from pglb.extraction import BANK_AUX, BANK_IN, BANK_NONE
    from pglb.isa import render_instruction

    size = len(sequence)
    rows, landing = compiled.rows, compiled.landing
    found = []

    def where(row):
        # A row as the reference's position field names it: the two deadlock rows follow the last position.
        return row if row <= size else {size + 1: 0, size + 2: None}[row]

    reference = reference_compile_program(sequence)
    position = reference["position"]
    for start in range(-1, size + 4):
        if where(compiled.entry(start)) != position[reference["target"](start)]:
            found.append(f"entry of {start}")
    # A register row holds its register's bit: i-1 for in:i, and r-1 for the aux index of rank r
    # among the aux indices above 0 the program names. No run serves aux:0.
    named = sorted({i for b, i in zip(reference["bank"], reference["index"]) if b == BANK_AUX and i > 0})
    if compiled.aux_named != tuple(named):
        found.append("aux_named")

    def bit(bank, index):
        if bank == BANK_AUX:
            return (BANK_AUX, named.index(index)) if index else (BANK_NONE, 0)
        return (bank, index - 1) if bank == BANK_IN else (bank, index)

    for p, instruction in enumerate(sequence.instructions, 1):
        if rows[p][7] != render_instruction(instruction):
            found.append(f"text of {p}")
    for state, p in enumerate(position[:-2]):
        kind, bank, index, method, action, on_t, on_f, _ = rows[p]
        expected = [reference[name][state] for name in ("kind", "bank", "index", "method", "action")]
        expected[1:3] = bit(*expected[1:3])
        # A row holds its action as canonical text.
        expected[4] = None if expected[4] is None else str(expected[4])
        if (kind, bank, index, method, action) != tuple(expected):
            found.append(f"row {p}")
        if where(landing[p + on_t]) != position[reference["then_state"][state]]:
            found.append(f"then-successor of {p}")
        if where(landing[p + on_f]) != position[reference["else_state"][state]]:
            found.append(f"else-successor of {p}")
    if compiled.states != reference["exit_state"]:
        found.append("states")
    if compiled.acyclic is not loop_free(sequence):
        found.append("acyclic")
    return found


def jump_landing(body, p: int) -> int | None:
    """Where the jump chain from position p lands: a non-jump position, 0 when it leaves, None on a cycle."""
    followed = set()
    while 1 <= p <= len(body) and isinstance(body[p - 1], (FwdJump, BwdJump)):
        if p in followed:
            return None
        followed.add(p)
        jump = body[p - 1]
        p = p + jump.offset if isinstance(jump, FwdJump) else p - jump.offset
    return p if 1 <= p <= len(body) else 0


def direct_jump(p: int, landing: int | None, size: int):
    """One jump from position p straight to ``landing``: past the end when it is 0, ``#0`` on a cycle."""
    if landing is None:
        return FwdJump(0)
    if landing == 0:
        return FwdJump(size + 1 - p)
    return FwdJump(landing - p) if landing > p else BwdJump(p - landing)


def reference_project(thread: RegularThread, depth: int):
    """π_depth by its definition: D at 0, a leaf stays itself, a postconditional keeps its action over both π_(n-1)."""

    @functools.cache
    def pi(state: int, n: int):
        label = thread.states[state]
        if n == 0:
            return DEADLOCK
        if isinstance(label, PostNode):
            return Post(label.action, pi(label.then_state, n - 1), pi(label.else_state, n - 1))
        return label

    return pi(thread.root, depth)


def reference_projection_nodes(thread: RegularThread, depth: int, cap: int | None = None) -> int:
    """The nodes ``pglb project`` counts for ``depth``, one loop iteration per level; stops once past ``cap``."""
    level, nodes = {thread.root: 1}, 1
    for _ in range(depth):
        following: dict = {}
        for state, paths in level.items():
            label = thread.states[state]
            if isinstance(label, PostNode):
                for succ in {label.then_state, label.else_state}:
                    following[succ] = following.get(succ, 0) + paths
        level = following
        nodes += sum(level.values())
        if not level or (cap is not None and nodes > cap):
            break
    return nodes


def reference_projection_refused(thread: RegularThread, depth: int, cap: int) -> bool:
    """Whether ``pglb project`` refuses ``depth``: its node count is over ``cap``."""
    return reference_projection_nodes(thread, depth, cap) > cap


def reference_bisimilar(left: RegularThread, right: RegularThread) -> bool:
    """Bisimilarity by partition refinement: refine on (block, then-block, else-block) until stable."""
    offset = len(left.states)
    labels = list(left.states) + [
        PostNode(l.action, l.then_state + offset, l.else_state + offset) if isinstance(l, PostNode) else l
        for l in right.states
    ]
    classes: dict = {}
    block = [
        classes.setdefault(("post", l.action) if isinstance(l, PostNode) else (str(l),), len(classes))
        for l in labels
    ]
    while True:
        keys: dict = {}
        new_block = []
        for state, label in enumerate(labels):
            if isinstance(label, PostNode):
                key = (block[state], block[label.then_state], block[label.else_state])
            else:
                key = (block[state],)
            new_block.append(keys.setdefault(key, len(keys)))
        if new_block == block:
            return block[left.root] == block[right.root + offset]
        block = new_block
