"""Positional thread extraction, jump resolution and its invariants."""

import random

from pglb import (
    Action,
    DEADLOCK,
    PosTest,
    NegTest,
    PostNode,
    RegularThread,
    S_MINUS,
    S_PLUS,
    bisimilar,
    extract,
    extract_at,
    parse,
    project,
)
from thelpers import leaf, loop_free, random_sequence, reference_compile_program

A = Action("a")


def test_termination_positions():
    assert extract_at(parse("!t"), 1) == leaf(S_PLUS)
    assert extract_at(parse("!f"), 1) == leaf(S_MINUS)


def test_out_of_range_positions_deadlock():
    seq = parse("a; !t")
    assert extract_at(seq, 0) == leaf(DEADLOCK)
    assert extract_at(seq, 3) == leaf(DEADLOCK)


def test_self_jump_deadlocks():
    assert extract_at(parse("#0"), 1) == leaf(DEADLOCK)


def test_backward_jump_out_of_range_deadlocks():
    # A backward jump at least as long as its position leaves the program.
    assert extract(parse(r"\#1")) == leaf(DEADLOCK)
    assert extract(parse(r"\#7; !t")) == leaf(DEADLOCK)


def test_test_instruction_with_missing_continuations():
    thread = extract(parse("+in:1.get"))
    root = thread.states[thread.root]
    assert isinstance(root, PostNode) and str(root.action) == "in:1.get"
    assert thread.states[root.then_state] == DEADLOCK
    assert thread.states[root.else_state] == DEADLOCK


def test_negative_test_swaps_branches():
    pos = extract(parse("+a; !t; !f"))
    neg = extract(parse("-a; !t; !f"))
    root_pos = pos.states[pos.root]
    root_neg = neg.states[neg.root]
    assert pos.states[root_pos.then_state] == S_PLUS
    assert pos.states[root_pos.else_state] == S_MINUS
    assert neg.states[root_neg.then_state] == S_MINUS
    assert neg.states[root_neg.else_state] == S_PLUS


def test_single_action_loop():
    one_state = RegularThread((PostNode(A, 0, 0),), 0)
    assert bisimilar(extract(parse(r"a; \#1")), one_state)


def test_loop_program_with_escape():
    expected = RegularThread(
        (
            PostNode(Action("a"), 1, 1),
            PostNode(Action("b"), 2, 3),
            PostNode(Action("c"), 1, 1),
            PostNode(Action("d"), 4, 5),
            S_PLUS,
            S_MINUS,
        ),
        0,
    )
    assert bisimilar(extract(parse(r"a; +b; #2; #3; c; \#4; +d; !t; !f")), expected)


def test_resolve_jumps_cases():
    # The row where behaviour from a start position continues.
    assert parse("#2; !t; !f").compiled.entry(1) == 3
    assert parse(r"#2; !t; \#1").compiled.entry(1) == 2
    cycle = parse(r"#1; \#1").compiled
    assert cycle.entry(1) == cycle.exit_state + 1  # an infinite jump chain
    for text in ("#0", r"\#0"):  # a jump to itself is one too
        looped = parse(text).compiled
        assert looped.entry(1) == looped.exit_state + 1
    assert parse("a; !t").compiled.entry(1) == 1  # non-jump resolves to itself
    leaving = parse("a; #5").compiled
    assert leaving.entry(2) == leaving.exit_state  # leaves the program
    # Forward chains into a backward jump, each from its first jump, as the reference compiler lands them:
    # the position behaviour continues at, 0 when it leaves the program, None for an infinite jump chain.
    for text, start, position in (
        (r"a; b; #1; #1; \#3; !t", 3, 2),  # lands on an instruction
        (r"a; #1; #1; \#4; !t", 2, 0),  # lands on position 0
        (r"a; #1; #1; #1; \#2; !t", 2, None),  # enters the jump-only cycle of positions 3 to 5
    ):
        sequence = parse(text)
        size = len(sequence)
        row = sequence.compiled.entry(start)
        assert (row if row <= size else {size + 1: 0, size + 2: None}[row]) == position
        reference = reference_compile_program(sequence, start)
        assert reference["position"][reference["root"]] == position


def test_jump_transparency():
    rng = random.Random(11)
    from pglb import FwdJump

    checked = 0
    while checked < 60:
        seq = random_sequence(rng, max_len=6)
        for position, instruction in enumerate(seq, 1):
            if isinstance(instruction, FwdJump):
                assert bisimilar(
                    extract_at(seq, position), extract_at(seq, position + instruction.offset)
                )
                checked += 1


def test_loop_free_projection_stabilises_at_length():
    rng = random.Random(12)
    checked = 0
    while checked < 60:
        seq = random_sequence(rng, max_len=6)
        if not loop_free(seq):
            continue
        thread = extract(seq)
        size = len(seq)
        stable = project(thread, size)
        for extra in (1, 3):
            assert project(thread, size + extra) == stable
        checked += 1


def test_extraction_is_deterministic():
    seq = parse(r"a; +b; #2; #3; c; \#4; +d; !t; !f")
    assert extract(seq) == extract(seq)


def test_state_count_bounded_by_length_plus_one():
    rng = random.Random(13)
    for _ in range(200):
        seq = random_sequence(rng, max_len=6)
        assert len(extract(seq).states) <= len(seq) + 1


def test_flipping_test_polarity_swaps_branch_edges():
    rng = random.Random(14)

    def flipped(seq):
        from pglb import InstructionSequence

        out = []
        for u in seq:
            if isinstance(u, PosTest):
                out.append(NegTest(u.action))
            elif isinstance(u, NegTest):
                out.append(PosTest(u.action))
            else:
                out.append(u)
        return InstructionSequence(tuple(out))

    def swap_branches(thread):
        labels = tuple(
            PostNode(l.action, l.else_state, l.then_state) if isinstance(l, PostNode) else l
            for l in thread.states
        )
        return RegularThread(labels, thread.root)

    for _ in range(80):
        seq = random_sequence(rng, max_len=6)
        mirrored = swap_branches(extract(flipped(seq)))
        original = extract(seq)
        # Swapping every edge also swaps basic-action edges, which are equal
        # anyway, so the mirrored graph must match the original.
        assert bisimilar(original, mirrored)
