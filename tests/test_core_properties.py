"""Differential properties: the execution core against the paper-level operators.

Programs are drawn over input registers, auxiliary registers (aux:0 included,
which no register family serves) and a named focus, with unknown methods,
register indices out of range, jump cycles, backward jumps that leave the
program and writes to input registers. The reference reply is the
specification ``reply(use_apply(extract(p), aux family), input family)``.
The compiler is checked field for field against its earlier definition, kept
in ``thelpers`` as the reference, at every start position. The one-pass
reply sets of a loop-free program, register writes included, are checked
against a walk per input, and the equivalence sweep against its per-input
definition. Rewriting a jump as one jump straight to where its chain lands
leaves the extracted thread bisimilar.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pglb import (
    Action,
    Basic,
    BwdJump,
    Focus,
    FwdJump,
    InstructionSequence,
    NegTest,
    PartialBooleanFunction,
    PosTest,
    Reply,
    TERM_F,
    TERM_T,
    bisimilar,
    compile_truth_table,
    compute,
    equivalence_check,
    extract,
    parse,
    register_family,
    render,
    reply,
    trace,
    use_apply,
)
from pglb.interaction import reply_sets, walk
from thelpers import compiled_differences, direct_jump, jump_landing

FOCI = (
    [Focus.input(i) for i in range(1, 5)]
    + [Focus.aux(i) for i in range(0, 4)]
    + [Focus.named("p")]
)
METHODS = ("get", "get", "set:t", "set:f", "flip")

actions = st.builds(Action, st.sampled_from(METHODS), st.sampled_from(FOCI))
instructions = st.one_of(
    st.builds(Basic, actions),
    st.builds(PosTest, actions),
    st.builds(NegTest, actions),
    st.builds(FwdJump, st.integers(0, 5)),
    st.builds(BwdJump, st.integers(0, 8)),
    st.sampled_from((TERM_T, TERM_F)),
)
# Mostly served registers and backward jumps: runs that loop, diverge or count.
served_actions = st.builds(
    Action,
    st.sampled_from(("get", "get", "set:t", "set:f")),
    st.sampled_from((Focus.input(1), Focus.input(2), Focus.aux(1), Focus.aux(2))),
)
looping_instructions = st.one_of(
    st.builds(Basic, served_actions),
    st.builds(PosTest, served_actions),
    st.builds(NegTest, served_actions),
    st.builds(BwdJump, st.integers(1, 6)),
    st.builds(FwdJump, st.integers(1, 3)),
    st.sampled_from((TERM_T, TERM_F)),
)
programs = st.one_of(
    st.lists(instructions, min_size=1, max_size=10),
    st.lists(looping_instructions, min_size=1, max_size=10),
).map(lambda body: InstructionSequence(tuple(body)))
input_vectors = st.lists(st.booleans(), max_size=3)
aux_counts = st.integers(0, 3)

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)


def specification(program, inputs, aux_count) -> Reply:
    use_family, input_family = register_family(inputs, aux_count)
    return reply(use_apply(extract(program), use_family), input_family)


@PROPERTY_SETTINGS
@given(programs, input_vectors, aux_counts)
def test_compute_matches_use_then_reply(program, inputs, aux_count):
    assert compute(program, inputs, aux_count) is specification(program, inputs, aux_count)


@PROPERTY_SETTINGS
@given(programs, input_vectors, aux_counts)
def test_trace_ends_with_the_computed_reply(program, inputs, aux_count):
    steps = trace(program, inputs, aux_count)
    assert steps[-1].kind != "truncated"
    assert steps[-1].reply is compute(program, inputs, aux_count)


def tables(max_arity: int):
    return st.integers(0, max_arity).flatmap(
        lambda arity: st.lists(
            st.sampled_from((True, False, None)), min_size=2**arity, max_size=2**arity
        ).map(lambda entries: PartialBooleanFunction(arity, tuple(entries)))
    )


@PROPERTY_SETTINGS
@given(programs, tables(5), aux_counts)
def test_equivalence_check_matches_a_compute_sweep(program, fn, aux_count):
    expected = []
    for bits in fn.inputs():
        got = compute(program, list(bits), aux_count)
        entry = fn.value_at(bits)
        want = Reply.D if entry is None else Reply.of(entry)
        if got is not want:
            expected.append((bits, got, want))
    report = equivalence_check(program, fn, aux_count)
    assert [(m.inputs, m.got, m.expected) for m in report.mismatches] == expected


def test_a_negative_aux_count_is_rejected_on_both_paths():
    fn = PartialBooleanFunction(1, (True, False))
    # One program has neither a backward jump nor a register write; the other has both.
    for text in ("+in:1.get; !t; !f", "+in:1.set:t; !t; \\#2"):
        with pytest.raises(ValueError, match="aux_count"):
            equivalence_check(parse(text), fn, -1)
        with pytest.raises(ValueError, match="aux_count"):
            reply_sets(parse(text).compiled, 1, -1)


@PROPERTY_SETTINGS
@given(programs)
def test_compile_program_matches_the_reference(program):
    # The parsed copy shares one object per distinct instruction, as parse output does.
    for sequence in (program, parse(render(program))):
        assert compiled_differences(sequence, sequence.compiled) == []


# Without backward jumps, but with register writes, flip, aux:0, a register
# past --aux or the inputs and the named focus.
WIDE_FOCI = FOCI + [Focus.input(5), Focus.input(6), Focus.aux(7)]
wide_actions = st.builds(Action, st.sampled_from(METHODS), st.sampled_from(WIDE_FOCI))
loop_free_bodies = st.lists(
    st.one_of(
        st.builds(Basic, wide_actions),
        st.builds(PosTest, wide_actions),
        st.builds(NegTest, wide_actions),
        st.builds(FwdJump, st.integers(0, 5)),
        st.sampled_from((TERM_T, TERM_F)),
    ),
    min_size=1,
    max_size=10,
)


@PROPERTY_SETTINGS
@given(loop_free_bodies, st.integers(0, 5), st.sampled_from((0, 1, 2, 3, 7)), st.integers(0, 8), st.data())
def test_reply_sets_match_a_walk_per_input(body, input_count, aux_count, back, data):
    compiled = InstructionSequence(tuple(body)).compiled
    walked = {Reply.T: 0, Reply.F: 0, Reply.D: 0}
    for j in range(1 << input_count):
        walked[walk(compiled, j, input_count, aux_count)] |= 1 << j
    assert reply_sets(compiled, input_count, aux_count) == (walked[Reply.T], walked[Reply.F], walked[Reply.D])
    at = data.draw(st.integers(0, len(body)))
    changed = InstructionSequence(tuple(body[:at]) + (BwdJump(back),) + tuple(body[at:]))
    assert reply_sets(changed.compiled, input_count, aux_count) is None


def test_reply_sets_leave_programs_over_the_state_cap_to_the_walk(monkeypatch):
    compiled = parse("+in:1.get; !t; !f").compiled
    assert reply_sets(compiled, 1) == (0b10, 0b01, 0)
    monkeypatch.setattr("pglb.interaction.DEFAULT_STATE_CAP", compiled.states - 1)
    assert reply_sets(compiled, 1) is None


def test_reply_sets_leave_programs_over_the_bit_budget_to_the_walk(monkeypatch):
    program = parse("+in:1.get; !t; !f")
    compiled = program.compiled
    monkeypatch.setattr("pglb.interaction.REPLY_SETS_BIT_BUDGET", compiled.states << 3)
    assert reply_sets(compiled, 3) == (0b10101010, 0b01010101, 0)
    assert reply_sets(compiled, 4) is None
    entries = [bool(j & 1) for j in range(16)]
    entries[6] = None
    report = equivalence_check(program, PartialBooleanFunction(4, tuple(entries)))
    assert [(m.inputs, m.got, m.expected) for m in report.mismatches] == [
        ((False, True, True, False), Reply.F, Reply.D)
    ]


def test_reply_sets_keep_few_masks_alive_on_an_arity_16_table():
    # A state's set is dropped once visited. Were every set kept until the
    # end, the sets of this tree's 2^17 states would hold about 2^32 bits.
    rng = random.Random(16)
    fn = PartialBooleanFunction(16, tuple(rng.choice((True, False, None)) for _ in range(1 << 16)))
    compiled = compile_truth_table(fn).compiled
    tracemalloc.start()
    try:
        sets = reply_sets(compiled, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    char = {True: "t", False: "f", None: "d"}
    digits = "".join(char[e] for e in reversed(fn.entries))
    assert sets == tuple(int("".join("1" if c == r else "0" for c in digits), 2) for r in "tfd")
    assert peak < 16 * 2**20


@PROPERTY_SETTINGS
@given(programs)
def test_bisimilarity_is_invariant_under_jump_chain_rewrites(program):
    body = program.instructions
    thread = extract(program)
    direct = list(body)
    for p, instruction in enumerate(body, 1):
        if isinstance(instruction, (FwdJump, BwdJump)):
            jump = direct_jump(p, jump_landing(body, p), len(body))
            direct[p - 1] = jump
            assert bisimilar(thread, extract(InstructionSequence(body[: p - 1] + (jump,) + body[p:])))
    assert bisimilar(thread, extract(InstructionSequence(tuple(direct))))
