"""Differential properties: the execution core against the paper-level operators.

Programs are drawn over input registers, auxiliary registers (aux:0 included,
which no register family serves) and a named focus, with unknown methods,
register indices out of range, jump cycles, backward jumps that leave the
program and writes to input registers. The reference reply is the
specification ``reply(use_apply(extract(p), aux family), input family)``.
The compiler is checked field for field against its earlier definition, kept
in ``thelpers`` as the reference, at every start position, and a loop-free
walk without a configuration set against the same walk with one.
"""

import dataclasses

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
    StateSpaceCapExceeded,
    TERM_F,
    TERM_T,
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
from pglb.extraction import compile_program
from pglb.interaction import DEFAULT_STATE_CAP, walk
from thelpers import reference_compile_program

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


@PROPERTY_SETTINGS
@given(
    programs,
    st.integers(0, 3).flatmap(
        lambda arity: st.lists(
            st.sampled_from((True, False, None)), min_size=2**arity, max_size=2**arity
        ).map(lambda entries: PartialBooleanFunction(arity, tuple(entries)))
    ),
    aux_counts,
)
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


@PROPERTY_SETTINGS
@given(programs)
def test_compile_program_matches_the_reference(program):
    # The parsed copy shares one object per distinct instruction, as parse output does.
    for sequence in (program, parse(render(program))):
        for start in range(-1, len(sequence) + 4):
            reference = reference_compile_program(sequence, start)
            compiled = compile_program(sequence, start)
            assert {name: getattr(compiled, name) for name in reference} == reference
            assert compiled.acyclic is not any(isinstance(u, BwdJump) for u in sequence)


loop_free_programs = st.lists(
    st.one_of(instructions, looping_instructions).filter(lambda u: not isinstance(u, BwdJump)),
    min_size=1,
    max_size=10,
).map(lambda body: InstructionSequence(tuple(body)))


def _outcome(program, inputs, aux_count, max_states):
    """Reply and trace records of one walk, or the exception it raised."""
    packed = sum(1 << i for i, b in enumerate(inputs, 1) if b)
    steps = []
    try:
        answer = walk(program, packed, len(inputs), aux_count, max_states, steps, 10_000)
    except StateSpaceCapExceeded as exc:
        return type(exc), str(exc)
    return answer, steps


@PROPERTY_SETTINGS
@given(loop_free_programs, input_vectors, aux_counts, st.integers(1, 6))
def test_a_loop_free_walk_keeps_no_configuration_set(program, inputs, aux_count, max_states):
    compiled = compile_program(program)
    assert compiled.acyclic
    tracked = dataclasses.replace(compiled, acyclic=False)
    for cap in (max_states, DEFAULT_STATE_CAP):
        assert _outcome(compiled, inputs, aux_count, cap) == _outcome(tracked, inputs, aux_count, cap)
