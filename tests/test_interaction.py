"""Use and reply operators, the end-to-end executor, and traces."""

import random

import pytest

from pglb import (
    Action,
    DEADLOCK,
    Focus,
    PostNode,
    RegularThread,
    Reply,
    S_MINUS,
    S_PLUS,
    ServiceFamily,
    StateSpaceCapExceeded,
    TAU,
    bisimilar,
    boolean_register,
    compute,
    extract,
    parse,
    project,
    reply,
    thread_from_term,
    trace,
    use_apply,
)
from pglb.interaction import walk
from thelpers import leaf, random_family, random_thread, walk_terminal

EQ_1_2 = parse(r"+1.get; #2; #4; +2.get; !t; !f; -2.get; \#3; \#3")
EQUALS_1_2_3 = parse(
    r"+1.get; #2; #4; -2.get; !f; #4; +2.get; \#3; 0.set:f;"
    r" +0.get; #2; #4; +3.get; !t; !f; -3.get; \#3; \#3"
)
ALL_VALUES = (Reply.T, Reply.F, Reply.D)


def _named_family(values: dict[str, Reply]) -> ServiceFamily:
    return ServiceFamily({Focus.named(name): boolean_register(v) for name, v in values.items()})


def _prefixed(action: Action, thread: RegularThread) -> RegularThread:
    """New root performing ``action`` before the given thread."""
    shifted = tuple(
        PostNode(l.action, l.then_state + 1, l.else_state + 1) if isinstance(l, PostNode) else l
        for l in thread.states
    )
    return RegularThread((PostNode(action, thread.root + 1, thread.root + 1),) + shifted, 0)


def test_use_leaves_terminals_alone():
    rng = random.Random(31)
    for terminal in (leaf(S_PLUS), leaf(S_MINUS), leaf(DEADLOCK)):
        for _ in range(10):
            assert use_apply(terminal, random_family(rng)) == terminal


def test_use_passes_internal_steps_through():
    rng = random.Random(32)
    for _ in range(30):
        inner = random_thread(rng)
        family = random_family(rng)
        used = use_apply(_prefixed(TAU, inner), family)
        assert bisimilar(used, _prefixed(TAU, use_apply(inner, family)))


def test_use_ignores_absent_foci():
    thread = extract(parse("+x.get; !t; !f"))
    used = use_apply(thread, ServiceFamily())
    assert bisimilar(used, thread)
    root = used.states[used.root]
    assert isinstance(root, PostNode) and str(root.action) == "x.get"


def test_use_turns_served_actions_into_internal_steps():
    thread = extract(parse("+p.get; !t; !f"))
    on_true = use_apply(thread, _named_family({"p": Reply.T}))
    root = on_true.states[on_true.root]
    assert root.action == TAU
    assert on_true.states[root.then_state] == S_PLUS

    on_false = use_apply(thread, _named_family({"p": Reply.F}))
    root = on_false.states[on_false.root]
    assert root.action == TAU
    assert on_false.states[root.then_state] == S_MINUS


def test_use_with_divergent_service_deadlocks():
    thread = extract(parse("+p.get; !t; !f"))
    used = use_apply(thread, _named_family({"p": Reply.D}))
    assert used.states[used.root] == DEADLOCK


def test_use_updates_service_state():
    prog = parse("p.set:f; +p.get; !t; !f")
    used = use_apply(extract(prog), _named_family({"p": Reply.T}))
    assert walk_terminal(used) is Reply.F


def test_reply_terminals():
    rng = random.Random(33)
    for _ in range(10):
        family = random_family(rng)
        assert reply(leaf(S_PLUS), family) is Reply.T
        assert reply(leaf(S_MINUS), family) is Reply.F
        assert reply(leaf(DEADLOCK), family) is Reply.D


def test_reply_is_transparent_over_internal_steps():
    rng = random.Random(34)
    for _ in range(40):
        inner = random_thread(rng)
        family = random_family(rng)
        assert reply(_prefixed(TAU, inner), family) is reply(inner, family)


def test_reply_without_matching_service_is_divergent():
    thread = extract(parse("+p.get; !t; !f"))
    assert reply(thread, ServiceFamily()) is Reply.D
    assert reply(thread, _named_family({"q": Reply.T})) is Reply.D


def test_reply_on_equality_program_over_all_register_pairs():
    thread = extract(EQ_1_2)
    for b1 in ALL_VALUES:
        for b2 in ALL_VALUES:
            outcome = reply(thread, _named_family({"1": b1, "2": b2}))
            if b1 is Reply.D or b2 is Reply.D:
                assert outcome is Reply.D
            elif b1 is b2:
                assert outcome is Reply.T
            else:
                assert outcome is Reply.F


def test_reply_detects_configuration_cycles():
    looping = extract(parse(r"f.get; \#1"))
    assert reply(looping, _named_family({"f": Reply.T})) is Reply.D


def test_three_register_equality_pipeline():
    used = use_apply(extract(EQUALS_1_2_3), _named_family({"0": Reply.T}))
    for b1 in ALL_VALUES:
        for b2 in ALL_VALUES:
            for b3 in ALL_VALUES:
                outcome = reply(used, _named_family({"1": b1, "2": b2, "3": b3}))
                if b1 is Reply.D or b2 is Reply.D or (b1 is b2 and b3 is Reply.D):
                    expected = Reply.D
                elif b1 is b2 is b3:
                    expected = Reply.T
                else:
                    expected = Reply.F
                assert outcome is expected, (b1, b2, b3)


def test_three_register_pipeline_internal_step_staging():
    # Only the aux-register actions were absorbed by the use stage, so the
    # number of internal steps on each resolved path is the number of
    # processed aux actions: one on the both-true path, two when the shared
    # intermediate register is rewritten first.
    from thelpers import walk_with_taus

    used = use_apply(extract(EQUALS_1_2_3), _named_family({"0": Reply.T}))
    cases = {
        (Reply.T, Reply.T, Reply.T): (1, "S+"),
        (Reply.T, Reply.T, Reply.F): (1, "S-"),
        (Reply.F, Reply.F, Reply.F): (2, "S+"),
        (Reply.F, Reply.F, Reply.T): (2, "S-"),
        (Reply.T, Reply.F, Reply.T): (0, "S-"),
        (Reply.F, Reply.T, Reply.T): (0, "S-"),
        (Reply.D, Reply.T, Reply.T): (0, "D"),
        (Reply.T, Reply.T, Reply.D): (1, "D"),
        (Reply.F, Reply.F, Reply.D): (2, "D"),
    }
    for (b1, b2, b3), expected in cases.items():
        family = _named_family({"1": b1, "2": b2, "3": b3})
        assert walk_with_taus(used, family) == expected, (b1, b2, b3)


def test_compute_trivial_program():
    assert compute(parse("!t"), [], 0) is Reply.T
    assert compute(parse("!f"), [], 0) is Reply.F


def test_compute_single_input_test():
    prog = parse("+in:1.get; !t; !f")
    assert compute(prog, [True], 0) is Reply.T
    assert compute(prog, [False], 0) is Reply.F


def test_compute_rejects_non_boolean_inputs():
    with pytest.raises(ValueError):
        compute(parse("!t"), [Reply.T], 0)


def test_use_reply_agreement_on_random_pairs():
    # The reply must equal the termination polarity of the fully used thread.
    rng = random.Random(35)
    for _ in range(200):
        thread = random_thread(rng)
        family = random_family(rng)
        assert reply(thread, family) is walk_terminal(use_apply(thread, family))


def test_projection_distributes_over_use():
    rng = random.Random(36)
    for _ in range(100):
        thread = random_thread(rng)
        family = random_family(rng)
        depth = rng.randrange(21)
        left = project(use_apply(thread, family), depth)
        right = project(
            use_apply(thread_from_term(project(thread, depth)), family), depth
        )
        assert left == right


def test_use_respects_state_cap(monkeypatch):
    thread = extract(parse(r"p.set:f; p.set:t; \#2"))
    family = _named_family({"p": Reply.T})
    monkeypatch.setattr("pglb.interaction.DEFAULT_STATE_CAP", 1)
    with pytest.raises(StateSpaceCapExceeded):
        use_apply(thread, family)
    # Generous cap: fine, and the loop never terminates.
    monkeypatch.setattr("pglb.interaction.DEFAULT_STATE_CAP", 100)
    assert reply(use_apply(thread, family), ServiceFamily()) is Reply.D


def test_trace_of_trivial_program():
    steps = trace(parse("!t"), [], 0)
    assert len(steps) == 1
    assert steps[0].kind == "terminate" and steps[0].reply is Reply.T


def test_trace_of_single_test():
    steps = trace(parse("+in:1.get; !t; !f"), [False], 0)
    assert [s.kind for s in steps] == ["action", "terminate"]
    assert steps[0].action == "in:1.get" and steps[0].reply is Reply.F
    assert steps[1].reply is Reply.F


def test_trace_truncates_with_marker(monkeypatch):
    from pglb import gen_3sat

    # An unsatisfiable instance drives a long walk; cut it off early.
    unsat = [True] + [False] * 6 + [True]
    monkeypatch.setattr("pglb.interaction.TRACE_LIMIT", 5)
    steps = trace(gen_3sat(1), unsat, 1)
    assert len(steps) == 6
    assert steps[-1].kind == "truncated"


def test_trace_reports_missing_service():
    steps = trace(parse("+x.get; !t; !f"), [], 0)
    assert steps[-1].kind == "no-service" and steps[-1].reply is Reply.D


def test_trace_detects_divergence():
    steps = trace(parse(r"in:1.get; \#1"), [True], 0)
    assert steps[-1].kind == "divergent"


def test_trace_names_why_a_row_is_not_served():
    for text, inputs, aux, note in (
        ("+aux:2.get; !t; !f", [], 1, "aux:2 past --aux 1"),
        ("+in:2.get; !t; !f", [True], 0, "in:2 past --in 1"),
        ("+aux:0.get; !t; !f", [], 2, "aux:0 is never served"),
        ("+x.get; !t; !f", [], 0, "x is never served"),
    ):
        assert list(map(str, trace(parse(text), inputs, aux))) == [f"[1] no-service ({note})"]


# A loop whose first repeated configuration is at row 3, not at row 2 where its backward jump lands.
MERGE_LOOP = r"+aux:1.get; aux:1.set:f; aux:2.set:t; \#2"


def test_a_trace_stops_at_the_first_repeat_and_a_plain_run_finds_the_same_cycle():
    steps = trace(parse(MERGE_LOOP), [], 2)
    assert list(map(str, steps)) == [
        "[1] +aux:1.get: aux:1.get -> t",
        "[2] aux:1.set:f: aux:1.set:f -> t",
        "[3] aux:2.set:t: aux:2.set:t -> t",
        "[2] aux:1.set:f: aux:1.set:f -> t",
        "[3] divergent (configuration cycle)",
    ]
    assert steps[-1].reply is Reply.D
    assert compute(parse(MERGE_LOOP), [], 2) is Reply.D


def test_a_plain_run_that_diverges_may_take_one_pass_more_under_the_cap(monkeypatch):
    # The trace takes 4 steps before its repeat; the plain run keys only rows 1 and 2, so it takes 5.
    monkeypatch.setattr("pglb.interaction.DEFAULT_STATE_CAP", 4)
    assert trace(parse(MERGE_LOOP), [], 2)[-1].kind == "divergent"
    with pytest.raises(StateSpaceCapExceeded):
        compute(parse(MERGE_LOOP), [], 2)
    monkeypatch.setattr("pglb.interaction.DEFAULT_STATE_CAP", 5)
    assert compute(parse(MERGE_LOOP), [], 2) is Reply.D


def test_trace_agrees_with_compute():
    rng = random.Random(37)
    programs = [
        (parse("+in:1.get; !t; !f"), [True], 0),
        (parse("+in:1.get; !t; !f"), [False], 0),
        (parse("-in:1.get; #2; !t; !f"), [True], 0),
        (parse("aux:1.set:f; +aux:1.get; !t; !f"), [], 1),
        (parse(r"in:1.get; \#1"), [True], 0),
        (parse("#0"), [], 0),
    ]
    for prog, inputs, aux in programs:
        steps = trace(prog, inputs, aux)
        final = steps[-1]
        assert final.reply is compute(prog, inputs, aux)


def _counter(k: int):
    """next_snippet over aux:1..aux:k looped back to its start: 2^k passes, then reply f."""
    from pglb import BwdJump, InstructionSequence, next_snippet

    body = next_snippet(k).instructions
    return InstructionSequence(body + (BwdJump(len(body)),))


def test_state_cap_bounds_the_run_not_the_product(monkeypatch):
    from pglb import compile_circuit, eval_circuit, parse_netlist, register_family
    import itertools

    circuit = parse_netlist(
        "inputs 3\ng1 = AND x1 x2\ng2 = OR x2 x3\ng3 = NOT g1\ng4 = AND g2 g3\ng5 = OR g4 x1\n"
    )
    program = compile_circuit(circuit)
    use_family, _ = register_family((), 5)
    # A loop-free run visits at most one configuration per instruction.
    cap = len(program)
    assert len(use_apply(extract(program), use_family).states) > cap
    monkeypatch.setattr("pglb.interaction.DEFAULT_STATE_CAP", cap)
    with pytest.raises(StateSpaceCapExceeded):
        use_apply(extract(program), use_family)
    for bits in itertools.product((True, False), repeat=3):
        expected = Reply.of(eval_circuit(circuit, bits))
        assert compute(program, list(bits), 5) is expected


def test_state_cap_still_stops_a_long_run(monkeypatch):
    counter = _counter(6)
    assert compute(counter, [], 6) is Reply.F
    monkeypatch.setattr("pglb.interaction.DEFAULT_STATE_CAP", 50)
    with pytest.raises(StateSpaceCapExceeded):
        compute(counter, [], 6)
    with pytest.raises(StateSpaceCapExceeded):
        walk(counter.compiled, 0, 0, 6, steps=[])


def test_the_state_cap_counts_the_steps_of_a_run_that_terminates(monkeypatch):
    counter = _counter(4)
    steps = trace(counter, [], 4)
    assert steps[-1].kind == "terminate"
    taken = len(steps) - 1  # one record per step, then the termination's
    monkeypatch.setattr("pglb.interaction.DEFAULT_STATE_CAP", taken)
    assert compute(counter, [], 4) is Reply.F
    assert trace(counter, [], 4) == steps
    monkeypatch.setattr("pglb.interaction.DEFAULT_STATE_CAP", taken - 1)
    with pytest.raises(StateSpaceCapExceeded):
        compute(counter, [], 4)
    with pytest.raises(StateSpaceCapExceeded):
        trace(counter, [], 4)


def test_truncated_trace_carries_the_reply_of_the_whole_run(monkeypatch):
    monkeypatch.setattr("pglb.interaction.TRACE_LIMIT", 20)
    steps = trace(_counter(6), [], 6)
    assert len(steps) == 21
    assert steps[-1].kind == "truncated" and str(steps[-1]) == "truncated (after 20 steps)"
    assert steps[-1].reply is Reply.F


def test_trace_labels_both_kinds_of_deadlock():
    assert str(trace(parse(r"#1; \#1"), [], 0)[-1]) == "deadlock (infinite jump chain)"
    assert str(trace(parse("#5"), [], 0)[-1]) == "deadlock (no instruction to execute)"
