"""Release gate: end-to-end checks with fixed tolerances and time budgets.

Each test prints one ``[criterion N] ... PASS`` line (visible with
``pytest -s``); pytest's own pass/fail per test mirrors the same verdicts.
"""

import gc
import itertools
import random
import time
from contextlib import contextmanager

from pglb import (
    AND,
    Action,
    Circuit,
    DEADLOCK,
    Focus,
    Gate,
    GateRef,
    InputRef,
    NOT,
    OR,
    PartialBooleanFunction,
    Post,
    PostNode,
    REG_D,
    RegularThread,
    Reply,
    S_MINUS,
    S_PLUS,
    ServiceFamily,
    TAU,
    bisimilar,
    boolean_register,
    brute_sat,
    clause_count,
    compile_3sat_loopfree,
    compile_circuit,
    compile_truth_table,
    compose,
    decode,
    encapsulate,
    equivalence_check,
    eval_circuit,
    extract,
    format_truth_table,
    gen_3sat,
    parse,
    parse_truth_table,
    project,
    register_family,
    render,
    reply,
    thread_from_term,
    use_apply,
)
from pglb.cli import main as cli_main
from pglb.extraction import BANK_IN, M_GET, compile_text
from pglb.synthesis import _join_leaves, input_masks
from thelpers import leaf, program_foci, random_family, random_thread

ALL_VALUES = (Reply.T, Reply.F, Reply.D)


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    # A full collection owed by earlier allocations (other tests, or this test's own set-up)
    # scans the whole test process's heap and can take longer than a small budget: pay it first.
    gc.collect()
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s (budget {budget_seconds}s)"
    print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s)")


def _named_family(values):
    return ServiceFamily({Focus.named(n): boolean_register(v) for n, v in values.items()})


def test_criterion_1_loop_program_extraction():
    with criterion(1, "loop program extraction and projections", 1.0):
        program = parse(r"a; +b; #2; #3; c; \#4; +d; !t; !f")
        thread = extract(program)
        a, b, c, d = (Action(n) for n in "abcd")
        two_state = RegularThread(
            (
                PostNode(a, 1, 1),
                PostNode(b, 2, 3),
                PostNode(c, 1, 1),
                PostNode(d, 4, 5),
                S_PLUS,
                S_MINUS,
            ),
            0,
        )
        assert bisimilar(thread, two_state)
        assert project(thread, 0) == DEADLOCK
        assert project(thread, 1) == Post(a, DEADLOCK, DEADLOCK)
        b_then_d = Post(b, DEADLOCK, DEADLOCK)
        assert project(thread, 2) == Post(a, b_then_d, b_then_d)
        b_branches = Post(b, Post(c, DEADLOCK, DEADLOCK), Post(d, DEADLOCK, DEADLOCK))
        assert project(thread, 3) == Post(a, b_branches, b_branches)


def test_criterion_2_register_equality_programs():
    with criterion(2, "two- and three-register equality programs", 1.0):
        eq_1_2 = parse(r"+1.get; #2; #4; +2.get; !t; !f; -2.get; \#3; \#3")
        thread = extract(eq_1_2)
        for b1 in ALL_VALUES:
            for b2 in ALL_VALUES:
                outcome = reply(thread, _named_family({"1": b1, "2": b2}))
                if b1 is Reply.D or b2 is Reply.D:
                    assert outcome is Reply.D
                elif b1 is b2:
                    assert outcome is Reply.T
                else:
                    assert outcome is Reply.F

        equals_1_2_3 = parse(
            r"+1.get; #2; #4; -2.get; !f; #4; +2.get; \#3; 0.set:f;"
            r" +0.get; #2; #4; +3.get; !t; !f; -3.get; \#3; \#3"
        )
        used = use_apply(extract(equals_1_2_3), _named_family({"0": Reply.T}))
        for b1, b2, b3 in itertools.product(ALL_VALUES, repeat=3):
            outcome = reply(used, _named_family({"1": b1, "2": b2, "3": b3}))
            if b1 is Reply.D or b2 is Reply.D or (b1 is b2 and b3 is Reply.D):
                expected = Reply.D
            elif b1 is b2 is b3:
                expected = Reply.T
            else:
                expected = Reply.F
            assert outcome is expected, (b1, b2, b3)


def test_criterion_3_truth_table_compiler():
    with criterion(3, "truth-table compiler, exhaustive to arity 3", 60.0):
        checked = 0
        for arity in range(4):
            for entries in itertools.product((True, False, None), repeat=2**arity):
                fn = PartialBooleanFunction(arity, entries)
                program = compile_truth_table(fn)
                assert len(program) == 3 * 2**arity - 2
                assert program.compiled.acyclic
                assert all(f.kind == "in" for f in program_foci(program))
                assert equivalence_check(program, fn, 0).ok
                checked += 1
        # Every partial Boolean function of arity at most 3.
        assert checked == 3 + 9 + 81 + 6561 == 6654

        rng = random.Random(1003)
        for _ in range(1000):
            entries = tuple(rng.choice((True, False, None)) for _ in range(16))
            fn = PartialBooleanFunction(4, entries)
            program = compile_truth_table(fn)
            assert len(program) == 3 * 2**4 - 2
            assert program.compiled.acyclic
            assert all(f.kind == "in" for f in program_foci(program))
            assert equivalence_check(program, fn, 0).ok


def test_criterion_4_circuit_compiler():
    with criterion(4, "circuit compiler on 100 random circuits", 10.0):
        assert render(compile_circuit(Circuit(1, (Gate(NOT, InputRef(1)),)))) == (
            "+in:1.get; aux:1.set:f; +aux:1.get; !t; !f"
        )
        assert render(compile_circuit(Circuit(2, (Gate(AND, InputRef(1), InputRef(2)),)))) == (
            "-in:1.get; #2; -in:2.get; aux:1.set:f; +aux:1.get; !t; !f"
        )
        assert render(compile_circuit(Circuit(2, (Gate(OR, InputRef(1), InputRef(2)),)))) == (
            "+in:1.get; #3; -in:2.get; aux:1.set:f; +aux:1.get; !t; !f"
        )

        rng = random.Random(1004)
        for _ in range(100):
            inputs = rng.randint(1, 6)
            count = rng.randint(1, 10)
            gates = []
            for number in range(1, count + 1):
                def operand():
                    if number > 1 and rng.random() < 0.5:
                        return GateRef(rng.randint(1, number - 1))
                    return InputRef(rng.randint(1, inputs))

                op = rng.choice((NOT, AND, OR))
                gates.append(Gate(op, operand()) if op == NOT else Gate(op, operand(), operand()))
            circuit = Circuit(inputs, tuple(gates))
            program = compile_circuit(circuit)
            assert program.compiled.acyclic
            assert len(program) <= 4 * count + 3
            table = PartialBooleanFunction.from_callable(
                inputs, lambda bits: eval_circuit(circuit, bits)
            )
            assert equivalence_check(program, table, count).ok


def _sat_outcomes(k: int, encodings) -> None:
    """Run the generator on each encoding and compare with brute force."""
    use_fam, _ = register_family((), k)
    used = use_apply(extract(gen_3sat(k)), use_fam)
    for bits in encodings:
        _, input_fam = register_family(bits)
        expected = Reply.T if brute_sat(decode(bits, k)) else Reply.F
        assert reply(used, input_fam) is expected, bits


def test_criterion_5_sat_generator():
    with criterion(5, "backward-jump satisfiability generator", 120.0):
        for k in range(1, 6):
            assert len(gen_3sat(k)) == 72 * k**3 + 5 * k + 1

        _sat_outcomes(
            1, (tuple(bool(raw >> i & 1) for i in range(8)) for raw in range(256))
        )

        rng = random.Random(1005)
        for k, densities in ((2, (0.02, 0.05, 0.15, 0.5)), (3, (0.002, 0.005, 0.02, 0.1))):
            encodings = []
            for trial in range(200):
                p = densities[trial % len(densities)]
                encodings.append(tuple(rng.random() < p for _ in range(clause_count(k))))
            _sat_outcomes(k, encodings)


def test_criterion_6_length_explosion():
    with criterion(6, "length explosion: table program vs jump program", 60.0):
        table_program = compile_3sat_loopfree(1)
        jump_program = gen_3sat(1)
        assert len(table_program) == 766 == 3 * 2**8 - 2
        assert len(jump_program) == 78

        table_thread = extract(table_program)
        use_fam, _ = register_family((), 1)
        jump_thread = use_apply(extract(jump_program), use_fam)
        for raw in range(256):
            bits = tuple(bool(raw >> i & 1) for i in range(8))
            _, input_fam = register_family(bits)
            assert reply(table_thread, input_fam) is reply(jump_thread, input_fam), raw

        import io
        from contextlib import redirect_stdout

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert cli_main(["lengths", "--max-k", "4"]) == 0
        rows = [line.split("\t") for line in buffer.getvalue().splitlines()[1:]]
        assert [row[0] for row in rows] == ["1", "2", "3", "4"]
        for row in rows:
            k = int(row[0])
            assert int(row[1]) == 3 * 2 ** (8 * k**3) - 2
            assert int(row[2]) == 72 * k**3 + 5 * k + 1


def test_criterion_7_algebraic_laws():
    with criterion(7, "service-family and interaction laws", 30.0):
        rng = random.Random(1007)
        foci = tuple(Focus.named(n) for n in ("p", "q", "r", "s"))
        empty = ServiceFamily()
        for _ in range(1000):
            u, v, w = (random_family(rng, foci) for _ in range(3))
            hidden = {f for f in foci if rng.random() < 0.4}
            f = rng.choice(foci)
            s1, s2 = boolean_register(rng.choice(ALL_VALUES)), boolean_register(rng.choice(ALL_VALUES))
            assert compose(u, empty) == u  # empty family is the unit
            assert compose(u, v) == compose(v, u)  # commutative
            assert compose(compose(u, v), w) == compose(u, compose(v, w))  # associative
            collapsed = compose(ServiceFamily({f: s1}), ServiceFamily({f: s2}))
            assert collapsed.get(f) == REG_D  # name clash collapses
            assert encapsulate(hidden, empty) == empty
            single = ServiceFamily({f: s1})
            if f in hidden:
                assert encapsulate(hidden, single) == empty  # hidden focus removed
            else:
                assert encapsulate(hidden, single) == single  # others untouched
            assert encapsulate(hidden, compose(u, v)) == compose(
                encapsulate(hidden, u), encapsulate(hidden, v)
            )  # distributes over composition

        for _ in range(150):
            fam = random_family(rng)
            inner = random_thread(rng)
            # Terminal threads are fixed points of use; their replies are fixed.
            assert use_apply(leaf(S_PLUS), fam) == leaf(S_PLUS)
            assert use_apply(leaf(S_MINUS), fam) == leaf(S_MINUS)
            assert use_apply(leaf(DEADLOCK), fam) == leaf(DEADLOCK)
            assert reply(leaf(S_PLUS), fam) is Reply.T
            assert reply(leaf(S_MINUS), fam) is Reply.F
            assert reply(leaf(DEADLOCK), fam) is Reply.D
            # Internal steps pass through use and are transparent to reply.
            shifted = tuple(
                PostNode(l.action, l.then_state + 1, l.else_state + 1)
                if isinstance(l, PostNode)
                else l
                for l in inner.states
            )
            tau_prefixed = RegularThread(
                (PostNode(TAU, inner.root + 1, inner.root + 1),) + shifted, 0
            )
            used = use_apply(tau_prefixed, fam)
            assert used.states[used.root].action == TAU
            assert bisimilar(used, use_apply(tau_prefixed, fam))
            assert reply(tau_prefixed, fam) is reply(inner, fam)
            # An action whose focus is outside the family has reply d.
            absent = Focus.named("zz")
            probe = RegularThread((PostNode(Action("get", absent), 1, 2), S_PLUS, S_MINUS), 0)
            assert reply(probe, encapsulate({absent}, fam)) is Reply.D

        for _ in range(100):
            thread = random_thread(rng)
            fam = random_family(rng)
            depth = rng.randrange(21)
            assert project(use_apply(thread, fam), depth) == project(
                use_apply(thread_from_term(project(thread, depth)), fam), depth
            )

        # Sink condition and closure of the register state space, exhaustively.
        from pglb import GET, SET_F, SET_T

        methods = (GET, SET_T, SET_F, "unknown")
        registers = {boolean_register(v) for v in ALL_VALUES}
        for value in ALL_VALUES:
            register = boolean_register(value)
            for method in methods:
                derived = register.derive(method)
                assert derived in registers
                if register.reply(method) is Reply.D:
                    assert derived == REG_D
                    assert all(derived.reply(m) is Reply.D for m in methods)


def test_criterion_8_parse_costs_per_distinct_token():
    program = gen_3sat(5)
    text = render(program)
    with criterion(8, "parse the k=5 decider (9,026 instructions)", 0.030):
        parsed = parse(text)
    assert parsed == program


def test_criterion_9_verify_sweeps_arity_14():
    rng = random.Random(9)
    fn = PartialBooleanFunction(14, tuple(rng.choice((True, False, None)) for _ in range(2**14)))
    program = compile_truth_table(fn)
    with criterion(9, "verify a compiled arity-14 table (16,384 inputs)", 0.3):
        report = equivalence_check(program, fn)
    assert report.ok


def test_criterion_10_table_files_are_read_in_bulk():
    rng = random.Random(10)
    fn = PartialBooleanFunction(14, tuple(rng.choice((True, False, None)) for _ in range(2**14)))
    values = ["u" if entry is None else "tf"[not entry] for entry in fn.entries]
    index_order = "k 14\n" + "".join(
        "".join("ft"[j >> bit & 1] for bit in range(14)) + f" {values[j]}\n" for j in range(2**14)
    )
    for order, text in (("table-index", index_order), ("lexicographic", format_truth_table(fn))):
        with criterion(10, f"read an arity-14 table file in {order} order", 0.015):
            parsed = parse_truth_table(text)
        assert parsed == fn


def _marker_reach(arity: int) -> dict:
    """The inputs, as a mask over table indices, that reach each row other than an input get.

    The program is the table program's text with the bare symbol x<j> as leaf j. One pass in
    the style of :func:`pglb.interaction.reply_sets` follows the input gets through ``landing``
    and stops at any other row, keyed by its action text (None for a deadlock row).
    """
    program = compile_text(_join_leaves([f"x{j}" for j in range(2**arity)]))
    rows, landing, columns = program.rows, program.landing, input_masks(arity)
    reach = [0] * len(rows)
    reach[program.entry()] = (1 << 2**arity) - 1
    stops: dict = {}
    for row, (_, bank, i, method, text, on_t, on_f, _) in enumerate(rows):
        here = reach[row]
        if here and (bank, method) != (BANK_IN, M_GET):
            stops[text] = stops.get(text, 0) | here
        elif here:
            reach[landing[row + on_t]] |= here & columns[i]
            reach[landing[row + on_f]] |= here & ~columns[i]
    return stops


def test_criterion_11_truth_table_compiler_on_every_table():
    # Every leaf is one position, so the program's shape depends on the arity alone. Marker x<j>
    # reached by exactly input j, and no deadlock reached, means that on every table input j's run
    # reaches the slot of entry j: !t replies t, !f replies f and #0 deadlocks (reply d).
    with criterion(11, "truth-table compiler on every table of arity 0-15", 2.0):
        for arity in range(16):
            assert _marker_reach(arity) == {f"x{j}": 1 << j for j in range(2**arity)}, arity
