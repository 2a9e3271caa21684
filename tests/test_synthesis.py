"""Truth-table and circuit compilers, their size bounds and file formats."""

import itertools
import random

import pytest

from pglb import (
    AND,
    Circuit,
    Focus,
    FwdJump,
    Gate,
    GateRef,
    InfeasibleArityError,
    InputRef,
    MalformedCircuitError,
    NOT,
    OR,
    ParseError,
    PartialBooleanFunction,
    compile_3sat_loopfree,
    compile_circuit,
    compile_truth_table,
    compute,
    equivalence_check,
    eval_circuit,
    format_netlist,
    format_truth_table,
    gen_3sat,
    parse_netlist,
    parse_truth_table,
    render,
)
from pglb.synthesis import input_index, input_vector
from thelpers import program_foci, random_circuit


def all_tables(arity: int):
    for entries in itertools.product((True, False, None), repeat=2**arity):
        yield PartialBooleanFunction(arity, entries)


def test_input_index_is_the_inverse_of_input_vector():
    for arity in range(6):
        assert [input_index(input_vector(j, arity)) for j in range(1 << arity)] == list(range(1 << arity))
    rng = random.Random(7)
    for arity in (64, 512, 5000):  # int() bounds decimal digits, not binary ones: 5,000 bits read as one numeral
        j = rng.getrandbits(arity)
        assert input_index(input_vector(j, arity)) == j
    assert input_index([1, 0, 1, 1]) == input_index([True, False, True, True]) == 0b1101


def test_nullary_tables_compile_to_one_instruction():
    assert render(compile_truth_table(PartialBooleanFunction(0, (True,)))) == "!t"
    assert render(compile_truth_table(PartialBooleanFunction(0, (False,)))) == "!f"
    assert render(compile_truth_table(PartialBooleanFunction(0, (None,)))) == "#0"


def test_identity_table_compiles_to_expected_program():
    identity = PartialBooleanFunction.from_callable(1, lambda bs: bs[0])
    prog = compile_truth_table(identity)
    assert render(prog) == "-in:1.get; #2; !t; !f"
    assert len(prog) == 4
    assert compute(prog, [True], 0).value == "t"
    assert compute(prog, [False], 0).value == "f"


def test_truth_table_compiler_exhaustive_to_arity_two():
    for arity in (0, 1, 2):
        for fn in all_tables(arity):
            prog = compile_truth_table(fn)
            assert len(prog) == 3 * 2**arity - 2
            assert prog.compiled.acyclic
            assert all(f.kind == "in" for f in program_foci(prog))
            assert equivalence_check(prog, fn, 0).ok


def test_truth_table_compiler_sampled_higher_arities():
    rng = random.Random(41)
    for arity in (3, 4):
        for _ in range(40):
            entries = tuple(rng.choice((True, False, None)) for _ in range(2**arity))
            fn = PartialBooleanFunction(arity, entries)
            prog = compile_truth_table(fn)
            assert len(prog) == 3 * 2**arity - 2
            assert prog.compiled.acyclic
            assert equivalence_check(prog, fn, 0).ok


def test_branch_jump_lands_on_second_restriction():
    rng = random.Random(42)
    for arity in (1, 2, 3, 5):
        entries = tuple(rng.choice((True, False, None)) for _ in range(2**arity))
        prog = compile_truth_table(PartialBooleanFunction(arity, entries))
        jump = prog.instructions[1]
        assert isinstance(jump, FwdJump)
        landing = 2 + jump.offset
        assert landing == 3 * 2 ** (arity - 1) + 1
        # Positions 3 .. landing-1 hold the first restriction, which has
        # length 3*2^(arity-1) - 2.
        assert landing - 3 == 3 * 2 ** (arity - 1) - 2


def test_single_gate_programs():
    and_gate = Circuit(2, (Gate(AND, InputRef(1), InputRef(2)),))
    assert render(compile_circuit(and_gate)) == (
        "-in:1.get; #2; -in:2.get; aux:1.set:f; +aux:1.get; !t; !f"
    )
    not_gate = Circuit(1, (Gate(NOT, InputRef(1)),))
    assert render(compile_circuit(not_gate)) == "+in:1.get; aux:1.set:f; +aux:1.get; !t; !f"
    or_gate = Circuit(2, (Gate(OR, InputRef(1), InputRef(2)),))
    assert render(compile_circuit(or_gate)) == (
        "+in:1.get; #3; -in:2.get; aux:1.set:f; +aux:1.get; !t; !f"
    )


def test_not_gate_computes_negation_with_one_aux_register():
    prog = compile_circuit(Circuit(1, (Gate(NOT, InputRef(1)),)))
    assert compute(prog, [True], 1).value == "f"
    assert compute(prog, [False], 1).value == "t"


def test_circuit_compiler_against_direct_evaluation():
    rng = random.Random(43)
    for _ in range(40):
        circuit = random_circuit(rng)
        prog = compile_circuit(circuit)
        n = len(circuit.gates)
        assert prog.compiled.acyclic
        assert len(prog) <= 4 * n + 3
        aux_foci = {f for f in program_foci(prog) if f.kind == "aux"}
        assert aux_foci == {Focus.aux(j) for j in range(1, n + 1)}
        table = PartialBooleanFunction.from_callable(
            circuit.input_count, lambda bits: eval_circuit(circuit, bits)
        )
        assert equivalence_check(prog, table, n).ok


def test_circuit_validation():
    with pytest.raises(MalformedCircuitError):
        Circuit(1, ())
    with pytest.raises(MalformedCircuitError):
        Circuit(1, (Gate(AND, InputRef(1), GateRef(1)),))  # self reference
    with pytest.raises(MalformedCircuitError):
        Circuit(1, (Gate(NOT, GateRef(2)),))  # forward reference
    with pytest.raises(MalformedCircuitError):
        Circuit(1, (Gate(NOT, InputRef(2)),))  # missing input
    with pytest.raises(MalformedCircuitError):
        Gate(AND, InputRef(1))  # wrong operand count


def test_operand_indices_must_be_ints():
    # A bool is an int to Python, but its text (in:True.get) is no program.
    for operand in (InputRef(True), GateRef(True), InputRef(1.0), InputRef("1")):
        with pytest.raises(MalformedCircuitError, match="operand index must be an int"):
            Circuit(2, (Gate(NOT, InputRef(1)), Gate(NOT, operand)))


def test_loopfree_sat_table_has_exact_length():
    prog = compile_3sat_loopfree(1)
    assert len(prog) == 3 * 2**8 - 2 == 766
    assert prog.compiled.acyclic


def test_loopfree_sat_agrees_with_jump_generator():
    table_prog = compile_3sat_loopfree(1)
    jump_prog = gen_3sat(1)
    for index in range(0, 256, 7):  # sampled here; the full sweep is in acceptance
        bits = [bool(index >> i & 1) for i in range(8)]
        assert compute(table_prog, bits, 0) is compute(jump_prog, bits, 1)


def test_loopfree_sat_guards_against_table_explosion():
    with pytest.raises(InfeasibleArityError):
        compile_3sat_loopfree(2)
    with pytest.raises(ValueError):
        compile_3sat_loopfree(0)


def test_truth_table_file_round_trip():
    rng = random.Random(44)
    for arity in (0, 1, 2, 3):
        entries = tuple(rng.choice((True, False, None)) for _ in range(2**arity))
        fn = PartialBooleanFunction(arity, entries)
        assert parse_truth_table(format_truth_table(fn)) == fn


def test_truth_table_file_errors():
    with pytest.raises(ParseError):
        parse_truth_table("")
    with pytest.raises(ParseError):
        parse_truth_table("k 1\nt t\n")  # missing row
    with pytest.raises(ParseError):
        parse_truth_table("k 1\nt t\nt f\n")  # duplicate row
    with pytest.raises(ParseError):
        parse_truth_table("k 1\nt x\nf t\n")  # bad value


def test_netlist_round_trip():
    rng = random.Random(45)
    for _ in range(20):
        circuit = random_circuit(rng)
        assert parse_netlist(format_netlist(circuit)) == circuit


def test_a_parsed_netlist_checks_each_gate_once(monkeypatch):
    import pglb.synthesis as synthesis

    check, checked = synthesis._check_operands, []

    def counted(gate, number, *rest):
        checked.append(number)
        check(gate, number, *rest)

    monkeypatch.setattr(synthesis, "_check_operands", counted)
    circuit = parse_netlist("inputs 2\ng1 = NOT x1\n\ng2 = AND g1 x2\ng3 = OR g2 x1\n")
    assert checked == [1, 2, 3]
    assert circuit == Circuit(2, circuit.gates)  # the constructor, which checks them all again, agrees
    assert checked == [1, 2, 3, 1, 2, 3]


def test_netlist_errors():
    with pytest.raises(ParseError):
        parse_netlist("inputs 2\n")
    with pytest.raises(ParseError):
        parse_netlist("inputs 2\ng2 = AND x1 x2\n")  # gates must be numbered in order
    with pytest.raises(ParseError):
        parse_netlist("inputs 2\ng1 = NAND x1 x2\n")
    with pytest.raises(ParseError):
        parse_netlist("inputs 1\ng1 = NOT g2\n")  # forward reference
    # Digits outside ASCII pass isdigit() but not int(): still a parse error with its line.
    with pytest.raises(ParseError, match="^1: "):
        parse_netlist("inputs \u00b2\ng1 = NOT x1\n")
    with pytest.raises(ParseError, match="^2: "):
        parse_netlist("inputs 1\ng1 = NOT x\u00b2\n")
    # More digits than int() converts by default: a parse error with its line.
    with pytest.raises(ParseError, match="^1: input count has too many digits$"):
        parse_netlist(f"inputs {'9' * 5000}\ng1 = NOT x1\n")
    with pytest.raises(ParseError, match="^2: operand has too many digits$"):
        parse_netlist(f"inputs 1\ng1 = NOT x{'1' * 5000}\n")
    # An operand error names the line of its gate.
    for text, message in (
        ("inputs 1\ng1 = NOT x1\ng2 = AND g1 g3\n", "3: gate 2 references gate 3 (forward or self)"),
        ("inputs 2\ng1 = NOT x0\n", "2: gate 1 reads input 0"),
        ("inputs 2\ng1 = NOT x1\n\ng2 = OR g1 x3\n", "4: gate 2 reads input 3"),
    ):
        with pytest.raises(ParseError) as caught:
            parse_netlist(text)
        assert str(caught.value) == message
