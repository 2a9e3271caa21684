"""Clause numbering, formula encoding, and the backward-jump generator."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from pglb import (
    BwdJump,
    Circuit,
    ClauseShape,
    CnfFormula,
    Focus,
    Gate,
    InfeasibleArityError,
    InputRef,
    NOT,
    ParseError,
    PartialBooleanFunction,
    RegularThread,
    S_PLUS,
    TERM_F,
    TERM_T,
    brute_sat,
    canonical_clause,
    check_snippet,
    clause_count,
    compute,
    decode,
    encode_cnf,
    encoding_to_text,
    gen_3sat,
    next_snippet,
    parse_dimacs,
    parse_encoding,
    phi,
    phi_inv,
    project,
    render,
    trace,
)
from thelpers import program_foci


def random_formula(rng: random.Random, k: int, clauses: int) -> CnfFormula:
    shapes = frozenset(phi(rng.randint(1, clause_count(k)), k) for _ in range(clauses))
    return CnfFormula(k, shapes)


def test_polarity_patterns_follow_the_eight_row_table():
    expected = {
        1: (True, True, True),
        2: (True, True, False),
        3: (True, False, True),
        4: (True, False, False),
        5: (False, True, True),
        6: (False, True, False),
        7: (False, False, True),
        8: (False, False, False),
    }
    for pattern, signs in expected.items():
        shape = ClauseShape(1, 2, 3, pattern)
        assert tuple(positive for _, positive in shape.literals()) == signs
        assert tuple(v for v, _ in shape.literals()) == (1, 2, 3)


def test_clause_numbering_endpoints():
    for k in (1, 2, 5):
        assert phi(1, k) == ClauseShape(1, 1, 1, 1)
        assert phi(clause_count(k), k) == ClauseShape(k, k, k, 8)


def test_clause_numbering_round_trip():
    for k in (1, 2, 3):
        for index in range(1, clause_count(k) + 1):
            assert phi_inv(phi(index, k), k) == index


def test_clause_numbering_bounds():
    with pytest.raises(ValueError):
        phi(0, 2)
    with pytest.raises(ValueError):
        phi(clause_count(2) + 1, 2)
    with pytest.raises(ValueError):
        phi_inv(ClauseShape(3, 1, 1, 1), 2)


def test_encode_empty_formula():
    assert encode_cnf(CnfFormula(1, frozenset())) == (False,) * 8


def test_encode_single_clause():
    bits = encode_cnf(CnfFormula(1, frozenset({ClauseShape(1, 1, 1, 1)})))
    assert bits[0] is True and not any(bits[1:])


def test_encode_decode_round_trip_exhaustive_for_one_variable():
    for raw in range(256):
        bits = tuple(bool(raw >> i & 1) for i in range(8))
        assert encode_cnf(decode(bits, 1)) == bits


def test_encode_decode_round_trip_random_shapes():
    rng = random.Random(51)
    for k in (2, 3):
        for _ in range(50):
            formula = random_formula(rng, k, rng.randint(0, 6))
            assert decode(encode_cnf(formula), k) == formula


formulas = st.integers(1, 4).flatmap(
    lambda k: st.frozensets(
        st.builds(ClauseShape, st.integers(1, k), st.integers(1, k), st.integers(1, k), st.integers(1, 8)),
        max_size=40,
    ).map(lambda clauses: CnfFormula(k, clauses))
)


@settings(max_examples=300, deadline=None)
@given(formulas)
def test_decode_inverts_encode(formula):
    assert decode(encode_cnf(formula), formula.k) == formula


def test_encoding_text_round_trip():
    bits = (True, False, False, True)
    assert encoding_to_text(bits) == "tfft"
    assert parse_encoding("tfft") == bits
    with pytest.raises(ParseError):
        parse_encoding("tfx")


def test_canonical_clause_sorts_literals():
    assert canonical_clause([(1, True), (1, False), (1, True)]) == ClauseShape(1, 1, 1, 2)
    assert canonical_clause([(3, False), (1, True), (2, True)]) == ClauseShape(1, 2, 3, 2)
    assert canonical_clause([(2, False), (2, False), (2, False)]) == ClauseShape(2, 2, 2, 8)


def test_dimacs_parsing():
    formula = parse_dimacs("c a comment\np cnf 2 2\n1 -2 1 0\n-1 2 2 0\n")
    assert formula.k == 2
    assert formula.clauses == frozenset(
        {ClauseShape(1, 1, 2, 2), ClauseShape(1, 2, 2, 5)}
    )


def test_dimacs_rejects_short_clauses_and_bad_counts():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 -2 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 2\n1 1 1 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\n1 1 2 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("1 1 1 0\n")
    # int() would take each of these fields; DIMACS numbers are ASCII digits, a literal's after one '-'.
    for header in ("p cnf 1_0 1", "p cnf \uff13 1", "p cnf -3 1", "p cnf 1 +1"):
        with pytest.raises(ParseError, match="^1: bad (variable|clause) count "):
            parse_dimacs(f"{header}\n1 1 1 0\n")
    for literal in ("\u0663", "+1", "1_0", "-", "--1"):
        with pytest.raises(ParseError, match="^3: bad literal "):
            parse_dimacs(f"p cnf 1 2\n1 1 1 0\n1 1 {literal} 0\n")
    with pytest.raises(ParseError, match="^1: variable count has too many digits$"):
        parse_dimacs(f"p cnf {'9' * 5000} 1\n1 1 1 0\n")
    with pytest.raises(ParseError, match="^2: literal has too many digits$"):
        parse_dimacs(f"p cnf 1 1\n-{'1' * 5000} 1 1 0\n")
    # Clause errors carry the line of the 0 that ends the clause.
    with pytest.raises(ParseError, match="^4: variable index exceeds declared count 1$"):
        parse_dimacs("p cnf 1 2\n1 1 1 0\n1 1\n2 0\n")
    with pytest.raises(ParseError, match="^3: bad literal "):  # only \n ends a line
        parse_dimacs("p cnf 1 2\n1 1\x1c1 0\n1 1 x 0\n")
    assert parse_dimacs("p cnf 01 1\n-1 -01 1 0\n") == CnfFormula(1, frozenset({ClauseShape(1, 1, 1, 4)}))


# Library values refused at construction or call (sat3, synthesis, threads, isa), one row per check.
# Each message is matched whole, and each call, with its check deleted, ends without that message.
REFUSALS = [
    (lambda: ClauseShape(0, 1, 1, 1), "variable indices start at 1"),
    (lambda: ClauseShape(1, 1, 1, 9), "polarity pattern must be in 1..8"),
    (lambda: CnfFormula(-1, frozenset()), "variable count must be >= 0"),
    (lambda: CnfFormula(1, frozenset({ClauseShape(2, 1, 1, 1)})),
     "clause ClauseShape(l=2, m=1, n=1, pattern=1) exceeds variable count 1"),
    (lambda: decode((True,), 1), "encoding must have length 8, got 1"),
    (lambda: canonical_clause([(1, True), (2, False)]), "a clause consists of exactly 3 literals"),
    (lambda: next_snippet(0), "k must be >= 1"),
    (lambda: PartialBooleanFunction(-1, ()), "arity must be >= 0"),
    (lambda: PartialBooleanFunction(1, (True,)), "table needs 2 entries, got 1"),
    (lambda: PartialBooleanFunction(2, (True,) * 4).value_at((True,)), "expected 2 inputs, got 1"),
    (lambda: Gate("XOR", InputRef(1), InputRef(1)), "unknown gate op 'XOR'"),
    (lambda: Circuit(-1, (Gate(NOT, InputRef(1)),)), "negative input count"),
    (lambda: RegularThread((), 0), "a regular thread needs at least one state"),
    (lambda: project(RegularThread((S_PLUS,), 0), -1), "depth must be >= 0"),
    (lambda: Focus("reg", index=1), "unknown focus kind 'reg'"),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_library_refusals_name_their_rule(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_check_snippet_shapes():
    all_positive = check_snippet(ClauseShape(2, 3, 1, 1))
    assert render(all_positive) == "+aux:2.get; #2; +aux:3.get; #2; +aux:1.get"
    all_negative = check_snippet(ClauseShape(2, 3, 1, 8))
    assert render(all_negative) == "-aux:2.get; #2; -aux:3.get; #2; -aux:1.get"
    for pattern in range(1, 9):
        snippet = check_snippet(ClauseShape(1, 2, 3, pattern))
        assert len(snippet) == 5
        assert all(f.kind == "aux" for f in program_foci(snippet))


def test_next_snippet_shape():
    assert render(next_snippet(1)) == (
        "-aux:1.get; #3; aux:1.set:f; #3; aux:1.set:t; !f"
    )
    two = next_snippet(2)
    assert len(two) == 11
    assert render(two).startswith("-aux:1.get; #3; aux:1.set:f; #5; aux:1.set:t; ")
    assert render(two).endswith("-aux:2.get; #3; aux:2.set:f; #3; aux:2.set:t; !f")
    for k in (1, 2, 3, 7):
        assert len(next_snippet(k)) == 5 * k + 1


def test_trace_shows_both_assignments_for_one_variable_contradiction():
    contradiction = CnfFormula(1, frozenset({ClauseShape(1, 1, 1, 1), ClauseShape(1, 1, 1, 8)}))
    steps = trace(gen_3sat(1), list(encode_cnf(contradiction)), 1)
    passes = sum(1 for s in steps if s.kind == "action" and s.position == 1)
    assert passes == 2
    assert steps[-1].kind == "terminate" and steps[-1].reply.value == "f"


def test_generator_enumerates_all_assignments(monkeypatch):
    # Both polarities of v1: unsatisfiable whatever the assignment, so the
    # generator must run through all four assignments over two variables.
    k = 2
    clauses = frozenset({ClauseShape(1, 1, 1, 1), ClauseShape(1, 1, 1, 8)})
    bits = list(encode_cnf(CnfFormula(k, clauses)))
    monkeypatch.setattr("pglb.interaction.TRACE_LIMIT", 100_000)
    steps = trace(gen_3sat(k), bits, k)
    assert steps[-1].kind == "terminate" and steps[-1].reply.value == "f"
    passes = sum(1 for s in steps if s.kind == "action" and s.position == 1)
    assert passes == 2**k
    # The first register read of each pass sees the current assignment's v1.
    first_reads = []
    expect_read = False
    for step in steps:
        if step.kind != "action":
            continue
        if step.position == 1:
            expect_read = True
        elif expect_read and step.action == "aux:1.get":
            first_reads.append(step.reply.value)
            expect_read = False
    assert first_reads == ["t", "f", "t", "f"]
    # The advancing section behaves as a binary counter with aux:1 fastest:
    # flip aux:1, and on wrap-around reset it and advance aux:2.
    set_actions = [s.action for s in steps if s.kind == "action" and "set" in s.action]
    assert set_actions == [
        "aux:1.set:f",
        "aux:1.set:t",
        "aux:2.set:f",
        "aux:1.set:f",
        "aux:1.set:t",
        "aux:2.set:t",
    ]


def test_generator_length_formula():
    for k in range(1, 6):
        assert len(gen_3sat(k)) == 72 * k**3 + 5 * k + 1


def test_generator_structure():
    for k in (1, 2, 3):
        prog = gen_3sat(k)
        backward = [u for u in prog if isinstance(u, BwdJump)]
        assert len(backward) == 1
        assert prog.instructions[-1] == BwdJump(72 * k**3 + 5 * k)
        # The jump lands back on the first instruction.
        assert len(prog) - backward[0].offset == 1
        # Checking section: 9 instructions per clause except 8 for the last.
        check_section = 9 * (clause_count(k) - 1) + 8
        assert check_section == 72 * k**3 - 1
        assert prog.instructions[check_section - 1] == TERM_T
        assert prog.instructions[check_section + 5 * k] == TERM_F
        used = program_foci(prog)
        assert {f for f in used if f.kind == "in"} == {
            Focus.input(i) for i in range(1, clause_count(k) + 1)
        }
        assert {f for f in used if f.kind == "aux"} == {
            Focus.aux(i) for i in range(1, k + 1)
        }


def test_generator_rejects_zero_variables():
    with pytest.raises(ValueError):
        gen_3sat(0)


def test_brute_sat_basics():
    assert brute_sat(CnfFormula(1, frozenset()))
    assert not brute_sat(
        CnfFormula(1, frozenset({ClauseShape(1, 1, 1, 1), ClauseShape(1, 1, 1, 8)}))
    )
    assert brute_sat(CnfFormula(2, frozenset({ClauseShape(1, 2, 1, 4)})))
    with pytest.raises(InfeasibleArityError):
        brute_sat(CnfFormula(21, frozenset()))


def test_generator_agrees_with_brute_force_spot_checks():
    rng = random.Random(52)
    prog = gen_3sat(1)
    for _ in range(25):
        formula = random_formula(rng, 1, rng.randint(0, 5))
        expected = "t" if brute_sat(formula) else "f"
        assert compute(prog, list(encode_cnf(formula)), 1).value == expected


def test_satisfiable_and_unsatisfiable_single_variable_instances():
    prog = gen_3sat(1)
    only_positive = CnfFormula(1, frozenset({ClauseShape(1, 1, 1, 1)}))
    assert compute(prog, list(encode_cnf(only_positive)), 1).value == "t"
    contradiction = CnfFormula(
        1, frozenset({ClauseShape(1, 1, 1, 1), ClauseShape(1, 1, 1, 8)})
    )
    assert compute(prog, list(encode_cnf(contradiction)), 1).value == "f"
    assert compute(prog, [False] * 8, 1).value == "t"  # empty formula


def test_length_definitions_match_the_generators():
    from pglb import PartialBooleanFunction, compile_truth_table, gen_3sat_length, truth_table_length

    for k in (1, 2, 3):
        assert gen_3sat_length(k) == len(gen_3sat(k))
    for arity in range(5):
        table = PartialBooleanFunction(arity, (None,) * 2**arity)
        assert truth_table_length(arity) == len(compile_truth_table(table))
