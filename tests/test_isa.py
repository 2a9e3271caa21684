"""Parsing, rendering and static queries on instruction sequences."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pglb
from pglb import (
    Action,
    Basic,
    BwdJump,
    Focus,
    FwdJump,
    GET,
    InstructionSequence,
    NegTest,
    ParseError,
    PosTest,
    PostNode,
    RegularThread,
    S_PLUS,
    TAU,
    TERM_F,
    TERM_T,
    parse,
    render,
)
from pglb.extraction import compile_text
from pglb.isa import render_instruction
from pglb.sat3 import gen_3sat_text
from thelpers import program_foci, random_sequence

EXAMPLE_LOOP = r"a; +b; #2; #3; c; \#4; +d; !t; !f"


def test_parse_single_termination():
    assert parse("!t") == InstructionSequence((TERM_T,))


def test_parse_nine_instruction_loop_program():
    seq = parse(EXAMPLE_LOOP)
    assert seq.instructions == (
        Basic(Action("a")),
        PosTest(Action("b")),
        FwdJump(2),
        FwdJump(3),
        Basic(Action("c")),
        BwdJump(4),
        PosTest(Action("d")),
        TERM_T,
        TERM_F,
    )


def test_parse_focused_actions():
    seq = parse("+in:1.get; #2; !t; !f")
    assert seq.instructions == (
        PosTest(Action(GET, Focus.input(1))),
        FwdJump(2),
        TERM_T,
        TERM_F,
    )


def test_parse_named_and_aux_foci():
    seq = parse("0.set:f; aux:0.get; -2.get")
    first, second, third = seq.instructions
    assert first == Basic(Action("set:f", Focus.named("0")))
    assert second == Basic(Action(GET, Focus.aux(0)))
    assert third == NegTest(Action(GET, Focus.named("2")))


def test_parse_newlines_and_comments():
    text = "a // first action\n+b; #2 // skip\n!t\n!f"
    assert render(parse(text)) == "a; +b; #2; !t; !f"
    # Only \n ends a line: the other characters str.splitlines breaks at stay inside the comment.
    for char in "\v\f\x1c\x1d\x1e\x85\u2028\u2029":
        assert render(parse(f"+in:1.get; // note{char}!f\n!t; !f")) == "+in:1.get; !t; !f"


def test_render_examples():
    assert render(InstructionSequence((TERM_T,))) == "!t"
    assert render(parse(EXAMPLE_LOOP)) == EXAMPLE_LOOP
    assert render(parse(r"a; \#1")) == r"a; \#1"
    assert str(parse(EXAMPLE_LOOP)) == EXAMPLE_LOOP
    with pytest.raises(TypeError, match="^not an instruction: "):
        render_instruction(Action("a"))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError, match="1:4"):
        parse("a; ?b")
    with pytest.raises(ParseError, match="2:1"):
        parse("a\n#x")
    with pytest.raises(ParseError, match="^2:1: "):
        parse("a;\fb;\nbad token")
    with pytest.raises(ParseError, match="^2:4: "):
        parse("a; b\na; ?; ?\n?; a")  # a repeated bad token fails where it first appears
    with pytest.raises(ParseError, match="^1:3001: "):
        parse("a; " * 1000 + "#x; a")
    with pytest.raises(ParseError, match="empty"):
        parse("   // nothing here\n")
    with pytest.raises(ParseError, match="reserved"):
        parse("a; tau; !t")
    for text in ("a; +#1", r"a; -\#2", "a; # 1"):  # a jump takes no sign and no space
        with pytest.raises(ParseError, match="^1:4: "):
            parse(text)
    # One token of each kind of refusal, with its whole message.
    for token, message in (
        ("#01", "bad jump length '01'"),
        (r"\#x", "bad jump length 'x'"),
        ("+in:x.get", "bad in focus index 'x'"),
        ("aux:-1.set:t", "bad aux focus index '-1'"),
        ("-in:0.get", "input focus index must be >= 1"),
        ("a:b.get", "bad focus 'a:b'"),
        ("+aux:1.get.t", "bad method 'get.t'"),
        ("+ a?", "bad action 'a?'"),
    ):
        with pytest.raises(ParseError) as caught:
            parse(f"!t\n  {token}; !f")
        assert str(caught.value) == f"2:3: {message}"
    # A number is refused where it is written once it has more digits than int() converts by default.
    for head, tail in (("#", ""), ("\\#", ""), ("+in:", ".get"), ("aux:", ".set:f")):
        with pytest.raises(ParseError, match="^1:4: .* has more than 4300 digits$"):
            parse(f"a; {head}{'9' * 4301}{tail}")
        assert len(parse(f"a; {head}{'9' * 4300}{tail}")) == 2


def test_a_token_is_one_shared_instruction_however_it_is_spaced():
    first, *rest = parse("a; a ;\ta;  a").instructions
    assert first == Basic(Action("a")) and len(rest) == 3
    assert all(u is first for u in rest)
    across_lines = parse("+in:1.get;\n  +in:1.get\t").instructions
    assert across_lines[0] is across_lines[1]


def test_blank_segments_are_dropped():
    assert parse("a;;  ; b;") == parse("a; b")
    assert parse(";\t;a; ;\n ; \n;b ;;") == parse("a; b")


def test_a_bad_token_is_reported_where_first_written_however_it_is_spaced():
    with pytest.raises(ParseError, match="^1:5: "):
        parse("a;  #x ; #x;#x\n#x")
    with pytest.raises(ParseError, match="^2:7: "):
        parse("a; #1\na; b;\t#x;#x; #x ")
    with pytest.raises(ParseError, match="^1:3: "):
        parse("a;?; ? ;\t?")


def test_a_bad_token_after_repeated_segments_is_reported_at_its_line_and_column():
    # Every segment before it on its line is one already read, spaced alike or not.
    line = "+in:1.get; #2; +in:1.get;  #2; a ; a; +in:1.get; "
    for read in (compile_text, parse):
        with pytest.raises(ParseError) as caught:
            read(f"!t; #2\n{line}#x; #2; #x")
        assert (caught.value.line, caught.value.column) == (2, len(line) + 1)


def test_a_bad_token_after_a_long_valid_line_is_reported_on_its_line():
    text = gen_3sat_text(2) + "\n!t; +in:1.get; ?x; !f\n"
    for read in (compile_text, parse):
        with pytest.raises(ParseError) as caught:
            read(text)
        assert str(caught.value) == "2:16: bad action '?x'"


def test_parse_rejects_bad_foci():
    with pytest.raises(ParseError):
        parse("in:0.get")
    with pytest.raises(ParseError):
        parse("in:x.get")
    with pytest.raises(ParseError):
        parse("p.q.r")  # method may not contain a dot


def test_length():
    assert len(parse(EXAMPLE_LOOP)) == 9
    assert len(InstructionSequence((TERM_T,))) == 1


def test_is_loop_free():
    assert not parse(r"a; \#1").compiled.acyclic
    assert parse("!t").compiled.acyclic
    assert parse("a; #2; +b; !f").compiled.acyclic


def test_foci_used():
    assert program_foci(parse("!t")) == set()
    eq = parse(r"+1.get; #2; #4; +2.get; !t; !f; -2.get; \#3; \#3")
    assert program_foci(eq) == {Focus.named("1"), Focus.named("2")}
    mixed = parse("in:2.get; -aux:1.set:t; b")
    assert program_foci(mixed) == {Focus.input(2), Focus.aux(1)}


def _exhaustive_alphabet():
    actions = [Action(name) for name in ("a", "b", "c")]
    forms = []
    for action in actions:
        forms += [Basic(action), PosTest(action), NegTest(action)]
    for offset in range(7):
        forms += [FwdJump(offset), BwdJump(offset)]
    forms += [TERM_T, TERM_F]
    return forms


def test_round_trip_exhaustive_short_sequences():
    alphabet = _exhaustive_alphabet()
    for size in (1, 2, 3):
        for chosen in itertools.product(alphabet, repeat=size):
            seq = InstructionSequence(chosen)
            assert parse(render(seq)) == seq


def test_round_trip_random_longer_sequences():
    rng = random.Random(202)
    actions = (
        Action("a"),
        Action(GET, Focus.input(3)),
        Action("set:f", Focus.aux(0)),
        Action(GET, Focus.named("x_1")),
    )
    for _ in range(1000):
        seq = random_sequence(rng, max_len=6, actions=actions)
        assert parse(render(seq)) == seq


def test_render_parse_idempotent_on_messy_input():
    messy = "  a ;\n\n +b;#2 // c\n \\#1 ; !t;"
    once = render(parse(messy))
    assert render(parse(once)) == once


def test_sequences_must_be_nonempty():
    with pytest.raises(ValueError):
        InstructionSequence(())


def _parse_refusal(text):
    """The message of the ParseError ``parse`` raises on ``text``, without its position."""
    with pytest.raises(ParseError) as caught:
        parse(text)
    return str(caught.value).split(": ", 1)[1]


def test_action_instructions_refuse_tau_as_parse_does():
    message = _parse_refusal("tau")
    for instruction in (Basic, PosTest, NegTest):
        for action in (TAU, Action("tau")):
            with pytest.raises(ValueError) as caught:
                instruction(action)
            assert str(caught.value) == message
    # tau is still an action: the use operator's internal step, which threads carry.
    assert Action("tau") == TAU
    assert RegularThread((PostNode(TAU, 1, 1), S_PLUS), 0).states[0].action == TAU
    assert Basic(Action("tau", Focus.named("x"))) == parse("x.tau").instructions[0]


def test_constructors_refuse_numbers_parse_refuses():
    # 10**4300 has 4,301 digits, more than int() and str() convert by default.
    for build, head, tail in (
        (FwdJump, "#", ""), (BwdJump, "\\#", ""), (Focus.input, "+in:", ".get"), (Focus.aux, "aux:", ".get")
    ):
        message = _parse_refusal(f"{head}1{'0' * 4300}{tail}")
        with pytest.raises(ValueError) as caught:
            build(10**4300)
        assert str(caught.value) == message
        build(10**4300 - 1)  # 4,300 digits are taken
    with pytest.raises(ValueError):
        Basic(Action(GET, Focus.input(10**4300)))


def test_constructors_refuse_bools():
    # bool is an int subclass, but in:True.get and #True are not program text.
    for build in (FwdJump, BwdJump, Focus.input, Focus.aux):
        for flag in (True, False):
            with pytest.raises(ValueError, match="not (True|False)$"):
                build(flag)


def test_constructors_take_any_number_when_the_interpreter_takes_any():
    env = dict(os.environ, PYTHONPATH=str(Path(pglb.__file__).parents[1]), PYTHONINTMAXSTRDIGITS="0")
    code = (
        "from pglb import *; n = 10**5000; "
        "s = InstructionSequence((FwdJump(n), Basic(Action('get', Focus.aux(n))), TERM_T)); "
        "assert parse(render(s)) == s"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20)
    assert done.returncode == 0, done.stderr
