"""Properties of the text layers: program text, truth-table files and the table compiler.

``parse`` and ``render`` round-trip, the one pass from text to the compiled
form equals the compile of the sequence the text spells, parse errors point
at the first occurrence of a bad token, table files round-trip, the table reader equals
its line-at-a-time loop on well-formed and malformed files alike, and the
table compiler equals its recursive definition (kept in ``thelpers`` as the
reference), and the table text it parses is canonical and computes its table.
"""

import re
import time

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
    ParseError,
    PartialBooleanFunction,
    PosTest,
    TERM_F,
    TERM_T,
    compile_truth_table,
    equivalence_check,
    format_truth_table,
    parse,
    parse_truth_table,
    render,
)
from pglb.cli import main
from pglb.extraction import BANK_AUX, _token_head, compile_text
from pglb.isa import MAX_DIGITS, render_instruction
from pglb.synthesis import _parse_table_lines, truth_table_text
from thelpers import reference_compile_truth_table

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)

identifiers = st.from_regex(r"[A-Za-z0-9_]{1,4}", fullmatch=True)
methods = st.from_regex(r"[A-Za-z0-9_]{1,3}(:[A-Za-z0-9_]{1,3}){0,2}", fullmatch=True)
foci = st.one_of(
    st.integers(1, 12).map(Focus.input),
    st.integers(0, 12).map(Focus.aux),
    identifiers.map(Focus.named),
)
actions = st.one_of(
    identifiers.filter(lambda name: name != "tau").map(Action),
    st.builds(Action, methods, foci),
)
instructions = st.one_of(
    st.builds(Basic, actions),
    st.builds(PosTest, actions),
    st.builds(NegTest, actions),
    st.builds(FwdJump, st.integers(0, 20)),
    st.builds(BwdJump, st.integers(0, 20)),
    st.sampled_from((TERM_T, TERM_F)),
)
# Few distinct instructions, so most tokens repeat.
sequences = st.lists(instructions, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)
).map(lambda body: InstructionSequence(tuple(body)))


@PROPERTY_SETTINGS
@given(sequences)
def test_parse_inverts_render(sequence):
    assert parse(render(sequence)) == sequence


# Numbers on both sides of the bound on digits (if any), booleans, and short names over
# characters an identifier may and may not hold, tau among them.
_BOUND = max(MAX_DIGITS, 20)
numbers = st.one_of(
    st.integers(-2, 30),
    st.booleans(),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)).map(lambda pair: 10 ** (_BOUND + pair[0]) + pair[1]),
)
names = st.one_of(st.sampled_from(("tau", "get", "set:t", "in", "aux", "x_1")), st.text("tau1_:. é", max_size=4))
focus_fields = st.tuples(st.sampled_from(("in", "aux", "named")), st.none() | numbers, st.none() | names)


@st.composite
def constructed_instructions(draw):
    """An action instruction or jump the constructors build from int, bool and str arguments; None if they refuse."""
    cls = draw(st.sampled_from((Basic, PosTest, NegTest, FwdJump, BwdJump)))
    jump = cls in (FwdJump, BwdJump)
    number, name, fields = (draw(numbers), None, None) if jump else (None, draw(names), draw(st.none() | focus_fields))
    try:
        return cls(number) if jump else cls(Action(name, fields and Focus(*fields)))
    except ValueError:
        return None


@PROPERTY_SETTINGS
@given(constructed_instructions())
def test_an_instruction_the_constructors_accept_parses_back_from_its_text(instruction):
    if instruction is not None:
        sequence = InstructionSequence((instruction, TERM_T))
        assert parse(render(sequence)) == sequence


GOOD_TOKENS = ("a", "+in:1.get", "#2", "!t", r"\#1", "- aux:0.set:f")
BAD_TOKENS = ("?", "#x", "in:0.get", "tau", "+", "a.b.c", "+#1", r"-\#2", "# 1")
# Comments end a line; the bad tokens inside them must never be reported.
COMMENTS = ("", "// ?", " //tau; #x", "//")


@PROPERTY_SETTINGS
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(GOOD_TOKENS + BAD_TOKENS), min_size=0, max_size=6),
            st.sampled_from(COMMENTS),
        ),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from(("; ", " ;", ";", " ;  ")),
)
def test_a_bad_token_is_reported_at_its_first_position(lines, separator):
    text = "\n".join(separator.join(tokens) + comment for tokens, comment in lines)
    first_bad = None
    for lineno, (tokens, _) in enumerate(lines, 1):
        column = 1
        for token in tokens:
            if token in BAD_TOKENS and first_bad is None:
                first_bad = (lineno, column)
            column += len(token) + len(separator)
    count = sum(len(tokens) for tokens, _ in lines)
    if first_bad is None and count:
        assert len(parse(text)) == count
        return
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert (caught.value.line, caught.value.column) == (first_bad or (None, None))


# Pieces that join into well-formed and malformed tokens of every instruction class.
TOKEN_PIECES = (
    "+", "-", " ", "\t", "#", "\\", "!", "t", "f", "x", "in", "aux", ":", "0", "1", "12", "01", ".", "get", "set", "tau",
    "a_b",
)


@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.lists(st.sampled_from(TOKEN_PIECES), min_size=1, max_size=6)
        .map(lambda pieces: "".join(pieces).strip())
        .filter(bool),
        # Well-formed tokens of every class and focus kind, which the pieces above seldom join into.
        instructions.map(render_instruction),
    )
)
def test_a_token_matched_by_its_pattern_parses_alike(token):
    head = _token_head(token)
    if head is None:
        # The one pattern accepts every well-formed token: what it refuses does not parse.
        with pytest.raises(ParseError, match="^1:1: "):
            parse(token)
        return
    sequence = parse(token)
    (built,) = sequence.instructions
    # A matched token spells what is built from it, but for the spaces it may have after its sign.
    assert render_instruction(built) == re.sub(r"^([+-])\s+", r"\1", token)
    # Its row, read from the match, is the row of the parsed program, its action as canonical text;
    # a lone aux register is ranked first, bit 0.
    ranked = (*head[:2], 0, *head[3:]) if head[1] == BANK_AUX else head
    assert sequence.compiled.rows[1] == ranked
    assert head[4] is None or head[4] == str(built.action)


# One spelling per distinct instruction: canonical, or with spaces after its sign.
spelled_pools = st.lists(instructions, min_size=1, max_size=8).flatmap(
    lambda pool: st.tuples(
        st.just(list({render_instruction(u): u for u in pool}.values())),
        st.lists(st.sampled_from(("", " ", "\t ")), min_size=len(pool), max_size=len(pool)),
    )
)
# What may follow a token: a separator, blank segments, a comment, a line break.
GAPS = ("; ", ";", " ;  ", ";;", "; ;\t;", "\n", " // ?; #x\n", ";\n\n  ", "//\n")


@st.composite
def spelled_programs(draw):
    """A sequence sharing one instruction per distinct text, and a text that spells it in any layout."""
    pool, spaces = draw(spelled_pools)
    body = draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=40))
    sequence = InstructionSequence(tuple(pool[j] for j in body))
    spelling = [
        re.sub(r"^([+-])", r"\g<1>" + space, text) if space else text
        for text, space in zip(map(render_instruction, pool), spaces)
    ]
    if draw(st.booleans()):
        return sequence, render(sequence)
    gaps = draw(st.lists(st.sampled_from(GAPS), min_size=len(body), max_size=len(body)))
    return sequence, "".join(spelling[j] + gap for j, gap in zip(body, gaps))


@PROPERTY_SETTINGS
@given(spelled_programs())
def test_the_pass_over_text_equals_the_compile_of_its_sequence(case):
    sequence, text = case
    passed, compiled = compile_text(text), sequence.compiled
    for field in ("rows", "heads", "landing", "exit_state", "states", "aux_named", "acyclic"):
        assert getattr(passed, field) == getattr(compiled, field)
    # parse builds one instruction per distinct token: the sequence's.
    parsed = parse(text)
    assert parsed == sequence
    assert len({id(u) for u in parsed.instructions}) == len({id(u) for u in sequence.instructions})
    assert parse(render(sequence)) == sequence


# The refusals test_parse_errors_carry_positions pins, each with its whole message.
PINNED_REFUSALS = (
    ("#01", "bad jump length '01'"),
    (r"\#x", "bad jump length 'x'"),
    ("+in:x.get", "bad in focus index 'x'"),
    ("aux:-1.set:t", "bad aux focus index '-1'"),
    ("-in:0.get", "input focus index must be >= 1"),
    ("a:b.get", "bad focus 'a:b'"),
    ("+aux:1.get.t", "bad method 'get.t'"),
    ("+ a?", "bad action 'a?'"),
    ("tau", "'tau' is reserved for internal steps"),
    ("+#1", "bad action '#1'"),
)


@PROPERTY_SETTINGS
@given(spelled_programs(), st.sampled_from(PINNED_REFUSALS), st.integers(0, 10**6), st.sampled_from(("", "  ", "\t")))
def test_a_malformed_token_fails_the_pass_as_it_fails_parse(case, refusal, where, pad):
    _, text = case
    token, message = refusal
    # Insert the token where a segment starts, outside any comment; it is the first malformed one.
    starts = [0] + [m.end() for m in re.finditer(r"[;\n]", text) if "//" not in text[: m.start()].rsplit("\n", 1)[-1]]
    at = starts[where % len(starts)]
    bad = text[:at] + pad + token + ";" + text[at:]
    line = bad.count("\n", 0, at) + 1
    column = at - (bad.rfind("\n", 0, at) + 1) + len(pad) + 1
    for read in (compile_text, parse):
        with pytest.raises(ParseError) as caught:
            read(bad)
        error = caught.value
        assert (str(error), error.line, error.column) == (f"{line}:{column}: {message}", line, column)


truth_tables = st.integers(0, 6).flatmap(
    lambda arity: st.lists(
        st.sampled_from((True, False, None)), min_size=2**arity, max_size=2**arity
    ).map(lambda entries: PartialBooleanFunction(arity, tuple(entries)))
)


@PROPERTY_SETTINGS
@given(truth_tables)
def test_truth_table_files_round_trip(fn):
    assert parse_truth_table(format_truth_table(fn)) == fn


def _pattern(index: int, arity: int) -> str:
    return "".join("t" if index >> bit & 1 else "f" for bit in range(arity))


_VALUE_TEXT = {True: "t", False: "f", None: "u"}


@st.composite
def table_files(draw):
    """A table and a file for it: rows in index, lexicographic or shuffled order, in any layout."""
    fn = draw(truth_tables)
    indices = list(range(2**fn.arity))
    order = draw(st.sampled_from(("index", "lexicographic", "shuffled")))
    if order == "lexicographic":
        indices.sort(key=lambda j: _pattern(j, fn.arity))
    elif order == "shuffled":
        indices = draw(st.permutations(indices))
    pad = draw(st.sampled_from(("", " ", "\t ")))
    rows = [f"{pad}{_pattern(j, fn.arity)} {pad}{_VALUE_TEXT[fn.entries[j]]}{pad}" for j in indices]
    lines = [f"k {fn.arity}"] + rows
    if draw(st.booleans()):  # a blank line before each line
        blanks = draw(st.lists(st.sampled_from(("", "  ")), min_size=len(lines), max_size=len(lines)))
        lines = [part for pair in zip(blanks, lines) for part in pair]
    newline = draw(st.sampled_from(("\n", "\r\n")))
    ending = draw(st.sampled_from((newline, "")))
    return fn, newline.join(lines) + ending


def _outcome(reader, text):
    """What a table reader makes of a file: the table, or the text and line of its ParseError."""
    try:
        return reader(text)
    except ParseError as exc:
        return str(exc), exc.line


@PROPERTY_SETTINGS
@given(table_files())
def test_the_table_reader_equals_the_line_loop(case):
    fn, text = case
    assert parse_truth_table(text) == _parse_table_lines(text) == fn


@PROPERTY_SETTINGS
@given(
    truth_tables,
    st.booleans(),
    st.sampled_from(("replace", "insert", "delete", "drop row", "repeat row")),
    st.integers(0, 10**6),
    st.sampled_from(tuple("tfuxk01 \n\r;")),
)
def test_malformed_table_files_fail_alike(fn, lexicographic, mutation, where, char):
    indices = sorted(range(2**fn.arity), key=lambda j: _pattern(j, fn.arity)[:: 1 if lexicographic else -1])
    rows = [f"{_pattern(j, fn.arity)} {_VALUE_TEXT[fn.entries[j]]}\n" for j in indices]
    at = where % len(rows)
    if mutation == "drop row":
        del rows[at]
    elif mutation == "repeat row":
        rows[at] = rows[(at + 1) % len(rows)]
    text = f"k {fn.arity}\n" + "".join(rows)
    at = where % len(text)
    if mutation == "replace":
        text = text[:at] + char + text[at + 1 :]
    elif mutation == "insert":
        text = text[:at] + char + text[at:]
    elif mutation == "delete":
        text = text[:at] + text[at + 1 :]
    assert _outcome(parse_truth_table, text) == _outcome(_parse_table_lines, text)


@PROPERTY_SETTINGS
@given(truth_tables)
def test_table_compiler_matches_its_recursive_definition(fn):
    assert compile_truth_table(fn).instructions == reference_compile_truth_table(fn)


@PROPERTY_SETTINGS
@given(truth_tables)
def test_table_text_is_canonical_and_computes_its_table(fn):
    text = truth_table_text(fn)
    program = parse(text)
    assert render(program) == text
    assert equivalence_check(program, fn).ok


def test_verify_rejects_a_huge_header_without_rows_quickly(tmp_path, capsys):
    program = tmp_path / "p.pga"
    program.write_text("!t\n", encoding="utf-8")
    table = tmp_path / "t.tt"
    table.write_text("k 40\n", encoding="utf-8")
    started = time.perf_counter()
    code = main(["verify", str(program), "--tt", str(table)])
    elapsed = time.perf_counter() - started
    assert code == 2
    assert "parse error" in capsys.readouterr().err
    assert elapsed < 1.0
