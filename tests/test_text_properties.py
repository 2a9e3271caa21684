"""Properties of the text layers: program text, truth-table files and the table compiler.

``parse`` and ``render`` round-trip, parse errors point at the first
occurrence of a bad token, table files round-trip, and the table compiler
equals its recursive definition (kept in ``thelpers`` as the reference).
"""

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
    format_truth_table,
    parse,
    parse_truth_table,
    render,
)
from pglb.cli import main
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


GOOD_TOKENS = ("a", "+in:1.get", "#2", "!t", r"\#1")
BAD_TOKENS = ("?", "#x", "in:0.get", "tau")


@PROPERTY_SETTINGS
@given(
    st.lists(
        st.lists(st.sampled_from(GOOD_TOKENS + BAD_TOKENS), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from(("; ", " ;", ";", " ;  ")),
)
def test_a_bad_token_is_reported_at_its_first_position(lines, separator):
    text = "\n".join(separator.join(tokens) for tokens in lines)
    first_bad = None
    for lineno, tokens in enumerate(lines, 1):
        column = 1
        for token in tokens:
            if token in BAD_TOKENS and first_bad is None:
                first_bad = (lineno, column)
            column += len(token) + len(separator)
    if first_bad is None:
        assert len(parse(text)) == sum(map(len, lines))
        return
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert (caught.value.line, caught.value.column) == first_bad


truth_tables = st.integers(0, 6).flatmap(
    lambda arity: st.lists(
        st.sampled_from((True, False, None)), min_size=2**arity, max_size=2**arity
    ).map(lambda entries: PartialBooleanFunction(arity, tuple(entries)))
)


@PROPERTY_SETTINGS
@given(truth_tables)
def test_truth_table_files_round_trip(fn):
    assert parse_truth_table(format_truth_table(fn)) == fn


@PROPERTY_SETTINGS
@given(truth_tables)
def test_table_compiler_matches_its_recursive_definition(fn):
    assert compile_truth_table(fn).instructions == reference_compile_truth_table(fn)


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
