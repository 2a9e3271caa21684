"""Command-line interface: outputs, pipelines and exit codes."""

import itertools
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pglb
import pglb.cli as cli
from pglb import InfeasibleArityError, extract, parse
from pglb.cli import main
from thelpers import random_thread, reference_projection_nodes, reference_projection_refused

LOOP_PROGRAM = r"a; +b; #2; #3; c; \#4; +d; !t; !f"
EQ_PROGRAM = r"+in:1.get; #2; #4; +in:2.get; !t; !f; -in:2.get; \#3; \#3"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt_canonicalises(tmp_path, capsys):
    path = write(tmp_path, "p.pga", "a\n +b ;#2 // note\n#3;c;\\#4\n+d\n!t;!f")
    code, out, _ = run_cli(capsys, "fmt", path)
    assert code == 0
    assert out.strip() == LOOP_PROGRAM


def test_fmt_reports_parse_errors(tmp_path, capsys):
    path = write(tmp_path, "bad.pga", "a; ?")
    code, out, err = run_cli(capsys, "fmt", path)
    assert code == 2
    assert not out and "parse error" in err


def test_numbers_too_long_to_convert_are_parse_errors(tmp_path, capsys):
    long = "9" * 5000
    cases = (
        (("fmt",), f"a; #{long}\n", "1:4: jump length has more than 4300 digits"),
        (("fmt",), f"+in:{long}.get; !t; !f\n", "1:1: in focus index has more than 4300 digits"),
        (("compile", "circuit"), f"inputs {long}\ng1 = NOT x1\n", "1: input count has too many digits"),
        (("encode", "cnf"), f"p cnf {long} 1\n1 1 1 0\n", "1: variable count has too many digits"),
        (("encode", "cnf"), "p cnf 1_0 1\n1 1 1 0\n", "1: bad variable count '1_0'"),
    )
    for command, text, message in cases:
        code, out, err = run_cli(capsys, *command, write(tmp_path, "input.txt", text))
        assert (code, out, err) == (2, "", f"parse error: {message}\n")


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "fmt", "/nonexistent/file.pga")
    assert code == 2 and err


def test_an_undecodable_file_is_named(tmp_path, capsys):
    # verify reads two files: the message names the one that is not UTF-8.
    program = write(tmp_path, "p.pga", "!t")
    table = tmp_path / "t.tt"
    table.write_bytes(b"\xffk 0\nt\n")
    code, out, err = run_cli(capsys, "verify", program, "--tt", str(table))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {table}: 'utf-8' codec can't decode byte 0xff in position 0")
    # After a byte-order mark, the position is still the byte's offset in the file.
    table.write_bytes(b"\xef\xbb\xbfk 0\n\xff\n")
    code, out, err = run_cli(capsys, "verify", program, "--tt", str(table))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {table}: 'utf-8' codec can't decode byte 0xff in position 7")
    # The offset counts from the start of the file past its first 8 KiB too.
    big = tmp_path / "big.pga"
    big.write_bytes(b" " * 9000 + b"!t\xff")
    code, out, err = run_cli(capsys, "fmt", str(big))
    assert (code, out) == (2, "")
    assert err == f"error: {big}: 'utf-8' codec can't decode byte 0xff in position 9002: invalid start byte\n"


def test_a_byte_order_mark_is_not_part_of_the_text(tmp_path, capsys):
    # Each command's files go through one reader, which drops a leading UTF-8 byte-order mark and
    # turns \r\n and lone \r line ends into \n: each variant gives the result of the plain file.
    program = write(tmp_path, "p.pga", "+in:1.get; !t; !f\n")
    cases = (
        ("p.pga", "+in:1.get; !t; !f\n", ("run", "{file}", "--in", "t")),
        ("t.tt", "k 1\nf f\nt t\n", ("verify", program, "--tt", "{file}")),
        ("c.net", "inputs 1\ng1 = NOT x1\n", ("compile", "circuit", "{file}")),
        ("f.cnf", "p cnf 1 1\n1 1 1 0\n", ("encode", "cnf", "{file}")),
    )

    def run_on(name, text, argv):
        path = tmp_path / name
        path.write_bytes(text.encode())
        return run_cli(capsys, *(str(path) if arg == "{file}" else arg for arg in argv))

    for name, text, argv in cases:
        plain = run_on(name, text, argv)
        assert plain[0] == 0, name
        variants = {"bom-": "\ufeff" + text, "crlf-": text.replace("\n", "\r\n"), "cr-": text.replace("\n", "\r")}
        for prefix, variant in variants.items():
            assert run_on(prefix + name, variant, argv) == plain, prefix + name


def test_extract_prints_equations(tmp_path, capsys):
    path = write(tmp_path, "p.pga", LOOP_PROGRAM)
    code, out, _ = run_cli(capsys, "extract", path)
    assert code == 0
    assert out.splitlines() == [
        "E0 = a ∘ E1",
        "E1 = c ∘ E1 ⊴ b ⊵ (S+ ⊴ d ⊵ S-)",
    ]


def test_extract_graph_output(tmp_path, capsys):
    path = write(tmp_path, "p.pga", LOOP_PROGRAM)
    code, out, _ = run_cli(capsys, "extract", path, "--graph")
    assert code == 0
    assert out.startswith("digraph thread {")


def test_project_prints_terms(tmp_path, capsys):
    path = write(tmp_path, "p.pga", LOOP_PROGRAM)
    code, out, _ = run_cli(capsys, "project", path, "-n", "3")
    assert code == 0
    assert out.strip() == "a ∘ (c ∘ D ⊴ b ⊵ d ∘ D)"
    code, out, _ = run_cli(capsys, "project", path, "-n", "0")
    assert out.strip() == "D"


def test_run_equality_program(tmp_path, capsys):
    path = write(tmp_path, "eq12.pga", EQ_PROGRAM)
    code, out, _ = run_cli(capsys, "run", path, "--in", "tt")
    assert code == 0 and out.strip() == "t"
    code, out, _ = run_cli(capsys, "run", path, "--in", "tf")
    assert code == 0 and out.strip() == "f"


def test_run_rejects_plain_actions(tmp_path, capsys):
    path = write(tmp_path, "p.pga", LOOP_PROGRAM)
    code, out, err = run_cli(capsys, "run", path, "--in", "tt")
    assert code == 2
    assert not out and "non-service action" in err
    # The first action without a focus is named, though a later one occurs between its two copies.
    path = write(tmp_path, "q.pga", "a; +b; a")
    assert run_cli(capsys, "run", path) == (2, "", "non-service action 'a'\n")


def test_one_run_compiles_its_program_once(tmp_path, capsys, monkeypatch):
    import pglb.extraction as extraction
    import pglb.isa as isa

    compile_text = extraction.compile_text
    compiled = []

    def counted(text):
        compiled.append(text)
        return compile_text(text)

    def uncalled(sequence):
        raise AssertionError("run compiled a sequence")

    monkeypatch.setattr(cli, "compile_text", counted)
    # A sequence compiles as its rendered text.
    monkeypatch.setattr(isa, "render", uncalled)
    path = write(tmp_path, "p.pga", "+in:1.get; +aux:1.get; !t; !f")
    for flags in ((), ("--trace",)):
        compiled.clear()
        code, out, _ = run_cli(capsys, "run", path, "--in", "t", "--aux", "1", *flags)
        assert code == 0 and out.endswith("t\n")
        assert len(compiled) == 1


def test_a_run_builds_no_instruction(tmp_path, capsys, monkeypatch):
    import pglb.isa as isa

    built = []
    for cls in (pglb.Focus, pglb.Action, pglb.Basic, pglb.PosTest, pglb.NegTest, pglb.FwdJump, pglb.BwdJump):
        check = cls.__post_init__

        def counted(self, check=check):
            built.append(type(self).__name__)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    build = isa._instruction_of
    monkeypatch.setattr(isa, "_instruction_of", lambda token: built.append("instruction") or build(token))
    path = write(tmp_path, "p.pga", "+ in:1.get // c\n#2; !f; aux:1.set:f; !t; !f")
    assert run_cli(capsys, "run", path, "--in", "t", "--aux", "1") == (0, "t\n", "")
    assert built == []
    code, out, _ = run_cli(capsys, "run", path, "--in", "t", "--aux", "1", "--trace")
    # The trace records are read from the rows: canonical text, and still no instruction.
    assert code == 0 and out.splitlines()[0] == "[1] +in:1.get: in:1.get -> t"
    assert built == []
    # The generators and fmt write text: no instruction either.
    table = write(tmp_path, "t.tt", "k 2\nff f\nft t\ntf t\ntt u\n")
    netlist = write(tmp_path, "c.net", "inputs 2\ng1 = NOT x1\ng2 = AND g1 x2\ng3 = OR g2 x1\n")
    for argv in (["compile", "tt", table], ["compile", "circuit", netlist], ["gen", "3sat", "-k", "2"], ["fmt", path]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out, argv
    assert built == []
    # extract and project build the thread's actions from the rows, one per distinct action row, and no instruction.
    shared = write(tmp_path, "shared.pga", "+in:1.get; -in:1.get; +in:1.get; x.flip; !t; a; !f")
    for file, action_rows in ((path, 2), (shared, 4)):
        for argv in (["extract", file], ["extract", "--graph", file], ["project", "-n", "3", file]):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and out, argv
            assert built.count("Action") == action_rows and set(built) <= {"Action", "Focus"}, argv
            built.clear()
    # What reads instructions builds them, once per distinct token.
    assert len(parse(Path(path).read_text()).instructions) == 6
    assert built.count("instruction") == 5 and built.count("Action") == 2


def test_run_rejects_bad_input_vector(tmp_path, capsys):
    path = write(tmp_path, "eq12.pga", EQ_PROGRAM)
    code, _, err = run_cli(capsys, "run", path, "--in", "tx")
    assert code == 2 and "t/f" in err


def test_run_trace_prints_steps(tmp_path, capsys):
    path = write(tmp_path, "t.pga", "+in:1.get; !t; !f")
    code, out, _ = run_cli(capsys, "run", path, "--in", "f", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "f"
    assert any("in:1.get" in line for line in lines[:-1])


def test_compile_tt_and_verify_round_trip(tmp_path, capsys):
    table = "k 2\nff f\nft t\ntf t\ntt f\n"  # exclusive or
    table_path = write(tmp_path, "xor.tt", table)
    code, out, _ = run_cli(capsys, "compile", "tt", table_path)
    assert code == 0
    program_path = write(tmp_path, "xor.pga", out)
    code, out, _ = run_cli(capsys, "verify", program_path, "--tt", table_path)
    assert code == 0 and "equivalent" in out


def test_verify_detects_mismatch(tmp_path, capsys):
    table_path = write(tmp_path, "c.tt", "k 0\nf\n")
    program_path = write(tmp_path, "t.pga", "!t")
    code, out, _ = run_cli(capsys, "verify", program_path, "--tt", table_path)
    assert code == 1
    assert "mismatch" in out and "got t, expected f" in out


def test_verify_compiled_tables_sampled(tmp_path, capsys):
    rng = random.Random(61)
    cases = [(0, entries) for entries in itertools.product("tfu", repeat=1)]
    cases += [(1, entries) for entries in itertools.product("tfu", repeat=2)]
    cases += [(3, tuple(rng.choice("tfu") for _ in range(8))) for _ in range(6)]
    for arity, entries in cases:
        rows = []
        for index, value in enumerate(entries):
            pattern = "".join("t" if index >> i & 1 else "f" for i in range(arity))
            rows.append(f"{pattern} {value}".strip())
        table_path = write(tmp_path, "case.tt", f"k {arity}\n" + "\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "compile", "tt", table_path)
        assert code == 0
        program_path = write(tmp_path, "case.pga", out)
        code, _, _ = run_cli(capsys, "verify", program_path, "--tt", table_path)
        assert code == 0


def test_compile_circuit_pipeline(tmp_path, capsys):
    netlist_path = write(tmp_path, "c.net", "inputs 2\ng1 = NOT x1\ng2 = AND g1 x2\n")
    code, out, _ = run_cli(capsys, "compile", "circuit", netlist_path)
    assert code == 0
    program_path = write(tmp_path, "c.pga", out)
    # not(x1) and x2: truth table rows over (x1, x2)
    table_path = write(tmp_path, "c.tt", "k 2\nff f\nft t\ntf f\ntt f\n")
    code, _, _ = run_cli(capsys, "verify", program_path, "--tt", table_path, "--aux", "2")
    assert code == 0


def test_gen_3sat_instruction_count(capsys):
    code, out, _ = run_cli(capsys, "gen", "3sat", "-k", "1")
    assert code == 0
    assert len(out.strip().split("; ")) == 78


def test_gen_3sat_rejects_zero(capsys):
    code, _, _ = run_cli(capsys, "gen", "3sat", "-k", "0")
    assert code == 2


def test_encode_cnf(tmp_path, capsys):
    path = write(tmp_path, "f.cnf", "p cnf 1 1\n1 1 1 0\n")
    code, out, _ = run_cli(capsys, "encode", "cnf", path)
    assert code == 0
    assert out.strip() == "tfffffff"


def test_encode_then_run_generator(tmp_path, capsys):
    cnf_path = write(tmp_path, "f.cnf", "p cnf 1 2\n1 1 1 0\n-1 -1 -1 0\n")
    code, encoding, _ = run_cli(capsys, "encode", "cnf", cnf_path)
    assert code == 0
    code, program, _ = run_cli(capsys, "gen", "3sat", "-k", "1")
    program_path = write(tmp_path, "sat.pga", program)
    code, out, _ = run_cli(capsys, "run", program_path, "--in", encoding.strip(), "--aux", "1")
    assert code == 0 and out.strip() == "f"


def test_lengths_table(capsys):
    code, out, _ = run_cli(capsys, "lengths", "--max-k", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split("\t") == ["k", "loop-free", "with-backward-jumps"]
    assert lines[1].split("\t") == ["1", str(3 * 2**8 - 2), "78"]
    assert lines[2].split("\t") == ["2", str(3 * 2**64 - 2), str(72 * 8 + 10 + 1)]


def test_lengths_rejects_a_max_k_whose_lengths_cannot_be_printed(capsys):
    code, out, err = run_cli(capsys, "lengths", "--max-k", "13")
    assert code == 2
    assert out == ""
    assert "--max-k" in err
    code, out, _ = run_cli(capsys, "lengths", "--max-k", "12")
    assert code == 0
    assert len(out.splitlines()) == 13


def test_a_huge_table_header_is_a_parse_error(tmp_path, capsys):
    table_path = write(tmp_path, "big.tt", "k 100000\n")
    program_path = write(tmp_path, "p.pga", "+in:1.get; !t; !f\n")
    for argv in (("compile", "tt", table_path), ("verify", program_path, "--tt", table_path)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "table needs 2^100000 rows, found 0" in err
    for header, message in ((f"k {'1' * 5000}", "arity has too many digits"), ("k ²", "first line must be")):
        code, out, err = run_cli(capsys, "compile", "tt", write(tmp_path, "bad.tt", header + "\n"))
        assert (code, out) == (2, "")
        assert f"parse error: 1: {message}" in err


def test_a_header_is_matched_by_its_exact_keyword(tmp_path, capsys):
    cases = (
        (("compile", "tt"), "kx 1\nf t\nt f\n", "1: first line must be 'k <arity>'"),
        (("compile", "circuit"), "inputsfoo 1\ng1 = NOT x1\n", "1: first line must be 'inputs <k>'"),
        (("encode", "cnf"), "pfoo cnf 1 1\n1 1 1 0\n", "1: missing 'p cnf' header"),
    )
    for command, text, message in cases:
        code, out, err = run_cli(capsys, *command, write(tmp_path, "input.txt", text))
        assert (code, out) == (2, "")
        assert f"parse error: {message}" in err


def test_data_file_errors_name_the_physical_line(tmp_path, capsys):
    program_path = write(tmp_path, "p.pga", "+in:1.get; !t; !f\n")
    cases = (
        (("verify", program_path, "--tt"), "k 1\n\n\nf t\nx f\n", "5: pattern must be 1 characters over t/f"),
        (("compile", "tt"), "\n\nk ²\nf t\n", "3: first line must be 'k <arity>'"),
        (("compile", "tt"), "\n  \nk 1\nf t\nf f\n", "5: duplicate row 'f'"),
        (("compile", "circuit"), "inputs 1\n\ng1 = NOT x1\n\ng3 = NOT g1\n", "5: expected 'g2 = OP <operands>'"),
        (("compile", "circuit"), "\n\ninputs x\n", "3: first line must be 'inputs <k>'"),
        (("compile", "circuit"), "\ninputs 1\n\ng1 = NOT y1\n", "4: operand must be x<j> or g<j>, got 'y1'"),
        (("compile", "circuit"), "inputs 1\ng1 = NOT x1\ng2 = AND g1 g3\n", "3: gate 2 references gate 3 (forward"),
        (("compile", "circuit"), "inputs 1\n\ng1 = NOT x0\n", "3: gate 1 reads input 0"),
        (("compile", "circuit"), "inputs 1\ng1 = NOT x1\ng2 = OR g1 x2\n", "3: gate 2 reads input 2"),
        # Only \n ends a line; a form feed or vertical tab is whitespace within one.
        (("verify", program_path, "--tt"), "k 1\n\vf t\nx f\n", "3: pattern must be 1 characters over t/f"),
        (("compile", "circuit"), "inputs 1\ng1 = NOT\fx1\ng3 = NOT g1\n", "3: expected 'g2 = OP <operands>'"),
        (("encode", "cnf"), "p cnf 1 1\n\np cnf 1 1\n1 1 1 0\n", "3: duplicate header"),
        (("encode", "cnf"), "c one\np cnf 1\n1 1 1 0\n", "2: header must be 'p cnf <vars> <clauses>'"),
        (("encode", "cnf"), "p cnf 1 1\n1 1 1\n", "unterminated clause (missing 0)"),
        # A CNF file is read once, in order: a later header hides no earlier error.
        (("encode", "cnf"), "p cnf 1 1\n1 x 1 0\np cnf 1 1\n", "2: bad literal 'x'"),
        (("encode", "cnf"), "p cnf 1 2\n1 1 1 0\n1 1 9 0\np cnf 1 2\n", "3: variable index exceeds declared count 1"),
        (("encode", "cnf"), "1 1 1 0\np cnf 1 1\n", "1: missing 'p cnf' header"),
    )
    for command, text, message in cases:
        code, out, err = run_cli(capsys, *command, write(tmp_path, "input.txt", text))
        assert (code, out) == (2, "")
        assert f"parse error: {message}" in err


# Oversized numeric arguments, one row per (argv, file text, exit code, stdout). "{file}" is a
# file holding the text, "{program}" a small program and "{table}" a small table. Each must end
# in exit 0, 2 or 3, never 4; a refusal prints nothing to stdout.
AUX_READER = "+in:1.get; +aux:1.get; !t; !f\n"
AUX_WRITER = "aux:1.set:f; +in:1.get; !t; !f\n"
AUX_AT = "+aux:{0}.set:f; +aux:{0}.get; !t; !f\n"  # sets aux register {0} to f and reads it back
BIG_INDEX = "1" + "0" * 10
OVERSIZED = [
    pytest.param(["gen", "3sat", "-k", "20"], None, 3, "", id="gen-k20"),  # 576,101 instructions
    pytest.param(["gen", "3sat", "-k", "64"], None, 3, "", id="gen-k64"),
    pytest.param(["gen", "3sat", "-k", "1" + "0" * 40], None, 3, "", id="gen-k1e40"),
    pytest.param(["gen", "3sat", "-k", "9" * 5000], None, 2, "", id="gen-k-5000-digits"),
    pytest.param(["encode", "cnf", "{file}"], "p cnf 20 1\n1 2 3 0\n", 3, "", id="encode-k20"),
    pytest.param(["encode", "cnf", "{file}"], "p cnf 100000 1\n1 2 3 0\n", 3, "", id="encode-k100000"),
    pytest.param(["encode", "cnf", "{file}"], f"p cnf {'9' * 30} 1\n1 2 3 0\n", 3, "", id="encode-k-30-digits"),
    pytest.param(["encode", "cnf", "{file}"], f"p cnf {'9' * 5000} 1\n", 2, "", id="encode-k-5000-digits"),
    pytest.param(["lengths", "--max-k", "13"], None, 2, "", id="lengths-13"),
    pytest.param(["lengths", "--max-k", "1" + "0" * 30], None, 2, "", id="lengths-1e30"),
    pytest.param(["compile", "tt", "{file}"], "k 99\n", 2, "", id="compile-tt-k99"),
    pytest.param(["verify", "{program}", "--tt", "{file}"], f"k {'9' * 40}\n", 2, "", id="verify-k-40-digits"),
    # --aux holds only the aux registers the program names.
    pytest.param(["run", "{file}", "--in", "t", "--aux", "1" + "0" * 20], AUX_READER, 0, "t\n", id="run-aux1e20"),
    pytest.param(["run", "{file}", "--in", "t", "--aux", "1" + "0" * 9], AUX_READER, 0, "t\n", id="run-aux1e9"),
    # verify's one pass holds a mask for each aux register the program names; a backward jump
    # sends it to one walk per input, which packs only those registers.
    pytest.param(["verify", "{file}", "--tt", "{table}", "--aux", "1" + "0" * 20], AUX_WRITER, 0,
                 "equivalent on all 2 inputs\n", id="verify-aux1e20"),
    pytest.param(["verify", "{file}", "--tt", "{table}", "--aux", "1" + "0" * 20], AUX_WRITER + "\\#1\n", 0,
                 "equivalent on all 2 inputs\n", id="verify-aux1e20-walked"),
    # A large aux index costs no more than a small one: registers are numbered by rank.
    pytest.param(["run", "{file}", "--aux", BIG_INDEX], AUX_AT.format(BIG_INDEX), 0, "f\n", id="run-aux-index1e10"),
    pytest.param(["run", "{file}", "--aux", "1" + "0" * 28], AUX_AT.format("1" + "0" * 28), 0, "f\n",
                 id="run-aux-index-29-digits"),
    pytest.param(["verify", "{file}", "--tt", "{table}", "--aux", BIG_INDEX],
                 AUX_WRITER.replace("aux:1", f"aux:{BIG_INDEX}"), 0, "equivalent on all 2 inputs\n",
                 id="verify-aux-index1e10"),
    pytest.param(["project", "{file}", "-n", "100000000"], "a; \\#1\n", 3, "", id="project-n1e8"),
]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv, text, expected, stdout", OVERSIZED)
def test_oversized_numeric_arguments_are_refused_quickly(tmp_path, argv, text, expected, stdout):
    # A separate process with 1 GiB of address space and a timeout: a missing guard fails the
    # test instead of taking the machine's memory.
    files = {
        "{file}": write(tmp_path, "input", text or ""),
        "{program}": write(tmp_path, "p.pga", "!t\n"),
        "{table}": write(tmp_path, "t.tt", "k 1\nf f\nt t\n"),
    }
    env = dict(os.environ, PYTHONPATH=str(Path(pglb.__file__).parents[1]))
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pglb.cli", *(files.get(arg, arg) for arg in argv)],
        capture_output=True, text=True, env=env, timeout=20, preexec_fn=_limit_memory,
    )
    assert (done.returncode, done.stdout) == (expected, stdout), done.stderr
    assert time.perf_counter() - started < 5.0


def test_digit_limits_follow_the_interpreter(tmp_path):
    # Under a lower limit than the default, program numbers and lengths are refused at that limit.
    env = dict(os.environ, PYTHONPATH=str(Path(pglb.__file__).parents[1]), PYTHONINTMAXSTRDIGITS="640")

    def pglb_cli(*argv):
        return subprocess.run([sys.executable, "-m", "pglb.cli", *argv], capture_output=True, text=True, env=env,
                              timeout=20)

    done = pglb_cli("fmt", write(tmp_path, "long.pga", "a; #" + "9" * 1000 + "\n"))
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "parse error: 1:4: jump length has more than 640 digits\n"
    )
    done = pglb_cli("lengths", "--max-k", "7")
    assert (done.returncode, done.stdout) == (2, "")
    assert "--max-k" in done.stderr
    done = pglb_cli("lengths", "--max-k", "6")
    assert done.returncode == 0 and len(done.stdout.splitlines()) == 7


def test_outputs_are_deterministic(tmp_path, capsys):
    path = write(tmp_path, "p.pga", LOOP_PROGRAM)
    first = run_cli(capsys, "extract", path)
    second = run_cli(capsys, "extract", path)
    assert first == second


def test_resource_guard_maps_to_exit_three(tmp_path, capsys, monkeypatch):
    from pglb import InfeasibleArityError
    import pglb.cli as cli

    def refuse(_text):
        raise InfeasibleArityError("table too large to materialise")

    monkeypatch.setattr(cli, "parse_truth_table", refuse)
    path = write(tmp_path, "big.tt", "k 0\nt\n")
    code, out, err = run_cli(capsys, "compile", "tt", path)
    assert code == 3
    assert not out and "resource guard" in err


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["bogus-command"]) == 2
    capsys.readouterr()


def test_project_deep_loop_does_not_recurse(tmp_path, capsys):
    path = write(tmp_path, "loop.pga", r"a; \#1")
    code, out, _ = run_cli(capsys, "project", path, "-n", "3000")
    assert code == 0
    assert out.strip() == "a ∘ " * 3000 + "D"


def test_a_deep_projection_of_a_loop_is_refused_at_once(tmp_path, capsys):
    # Levels that repeat from the first with period 1 and 2, and from the third with period 4.
    for program in ("a; \\#1", "a; b; \\#2", "x; y; a; b; c; d; \\#4"):
        path = write(tmp_path, "loop.pga", program)
        started = time.perf_counter()
        code, out, _ = run_cli(capsys, "project", path, "-n", str(10**15))
        assert time.perf_counter() - started < 0.05, program
        assert (code, out) == (3, ""), program
    for program in ("a; \\#1", "a; b; \\#2"):
        # -n 499999 makes exactly DEFAULT_STATE_CAP nodes: the root and one per level.
        loop = extract(parse(program))
        cli._check_projection_size(loop, 499_999)
        with pytest.raises(InfeasibleArityError):
            cli._check_projection_size(loop, 500_000)


def test_the_projection_check_refuses_as_its_level_by_level_count(monkeypatch):
    rng = random.Random(41)
    for cap in (cli.DEFAULT_STATE_CAP, 1, 7, 60, 1000):
        monkeypatch.setattr(cli, "DEFAULT_STATE_CAP", cap)
        for _ in range(300):
            thread = random_thread(rng)
            depth = rng.randint(0, 60)
            try:
                cli._check_projection_size(thread, depth)
                refused = False
            except InfeasibleArityError:
                refused = True
            assert refused == reference_projection_refused(thread, depth, cap), (thread, depth, cap)


def test_the_projection_check_counts_repeating_levels_exactly(monkeypatch):
    # Depths far past the states: levels on a cycle are counted one by one, and a cap at or below
    # the depth is refused by the cycle rule alone.
    rng = random.Random(43)
    for _ in range(400):
        thread = random_thread(rng, max_states=7)
        depth = rng.randint(0, 300)
        nodes = reference_projection_nodes(thread, depth)
        monkeypatch.setattr(cli, "DEFAULT_STATE_CAP", nodes)
        cli._check_projection_size(thread, depth)
        monkeypatch.setattr(cli, "DEFAULT_STATE_CAP", nodes - 1)
        with pytest.raises(InfeasibleArityError):
            cli._check_projection_size(thread, depth)


def test_run_state_cap_maps_to_exit_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("pglb.interaction.DEFAULT_STATE_CAP", 50)
    # Counts aux:1..aux:6 down through all 64 assignments before replying f.
    path = write(tmp_path, "count.pga", "\n".join(
        f"-aux:{i}.get; #3; aux:{i}.set:f; #{3 if i == 6 else 5}; aux:{i}.set:t" for i in range(1, 7)
    ) + "\n!f\n\\#31\n")
    code, out, _ = run_cli(capsys, "run", path, "--aux", "6")
    assert code == 3 and not out
    code, _, err = run_cli(capsys, "run", path, "--aux", "6", "--trace")
    assert code == 3 and "resource guard" in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "run", path, "--aux", "6")
    assert code == 0 and out.strip() == "f"


def test_run_trace_reports_the_reply_past_truncation(tmp_path, capsys):
    path = write(tmp_path, "count.pga", "\n".join(
        f"-aux:{i}.get; #3; aux:{i}.set:f; #{3 if i == 12 else 5}; aux:{i}.set:t" for i in range(1, 13)
    ) + "\n!f\n\\#61\n")
    code, out, _ = run_cli(capsys, "run", path, "--aux", "12", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10_002
    assert lines[-2] == "truncated (after 10000 steps)"
    assert lines[-1] == "f"


def test_extract_long_straight_line_program_does_not_recurse(tmp_path, capsys):
    path = write(tmp_path, "long.pga", "a; " * 3000 + "!t")
    code, out, _ = run_cli(capsys, "extract", path)
    assert code == 0
    assert out.strip() == "E0 = " + "a ∘ " * 3000 + "S+"


def test_unexpected_errors_exit_four(capsys, monkeypatch):
    import pglb.cli as cli

    def broken(_k):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "gen_3sat_text", broken)
    code, out, err = run_cli(capsys, "gen", "3sat", "-k", "1")
    assert code == cli.EXIT_INTERNAL == 4
    assert not out and err.strip() == "internal error: RuntimeError: boom"


def test_the_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    import pglb.cli as cli

    assert main(["lengths", "--max-k", "1"]) == 0

    def rebuilt():
        raise AssertionError("argparse tree rebuilt")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    path = write(tmp_path, "t.pga", "+in:1.get; !t; !f")
    code, out, _ = run_cli(capsys, "run", path, "--in", "t", "--trace")
    assert code == 0 and len(out.splitlines()) > 1
    code, out, _ = run_cli(capsys, "run", path, "--in", "t")
    assert code == 0 and out == "t\n"  # no --trace left over from the previous call
    for _ in range(2):
        assert main(["--help"]) == 0
        assert main(["run"]) == 2  # missing file argument
        assert main(["run", path, "--aux", "-1"]) == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "run", path, "--in", "f")
    assert code == 0 and out == "f\n"
