"""Seeded fuzz of every command form, in process.

Each call gets files built from whole tokens: program instructions, table
rows, netlist gates and CNF clauses, with a few malformed tokens mixed in,
weighted so that most inputs get past the parser. Every call must end in a
documented exit code (0-3) within 5 s, none may report an internal error,
and none may fall through to the bare ``error:`` of a stray ValueError.
"""

import contextlib
import io
import random
import signal

from pglb.cli import main

CALLS_PER_FORM = 125

GOOD_PROGRAM_TOKENS = (
    "in:1.get", "+in:1.get", "-in:2.get", "in:1.set:t", "in:2.set:f",
    "aux:1.set:t", "aux:1.set:f", "+aux:1.get", "-aux:2.get", "+aux:0.get",
    "#0", "#1", "#2", "#3", "\\#1", "\\#2", "\\#3", "!t", "!f",
)
BARE_PROGRAM_TOKENS = ("a", "+b", "-c", "x.get", "+p.flip")
BAD_PROGRAM_TOKENS = ("#01", "+", "in:0.get", "tau", "!x", "#-1", "a:b.get", "+in:.get", "#" + "9" * 5000)
SEPARATORS = ("; ", "; ", "; ", ";", ";\n", "\n", " // note\n", "\t;  ")
BAD_FIELDS = ("x", "tt", "-1", "01", "1_0", "", "u")


def program_text(rng, bare_rate):
    def token():
        if rng.random() < 0.02:
            return rng.choice(BAD_PROGRAM_TOKENS)
        return rng.choice(BARE_PROGRAM_TOKENS if rng.random() < bare_rate else GOOD_PROGRAM_TOKENS)

    return "".join(token() + rng.choice(SEPARATORS) for _ in range(rng.randint(1, 9)))


def table_text(rng, arity):
    rows = [
        [format(j, f"0{arity}b").translate({48: "f", 49: "t"}) if arity else "", rng.choice("tfu")]
        for j in range(2**arity)
    ]
    rng.shuffle(rows)
    if rng.random() < 0.1:
        rows.pop(rng.randrange(len(rows)))
    if rows and rng.random() < 0.1:
        rows[rng.randrange(len(rows))][rng.randrange(2)] = rng.choice(BAD_FIELDS)
    header = f"k {arity}" if rng.random() < 0.95 else rng.choice(("kx 1", "k x", "k", f"k {arity} 1"))
    return "\n".join([header, *(" ".join(row) for row in rows)]) + "\n"


def netlist_text(rng):
    inputs = rng.randint(1, 3)
    lines = [f"inputs {inputs}" if rng.random() < 0.95 else rng.choice(("inputs", "inputsfoo 1", "inputs x"))]
    for number in range(1, rng.randint(1, 6) + 1):
        op = rng.choice(("NOT", "AND", "OR"))
        operands = [
            f"g{rng.randint(1, number - 1)}" if number > 1 and rng.random() < 0.5 else f"x{rng.randint(1, inputs)}"
            for _ in range(1 if op == "NOT" else 2)
        ]
        fields = [f"g{number}", "=", op, *operands]
        if rng.random() < 0.04:
            fields[rng.randrange(len(fields))] = rng.choice(BAD_FIELDS + ("g9", "x9", "XOR"))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def cnf_text(rng):
    k = rng.randint(1, 2)
    clauses = [
        [str(rng.choice((1, -1)) * rng.randint(1, k)) for _ in range(3)] + ["0"] for _ in range(rng.randint(0, 4))
    ]
    if clauses and rng.random() < 0.08:
        clause = clauses[rng.randrange(len(clauses))]
        clause[rng.randrange(len(clause))] = rng.choice(BAD_FIELDS + ("3",))
    lines = ["c comment"] * (rng.random() < 0.2) + [f"p cnf {k} {len(clauses)}"] + [" ".join(c) for c in clauses]
    if rng.random() < 0.04:
        lines.pop(rng.randrange(len(lines)))
    return "\n".join(lines) + "\n"


def inputs(rng, arity):
    return "".join(rng.choice("tf") for _ in range(arity)) if rng.random() < 0.95 else rng.choice(("x", "t f", "tu"))


def aux_count(rng):
    return str(rng.choice((0, 1, 2, 3, 3, 10**20))) if rng.random() < 0.97 else rng.choice(("-1", "x"))


def command(rng, form, write):
    """The argv of one call of ``form``, its files written through ``write(name, text)``."""
    if form in ("fmt", "extract", "extract --graph"):
        return [*form.split(), write("p.pga", program_text(rng, 0.5))]
    if form == "project":
        depth = rng.choice((0, 1, 2, 3, 5, 8, 12, 40, 1000, 10**15, -1))
        return ["project", write("p.pga", program_text(rng, 0.5)), "-n", str(depth)]
    if form in ("run", "run --trace"):
        argv = ["run", write("p.pga", program_text(rng, 0.03)), "--in", inputs(rng, rng.randint(0, 3))]
        return argv + ["--aux", aux_count(rng)] + ["--trace"] * (form == "run --trace")
    if form == "compile tt":
        return ["compile", "tt", write("t.tt", table_text(rng, rng.randint(0, 3)))]
    if form == "compile circuit":
        return ["compile", "circuit", write("c.net", netlist_text(rng))]
    if form == "encode cnf":
        return ["encode", "cnf", write("f.cnf", cnf_text(rng))]
    if form == "verify":
        table = write("t.tt", table_text(rng, rng.randint(0, 3)))
        return ["verify", write("p.pga", program_text(rng, 0.03)), "--tt", table, "--aux", aux_count(rng)]
    if form == "gen 3sat":
        return ["gen", "3sat", "-k", rng.choice(("1", "1", "2", "2", "3", "0", "64", str(10**20), "x"))]
    assert form == "lengths"
    return ["lengths", "--max-k", str(rng.choice((1, 2, 4, 8, 12, 13, 0)))]


FORMS = (
    "fmt", "extract", "extract --graph", "project", "run", "run --trace",
    "compile tt", "compile circuit", "encode cnf", "verify", "gen 3sat", "lengths",
)


class CallTimedOut(BaseException):
    """Raised by the alarm; not an Exception, so ``main`` cannot turn it into an exit code."""


def _timed_out(signum, frame):
    raise CallTimedOut("a call ran for more than 5 s")


def test_every_command_ends_in_a_documented_exit_code(tmp_path):
    rng = random.Random(26)

    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    codes = {form: [] for form in FORMS}
    previous = signal.signal(signal.SIGALRM, _timed_out)
    try:
        for _ in range(CALLS_PER_FORM):
            for form in FORMS:
                argv = command(rng, form, write)
                out, err = io.StringIO(), io.StringIO()
                signal.alarm(5)
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv)
                finally:
                    signal.alarm(0)
                assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
                assert "internal error" not in err.getvalue(), (argv, err.getvalue())
                assert not err.getvalue().startswith("error:"), (argv, err.getvalue())
                codes[form].append(code)
    finally:
        signal.signal(signal.SIGALRM, previous)
    calls = [code for form_codes in codes.values() for code in form_codes]
    # Exit 2 is a usage or parse error; the rest got past the parser.
    assert sum(code != 2 for code in calls) >= len(calls) / 2, codes
    for form, form_codes in codes.items():
        assert set(form_codes) - {2}, form  # each form gets past the parser at least once
