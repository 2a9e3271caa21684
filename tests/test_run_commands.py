"""The commands that run a program: what they print, pinned.

``run``, ``run --trace`` and ``verify`` compile a program and run it against
registers. The corpus ends a run every way the walk can end: both
terminations, a jump past the end and a jump cycle, divergence, no service
(an aux or input index past the registers, aux:0, a named focus), an unknown
method, a bare symbol (refused), a program that writes an input register, an
aux count too large to pack, and a trace cut at ``TRACE_LIMIT``. ``verify``
takes its three paths: one pass over a table program, one pass over a circuit
program that writes aux registers, and a walk per input of the k=1 decider.
The pinned SHA-256 digests below were taken of each command's exit code,
stdout and stderr at the commit before ``walk`` and ``reply_sets`` shared one
served bound (5bb5ed8), except the four no-service cases. Those were taken
again when ``run --trace`` came to name why a row is not served (the focus,
past the registers given or never served), where all four had read
``[1] no-service (no service under this focus)``.
"""

import hashlib

from pglb import PartialBooleanFunction, brute_sat, decode, eval_circuit, next_snippet, parse_netlist, render
from pglb.cli import main
from pglb.sat3 import gen_3sat_text
from pglb.synthesis import circuit_text, format_truth_table, truth_table_text

# next_snippet over aux:1..aux:12 looped back to its start: its trace is cut at TRACE_LIMIT records.
COUNTER = next_snippet(12)
NETLIST = "inputs 3\ng1 = AND x1 x2\ng2 = OR x2 x3\ng3 = NOT g1\ng4 = AND g2 g3\ng5 = OR g4 x1\n"
TABLE = PartialBooleanFunction(4, tuple((True, False, None)[j * 7 % 3] for j in range(16)))
FLIPPED = PartialBooleanFunction(4, (not TABLE.entries[0],) + TABLE.entries[1:])
SAT_1 = PartialBooleanFunction.from_callable(8, lambda bits: brute_sat(decode(bits, 1)))
CIRCUIT = parse_netlist(NETLIST)

# Program text and the arguments of run and run --trace, by name.
RUNS = {
    "terminate-t": ("!t", []),
    "terminate-f": ("+in:1.get; !t; !f", ["--in", "f"]),
    "past-the-end": ("#5", []),
    "jump-cycle": ("#1; \\#1", []),
    "divergent": ("in:1.get; \\#1", ["--in", "t"]),
    "aux-past-count": ("+aux:2.get; !t; !f", ["--aux", "1"]),
    "in-past-count": ("+in:2.get; !t; !f", ["--in", "t"]),
    "aux-0": ("+aux:0.get; !t; !f", ["--aux", "2"]),
    "named-focus": ("+x.get; !t; !f", []),
    "unknown-method": ("in:1.foo; !t", ["--in", "t"]),
    "bare-symbol": ("a; !t", []),
    "writes-input": ("-in:1.get; !t; in:1.set:f; \\#3", ["--in", "t"]),
    "aux-unpackable": ("+in:1.get; +aux:1.get; !t; !f", ["--in", "t", "--aux", "100000000000000000000"]),
    "truncated": (f"{render(COUNTER)}; \\#{len(COUNTER)}", ["--aux", "12"]),
}
# Program text, table text and the arguments of verify, by name.
VERIFIES = {
    "table": (truth_table_text(TABLE), format_truth_table(TABLE), []),
    "table-flipped": (truth_table_text(TABLE), format_truth_table(FLIPPED), []),
    "circuit": (
        circuit_text(CIRCUIT),
        format_truth_table(PartialBooleanFunction.from_callable(3, lambda bits: eval_circuit(CIRCUIT, bits))),
        ["--aux", "5"],
    ),
    "gen-3sat-1": (gen_3sat_text(1), format_truth_table(SAT_1), ["--aux", "1"]),
}

# SHA-256 of each run's two results and each verify's result, computed by result_digests (see above).
PINNED = {
    "terminate-t": "5bbe42272eabde871b5485692f12ef05be7f575ada7f4cdf62a2b55882a80cf7",
    "terminate-f": "02c0fe61c95d2d9efcbb9e3dfdc8fce12a9836924ecd54fcc8aea08375d8c7fe",
    "past-the-end": "f4b2ceb4330726f70a673551886e857d2be8b4c763553c2cf1166bf4ff824f7b",
    "jump-cycle": "720b8fe76e0c71b8b89a02f18256270f23db51102d124d334ef43261f7f10f37",
    "divergent": "9acc64fc20cb1b08fe47144d404902c3e97526c3dd67ae5568deff2280207b50",
    "aux-past-count": "12cc9481bddbc63ef400d4a651ebbf8ca9d5b139f61bace0574e281654a56cfc",
    "in-past-count": "5af32ad832d932cf4f851a47492b6679f19dcc3cc1ce3fc958bd8fb386746d0f",
    "aux-0": "58331580b5ee99be12d819f0cb08d7c1e871d01e81fb1e5eddaeefcad7aa6ff5",
    "named-focus": "87da4878fb8467e10775bd703412a7dcc1cd177a39a2c9d28a660b87e6bf5e7e",
    "unknown-method": "17920b968101bf6e2dd44036ed1e7be73764b8ecdd2a99147116391c0d0e3da8",
    "bare-symbol": "8837f0637786c67e35c4c36ba9f23676c0848e2c0a9bc812afb2e06644360529",
    "writes-input": "b5490236f38ac84d7873d79dc730ef86102b9e17b4d14eb4f3ccf335f640ccd1",
    "aux-unpackable": "75c8e89e9e65e836405e5bf8d5eb7a0efd2cc2b044cd0b49b2e035db8ec78feb",
    "truncated": "97319d97c777c237178bf953d8c8d24a69e965fcf34d02d2e4cf59613adeaa3c",
    "verify-table": "9c0fcf79663f0679c2f38f53d18e0246d32f6cf108ddb6665482892b60c4515a",
    "verify-table-flipped": "14dff5d27fce3c7593cd8689840eb386b0cb8639ce7f8b9474146d7a717730d9",
    "verify-circuit": "c8c99ede5dbe9b0b460f2d0e0745fb0bd8a8a4f3a4b596d81b603bfc005ea468",
    "verify-gen-3sat-1": "1efe92e3ddce457595b28c014e3695b3559f150c85f2406ec89f39c993a069b1",
}


def result_digests(tmp_path, capsys) -> dict[str, str]:
    """The SHA-256 of each case's (exit code, stdout, stderr) under its commands, by case name."""

    def results(*argvs):
        out = []
        for argv in argvs:
            code = main(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return hashlib.sha256(repr(out).encode()).hexdigest()

    digests = {}
    for name, (text, args) in RUNS.items():
        path = tmp_path / f"{name}.pga"
        path.write_text(text, encoding="utf-8")
        digests[name] = results(["run", str(path), *args], ["run", str(path), "--trace", *args])
    for name, (text, table, args) in VERIFIES.items():
        program, tt = tmp_path / f"{name}.pga", tmp_path / f"{name}.tt"
        program.write_text(text, encoding="utf-8")
        tt.write_text(table, encoding="utf-8")
        digests[f"verify-{name}"] = results(["verify", str(program), "--tt", str(tt), *args])
    return digests


def test_run_commands_print_what_they_printed_at_the_pinned_commit(tmp_path, capsys):
    assert result_digests(tmp_path, capsys) == PINNED
